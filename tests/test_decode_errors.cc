// Adversarial decode tests: every wire decoder must hand back a clean
// Status (or bool) on malformed input — truncated frames, hostile length
// prefixes, bit flips — and must never crash, read out of bounds, or accept
// bytes whose re-encoding it then rejects. The table covers each decode
// surface once; the fuzz harnesses (tests/fuzz/) explore the same surfaces
// with mutation, and the corpus-replay gate pins known-interesting inputs.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/codec.h"
#include "src/engine/mutation.h"
#include "src/engine/types.h"
#include "src/graph/encoding.h"
#include "src/kv/manifest.h"
#include "src/kv/write_batch.h"
#include "src/lang/plan.h"
#include "src/rpc/message.h"
#include "src/rpc/tcp_transport.h"

namespace gt {
namespace {

// One decode surface: decode() returns whether the input was accepted and
// (on acceptance) the canonical re-encoding, so the harness can check that
// accepted variants re-decode. `strict_prefix` is the largest prefix length
// below which truncation MUST be rejected (payloads with optional tails
// accept some truncations by design — that boundary is the interesting bit
// to pin down explicitly, not to hand-wave).
struct Surface {
  std::string name;
  std::string valid;
  size_t strict_prefix;  // decode(valid[0:k]) must fail for k < this
  std::function<bool(std::string_view, std::string* reencoded)> decode;
};

template <typename P>
Surface PayloadSurface(std::string name, const P& sample, size_t strict_prefix) {
  const std::string valid = sample.Encode();
  return Surface{
      std::move(name), valid, strict_prefix,
      [](std::string_view in, std::string* reencoded) {
        auto decoded = P::Decode(in);
        if (!decoded.ok()) return false;
        *reencoded = decoded->Encode();
        return true;
      }};
}

// Sample plans for the extension-tail surfaces. StripExt resets every
// versioned-tail field so Encode() yields exactly the legacy prefix bytes.
lang::TraversalPlan ExtSamplePlan() {
  lang::TraversalPlan plan;
  plan.start_ids = {1, 2};
  lang::Filter f;
  f.key = 3;
  f.op = lang::FilterOp::kRange;
  f.values = {graph::PropValue(int64_t{1}), graph::PropValue(int64_t{5})};
  lang::Hop h1;
  h1.edge_label = 4;
  h1.repeat = 3;
  lang::Hop h2;
  h2.edge_label = 5;
  h2.until_filters.push_back(f);
  plan.hops = {h1, h2};
  plan.result_mode = lang::ResultMode::kCount;
  return plan;
}

lang::TraversalPlan BranchSamplePlan() {
  lang::TraversalPlan plan;
  plan.start_ids = {9};
  lang::Hop alt_hop;
  alt_hop.edge_label = 4;
  lang::Hop alt_hop2;
  alt_hop2.edge_label = 5;
  alt_hop2.repeat = 2;
  plan.branch_alts = {{alt_hop}, {alt_hop2}};
  lang::Hop tail_hop;
  tail_hop.edge_label = 6;
  plan.branch_tail = {tail_hop};
  plan.result_mode = lang::ResultMode::kGroup;
  plan.group_key = 7;
  plan.push_start_filters = true;
  return plan;
}

void StripExt(lang::TraversalPlan* plan) {
  for (auto& h : plan->hops) {
    h.repeat = 1;
    h.until_filters.clear();
  }
  plan->result_mode = lang::ResultMode::kVertices;
  plan->group_key = 0;
  plan->push_start_filters = false;
  plan->branch_alts.clear();
  plan->branch_tail.clear();
}

std::vector<Surface> AllSurfaces() {
  std::vector<Surface> surfaces;

  // RPC frame body: header is mandatory, payload is the tail.
  {
    rpc::Message m;
    m.type = rpc::MsgType::kSubmitTraversal;
    m.src = 5;
    m.dst = 0;
    m.rpc_id = 9;
    m.payload = "payload";
    std::string wire;
    m.EncodeTo(&wire);
    const std::string body = wire.substr(4);
    surfaces.push_back(Surface{
        "message", body, rpc::kMsgHeaderBytes,
        [](std::string_view in, std::string* reencoded) {
          auto decoded = rpc::Message::DecodeBody(in);
          if (!decoded.ok()) return false;
          std::string w;
          decoded->EncodeTo(&w);
          *reencoded = w.substr(4);
          return true;
        }});
  }

  // Serialized traversal plan (the kSubmitTraversal payload's inner format).
  {
    lang::TraversalPlan plan;
    plan.start_ids = {1, 2};
    lang::Filter f;
    f.key = 3;
    f.op = lang::FilterOp::kRange;
    f.values = {graph::PropValue(int64_t{1}), graph::PropValue(int64_t{5})};
    lang::Hop hop;
    hop.edge_label = 4;
    hop.vertex_filters.push_back(f);
    hop.rtn = true;
    plan.hops.push_back(hop);
    const std::string valid = plan.Encode();
    surfaces.push_back(Surface{
        "plan", valid, valid.size(),
        [](std::string_view in, std::string* reencoded) {
          auto decoded = lang::TraversalPlan::Decode(in);
          if (!decoded.ok()) return false;
          *reencoded = decoded->Encode();
          return true;
        }});
  }

  // Extended plan (versioned ext tail): repeat + until + aggregate result
  // mode. The strict prefix stops at the legacy boundary — decoding exactly
  // the legacy bytes is the documented tail-tolerant case (covered by the
  // dedicated ext-tail tests below), any shorter prefix must fail.
  {
    lang::TraversalPlan plan = ExtSamplePlan();
    lang::TraversalPlan legacy = plan;
    StripExt(&legacy);
    surfaces.push_back(Surface{
        "plan_ext", plan.Encode(), legacy.Encode().size(),
        [](std::string_view in, std::string* reencoded) {
          auto decoded = lang::TraversalPlan::Decode(in);
          if (!decoded.ok()) return false;
          *reencoded = decoded->Encode();
          return true;
        }});
  }

  // Branch plan: alternatives + tail + group mode + planner flags, so the
  // bit-flip sweep walks every branch row and the flags byte.
  {
    lang::TraversalPlan plan = BranchSamplePlan();
    lang::TraversalPlan legacy = plan;
    StripExt(&legacy);
    surfaces.push_back(Surface{
        "plan_branch", plan.Encode(), legacy.Encode().size(),
        [](std::string_view in, std::string* reencoded) {
          auto decoded = lang::TraversalPlan::Decode(in);
          if (!decoded.ok()) return false;
          *reencoded = decoded->Encode();
          return true;
        }});
  }

  // Engine payloads. Tail-tolerant ones (Submit / Complete / Abort read a
  // legacy-optional tail) get a strict prefix that stops before the tail.
  {
    engine::SubmitPayload submit;
    submit.mode = 1;
    submit.timeout_ms = 100;
    submit.plan = "plan-bytes";
    submit.priority_class = 1;
    submit.deadline_ms = 50;
    // Strict part: mode + timeout + plan; priority/deadline tail optional.
    std::string strict_part;
    strict_part.push_back(static_cast<char>(submit.mode));
    PutVarint32(&strict_part, submit.timeout_ms);
    PutLengthPrefixed(&strict_part, submit.plan);
    surfaces.push_back(PayloadSurface("submit", submit, strict_part.size()));
  }
  {
    engine::TraversePayload traverse;
    traverse.travel_id = 7;
    traverse.step = 1;
    traverse.mode = 1;
    std::string plan = "abcdef";
    traverse.plan = plan;
    traverse.entries = {{10, {1}}, {11, {}}};
    surfaces.push_back(
        PayloadSurface("traverse", traverse, traverse.Encode().size()));
  }
  {
    engine::AnswerPayload answer;
    answer.travel_id = 7;
    answer.reached_parents = {1, 2};
    answer.result_vids = {10};
    surfaces.push_back(PayloadSurface("answer", answer, answer.Encode().size()));
  }
  {
    // Result-mode tail: group values (parallel to result_vids) + path
    // chains. Strict up to the legacy boundary; the tail itself is
    // all-or-nothing (see ResultTailTruncationIsRejected).
    engine::AnswerPayload answer;
    answer.travel_id = 7;
    answer.exec_id = 3;
    answer.result_vids = {10, 11};
    engine::AnswerPayload legacy = answer;
    answer.result_values = {"va", "vb"};
    answer.result_paths = {{1, 2, 10}, {4, 11}};
    surfaces.push_back(PayloadSurface("answer_ext", answer, legacy.Encode().size()));
  }
  {
    engine::ExecEventPayload event;
    event.travel_id = 7;
    event.step = 2;
    event.exec_ids = {5, 6};
    surfaces.push_back(PayloadSurface("exec_event", event, event.Encode().size()));
  }
  {
    engine::TraceBatchPayload trace;
    trace.travel_id = 7;
    trace.items = {{1, 0, 1}, {2, 1, 0}};
    surfaces.push_back(PayloadSurface("trace_batch", trace, trace.Encode().size()));
  }
  {
    engine::ResultChunkPayload chunk;
    chunk.travel_id = 7;
    chunk.vids = {1, 2, 3};
    surfaces.push_back(PayloadSurface("result_chunk", chunk, chunk.Encode().size()));
  }
  {
    engine::ResultChunkPayload chunk;
    chunk.travel_id = 7;
    engine::ResultChunkPayload legacy = chunk;
    chunk.groups = {{"bucket-a", 2}, {"", 5}};
    chunk.paths = {{1, 2}, {3}};
    surfaces.push_back(
        PayloadSurface("result_chunk_ext", chunk, legacy.Encode().size()));
  }
  {
    engine::CompletePayload complete;
    complete.travel_id = 7;
    complete.ok = 0;
    complete.error = "boom";
    complete.total_results = 3;
    complete.code = 2;
    engine::CompletePayload tailless = complete;
    tailless.code = 0;
    surfaces.push_back(
        PayloadSurface("complete", complete, tailless.Encode().size() - 1));
  }
  {
    engine::AbortPayload abort_p;
    abort_p.travel_id = 7;
    abort_p.reason = engine::AbortPayload::kCancel;
    // travel_id is mandatory; the reason byte is the optional tail.
    std::string travel_only;
    PutVarint64(&travel_only, abort_p.travel_id);
    surfaces.push_back(
        PayloadSurface("abort", abort_p, travel_only.size()));
  }
  {
    engine::ProgressPayload progress;
    progress.travel_id = 7;
    progress.unfinished_per_step = {3, 1};
    progress.total_created = 9;
    progress.total_terminated = 5;
    surfaces.push_back(
        PayloadSurface("progress", progress, progress.Encode().size()));
  }
  {
    engine::SyncStepPayload step;
    step.travel_id = 7;
    step.step = 1;
    step.plan = "plan";
    step.batches_sent = {2, 0};
    step.result_vids = {4};
    surfaces.push_back(PayloadSurface("sync_step", step, step.Encode().size()));
  }
  {
    engine::SyncStepPayload step;
    step.travel_id = 7;
    step.step = 2;
    step.result_vids = {4};
    engine::SyncStepPayload legacy = step;
    step.result_values = {"gv"};
    step.result_paths = {{1, 4}};
    surfaces.push_back(
        PayloadSurface("sync_step_ext", step, legacy.Encode().size()));
  }
  {
    engine::SyncBatchPayload batch;
    batch.travel_id = 7;
    batch.step = 1;
    batch.entries = {{10, {1, 2}}};
    surfaces.push_back(PayloadSurface("sync_batch", batch, batch.Encode().size()));
  }
  {
    engine::PutVertexPayload put_v;
    put_v.vid = 3;
    put_v.label = "file";
    put_v.props = {{"size", graph::PropValue(int64_t{1})}};
    surfaces.push_back(PayloadSurface("put_vertex", put_v, put_v.Encode().size()));
  }
  {
    engine::PutEdgePayload put_e;
    put_e.src = 3;
    put_e.label = "contains";
    put_e.dst = 4;
    surfaces.push_back(PayloadSurface("put_edge", put_e, put_e.Encode().size()));
  }
  {
    engine::MutateAckPayload ack;
    ack.ok = 0;
    ack.error = "nope";
    surfaces.push_back(PayloadSurface("mutate_ack", ack, ack.Encode().size()));
  }
  {
    engine::GetVertexPayload get_v;
    get_v.vid = 3;
    surfaces.push_back(PayloadSurface("get_vertex", get_v, get_v.Encode().size()));
  }
  {
    engine::VertexReplyPayload reply;
    reply.found = 1;
    reply.vid = 3;
    reply.label = "file";
    reply.props = {{"size", graph::PropValue(int64_t{1})}};
    surfaces.push_back(PayloadSurface("vertex_reply", reply, reply.Encode().size()));
  }
  {
    engine::CatalogInternPayload intern;
    intern.name = "contains";
    surfaces.push_back(PayloadSurface("catalog_intern", intern, intern.Encode().size()));
  }
  {
    engine::CatalogReplyPayload cat;
    cat.id = 2;
    cat.names = {"a", "b", "c"};
    surfaces.push_back(PayloadSurface("catalog_reply", cat, cat.Encode().size()));
  }

  // MANIFEST version edit.
  {
    kv::VersionEdit edit;
    edit.added_tables = {3};
    edit.removed_tables = {1, 2};
    edit.next_file_id = 4;
    edit.last_sequence = 10;
    std::string valid;
    edit.EncodeTo(&valid);
    // Tag-based format: truncation at any tag boundary is a legal (shorter)
    // edit, so only the leading format-version byte is strictly required.
    surfaces.push_back(Surface{
        "version_edit", valid, 1,
        [](std::string_view in, std::string* reencoded) {
          kv::VersionEdit e;
          if (!kv::VersionEdit::DecodeFrom(kv::Slice(in.data(), in.size()), &e).ok()) {
            return false;
          }
          e.EncodeTo(reencoded);
          return true;
        }});
  }

  // WriteBatch rep (the WAL payload).
  {
    kv::WriteBatch batch;
    batch.SetSequence(5);
    batch.Put("key-a", "value-a");
    batch.Delete("key-b");
    surfaces.push_back(Surface{
        "write_batch", batch.rep(), batch.rep().size(),
        [](std::string_view in, std::string* reencoded) {
          auto decoded = kv::WriteBatch::FromRep(kv::Slice(in.data(), in.size()));
          if (!decoded.ok()) return false;
          *reencoded = decoded->rep();
          return true;
        }});
  }

  // Graph storage values.
  {
    graph::PropMap props;
    props.Set(1, graph::PropValue(int64_t{9}));
    props.Set(2, graph::PropValue(std::string("xyz")));
    const std::string valid = graph::EncodeVertexValue(4, props);
    surfaces.push_back(Surface{
        "vertex_value", valid, valid.size(),
        [](std::string_view in, std::string* reencoded) {
          graph::LabelId label = 0;
          graph::PropMap decoded;
          if (!graph::DecodeVertexValue(in, &label, &decoded)) return false;
          *reencoded = graph::EncodeVertexValue(label, decoded);
          return true;
        }});
  }

  return surfaces;
}

class DecodeErrorsTest : public ::testing::Test {};

TEST(DecodeErrorsTest, ValidInputsDecodeAndRoundTrip) {
  for (const Surface& s : AllSurfaces()) {
    SCOPED_TRACE(s.name);
    std::string reencoded;
    ASSERT_TRUE(s.decode(s.valid, &reencoded));
    // Canonical encodings round-trip bit-for-bit.
    EXPECT_EQ(reencoded, s.valid);
  }
}

TEST(DecodeErrorsTest, EveryTruncationIsRejectedOrTailTolerant) {
  for (const Surface& s : AllSurfaces()) {
    for (size_t k = 0; k < s.valid.size(); k++) {
      SCOPED_TRACE(s.name + " truncated to " + std::to_string(k) + "/" +
                   std::to_string(s.valid.size()) + " bytes");
      std::string reencoded;
      const bool ok = s.decode(std::string_view(s.valid).substr(0, k), &reencoded);
      if (k < s.strict_prefix) {
        // Below the strict prefix the decoder must reject — accepting here
        // means a length/field was never validated.
        EXPECT_FALSE(ok);
      } else if (ok) {
        // Tail-tolerant acceptance is fine, but what was accepted must
        // itself re-decode (no half-read state escapes the decoder).
        std::string again;
        EXPECT_TRUE(s.decode(reencoded, &again));
      }
    }
  }
}

TEST(DecodeErrorsTest, SingleBitFlipsNeverCrashAndAcceptedFlipsRoundTrip) {
  for (const Surface& s : AllSurfaces()) {
    for (size_t i = 0; i < s.valid.size(); i++) {
      for (uint8_t mask : {0x01, 0x80}) {
        std::string flipped = s.valid;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        SCOPED_TRACE(s.name + " bit-flip at byte " + std::to_string(i));
        std::string reencoded;
        if (s.decode(flipped, &reencoded)) {
          std::string again;
          EXPECT_TRUE(s.decode(reencoded, &again));
        }
      }
    }
  }
}

TEST(DecodeErrorsTest, HostileCountPrefixesFailWithoutAllocating) {
  // A count prefix promising ~4 billion elements backed by zero bytes must
  // be rejected up front (CheckedReader::GetCount), not discovered after a
  // multi-gigabyte reserve. These run under ASan in the sanitizer legs, so
  // an attempted giant allocation would abort the test.
  std::string hostile_count;
  PutVarint32(&hostile_count, 0xfffffff0u);

  {  // result chunk: varint travel_id | count | vids
    std::string in;
    PutVarint64(&in, 7);
    in += hostile_count;
    EXPECT_FALSE(engine::ResultChunkPayload::Decode(in).ok());
  }
  {  // traversal plan: count of start ids first
    EXPECT_FALSE(lang::TraversalPlan::Decode(hostile_count).ok());
  }
  {  // catalog reply: id | count | names
    std::string in;
    PutVarint32(&in, 1);
    in += hostile_count;
    EXPECT_FALSE(engine::CatalogReplyPayload::Decode(in).ok());
  }
  {  // frontier entries: travel | step | mode | scan_start | plan | count
    engine::TraversePayload traverse;
    traverse.travel_id = 1;
    std::string plan = "p";
    traverse.plan = plan;
    std::string in = traverse.Encode();
    // Rewrite the (empty) entry count at the end with the hostile one.
    in.pop_back();
    in += hostile_count;
    EXPECT_FALSE(engine::TraversePayload::Decode(in).ok());
  }
  {  // prop map: count | entries
    std::string in = hostile_count;
    graph::PropMap props;
    CheckedReader dec(in);
    EXPECT_FALSE(graph::PropMap::DecodeFrom(&dec, &props));
  }
}

// The new result-mode / plan-extension tails are all-or-nothing: absent
// means legacy defaults, but once the first tail byte is present the whole
// tail must parse. The generic truncation sweep only checks acceptance
// re-decodes; these pin the rejection side explicitly for every new field.
TEST(DecodeErrorsTest, ExtTailTruncationIsRejected) {
  const std::set<std::string> ext_surfaces = {
      "plan_ext", "plan_branch", "answer_ext", "result_chunk_ext", "sync_step_ext"};
  size_t seen = 0;
  for (const Surface& s : AllSurfaces()) {
    if (ext_surfaces.count(s.name) == 0) continue;
    seen++;
    SCOPED_TRACE(s.name);
    std::string reencoded;
    // Exactly the legacy prefix: tail-tolerant accept.
    EXPECT_TRUE(s.decode(std::string_view(s.valid).substr(0, s.strict_prefix),
                         &reencoded));
    // Any nonempty partial tail: hard error.
    for (size_t k = s.strict_prefix + 1; k < s.valid.size(); k++) {
      SCOPED_TRACE("tail truncated to " + std::to_string(k) + "/" +
                   std::to_string(s.valid.size()) + " bytes");
      EXPECT_FALSE(s.decode(std::string_view(s.valid).substr(0, k), &reencoded));
    }
  }
  EXPECT_EQ(seen, ext_surfaces.size());
}

TEST(DecodeErrorsTest, ExtPlanAbsentTailDecodesAsLegacy) {
  const lang::TraversalPlan plan = ExtSamplePlan();
  lang::TraversalPlan legacy = plan;
  StripExt(&legacy);
  const std::string valid = plan.Encode();
  const std::string legacy_bytes = legacy.Encode();
  // The ext encoding is the legacy encoding plus a pure suffix.
  ASSERT_LT(legacy_bytes.size(), valid.size());
  ASSERT_EQ(valid.compare(0, legacy_bytes.size(), legacy_bytes), 0);

  auto decoded = lang::TraversalPlan::Decode(legacy_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->has_ext());
  EXPECT_EQ(decoded->result_mode, lang::ResultMode::kVertices);
  EXPECT_EQ(decoded->hops[0].repeat, 1u);
  EXPECT_TRUE(decoded->hops[1].until_filters.empty());
}

TEST(DecodeErrorsTest, ExtPlanTailSemanticRows) {
  const lang::TraversalPlan plan = ExtSamplePlan();
  lang::TraversalPlan legacy = plan;
  StripExt(&legacy);
  const std::string valid = plan.Encode();
  const std::string legacy_bytes = legacy.Encode();
  const size_t ext_at = legacy_bytes.size();

  {  // Unknown ext version byte.
    std::string bad = valid;
    bad[ext_at] = 2;
    EXPECT_FALSE(lang::TraversalPlan::Decode(bad).ok());
  }
  {  // Unknown flag bit (flags byte = version + mode + 1-byte group key varint).
    std::string bad = valid;
    bad[ext_at + 3] = static_cast<char>(0x80);
    EXPECT_FALSE(lang::TraversalPlan::Decode(bad).ok());
  }
  {  // Bad result mode.
    std::string bad = valid;
    bad[ext_at + 1] = 9;
    EXPECT_FALSE(lang::TraversalPlan::Decode(bad).ok());
  }

  // Hand-built tails over the legacy prefix.
  auto tail = [&](uint32_t hop_count, uint32_t repeat, uint8_t mode) {
    std::string out = legacy_bytes;
    out.push_back(1);  // kPlanExtVersion
    out.push_back(static_cast<char>(mode));
    PutVarint32(&out, 0);  // group key
    out.push_back(0);      // flags
    PutVarint32(&out, hop_count);
    for (uint32_t i = 0; i < hop_count; i++) {
      PutVarint32(&out, repeat);
      PutVarint32(&out, 0);  // empty until-filter list
    }
    PutVarint32(&out, 0);  // no branch
    return out;
  };
  const uint32_t hops = static_cast<uint32_t>(legacy.hops.size());
  // An all-default tail is non-canonical (Encode would have omitted it).
  EXPECT_FALSE(lang::TraversalPlan::Decode(tail(hops, 1, 0)).ok());
  // Per-hop count must re-state the legacy hop count exactly.
  EXPECT_FALSE(lang::TraversalPlan::Decode(tail(hops + 1, 2, 1)).ok());
  // Repeat bounds: 0 and kMaxRepeat+1 are rejected at decode time.
  EXPECT_FALSE(lang::TraversalPlan::Decode(tail(hops, 0, 1)).ok());
  EXPECT_FALSE(lang::TraversalPlan::Decode(tail(hops, lang::kMaxRepeat + 1, 1)).ok());
  // The same tail with a valid repeat is accepted (the rows above fail for
  // the right reason, not because the scaffold is malformed).
  EXPECT_TRUE(lang::TraversalPlan::Decode(tail(hops, 2, 1)).ok());
}

TEST(DecodeErrorsTest, ResultTailParallelArrayMismatchIsRejected) {
  {  // Answer: group values must ride one-per-result-vid.
    engine::AnswerPayload answer;
    answer.travel_id = 7;
    answer.result_vids = {10, 11};
    answer.result_values = {"only-one"};
    EXPECT_FALSE(engine::AnswerPayload::Decode(answer.Encode()).ok());
    answer.result_values = {"a", "b"};
    EXPECT_TRUE(engine::AnswerPayload::Decode(answer.Encode()).ok());
  }
  {  // Sync step: same invariant on the barrier path.
    engine::SyncStepPayload step;
    step.travel_id = 7;
    step.result_vids = {4};
    step.result_values = {"a", "b"};
    EXPECT_FALSE(engine::SyncStepPayload::Decode(step.Encode()).ok());
    step.result_values = {"a"};
    EXPECT_TRUE(engine::SyncStepPayload::Decode(step.Encode()).ok());
  }
}

TEST(DecodeErrorsTest, MessageHeaderVsBodyMismatchIsError) {
  // A frame body shorter than the fixed header is Corruption from
  // DecodeHeader — DecodeBody must never slice the payload first.
  rpc::Message m;
  m.type = rpc::MsgType::kPing;
  m.src = 1;
  m.dst = 2;
  std::string wire;
  m.EncodeTo(&wire);
  const std::string body = wire.substr(4);
  for (size_t k = 0; k < rpc::kMsgHeaderBytes; k++) {
    rpc::Message out;
    EXPECT_TRUE(
        rpc::Message::DecodeHeader(std::string_view(body).substr(0, k), &out)
            .IsCorruption())
        << "header prefix of " << k << " bytes";
    EXPECT_FALSE(rpc::Message::DecodeBody(std::string_view(body).substr(0, k)).ok());
  }
}

// --- malformed TCP frames ---------------------------------------------------

// Raw client socket helper: connect to a TcpTransport listener port.
int DialRaw(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(0, ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

// Reads until EOF or error; returns bytes read. Used to observe the server
// dropping the connection.
size_t DrainUntilClose(int fd) {
  char buf[256];
  size_t total = 0;
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return total;
    total += static_cast<size_t>(n);
  }
}

TEST(TcpMalformedFrameTest, GarbageHelloCountsAndDropsConnection) {
  rpc::TcpTransport transport;
  ASSERT_TRUE(transport.RegisterEndpoint(1, [](rpc::Message&&) {}).ok());
  const uint16_t port = transport.PortOf(1);
  ASSERT_NE(0, port);

  const uint64_t before = transport.stats().decode_errors.load();
  int fd = DialRaw(port);
  const std::string garbage = "this is not a GTRK hello!";
  ASSERT_EQ(static_cast<ssize_t>(garbage.size()),
            ::send(fd, garbage.data(), garbage.size(), 0));
  // Server must close without acking; no resynchronization attempts.
  EXPECT_EQ(0u, DrainUntilClose(fd));
  ::close(fd);

  // CountDecodeError runs strictly before the reader closes the socket, so
  // observing EOF above means the counter is already bumped.
  EXPECT_GT(transport.stats().decode_errors.load(), before);
  transport.Shutdown();
}

TEST(TcpMalformedFrameTest, OversizedFrameLengthCountsAndDropsConnection) {
  rpc::TcpTransport transport;
  ASSERT_TRUE(transport.RegisterEndpoint(2, [](rpc::Message&&) {}).ok());
  const uint16_t port = transport.PortOf(2);
  ASSERT_NE(0, port);

  const uint64_t before = transport.stats().decode_errors.load();
  int fd = DialRaw(port);
  std::string wire;
  PutFixed32(&wire, 0x4754524b);  // valid hello
  PutFixed32(&wire, 1);
  PutFixed32(&wire, 2);
  PutFixed32(&wire, 0xffffffffu);  // frame_len far beyond kMaxFrameBody
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));
  // The 4-byte hello ack arrives, then the connection must drop.
  EXPECT_EQ(4u, DrainUntilClose(fd));
  ::close(fd);

  // CountDecodeError runs strictly before the reader closes the socket, so
  // observing EOF above means the counter is already bumped.
  EXPECT_GT(transport.stats().decode_errors.load(), before);
  transport.Shutdown();
}

TEST(TcpMalformedFrameTest, TruncatedHeaderFrameCountsAndDropsConnection) {
  rpc::TcpTransport transport;
  ASSERT_TRUE(transport.RegisterEndpoint(3, [](rpc::Message&&) {}).ok());
  const uint16_t port = transport.PortOf(3);
  ASSERT_NE(0, port);

  const uint64_t before = transport.stats().decode_errors.load();
  int fd = DialRaw(port);
  std::string wire;
  PutFixed32(&wire, 0x4754524b);  // valid hello
  PutFixed32(&wire, 1);
  PutFixed32(&wire, 3);
  PutFixed32(&wire, 2);  // frame_len below kMinFrameBody: header can't fit
  wire += "xx";
  ASSERT_EQ(static_cast<ssize_t>(wire.size()),
            ::send(fd, wire.data(), wire.size(), 0));
  EXPECT_EQ(4u, DrainUntilClose(fd));
  ::close(fd);

  // CountDecodeError runs strictly before the reader closes the socket, so
  // observing EOF above means the counter is already bumped.
  EXPECT_GT(transport.stats().decode_errors.load(), before);
  transport.Shutdown();
}

}  // namespace
}  // namespace gt
