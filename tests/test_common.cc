// Unit tests for src/common: codecs, hashing, RNG, thread pool, sync
// primitives, status/result types, device model.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/clock.h"
#include "src/common/codec.h"
#include "src/common/device_model.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"

namespace gt {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::Timeout("").IsTimeout());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::IOError("disk");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

// --- Codecs -----------------------------------------------------------------

TEST(CodecTest, Fixed32RoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeef);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
}

TEST(CodecTest, Fixed64RoundTrip) {
  std::string s;
  PutFixed64(&s, 0x0123456789abcdefULL);
  EXPECT_EQ(DecodeFixed64(s.data()), 0x0123456789abcdefULL);
}

TEST(CodecTest, BigEndianPreservesOrder) {
  // Key property: encoded byte order must equal numeric order.
  std::vector<uint64_t> values = {0, 1, 255, 256, 1ull << 20, 1ull << 40, UINT64_MAX};
  std::vector<std::string> encoded;
  for (auto v : values) {
    std::string s;
    PutFixed64BE(&s, v);
    encoded.push_back(s);
  }
  for (size_t i = 1; i < encoded.size(); i++) {
    EXPECT_LT(encoded[i - 1], encoded[i]) << "values " << values[i - 1] << "," << values[i];
  }
  for (size_t i = 0; i < values.size(); i++) {
    EXPECT_EQ(DecodeFixed64BE(encoded[i].data()), values[i]);
  }
}

TEST(CodecTest, BigEndian32PreservesOrder) {
  std::string a, b;
  PutFixed32BE(&a, 0x00ffffffu);
  PutFixed32BE(&b, 0x01000000u);
  EXPECT_LT(a, b);
  EXPECT_EQ(DecodeFixed32BE(a.data()), 0x00ffffffu);
}

class VarintParam : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintParam, RoundTrip64) {
  std::string s;
  PutVarint64(&s, GetParam());
  Decoder dec(s);
  uint64_t v = 0;
  ASSERT_TRUE(dec.GetVarint64(&v));
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(dec.empty());
}

TEST_P(VarintParam, SignedZigZagRoundTrip) {
  const auto raw = static_cast<int64_t>(GetParam());
  for (int64_t v : {raw, -raw}) {
    std::string s;
    PutVarSigned64(&s, v);
    Decoder dec(s);
    int64_t out = 0;
    ASSERT_TRUE(dec.GetVarSigned64(&out));
    EXPECT_EQ(out, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Values, VarintParam,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                                           (1ull << 21) - 1, 1ull << 21, 1ull << 35,
                                           UINT64_MAX / 2, UINT64_MAX));

TEST(CodecTest, VarintTruncatedInputFails) {
  std::string s;
  PutVarint64(&s, UINT64_MAX);
  for (size_t cut = 0; cut < s.size(); cut++) {
    Decoder dec(s.data(), cut);
    uint64_t v;
    EXPECT_FALSE(dec.GetVarint64(&v)) << "cut=" << cut;
  }
}

TEST(CodecTest, LengthPrefixedRoundTrip) {
  std::string s;
  PutLengthPrefixed(&s, "hello");
  PutLengthPrefixed(&s, "");
  PutLengthPrefixed(&s, std::string(1000, 'x'));
  Decoder dec(s);
  std::string_view a, b, c;
  ASSERT_TRUE(dec.GetLengthPrefixed(&a));
  ASSERT_TRUE(dec.GetLengthPrefixed(&b));
  ASSERT_TRUE(dec.GetLengthPrefixed(&c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(dec.empty());
}

TEST(CodecTest, DecoderSkipAndBounds) {
  std::string s = "abcdef";
  Decoder dec(s);
  EXPECT_TRUE(dec.Skip(3));
  EXPECT_EQ(dec.remaining(), 3u);
  EXPECT_FALSE(dec.Skip(4));
  EXPECT_EQ(dec.remaining(), 3u);  // failed skip does not advance
}

TEST(Crc32cTest, KnownProperties) {
  // Deterministic, sensitive to every byte, and seed-chainable.
  const uint32_t c1 = Crc32c::Compute("hello world");
  EXPECT_EQ(c1, Crc32c::Compute("hello world"));
  EXPECT_NE(c1, Crc32c::Compute("hello worle"));
  EXPECT_NE(c1, Crc32c::Compute("hello worl"));
  EXPECT_NE(Crc32c::Compute(""), Crc32c::Compute("\0", 1));
}

TEST(Crc32cTest, StandardVector) {
  // CRC-32C of "123456789" is 0xE3069283 (well-known check value).
  EXPECT_EQ(Crc32c::Compute("123456789"), 0xE3069283u);
}

// --- Hashing ----------------------------------------------------------------

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  for (int bit = 0; bit < 64; bit++) {
    const uint64_t a = Mix64(12345);
    const uint64_t b = Mix64(12345 ^ (1ull << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = static_cast<double>(total_flips) / 64.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, BytesHashDiffersBySeed) {
  EXPECT_NE(HashBytes("abc", 0), HashBytes("abc", 1));
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
}

// --- RNG --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) same++;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ZipfIsSkewedTowardSmallValues) {
  Rng rng(7);
  const uint64_t n = 1000;
  uint64_t low = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; i++) {
    const uint64_t v = rng.Zipf(n, 1.1);
    ASSERT_LT(v, n);
    if (v < n / 10) low++;
  }
  // Far more than 10% of the mass must land in the lowest decile.
  EXPECT_GT(low, static_cast<uint64_t>(samples) / 2);
}

TEST(RngTest, ZipfDegenerateFallsBackToUniform) {
  Rng rng(7);
  for (int i = 0; i < 100; i++) {
    EXPECT_LT(rng.Zipf(10, 0.0), 10u);
    EXPECT_EQ(rng.Zipf(1, 2.0), 0u);
  }
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitWithResultReturnsFuture) {
  ThreadPool pool(2);
  auto fut = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, WaitBlocksUntilDrained) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; i++) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

// --- sync primitives ----------------------------------------------------------

TEST(SyncTest, CountDownLatchReleasesAtZero) {
  CountDownLatch latch(3);
  std::thread t([&] {
    latch.CountDown();
    latch.CountDown();
    latch.CountDown();
  });
  latch.Wait();
  t.join();
}

TEST(SyncTest, CountDownLatchWaitForTimesOut) {
  CountDownLatch latch(1);
  EXPECT_FALSE(latch.WaitFor(std::chrono::milliseconds(10)));
  latch.CountDown();
  EXPECT_TRUE(latch.WaitFor(std::chrono::milliseconds(10)));
}

TEST(SyncTest, NotificationWakesWaiter) {
  Notification n;
  EXPECT_FALSE(n.HasBeenNotified());
  std::thread t([&] { n.Notify(); });
  n.Wait();
  EXPECT_TRUE(n.HasBeenNotified());
  t.join();
}

TEST(SyncTest, BlockingCounterWaitsForAllDone) {
  BlockingCounter bc;
  bc.Add(5);
  std::thread t([&] {
    for (int i = 0; i < 5; i++) bc.Done();
  });
  bc.Wait();
  t.join();
}

// --- DeviceModel --------------------------------------------------------------

TEST(DeviceModelTest, ChargesConfiguredLatency) {
  DeviceModel dev(DeviceModelConfig{.access_latency_us = 2000, .per_kib_us = 0});
  Stopwatch watch;
  dev.ChargeAccess(100);
  EXPECT_GE(watch.ElapsedMicros(), 1500u);
  EXPECT_EQ(dev.total_accesses(), 1u);
  EXPECT_EQ(dev.total_us(), 2000u);
}

TEST(DeviceModelTest, PerKibCostScalesWithBytes) {
  DeviceModel dev(DeviceModelConfig{.access_latency_us = 0, .per_kib_us = 10});
  dev.ChargeAccess(4096);
  EXPECT_EQ(dev.total_us(), 40u);
}

TEST(DeviceModelTest, ZeroCostDoesNotSleep) {
  DeviceModel dev;
  Stopwatch watch;
  for (int i = 0; i < 1000; i++) dev.ChargeAccess(128);
  EXPECT_LT(watch.ElapsedMicros(), 100000u);
  EXPECT_EQ(dev.total_accesses(), 1000u);
}

TEST(DeviceModelTest, WarmAccessesChargeWarmLatency) {
  DeviceModel dev(DeviceModelConfig{.access_latency_us = 1000, .per_kib_us = 0,
                                    .warm_latency_us = 100});
  dev.ChargeAccess(64, /*warm=*/true);
  EXPECT_EQ(dev.total_us(), 100u);
  EXPECT_EQ(dev.warm_accesses(), 1u);
  // Default warm cost derives as access/10.
  DeviceModel dev2(DeviceModelConfig{.access_latency_us = 1000});
  dev2.ChargeAccess(64, /*warm=*/true);
  EXPECT_EQ(dev2.total_us(), 100u);
}

TEST(DeviceModelTest, TailAccessesMultiplyColdLatency) {
  DeviceModelConfig cfg;
  cfg.access_latency_us = 10;
  cfg.tail_prob = 1.0;  // every cold access is a tail
  cfg.tail_mult = 5;
  DeviceModel dev(cfg);
  dev.ChargeAccess(0, /*warm=*/false);
  EXPECT_EQ(dev.total_us(), 50u);
  EXPECT_EQ(dev.tail_accesses(), 1u);
  // Warm accesses never take the tail path.
  dev.ChargeAccess(0, /*warm=*/true);
  EXPECT_EQ(dev.tail_accesses(), 1u);
}

TEST(DeviceModelTest, TailProbabilityIsApproximatelyRespected) {
  DeviceModelConfig cfg;
  cfg.access_latency_us = 0;  // no sleeping, just counting
  cfg.tail_prob = 0.2;
  DeviceModel dev(cfg);
  for (int i = 0; i < 5000; i++) dev.ChargeAccess(0, false);
  const double rate = static_cast<double>(dev.tail_accesses()) / 5000.0;
  EXPECT_GT(rate, 0.1);
  EXPECT_LT(rate, 0.3);
}

TEST(DeviceModelTest, SameSeedDrawsSameTails) {
  DeviceModelConfig cfg;
  cfg.access_latency_us = 0;  // no sleeping, just drawing
  cfg.tail_prob = 0.5;
  constexpr int kAccesses = 2000;
  auto tails = [&](uint64_t seed) {
    DeviceModel dev(cfg, seed);
    for (int i = 0; i < kAccesses; i++) dev.ChargeAccess(0);
    return dev.tail_accesses();
  };
  const uint64_t seed7 = tails(7);
  EXPECT_EQ(tails(7), seed7);
  EXPECT_GT(seed7, 0u);
  EXPECT_LT(seed7, static_cast<uint64_t>(kAccesses));
  // Another seed draws another sequence (equal counts would be a fluke).
  EXPECT_NE(tails(8), seed7);
}

TEST(DeviceModelTest, InjectedDelaysTrackedSeparately) {
  DeviceModel dev;
  dev.ChargeInjectedDelay(1000);
  EXPECT_EQ(dev.injected_us(), 1000u);
  EXPECT_EQ(dev.total_us(), 0u);
  dev.ResetStats();
  EXPECT_EQ(dev.injected_us(), 0u);
}

}  // namespace
}  // namespace gt
