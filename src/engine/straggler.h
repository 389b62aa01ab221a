// External-straggler injection (the Fig. 11 methodology): fixed delays
// inserted into individual vertex data accesses on selected servers at
// selected steps. The engine publishes the step being processed in a
// thread-local so the injector can match step-scoped rules.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/device_model.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/graph/graph_store.h"

namespace gt::engine {

// Set by the engine around each vertex access; -1 outside traversal work.
inline thread_local int tls_current_step = -1;

struct StragglerRule {
  uint32_t server_id = 0;
  int step = -1;           // -1 matches any step
  uint64_t delay_us = 0;   // fixed delay per matched access
  uint64_t max_hits = 0;   // 0 = unlimited; else stop after this many
};

class StragglerInjector final : public graph::AccessInterceptor {
 public:
  void AddRule(StragglerRule rule) GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    rules_.push_back(RuleState{rule, 0});
  }

  void ClearRules() GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    rules_.clear();
  }

  uint64_t total_injected_delays() const { return hits_.load(); }

  // Delays are charged to the accessing store's `device`
  // (DeviceModel::injected_us); stores without one just sleep.
  void OnVertexAccess(uint32_t server_id, graph::VertexId, DeviceModel* device) override {
    uint64_t delay = 0;
    {
      MutexLock lk(&mu_);
      for (auto& rs : rules_) {
        if (rs.rule.server_id != server_id) continue;
        if (rs.rule.step >= 0 && rs.rule.step != tls_current_step) continue;
        if (rs.rule.max_hits != 0 && rs.hits >= rs.rule.max_hits) continue;
        rs.hits++;
        delay += rs.rule.delay_us;
      }
    }
    if (delay > 0) {
      hits_.fetch_add(1);
      if (device != nullptr) {
        device->ChargeInjectedDelay(delay);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
  }

 private:
  struct RuleState {
    StragglerRule rule;
    uint64_t hits;
  };

  Mutex mu_;
  std::vector<RuleState> rules_ GT_GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
};

}  // namespace gt::engine
