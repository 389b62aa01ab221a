// Simulated storage-device latency model.
//
// The paper evaluates GraphTrek cold-start on RocksDB instances backed by
// GPFS / local disk, so every vertex access pays a device-level cost. This
// repo runs on one machine with an in-process cluster, so the device cost is
// modeled explicitly: each "real I/O" vertex access charges a configurable
// latency (sleep). Because the engines are latency-bound rather than
// CPU-bound under this model, relative behaviour (barrier idling, straggler
// amplification, merging benefits) matches the paper's disk-bound setting.
//
// The model also carries the external-straggler injection hook used by the
// Fig. 11 experiment (fixed delays inserted into individual vertex accesses).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "src/common/hash.h"

namespace gt {

struct DeviceModelConfig {
  // Cost charged per cold vertex access (point lookup + edge scan seek).
  uint32_t access_latency_us = 0;
  // Additional cost per KiB transferred (sequential scan cost).
  uint32_t per_kib_us = 0;
  // Cost per *warm* access: the vertex's blocks were read earlier in the
  // same traversal and sit in the storage engine's block cache / OS page
  // cache. Redundant visits in the paper's Async-GT pay this, not a full
  // disk seek. 0 means "derive as access_latency_us / 10".
  uint32_t warm_latency_us = 0;
  // Heavy-tail model for cold accesses: with probability `tail_prob` a cold
  // access costs `tail_mult` x the base latency. Real storage devices (and
  // GPFS in particular) exhibit such tails; they are the organic straggler
  // source that hurts level-synchronous engines.
  double tail_prob = 0.0;
  uint32_t tail_mult = 10;
};

class DeviceModel {
 public:
  // `seed` drives the heavy-tail draws: two models with the same seed and
  // config draw the same tails over the same number of cold accesses.
  explicit DeviceModel(DeviceModelConfig cfg = {}, uint64_t seed = 0)
      : cfg_(cfg), seed_(seed) {}

  void set_config(DeviceModelConfig cfg) { cfg_ = cfg; }
  const DeviceModelConfig& config() const { return cfg_; }

  // Charges the cost of one access that read `bytes` bytes. `warm` accesses
  // (re-reads within a traversal) charge the cache-hit latency.
  void ChargeAccess(uint64_t bytes, bool warm = false) {
    uint64_t us;
    if (warm) {
      us = cfg_.warm_latency_us != 0 ? cfg_.warm_latency_us : cfg_.access_latency_us / 10;
      warm_accesses_.fetch_add(1, std::memory_order_relaxed);
    } else {
      us = cfg_.access_latency_us + (bytes / 1024) * cfg_.per_kib_us;
      if (cfg_.tail_prob > 0.0) {
        if (TailDraw() < cfg_.tail_prob) {
          us *= cfg_.tail_mult;
          tail_accesses_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
    total_accesses_.fetch_add(1, std::memory_order_relaxed);
    total_us_.fetch_add(us, std::memory_order_relaxed);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  // Charges an explicitly injected external delay (straggler emulation).
  void ChargeInjectedDelay(uint64_t us) {
    injected_us_.fetch_add(us, std::memory_order_relaxed);
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  uint64_t total_accesses() const { return total_accesses_.load(std::memory_order_relaxed); }
  uint64_t warm_accesses() const { return warm_accesses_.load(std::memory_order_relaxed); }
  uint64_t tail_accesses() const { return tail_accesses_.load(std::memory_order_relaxed); }
  uint64_t total_us() const { return total_us_.load(std::memory_order_relaxed); }
  uint64_t injected_us() const { return injected_us_.load(std::memory_order_relaxed); }

  void ResetStats() {
    total_accesses_ = 0;
    warm_accesses_ = 0;
    tail_accesses_ = 0;
    total_us_ = 0;
    injected_us_ = 0;
  }

 private:
  // Counter-based generator: draw n is a hash of (seed, n), so concurrent
  // workers share one lock-free sequence. Uniform in [0, 1).
  double TailDraw() {
    const uint64_t n = tail_draws_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<double>(Mix64(seed_ ^ Mix64(n)) >> 11) * (1.0 / 9007199254740992.0);
  }

  DeviceModelConfig cfg_;
  const uint64_t seed_;
  std::atomic<uint64_t> tail_draws_{0};
  std::atomic<uint64_t> total_accesses_{0};
  std::atomic<uint64_t> warm_accesses_{0};
  std::atomic<uint64_t> tail_accesses_{0};
  std::atomic<uint64_t> total_us_{0};
  std::atomic<uint64_t> injected_us_{0};
};

}  // namespace gt
