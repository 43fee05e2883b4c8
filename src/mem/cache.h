#pragma once
// Set-associative, write-back, write-allocate cache timing model with true
// LRU. Used for the SoC's shared L2 (and, in CPU cost models, to estimate L1
// behaviour). Purely a tag store: data payloads live in PhysMem.
//
// The cache is shared by all requestors on the SoC (host CPUs, accelerator
// DMAs, the page-table walker), which is what produces the paper's Fig. 9
// contention effects and its observation that accelerator PTE walks can hit
// in L2.

#include <cstdint>
#include <vector>

#include "src/base/divisor.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

struct CacheConfig {
  std::uint64_t size_bytes = 1ull << 20;  ///< total capacity (default 1 MiB)
  unsigned ways = 8;
  unsigned line_bytes = 64;
  Cycle hit_latency = 20;  ///< L2 hit latency seen by the accelerator

  unsigned num_sets() const {
    GEMMINI_CHECK(ways > 0 && line_bytes > 0);
    return static_cast<unsigned>(size_bytes / (ways * line_bytes));
  }
  void validate() const;
};

/// Result of a single line access.
struct CacheAccess {
  bool hit = false;
  bool writeback = false;   ///< a dirty victim must be written to DRAM
  PAddr victim_line = 0;    ///< line address of the victim (if writeback)
};

class Cache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  explicit Cache(const CacheConfig& cfg);

  /// Access one cache line containing `addr`. Allocates on miss and reports
  /// whether a dirty victim was evicted. `requestor` is used only for stats.
  CacheAccess access_line(PAddr addr, bool write, RequestorId requestor);

  /// True if the line containing `addr` is currently resident (no state
  /// change) — used by tests and by the CPU cost model's reuse estimator.
  bool probe(PAddr addr) const;

  /// Invalidate everything (e.g. across benchmark repetitions).
  void flush();

  const CacheConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Zeroes the hit/miss counts (the start of a run) without touching tags.
  void reset_stats() { stats_ = Stats{}; }

  double miss_rate() const {
    const double total = static_cast<double>(stats_.hits + stats_.misses);
    return total == 0 ? 0.0 : static_cast<double>(stats_.misses) / total;
  }

 private:
  CacheConfig cfg_;
  Divisor line_bytes_;
  Divisor num_sets_;
  unsigned ways_;
  // Per-way state, set-major (num_sets * ways). A way's key is its tag + 1
  // (0 = invalid), so the hit scan reads one dense array of keys.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> lru_;  ///< larger == more recently used
  std::vector<std::uint8_t> dirty_;
  std::uint64_t lru_clock_ = 0;
  Stats stats_;
};

}  // namespace gemmini
