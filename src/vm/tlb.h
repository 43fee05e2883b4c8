#pragma once
// TLB model: fully-associative with true LRU (private accelerator TLBs are
// small, 4..64 entries) or set-associative for the larger shared L2 TLB.
//
// Tracks hit/miss counts and same-page-as-last-request statistics split by
// read/write (the paper reports 87% of consecutive reads and 83% of
// consecutive writes touch the same page, motivating the filter registers of
// Fig. 8b). The windowed miss rate of Fig. 4 comes from the metrics
// sampler's timelines of these counts (Soc::counts lists them), not from
// the TLB itself.

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/divisor.h"
#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

struct TlbConfig {
  unsigned entries = 16;
  unsigned ways = 0;  ///< 0 => fully associative
  Cycle hit_latency = 4;

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(entries > 0, "TLB needs at least one entry");
    if (ways != 0) {
      GEMMINI_CONFIG_REQUIRE(entries % ways == 0,
                             "TLB entries must divide evenly into ways");
    }
  }
};

class Tlb {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Hits satisfied by the one-entry last-page filter in front of the set
    /// scan (a subset of `hits`: the filter is a host-side fast path with
    /// identical architectural behavior, not a modeled structure).
    std::uint64_t fastpath_hits = 0;
    std::uint64_t read_requests = 0;
    std::uint64_t write_requests = 0;
    std::uint64_t read_same_page = 0;   ///< reads to the previous read's page
    std::uint64_t write_same_page = 0;  ///< writes to the previous write's page
  };

  explicit Tlb(const TlbConfig& cfg);

  /// Looks up `vpn`. Returns the mapped PPN on hit.
  std::optional<std::uint64_t> lookup(std::uint64_t vpn, bool is_write);

  /// Installs vpn -> ppn, evicting LRU within the set if full.
  void fill(std::uint64_t vpn, std::uint64_t ppn);

  /// Invalidates everything (context switch / OS noise model).
  void flush();

  const TlbConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Zeroes the counts (the start of a run) without touching entries.
  void reset_stats() { stats_ = Stats{}; }

  double hit_rate() const {
    const double total = static_cast<double>(stats_.hits + stats_.misses);
    return total == 0 ? 0.0 : static_cast<double>(stats_.hits) / total;
  }

  /// Fraction of consecutive read (write) requests to the same page.
  double consecutive_same_page_rate(bool writes) const;

 private:
  TlbConfig cfg_;
  Divisor num_sets_;
  unsigned set_ways_;
  // Per-entry state, set-major (num_sets * set_ways). An entry's key is its
  // vpn + 1 (0 = invalid), so the set scan reads one dense array of keys.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> ppn_;
  std::vector<std::uint64_t> lru_;
  std::uint64_t lru_clock_ = 0;
  Stats stats_;

  bool have_last_read_ = false, have_last_write_ = false;
  std::uint64_t last_read_vpn_ = 0, last_write_vpn_ = 0;

  /// One-entry last-page filter per request stream: remembers where the last
  /// hit lives so same-page streaks skip the set scan. Re-validated against
  /// the entry on use; cleared by flush().
  struct LastHit {
    bool valid = false;
    std::uint64_t vpn = 0;
    std::size_t idx = 0;
  };
  LastHit last_read_hit_, last_write_hit_;
};

}  // namespace gemmini
