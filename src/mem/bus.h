#pragma once
// Shared bus with bandwidth-limited, FIFO-arbitrated occupancy.
//
// The SoC has two buses, as in the Chipyard SoCs the paper instantiates:
// a system bus connecting host CPUs and accelerator DMAs to the shared L2,
// and a memory bus connecting the L2 to DRAM. Each transfer occupies the bus
// for ceil(bytes / width) cycles; a request arriving while the bus is busy
// waits, which is the mechanism behind multi-core contention in Fig. 9.
//
// Accounting is kept per requestor (who moved how many bytes, who ate how
// many wait cycles) — the raw material for the sim::Report substrate table,
// the telemetry listing (Soc::counts) and trace-event attribution. When a
// trace::Tracer is attached, every grant (and any wait preceding it) is
// emitted as a span on this bus's track; tracing is observational and never
// alters busy_until_ bookkeeping.

#include <cstdint>
#include <vector>

#include "src/base/divisor.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/trace/trace.h"

namespace gemmini {

struct BusConfig {
  unsigned width_bytes = 16;  ///< bytes transferred per cycle (128-bit TL-C)
  void validate() const {
    GEMMINI_CONFIG_REQUIRE(width_bytes > 0, "bus width must be positive");
  }
};

class Bus {
 public:
  /// Per-requestor share of this bus's traffic and contention.
  struct RequestorStats {
    int requestor = 0;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    std::uint64_t wait_cycles = 0;

    friend bool operator==(const RequestorStats&, const RequestorStats&) =
        default;
  };

  /// Cycles the bus spent transferring (what utilization() divides).
  struct Stats {
    std::uint64_t busy_cycles = 0;
  };

  explicit Bus(const BusConfig& cfg, trace::Tracer* tracer = nullptr,
               trace::Unit unit = trace::Unit::kSystemBus)
      : cfg_((cfg.validate(), cfg)),
        width_(cfg_.width_bytes),
        tracer_(tracer),
        unit_(unit) {}

  /// Requests the bus at time `t` for a `bytes`-byte transfer. Returns the
  /// cycle at which the transfer completes; the bus is busy until then.
  Cycle transfer(Cycle t, std::uint64_t bytes, RequestorId requestor) {
    const Cycle occupancy = width_.div_ceil(bytes);
    const Cycle start = t > busy_until_ ? t : busy_until_;
    RequestorStats& rs = by_requestor_[requestor_index(requestor.value)];
    if (start > t) {
      rs.wait_cycles += start - t;
      if (tracer_) {
        tracer_->span_on(unit_, trace::EventKind::kBusWait, t, start, bytes,
                         requestor.value);
      }
    }
    busy_until_ = start + occupancy;
    stats_.busy_cycles += occupancy;
    rs.transfers += 1;
    rs.bytes += bytes;
    if (tracer_) {
      tracer_->span_on(unit_, trace::EventKind::kBusGrant, start, busy_until_,
                       bytes, requestor.value);
    }
    return busy_until_;
  }

  Cycle busy_until() const { return busy_until_; }
  /// Resets occupancy, the busy count and the per-requestor table (which
  /// therefore always describe the window since the last reset — one
  /// Session run).
  void reset_time() {
    busy_until_ = 0;
    stats_ = Stats{};
    by_requestor_.clear();
  }

  const BusConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Per-requestor accounting, in first-seen order (sort by `requestor` for
  /// stable reporting). Bus-wide bytes, transfers and wait cycles are sums
  /// over its rows.
  const std::vector<RequestorStats>& requestor_stats() const {
    return by_requestor_;
  }

  /// Fraction of cycles busy in [0, horizon).
  double utilization(Cycle horizon) const {
    if (horizon == 0) return 0.0;
    return static_cast<double>(stats_.busy_cycles) /
           static_cast<double>(horizon);
  }

 private:
  std::size_t requestor_index(int id) {
    // A handful of requestors per SoC (cores + PTW) and long same-requestor
    // runs (a DMA row, a page walk): the last slot resolves most calls, and
    // a linear scan beats any map for the rest. The memo re-validates
    // against the table, so a reset_time() needs no extra bookkeeping.
    if (last_slot_ < by_requestor_.size() &&
        by_requestor_[last_slot_].requestor == id) {
      return last_slot_;
    }
    for (last_slot_ = 0; last_slot_ < by_requestor_.size(); ++last_slot_) {
      if (by_requestor_[last_slot_].requestor == id) return last_slot_;
    }
    by_requestor_.push_back(RequestorStats{id, 0, 0, 0});
    return last_slot_;
  }

  BusConfig cfg_;
  Divisor width_;
  trace::Tracer* tracer_;
  trace::Unit unit_;
  Cycle busy_until_ = 0;
  Stats stats_;
  std::vector<RequestorStats> by_requestor_;
  std::size_t last_slot_ = 0;
};

}  // namespace gemmini
