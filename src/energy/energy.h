#pragma once
// energy:: — energy derived from the simulator's event counts.
//
// The estimate layer (src/estimate/power_model.h) prices *static* power from
// the instantiation alone; this subsystem prices *behaviour*: every DRAM
// column command, row activate/precharge, refresh period, DMA byte, exec MAC
// and scratchpad/accumulator row access carries a configured picojoule
// price, so a row-thrashing schedule and a row-friendly one no longer cost
// the same joules.
//
// Energy is not metered, it is derived: energy = price vector · event
// counts. The timed components only count events, in their plain `Stats`
// (and, with metrics on, in registry counters); none of them knows energy
// exists, so pricing can never perturb timing. One function, `price()`,
// maps a `Counts` to an `EnergyReport`. The session applies it twice: to
// the end-of-run Stats for the totals, and to each sampler window's counter
// deltas for the power timeline.
//
// Accounting is *integer femtojoules*. Config prices are doubles in pJ for
// ergonomics, but each is quantized exactly once (when the session is
// built) to a uint64 femtojoule rate; pricing is then integer arithmetic.
// The map is linear and exact, so the per-kind DRAM split sums to the
// per-channel split, and the window energies sum to the run total, as
// equalities.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini::energy {

/// Largest price (pJ per event, or mW of static power per GHz) whose
/// femtojoule quantization fits: to_fj rounds through a signed 64-bit
/// integer, so 1000 x price must stay below 2^63.
inline constexpr double kMaxPricePj = 9.2e15;

/// True when `pj` is a usable price: non-negative, finite and small enough
/// to quantize (the comparisons are false for NaN).
inline bool quantizable(double pj) { return pj >= 0 && pj <= kMaxPricePj; }

/// Quantizes a picojoule price to integer femtojoules (non-positive -> 0).
/// `pj` must be quantizable() when positive; EnergyPrices::validate()
/// guarantees it for configured prices.
inline std::uint64_t to_fj(double pj) {
  return pj <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(pj * 1000.0));
}

/// Per-event energy prices, in picojoules. All default to zero, so a
/// default-constructed price table prices nothing (and `EnergyConfig` with
/// zero prices is exactly as if energy were never enabled — the
/// zero-overhead-off contract extends to the report bytes).
struct EnergyPrices {
  // DRAM command-level prices.
  double dram_act_pj = 0.0;  ///< row activate (one per row miss)
  double dram_pre_pj = 0.0;  ///< row precharge (one per row miss)
  double dram_rd_pj = 0.0;   ///< read column command
  double dram_wr_pj = 0.0;   ///< write column command
  double dram_ref_pj = 0.0;  ///< all-bank refresh, per channel per period
  double dram_io_pj_per_byte = 0.0;  ///< data-bus transfer, per byte

  // Accelerator-side per-access prices.
  double exec_mac_pj = 0.0;       ///< per int8 MAC retired by the array
  double dma_pj_per_byte = 0.0;   ///< DMA engine + NoC, per byte streamed
  double sp_row_pj = 0.0;         ///< scratchpad SRAM, per row touched
  double acc_row_pj = 0.0;        ///< accumulator SRAM, per row touched

  /// Static (leakage + clock tree) power. `static_mw > 0` is an explicit
  /// override in milliwatts; otherwise `static_from_model` derives it from
  /// estimate::PowerModel::accelerator_mw for the session's config. Both
  /// off (the defaults) means no static charge.
  bool static_from_model = false;
  double static_mw = 0.0;

  /// True when any price would ever charge energy.
  bool any() const {
    return dram_act_pj > 0 || dram_pre_pj > 0 || dram_rd_pj > 0 ||
           dram_wr_pj > 0 || dram_ref_pj > 0 || dram_io_pj_per_byte > 0 ||
           exec_mac_pj > 0 || dma_pj_per_byte > 0 || sp_row_pj > 0 ||
           acc_row_pj > 0 || static_from_model || static_mw > 0;
  }

  /// DDR4-class defaults (order-of-magnitude honest, not vendor-calibrated):
  /// ~1 nJ activate+precharge pair, ~10 pJ column commands, ~5 pJ/byte IO,
  /// sub-pJ on-chip events, static from the estimate-layer power model.
  static EnergyPrices ddr4_default() {
    EnergyPrices p;
    p.dram_act_pj = 600.0;
    p.dram_pre_pj = 400.0;
    p.dram_rd_pj = 10.0;
    p.dram_wr_pj = 12.0;
    p.dram_ref_pj = 2000.0;
    p.dram_io_pj_per_byte = 5.0;
    p.exec_mac_pj = 0.2;
    p.dma_pj_per_byte = 1.0;
    p.sp_row_pj = 4.0;
    p.acc_row_pj = 8.0;
    p.static_from_model = true;
    return p;
  }

  /// Rejects any price (or static_mw) that is negative, non-finite, or too
  /// large to quantize to a femtojoule rate.
  void validate() const {
    const std::pair<const char*, double> fields[] = {
        {"dram_act_pj", dram_act_pj},
        {"dram_pre_pj", dram_pre_pj},
        {"dram_rd_pj", dram_rd_pj},
        {"dram_wr_pj", dram_wr_pj},
        {"dram_ref_pj", dram_ref_pj},
        {"dram_io_pj_per_byte", dram_io_pj_per_byte},
        {"exec_mac_pj", exec_mac_pj},
        {"dma_pj_per_byte", dma_pj_per_byte},
        {"sp_row_pj", sp_row_pj},
        {"acc_row_pj", acc_row_pj},
        {"static_mw", static_mw}};
    for (const auto& [name, value] : fields) {
      GEMMINI_CONFIG_REQUIRE(quantizable(value),
                             "energy price " << name << " = " << value
                                             << " must be finite and in [0, "
                                             << kMaxPricePj << "]");
    }
  }
};

struct EnergyConfig {
  bool enabled = false;
  EnergyPrices prices{};

  /// Energy is only derived when this is true: enabled with an all-zero
  /// price table is exactly "off", which is what makes the zero-price
  /// report byte-identical to a session built without energy at all.
  bool active() const { return enabled && prices.any(); }

  static EnergyConfig enabled_default() {
    EnergyConfig cfg;
    cfg.enabled = true;
    cfg.prices = EnergyPrices::ddr4_default();
    return cfg;
  }

  void validate() const {
    if (enabled) prices.validate();
  }
};

/// The quantized price vector: integer femtojoules per event, built once
/// per session.
struct Rates {
  std::uint64_t act = 0, pre = 0, rd = 0, wr = 0, ref = 0, io_byte = 0;
  std::uint64_t mac = 0, dma_byte = 0, sp_row = 0, acc_row = 0;
  std::uint64_t static_per_cycle = 0;
  double clock_ghz = 1.0;

  /// Quantizes validated `prices`. `static_mw` is the *resolved* static
  /// power (override or model-derived; only the session sees the config
  /// and the power model); `clock_ghz` turns it into an fJ/cycle rate and
  /// backs the fJ -> watts conversions.
  static Rates quantize(const EnergyPrices& prices, double static_mw,
                        double clock_ghz) {
    // mW / GHz == pJ/cycle, quantized once so that (rate x cycles) sums
    // are exact integers like everything else.
    const double static_pj_per_cycle = static_mw / clock_ghz;
    GEMMINI_CONFIG_REQUIRE(quantizable(static_pj_per_cycle),
                           "static power " << static_mw << " mW at "
                                           << clock_ghz
                                           << " GHz cannot be quantized");
    Rates r;
    r.act = to_fj(prices.dram_act_pj);
    r.pre = to_fj(prices.dram_pre_pj);
    r.rd = to_fj(prices.dram_rd_pj);
    r.wr = to_fj(prices.dram_wr_pj);
    r.ref = to_fj(prices.dram_ref_pj);
    r.io_byte = to_fj(prices.dram_io_pj_per_byte);
    r.mac = to_fj(prices.exec_mac_pj);
    r.dma_byte = to_fj(prices.dma_pj_per_byte);
    r.sp_row = to_fj(prices.sp_row_pj);
    r.acc_row = to_fj(prices.acc_row_pj);
    r.static_per_cycle = to_fj(static_pj_per_cycle);
    r.clock_ghz = clock_ghz;
    return r;
  }

  /// fJ -> watts over a span of cycles:
  /// W = fJ * 1e-15 / (cycles / (GHz * 1e9)) = fJ * GHz * 1e-6 / cycles.
  double watts(std::uint64_t fj, Cycle cycles) const {
    if (cycles == 0) return 0.0;
    return static_cast<double>(fj) * clock_ghz * 1e-6 /
           static_cast<double>(cycles);
  }
};

/// One DRAM channel's priced events.
struct ChannelCounts {
  std::uint64_t accesses = 0;         ///< column commands, reads + writes
  std::uint64_t writes = 0;           ///< write column commands
  std::uint64_t row_misses = 0;       ///< each one ACT + PRE pair
  std::uint64_t bytes = 0;            ///< data-bus bytes
  std::uint64_t refresh_periods = 0;  ///< all-bank refresh periods entered
};

/// One accelerator core's priced events.
struct CoreCounts {
  std::uint64_t macs = 0;
  std::uint64_t dma_bytes = 0;  ///< loads + stores
  std::uint64_t sp_rows = 0;
  std::uint64_t acc_rows = 0;
};

/// Everything `price()` needs: the events of one span of `cycles` cycles
/// (a whole run, or one sampler window).
struct Counts {
  Cycle cycles = 0;
  std::vector<ChannelCounts> channels;
  std::vector<CoreCounts> cores;
};

/// Energy of a span, in integer femtojoules, plus the derived headline
/// numbers. Invariants the tests and bench gate on: the per-kind DRAM split
/// sums to the per-channel split (both price every command once); when the
/// sampler was armed, `window_fj` sums exactly to `total_fj`.
struct EnergyReport {
  bool enabled = false;

  // DRAM, split by command kind and (in parallel) by channel.
  std::uint64_t dram_act_fj = 0;
  std::uint64_t dram_pre_fj = 0;
  std::uint64_t dram_rd_fj = 0;
  std::uint64_t dram_wr_fj = 0;
  std::uint64_t dram_ref_fj = 0;
  std::uint64_t dram_io_fj = 0;
  std::uint64_t dram_fj = 0;  ///< sum of the six kinds above
  std::vector<std::uint64_t> dram_channel_fj;  ///< indexed by channel

  // Accelerator-side activity energy.
  std::uint64_t exec_fj = 0;  ///< spatial-array MACs
  std::uint64_t dma_fj = 0;   ///< DMA bytes streamed
  std::uint64_t sp_fj = 0;    ///< scratchpad rows touched
  std::uint64_t acc_fj = 0;   ///< accumulator rows touched
  std::vector<std::uint64_t> core_fj;  ///< per-core exec+dma+sp+acc

  std::uint64_t static_fj = 0;  ///< static rate x cycles
  std::uint64_t total_fj = 0;   ///< dram + exec + dma + sp + acc + static

  // Derived headline numbers.
  double total_j = 0;
  double avg_power_watts = 0;      ///< 0 on zero-cycle runs
  double edp_joule_seconds = 0;    ///< total_j * seconds
  double energy_per_token_pj = 0;  ///< llm runs only (total / tokens)

  // Power-over-time: per-sampler-window energy and mean watts (empty when
  // the metrics sampler was off). The last window may span fewer cycles.
  Cycle sample_interval = 0;
  std::vector<std::uint64_t> window_fj;
  std::vector<double> window_watts;

  friend bool operator==(const EnergyReport&, const EnergyReport&) = default;
};

/// energy = rates · counts: the whole report of one span (no timeline).
inline EnergyReport price(const Rates& r, const Counts& n) {
  EnergyReport e;
  e.enabled = true;
  for (const ChannelCounts& ch : n.channels) {
    const std::uint64_t act = ch.row_misses * r.act;
    const std::uint64_t pre = ch.row_misses * r.pre;
    const std::uint64_t rd = (ch.accesses - ch.writes) * r.rd;
    const std::uint64_t wr = ch.writes * r.wr;
    const std::uint64_t ref = ch.refresh_periods * r.ref;
    const std::uint64_t io = ch.bytes * r.io_byte;
    e.dram_act_fj += act;
    e.dram_pre_fj += pre;
    e.dram_rd_fj += rd;
    e.dram_wr_fj += wr;
    e.dram_ref_fj += ref;
    e.dram_io_fj += io;
    e.dram_channel_fj.push_back(act + pre + rd + wr + ref + io);
  }
  e.dram_fj = e.dram_act_fj + e.dram_pre_fj + e.dram_rd_fj + e.dram_wr_fj +
              e.dram_ref_fj + e.dram_io_fj;

  for (const CoreCounts& c : n.cores) {
    const std::uint64_t exec = c.macs * r.mac;
    const std::uint64_t dma = c.dma_bytes * r.dma_byte;
    const std::uint64_t sp = c.sp_rows * r.sp_row;
    const std::uint64_t acc = c.acc_rows * r.acc_row;
    e.exec_fj += exec;
    e.dma_fj += dma;
    e.sp_fj += sp;
    e.acc_fj += acc;
    e.core_fj.push_back(exec + dma + sp + acc);
  }

  e.static_fj = n.cycles * r.static_per_cycle;
  e.total_fj = e.dram_fj + e.exec_fj + e.dma_fj + e.sp_fj + e.acc_fj +
               e.static_fj;
  e.total_j = static_cast<double>(e.total_fj) * 1e-15;
  e.avg_power_watts = r.watts(e.total_fj, n.cycles);
  const double seconds =
      static_cast<double>(n.cycles) / (r.clock_ghz * 1e9);
  e.edp_joule_seconds = e.total_j * seconds;
  return e;
}

}  // namespace gemmini::energy
