// Command-level energy accounting and power-constrained design-space search.
//
// Part 1 prices a single inference: attach `energy::EnergyConfig` to a
// Session and the Report grows an energy section — per-DRAM-command-kind
// and per-channel femtojoule splits, exec/DMA/SRAM activity energy, static
// power, average watts, EDP, and (with the metrics sampler armed) a
// power-over-time timeline whose windows sum exactly to the total.
//
// Part 2 searches: `Experiment::search()` runs successive halving over the
// config grid — cheap layer-prefix proxies eliminate most candidates, the
// survivors run at full fidelity — minimizing EDP under an average-power
// budget. Candidates over the budget rank infeasible regardless of EDP.
//
//   $ ./energy_search

#include <cstdio>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  // ---- Part 1: price one inference -----------------------------------------
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;

  metrics::MetricsConfig sampled = metrics::MetricsConfig::enabled_default();
  sim::Session session = sim::Session::builder(cfg)
                             .functional(true)
                             .metrics(sampled)
                             .energy(energy::EnergyConfig::enabled_default())
                             .build();
  const sim::Report rep = session.run(zoo::squeezenet_v11(96));
  const sim::EnergyReport& e = rep.energy;

  std::printf("SqueezeNet inference on %s: %lu cycles\n",
              rep.config.c_str(), static_cast<unsigned long>(rep.cycles));
  std::printf("  total energy   %.3f uJ  (avg %.3f W, EDP %.3f uJ*s)\n",
              e.total_j * 1e6, e.avg_power_watts, e.edp_joule_seconds * 1e6);
  std::printf("  DRAM           %.3f uJ  (act %.1f%%, rd+wr+io %.1f%%, "
              "ref %.1f%%)\n",
              static_cast<double>(e.dram_fj) * 1e-9,
              100.0 * static_cast<double>(e.dram_act_fj + e.dram_pre_fj) /
                  static_cast<double>(e.dram_fj),
              100.0 *
                  static_cast<double>(e.dram_rd_fj + e.dram_wr_fj +
                                      e.dram_io_fj) /
                  static_cast<double>(e.dram_fj),
              100.0 * static_cast<double>(e.dram_ref_fj) /
                  static_cast<double>(e.dram_fj));
  std::printf("  exec/dma/sram  %.3f uJ   static %.3f uJ\n",
              static_cast<double>(e.exec_fj + e.dma_fj + e.sp_fj + e.acc_fj) *
                  1e-9,
              static_cast<double>(e.static_fj) * 1e-9);
  std::printf("  power timeline %zu windows of %lu cycles (peak %.3f W)\n",
              e.window_watts.size(),
              static_cast<unsigned long>(e.sample_interval),
              [&] {
                double peak = 0;
                for (const double w : e.window_watts)
                  peak = peak < w ? w : peak;
                return peak;
              }());

  // ---- Part 2: power-constrained search over the DRAM/geometry grid --------
  sim::Experiment ex(cfg);
  ex.model(zoo::squeezenet_v11(96))
      .functional(true)
      .dram_channels({1, 2, 4})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs})
      .energy();

  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kEdp;
  spec.power_budget_watts = e.avg_power_watts * 1.5;  // a real constraint
  const sim::SearchResult result = ex.search(spec);

  std::printf("\nEDP search under a %.3f W budget "
              "(%zu evaluations, grid of %zu):\n",
              spec.power_budget_watts, result.evaluations,
              result.finalists.empty() ? 0 : result.finalists.size());
  for (const sim::SearchCandidate& c : result.finalists) {
    std::printf("  %-28s %10lu cyc  %8.3f uJ  %6.3f W  %s\n",
                c.point.c_str(), static_cast<unsigned long>(c.cycles),
                c.energy_j * 1e6, c.avg_power_watts,
                c.feasible ? "feasible" : "OVER BUDGET");
  }
  if (result.found) {
    std::printf("winner: %s (EDP %.3f uJ*s)\n", result.best_point.c_str(),
                result.best.energy.edp_joule_seconds * 1e6);
  } else {
    std::printf("no feasible point under the budget\n");
  }
  return result.found ? 0 : 1;
}
