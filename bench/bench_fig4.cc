// Fig. 4: local (private) TLB miss rate profiled over a full ResNet-50
// inference on a Gemmini-generated accelerator.
//
// Paper: "the miss rate occasionally climbs to 20-30% of recent requests,
// due to the tiled nature of DNN workloads" — orders of magnitude above
// CPU-workload TLB miss rates.
//
// The windowed rate comes from the metrics sampler: each window is the
// per-window delta of the "core0.tlb.{hits,misses}" counter timelines. The
// sampler closes a window when the SoC's event-merge frontier (the issue
// time of the next accelerator instruction or CPU step) crosses its
// boundary, so a lookup lands in the window its instruction issued in, not
// the window of the lookup's own cycle.

#include <cstdio>
#include <cstdlib>

#include "src/core/gemmini.h"

using namespace gemmini;

int main() {
  std::printf("=== Fig. 4: TLB miss rate over a full ResNet-50 inference ===\n\n");
  const bool fast = std::getenv("GEMMINI_BENCH_FAST") != nullptr;

  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  // A small private TLB (as in the paper's profiling config).
  cfg.accel.translation.private_tlb.entries = 8;
  cfg.accel.translation.l2_tlb_present = false;

  const Cycle window = 250000;
  sim::Session session =
      sim::Session::builder(cfg)
          .metrics({.enabled = true, .sample_interval_cycles = window})
          .build();
  const sim::Report r = session.run(zoo::resnet50(fast ? 96 : 224));

  const Tlb& tlb = session.soc().accelerator(0).translation().private_tlb();
  std::printf("run: %lu cycles; private TLB: %lu hits, %lu misses "
              "(hit rate %.1f%%)\n\n",
              static_cast<unsigned long>(r.cycles),
              static_cast<unsigned long>(tlb.stats().hits),
              static_cast<unsigned long>(tlb.stats().misses),
              100.0 * tlb.hit_rate());

  const auto& timelines = r.metrics.counter_timelines;
  const std::vector<std::uint64_t>& hits = timelines.at("core0.tlb.hits");
  const std::vector<std::uint64_t>& misses = timelines.at("core0.tlb.misses");
  std::printf("miss rate per %luK-cycle window (each # = 1%%):\n",
              static_cast<unsigned long>(window / 1000));
  double peak = 0.0;
  for (std::size_t w = 0; w < hits.size(); ++w) {
    const std::uint64_t total = hits[w] + misses[w];
    if (total == 0) continue;
    const double rate =
        static_cast<double>(misses[w]) / static_cast<double>(total);
    if (rate > peak) peak = rate;
    std::printf("%6zu | %-35.*s| %5.1f%%\n", w,
                static_cast<int>(rate * 100.0 + 0.5),
                "###################################", 100.0 * rate);
  }
  std::printf("\npeak windowed miss rate: %.1f%%  (paper: spikes to 20-30%%)\n",
              100.0 * peak);
  std::printf("consecutive same-page reads:  %.0f%%  (paper: 87%%)\n",
              100.0 * tlb.consecutive_same_page_rate(false));
  std::printf("consecutive same-page writes: %.0f%%  (paper: 83%%)\n",
              100.0 * tlb.consecutive_same_page_rate(true));
  return 0;
}
