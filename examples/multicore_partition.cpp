// SoC-level memory partitioning (paper §V-B, Fig. 9): given 1 MB of spare
// SRAM, should it go to the accelerators' private scratchpads (BigSP) or to
// the shared L2 (BigL2)? The answer flips between single-core and dual-core
// SoCs — this example reproduces that crossover.
//
// The 3 configs x 2 core-counts grid runs as one six-point `sim::Sweep`
// (each point a multi-core co-simulation on its own SoC); the SoC-level
// completion and L2 statistics come straight out of the per-point
// `sim::Report`.
//
//   $ ./example_multicore_partition [--fast]

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/core/gemmini.h"

using namespace gemmini;

namespace {

void report(const char* name, const sim::Report& r, const sim::Report& base) {
  const double total = 100.0 * (static_cast<double>(base.cycles) /
                                    static_cast<double>(r.cycles) -
                                1.0);
  std::printf("  %-6s: %12lu cycles (%+5.1f%% vs Base)", name,
              static_cast<unsigned long>(r.cycles), total);
  for (const char* tag : {"conv", "matmul", "resadd"}) {
    const auto it = r.cycles_by_tag.find(tag);
    const auto bt = base.cycles_by_tag.find(tag);
    if (it != r.cycles_by_tag.end() && bt != base.cycles_by_tag.end() &&
        it->second > 0) {
      std::printf("  %s %+5.1f%%", tag,
                  100.0 * (static_cast<double>(bt->second) /
                               static_cast<double>(it->second) -
                           1.0));
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = argc > 1 && std::strcmp(argv[1], "--fast") == 0;
  const Model model = zoo::resnet50(fast ? 96 : 224);

  // Build the grid: {Base, BigSP, BigL2} x {1, 2} cores, ResNet-50 per
  // core, every point a full multi-core co-simulation.
  std::vector<SocConfig> partitions = {SocConfig::base_1mb_l2(),
                                       SocConfig::big_sp(),
                                       SocConfig::big_l2()};
  sim::Sweep sweep;
  for (const unsigned cores : {1u, 2u}) {
    for (SocConfig cfg : partitions) {
      cfg.cores = cores;
      cfg.accel.has_im2col = true;
      std::string label = cfg.name + "-c" + std::to_string(cores);
      sweep.add({.name = std::move(label),
                 .config = std::move(cfg),
                 .model = model,
                 .multicore = true});
    }
  }
  const std::vector<sim::Report> reports = sweep.run();

  for (const unsigned cores : {1u, 2u}) {
    std::printf("%u-core SoC, ResNet-50 per core:\n", cores);
    const std::size_t base_idx = (cores - 1) * partitions.size();
    const sim::Report& base = reports[base_idx];
    std::printf("  %-6s: %12lu cycles (baseline), L2 miss rate %.1f%%\n",
                "Base", static_cast<unsigned long>(base.cycles),
                100.0 * base.substrate.l2_miss_rate);
    report("BigSP", reports[base_idx + 1], base);
    report("BigL2", reports[base_idx + 2], base);
    std::printf("\n");
  }
  std::printf("Paper's finding: single-core prefers BigSP (conv +10%%); "
              "dual-core prefers BigL2 (total +8%%, resadd +22%%).\n");

  // The compile side of the same question, answered without simulating a
  // cycle: a bigger scratchpad lets the tiling stage hold larger tiles, and
  // the sim::Plan's modeled DMA traffic quantifies the DRAM-pressure win.
  std::printf("\nmodeled DMA traffic per inference (from sim::Plan):\n");
  for (const SocConfig& base : {SocConfig::base_1mb_l2(), SocConfig::big_sp()}) {
    SocConfig cfg = base;
    cfg.accel.has_im2col = true;
    sim::Session session = sim::Session::builder(cfg).build();
    const sim::Plan plan = session.plan(model);
    std::printf("  %-6s %.1f MB\n", cfg.name.c_str(),
                plan.modeled_dma_bytes() / 1e6);
  }
  return 0;
}
