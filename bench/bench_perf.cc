// Gate harness for the simulator: the one place each benchmark gate is
// decided. Every mode runs its gates, writes one JSON record, and exits
// nonzero if any gate fails. scripts/run_bench.sh only builds this binary,
// runs one mode, and checks that the record parses as JSON.
//
//   $ ./bench_perf [MODE] [out.json]
//
// Before any mode, golden_gate() runs the three golden workloads once each
// (a 320^3 tiled matmul, a 56x56x64 3x3 conv, and resnet50(32) on
// base_1mb_l2 with im2col) and compares their simulated cycles with
// scripts/golden_cycles.json, read at run time. A drift fails every mode:
// a change that moves them changed timing semantics, not host speed.
//
//   MODE       default out      gates
//   (none)     BENCH_PR1.json   blocked int8 GEMM >= 5x the naive loops
//                               (median of 7 interleaved pairs) and
//                               bit-exact; simulator throughput on the
//                               golden workloads, best of 3 cold runs
//   --sweep    BENCH_PR2.json   the 9-point Fig. 9 grid on 4 threads is
//                               byte-identical to the serial run
//   --plan     BENCH_PR3.json   ExhaustiveTiling never models more DMA
//                               traffic than HeuristicTiling on the zoo
//   --trace    trace.json       tracing moves no cycle; every bottleneck
//                               row sums to its layer span
//   --dram     BENCH_PR5.json   FR-FCFS never slower than FCFS on the zoo
//                               (2 channels, write queue, refresh)
//   --faults   BENCH_PR6.json   armed zero-rate faults keep the golden; an
//                               ECC campaign corrects every single-bit
//                               flip; a poisoned sweep point is isolated
//   --serve    BENCH_PR7.json   load->0 latency equals Session::run; >= 3
//                               offered loads, ordered percentiles, bounded
//                               goodput; identical across thread counts
//   --llm      BENCH_PR8.json   batch-1 decode gains more from FR-FCFS than
//                               every conv model; cycles/token falls over
//                               1 -> 2 -> 4 channels
//   --metrics  BENCH_PR9.json   metrics move no golden cycle; <= 5%
//                               overhead (median of 7 pairs); at least one
//                               counter timeline, each summing to its
//                               total; a monotone decode KV timeline
//   --energy   BENCH_PR10.json  energy moves no golden cycle; the power
//                               timeline sums to the total; FR-FCFS never
//                               spends more DRAM energy; the search finds
//                               the exhaustive optimum; the femtojoule
//                               figures equal the pinned values
//
// Any other flag prints the usage and exits 2 before simulating anything.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/core/gemmini.h"

using namespace gemmini;

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

/// Interleaved A/B wall clock: `pairs` rounds, each timing `a` then `b`
/// back to back. Reports the median of each side and the median of the
/// per-pair ratios b/a, so load that drifts over the run lands on both
/// halves of a pair instead of skewing one side's samples.
struct AbTiming {
  double a_ms = 0.0;
  double b_ms = 0.0;
  double b_over_a = 0.0;
};

template <typename A, typename B>
AbTiming time_ab_ms(int pairs, A&& a, B&& b) {
  std::vector<double> ta, tb, ratio;
  for (int i = 0; i < pairs; ++i) {
    double t0 = now_ms();
    a();
    const double da = now_ms() - t0;
    t0 = now_ms();
    b();
    const double db = now_ms() - t0;
    ta.push_back(da);
    tb.push_back(db);
    ratio.push_back(db / da);
  }
  return {percentile(ta, 50), percentile(tb, 50), percentile(ratio, 50)};
}

/// Pairs per interleaved A/B gate (odd, so each median is one measured
/// pair).
constexpr int kAbPairs = 7;

VAddr upload_bytes(sim::Session& s, const void* data, std::uint64_t bytes) {
  const VAddr va = s.address_space().alloc(bytes + 4096);
  s.address_space().write_virt(va, data, bytes);
  return va;
}

// ---- Golden workloads ------------------------------------------------------

// Their names in scripts/golden_cycles.json and in the perf-mode record.
constexpr const char* kMatmul = "accel_tiled_matmul";
constexpr const char* kConv = "accel_conv3x3_56x56x64";
constexpr const char* kResnet = "resnet50_slice_32";

/// Instruments a golden run attaches to its session. Both only observe, so
/// neither may move a cycle.
struct Attach {
  const metrics::MetricsConfig* metrics = nullptr;
  const energy::EnergyConfig* energy = nullptr;
};

sim::Session build_session(sim::Session::Builder b, const Attach& with) {
  if (with.metrics != nullptr) b.metrics(*with.metrics);
  if (with.energy != nullptr) b.energy(*with.energy);
  return b.build();
}

/// One run of a golden workload on a fresh session: every run starts from
/// the same cold state, so its cycle count is deterministic (warm TLB /
/// PTE-cache / bus state cannot leak between runs).
struct GoldenRun {
  Cycle cycles = 0;
  double wall_ms = 0.0;  // the accelerator run (kernels), build + run (resnet)
  bool match = true;     // functional output equals the reference kernel
  sim::Report report;    // resnet only
};

/// 320^3 tiled int8 matmul on the paper-default accelerator, functional;
/// the output is checked against the blocked reference kernel.
GoldenRun run_matmul(const Attach& with = {}) {
  constexpr std::uint64_t kDim = 320;
  Rng rng(7);
  TensorI8 a({kDim, kDim}), b({kDim, kDim});
  a.randomize(rng);
  b.randomize(rng);
  sim::Session s = build_session(sim::Session::builder()
                                     .accel(GemminiConfig::paper_default())
                                     .functional(true),
                                 with);
  MatmulParams p;
  p.a = upload_bytes(s, a.data(), a.size());
  p.b = upload_bytes(s, b.data(), b.size());
  p.c = s.address_space().alloc(kDim * kDim + 8192);
  p.m = p.k = p.n = kDim;
  p.out_shift = 7;
  p.act = Activation::kRelu;
  const Program prog = emit_tiled_matmul(s.config().accel, p);

  GoldenRun r;
  const double t0 = now_ms();
  r.cycles = s.accelerator().run(prog, s.address_space());
  r.wall_ms = now_ms() - t0;
  TensorI8 got({kDim, kDim}), expect({kDim, kDim});
  s.address_space().read_virt(p.c, got.data(), got.size());
  ref::gemm_i8(a, b, nullptr, expect, 7, Activation::kRelu);
  r.match = got == expect;
  return r;
}

/// ResNet-stage-2-shaped layer: 56x56x64 -> 56x56x64, 3x3 stride 1 pad 1,
/// through the im2col unit, functional.
GoldenRun run_conv(const Attach& with = {}) {
  Rng rng(11);
  ConvShape shape;
  shape.ih = shape.iw = 56;
  shape.ic = shape.oc = 64;
  shape.kh = shape.kw = 3;
  shape.stride = 1;
  shape.padding = 1;
  TensorI8 in({1, shape.ih, shape.iw, shape.ic});
  TensorI8 w({static_cast<std::size_t>(shape.patch_cols()), shape.oc});
  in.randomize(rng);
  w.randomize(rng);
  GemminiConfig cfg = GemminiConfig::paper_default();
  cfg.has_im2col = true;
  sim::Session s = build_session(
      sim::Session::builder().accel(std::move(cfg)).functional(true), with);
  ConvBuffers buf;
  buf.input = upload_bytes(s, in.data(), in.size());
  buf.weights = upload_bytes(s, w.data(), w.size());
  buf.output = s.address_space().alloc(shape.out_rows() * shape.oc + 8192);
  buf.im2col_scratch = s.address_space().alloc(shape.im2col_bytes(1) + 8192);
  const ConvPlan plan =
      emit_conv(s.config().accel, shape, buf, 7, Activation::kRelu);

  GoldenRun r;
  const double t0 = now_ms();
  r.cycles = s.accelerator().run(plan.program, s.address_space());
  r.wall_ms = now_ms() - t0;
  return r;
}

/// `model` (resnet50(32)) on base_1mb_l2 with im2col through the
/// push-button Session flow; SoC elaboration and lowering are timed with
/// the run. Functional runs use seed 7.
GoldenRun run_resnet(const Model& model, bool functional,
                     const Attach& with = {}) {
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  GoldenRun r;
  const double t0 = now_ms();
  auto b = sim::Session::builder(cfg);
  if (functional) b.functional(true).seed(7);
  sim::Session s = build_session(b, with);
  r.report = s.run(model);
  r.wall_ms = now_ms() - t0;
  r.cycles = r.report.cycles;
  return r;
}

/// The golden cycle counts, as scripts/golden_cycles.json pins them.
struct Golden {
  Cycle matmul = 0, conv = 0, resnet = 0;
};

/// Reads scripts/golden_cycles.json (found through the GEMMINI_SOURCE_DIR
/// compile definition) into `want`, runs each golden workload once, and
/// reports whether every cycle count matches.
bool golden_gate(Golden* want) {
  const std::string path =
      std::string(GEMMINI_SOURCE_DIR) + "/scripts/golden_cycles.json";
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.empty()) {
    std::printf("FAIL: cannot read %s\n", path.c_str());
    return false;
  }
  auto read = [&](const std::string& key) -> Cycle {
    const std::size_t at = text.find("\"" + key + "\"");
    const std::size_t colon =
        at == std::string::npos ? at : text.find(':', at);
    return colon == std::string::npos
               ? 0
               : std::strtoull(text.c_str() + colon + 1, nullptr, 10);
  };
  *want = {read(kMatmul), read(kConv), read(kResnet)};

  const Model resnet = zoo::resnet50(32);
  const struct {
    const char* name;
    Cycle want, got;
  } rows[] = {
      {kMatmul, want->matmul, run_matmul().cycles},
      {kConv, want->conv, run_conv().cycles},
      {kResnet, want->resnet, run_resnet(resnet, true).cycles},
  };
  bool ok = true;
  for (const auto& r : rows) {
    std::printf("golden %-24s %10llu cycles  (%s %llu)\n", r.name,
                static_cast<unsigned long long>(r.got),
                r.got == r.want ? "ok," : "DIVERGED from",
                static_cast<unsigned long long>(r.want));
    ok = ok && r.got == r.want;
  }
  std::printf("%s\n\n", ok ? "all golden cycle counts match"
                           : "FAIL: simulated cycle counts diverged from "
                             "scripts/golden_cycles.json");
  return ok;
}

// ---- Perf mode: kernel A/B + simulator throughput --------------------------

struct Entry {
  std::string name;
  Cycle sim_cycles = 0;  // 0 = pure CPU-kernel workload (no simulated time)
  double wall_ms = 0.0;
  double speedup_vs_naive = 0.0;  // 0 = not a kernel A/B measurement
  bool match = true;
};

// CPU kernel A/B: blocked vs retained naive loops.

Entry kernel_matmul_i8(std::size_t m, std::size_t k, std::size_t n) {
  Rng rng(42);
  TensorI8 a({m, k}), b({k, n}), c_fast({m, n}), c_naive({m, n});
  a.randomize(rng);
  b.randomize(rng);
  std::vector<std::int32_t> bias(n);
  for (auto& v : bias) v = rng.next_range(-1000, 1000);

  const AbTiming t = time_ab_ms(
      kAbPairs,
      [&] { ref::gemm_i8(a, b, bias.data(), c_fast, 6, Activation::kRelu); },
      [&] {
        ref::gemm_i8_naive(a, b, bias.data(), c_naive, 6, Activation::kRelu);
      });

  Entry e;
  e.name = "kernel_matmul_i8_" + std::to_string(m);
  e.wall_ms = t.a_ms;
  e.speedup_vs_naive = t.b_over_a;
  e.match = c_fast == c_naive;
  std::printf("%-28s blocked %8.2f ms  naive %8.2f ms  speedup %6.2fx  %s\n",
              e.name.c_str(), t.a_ms, t.b_ms, e.speedup_vs_naive,
              e.match ? "exact" : "MISMATCH");
  return e;
}

Entry kernel_matmul_f32(std::size_t m, std::size_t k, std::size_t n) {
  Rng rng(43);
  TensorF32 a({m, k}), b({k, n}), c_fast({m, n}), c_naive({m, n});
  a.randomize(rng);
  b.randomize(rng);

  const AbTiming t = time_ab_ms(
      kAbPairs,
      [&] { ref::gemm_f32(a, b, nullptr, c_fast, Activation::kNone); },
      [&] { ref::gemm_f32_naive(a, b, nullptr, c_naive, Activation::kNone); });

  Entry e;
  e.name = "kernel_matmul_f32_" + std::to_string(m);
  e.wall_ms = t.a_ms;
  e.speedup_vs_naive = t.b_over_a;
  e.match = c_fast == c_naive;
  std::printf("%-28s blocked %8.2f ms  naive %8.2f ms  speedup %6.2fx  %s\n",
              e.name.c_str(), t.a_ms, t.b_ms, e.speedup_vs_naive,
              e.match ? "exact" : "MISMATCH");
  return e;
}

/// Simulator throughput: the best wall time of 3 runs of a golden workload,
/// whose cycle count must not vary across runs.
template <typename Run>
Entry best_of_3(const char* name, Run run) {
  Entry e;
  e.name = name;
  e.wall_ms = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const GoldenRun r = run();
    e.wall_ms = std::min(e.wall_ms, r.wall_ms);
    GEMMINI_CHECK_MSG(rep == 0 || r.cycles == e.sim_cycles,
                      "nondeterministic cycle count");
    e.sim_cycles = r.cycles;
    e.match = e.match && r.match;
  }
  std::printf("%-28s %12llu cycles  %8.2f ms  %10.1f Mcyc/s%s\n",
              e.name.c_str(), static_cast<unsigned long long>(e.sim_cycles),
              e.wall_ms, static_cast<double>(e.sim_cycles) / e.wall_ms / 1e3,
              e.match ? "" : "  MISMATCH");
  return e;
}

bool write_json(const std::string& path, const std::vector<Entry>& entries) {
  std::ofstream out(path);
  out << "{\n  \"pr\": 1,\n  \"workloads\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    out << "    \"" << e.name << "\": {"
        << "\"sim_cycles\": " << e.sim_cycles << ", "
        << "\"wall_ms\": " << e.wall_ms << ", "
        << "\"sim_mcycles_per_sec\": "
        << (e.wall_ms > 0 && e.sim_cycles > 0
                ? static_cast<double>(e.sim_cycles) / e.wall_ms / 1e3
                : 0.0)
        << ", \"speedup_vs_naive\": " << e.speedup_vs_naive << ", "
        << "\"match\": " << (e.match ? "true" : "false") << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  return out.good();
}

int run_perf(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf: kernel A/B + simulator throughput ===\n\n");

  const Model resnet = zoo::resnet50(32);
  const std::vector<Entry> entries = {
      kernel_matmul_i8(512, 512, 512),
      kernel_matmul_f32(512, 512, 512),
      best_of_3(kMatmul, [] { return run_matmul(); }),
      best_of_3(kConv, [] { return run_conv(); }),
      best_of_3(kResnet, [&] { return run_resnet(resnet, true); }),
  };

  bool ok = write_json(out_path, entries);
  std::printf("\n%s %s\n", ok ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  for (const auto& e : entries) ok = ok && e.match;
  // The kernel gate: the blocked int8 matmul kernel (the paper's inference
  // pipeline) must beat the naive loops by >= 5x, as the median of the
  // interleaved per-pair ratios, and stay bit-exact. The fp32 kernel is
  // reported but not gated: its per-output serial FMA chain (required for
  // bit-exact accumulation order) caps the achievable speedup near 3x.
  for (const auto& e : entries) {
    if (e.name.rfind("kernel_matmul_i8", 0) == 0 && e.speedup_vs_naive > 0 &&
        e.speedup_vs_naive < 5.0) {
      std::printf("FAIL: %s speedup %.2fx < 5x\n", e.name.c_str(),
                  e.speedup_vs_naive);
      ok = false;
    }
  }
  if (!ok) std::printf("FAIL: mismatches or insufficient speedup\n");
  return ok ? 0 : 1;
}

// ---- Sweep mode ------------------------------------------------------------

int run_sweep(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --sweep: parallel design-space sweep ===\n\n");

  // Fig. 9's three memory-partitioning configs x three scaled DNNs = 9
  // points, every one through its own worker-local Session.
  std::vector<SocConfig> configs = {SocConfig::base_1mb_l2(),
                                    SocConfig::big_sp(), SocConfig::big_l2()};
  for (SocConfig& cfg : configs) cfg.accel.has_im2col = true;

  sim::Experiment exp;
  exp.configs(configs)
      .model(zoo::squeezenet_v11(64))
      .model(zoo::mobilenet_v2(64))
      .model(zoo::alexnet(63));
  const sim::Sweep sweep = exp.sweep();
  std::printf("%zu-point grid (3 configs x 3 models)\n", sweep.size());

  const double t_serial0 = now_ms();
  const auto serial = sweep.run({.threads = 1});
  const double serial_ms = now_ms() - t_serial0;

  const unsigned kThreads = 4;
  const double t_par0 = now_ms();
  const auto parallel = sweep.run({.threads = kThreads});
  const double par_ms = now_ms() - t_par0;

  const std::string serial_json = sim::reports_to_json(serial, 2);
  const std::string parallel_json = sim::reports_to_json(parallel, 2);
  const bool deterministic = serial_json == parallel_json;

  for (const sim::Report& r : parallel) {
    std::printf("  %-32s %12llu cycles  speedup %7.0fx\n", r.point.c_str(),
                static_cast<unsigned long long>(r.cycles), r.speedup);
  }
  std::printf("\nserial %.0f ms, %u-thread %.0f ms (%.2fx), reports %s\n",
              serial_ms, kThreads, par_ms, serial_ms / par_ms,
              deterministic ? "byte-identical" : "DIVERGED");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 2,\n  \"threads\": " << kThreads
      << ",\n  \"serial_ms\": " << serial_ms << ",\n  \"parallel_ms\": "
      << par_ms << ",\n  \"deterministic\": "
      << (deterministic ? "true" : "false") << ",\n  \"sweep\": ";
  // Indent the report array under the wrapper object.
  for (const char c : parallel_json) {
    out << c;
    if (c == '\n') out << "  ";
  }
  out << "\n}\n";
  const bool wrote = out.good();
  out.close();
  if (wrote) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("ERROR: could not write %s\n", out_path.c_str());
  }
  return (deterministic && wrote) ? 0 : 1;
}

// ---- Plan mode: Heuristic vs Exhaustive tiling -----------------------------

int run_plan_compare(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --plan: tiling-policy comparison ===\n\n");

  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;

  struct Row {
    std::string model;
    std::uint64_t heur_dma = 0, exh_dma = 0;
    Cycle heur_cycles = 0, exh_cycles = 0;
  };
  std::vector<Row> rows;
  bool never_worse = true;

  std::printf("%-18s %16s %16s %9s %14s %14s\n", "model", "heur dma(B)",
              "exh dma(B)", "saved", "heur cycles", "exh cycles");
  for (const Model& m : zoo::all_paper_models_scaled()) {
    Row row;
    row.model = m.name();
    {
      sim::Session s = sim::Session::builder(cfg).build();
      const sim::Report r = s.run(m);
      row.heur_dma = s.last_plan().modeled_dma_bytes();
      row.heur_cycles = r.cycles;
    }
    {
      sim::Session s =
          sim::Session::builder(cfg)
              .tiling(std::make_shared<const lowering::ExhaustiveTiling>())
              .build();
      const sim::Report r = s.run(m);
      row.exh_dma = s.last_plan().modeled_dma_bytes();
      row.exh_cycles = r.cycles;
    }
    never_worse = never_worse && row.exh_dma <= row.heur_dma;
    std::printf("%-18s %16llu %16llu %8.2f%% %14llu %14llu\n",
                row.model.c_str(),
                static_cast<unsigned long long>(row.heur_dma),
                static_cast<unsigned long long>(row.exh_dma),
                row.heur_dma == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(row.exh_dma) /
                                         static_cast<double>(row.heur_dma)),
                static_cast<unsigned long long>(row.heur_cycles),
                static_cast<unsigned long long>(row.exh_cycles));
    rows.push_back(std::move(row));
  }
  std::printf("\nexhaustive modeled DMA traffic %s the heuristic's on every "
              "model\n", never_worse ? "<=" : "EXCEEDS");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 3,\n  \"config\": \"" << cfg.name
      << "\",\n  \"exhaustive_never_worse\": "
      << (never_worse ? "true" : "false") << ",\n  \"models\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    \"" << r.model << "\": {"
        << "\"heuristic_dma_bytes\": " << r.heur_dma << ", "
        << "\"exhaustive_dma_bytes\": " << r.exh_dma << ", "
        << "\"heuristic_cycles\": " << r.heur_cycles << ", "
        << "\"exhaustive_cycles\": " << r.exh_cycles << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (never_worse && wrote) ? 0 : 1;
}

// ---- DRAM mode: controller scheduling comparison ---------------------------

int run_dram(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --dram: FR-FCFS vs FCFS on the model zoo ===\n\n");

  // A realistic contended memory system: 2 channels, XOR-folded line
  // interleave, a 16-deep write queue draining to 4, and DDR4-ish periodic
  // refresh. The two runs differ ONLY in the request scheduler.
  SocConfig base = SocConfig::base_1mb_l2();
  base.accel.has_im2col = true;
  base.mem.dram.channels = 2;
  base.mem.dram.interleave = DramInterleave::kXorFold;
  base.mem.dram.write_queue_depth = 16;
  base.mem.dram.write_drain_floor = 4;
  base.mem.dram.refresh_interval = 7800;
  base.mem.dram.refresh_latency = 280;

  struct Row {
    std::string model;
    Cycle fcfs = 0, frfcfs = 0;
    double hit_rate_fcfs = 0, hit_rate_frfcfs = 0;
  };
  std::vector<Row> rows;
  bool never_slower = true;

  auto run_one = [](SocConfig cfg, const Model& m, double* hit_rate) {
    sim::Session s = sim::Session::builder(std::move(cfg)).build();
    const sim::Report r = s.run(m);
    std::uint64_t hits = 0, misses = 0;
    for (const sim::DramChannelTraffic& ch : r.substrate.dram_channels) {
      hits += ch.row_hits;
      misses += ch.row_misses;
    }
    *hit_rate = hits + misses == 0
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(hits + misses);
    return r.cycles;
  };

  std::printf("%-18s %14s %14s %9s %8s %8s\n", "model", "fcfs cycles",
              "frfcfs cycles", "saved", "hit(f)", "hit(fr)");
  for (const Model& m : zoo::all_paper_models_scaled()) {
    Row row;
    row.model = m.name();
    SocConfig fcfs = base;
    fcfs.mem.dram.scheduler = DramScheduler::kFcfs;
    row.fcfs = run_one(fcfs, m, &row.hit_rate_fcfs);
    SocConfig fr = base;
    fr.mem.dram.scheduler = DramScheduler::kFrFcfs;
    row.frfcfs = run_one(fr, m, &row.hit_rate_frfcfs);
    never_slower = never_slower && row.frfcfs <= row.fcfs;
    std::printf("%-18s %14llu %14llu %8.3f%% %7.1f%% %7.1f%%\n",
                row.model.c_str(), static_cast<unsigned long long>(row.fcfs),
                static_cast<unsigned long long>(row.frfcfs),
                row.fcfs == 0 ? 0.0
                              : 100.0 * (1.0 - static_cast<double>(row.frfcfs) /
                                                   static_cast<double>(row.fcfs)),
                100.0 * row.hit_rate_fcfs, 100.0 * row.hit_rate_frfcfs);
    rows.push_back(std::move(row));
  }
  std::printf("\nFR-FCFS %s FCFS on every zoo model (2 channels)\n",
              never_slower ? "<=" : "EXCEEDS");

  // The golden configuration (1 channel, FCFS, no refresh, write-through)
  // is held by golden_gate(), which passed before this mode ran.
  std::ofstream out(out_path);
  out << "{\n  \"pr\": 5,\n  \"config\": \"" << base.name
      << "\",\n  \"channels\": " << base.mem.dram.channels
      << ",\n  \"frfcfs_never_slower\": " << (never_slower ? "true" : "false")
      << ",\n  \"golden_unchanged\": true"
      << ",\n  \"models\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    \"" << r.model << "\": {"
        << "\"fcfs_cycles\": " << r.fcfs << ", "
        << "\"frfcfs_cycles\": " << r.frfcfs << ", "
        << "\"row_hit_rate_fcfs\": " << r.hit_rate_fcfs << ", "
        << "\"row_hit_rate_frfcfs\": " << r.hit_rate_frfcfs << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (never_slower && wrote) ? 0 : 1;
}

// ---- Trace mode: cycle-level profiling artifact ----------------------------

int run_trace(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --trace: cycle-level trace + bottlenecks ===\n\n");

  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  const Model model = zoo::squeezenet_v11(64);

  // Tracing must be purely observational: same model, same config, cycle
  // counts bit-identical with the recorder attached and detached.
  sim::Session plain = sim::Session::builder(cfg).build();
  const sim::Report r_plain = plain.run(model);

  sim::Session traced = sim::Session::builder(cfg)
                            .trace(trace::TraceConfig::enabled_default())
                            .build();
  const sim::Report r_traced = traced.run(model);

  const bool invariant = r_plain.cycles == r_traced.cycles;
  std::printf("cycles untraced %llu, traced %llu: %s\n",
              static_cast<unsigned long long>(r_plain.cycles),
              static_cast<unsigned long long>(r_traced.cycles),
              invariant ? "bit-identical" : "DIVERGED");

  bool sums_ok = !r_traced.bottlenecks.empty();
  for (const trace::LayerBottleneck& l : r_traced.bottlenecks) {
    const Cycle sum = l.cpu + l.compute + l.translation + l.dram +
                      l.bus_wait + l.dma + l.other;
    if (sum != l.span) {
      std::printf("SUM MISMATCH: layer %zu components %llu != span %llu\n",
                  l.layer, static_cast<unsigned long long>(sum),
                  static_cast<unsigned long long>(l.span));
      sums_ok = false;
    }
  }

  // The report already carries the attribution rows; print them without
  // re-running the (snapshot + interval-union) pass.
  trace::BottleneckReport bn;
  bn.layers = r_traced.bottlenecks;
  bn.dropped_events = r_traced.trace_dropped_events;
  std::printf("\n%s\n", bn.to_string().c_str());
  std::printf("%zu trace events recorded (%llu dropped)\n",
              traced.trace_buffer().size(),
              static_cast<unsigned long long>(
                  traced.trace_buffer().dropped()));

  const bool nonempty = !traced.trace_buffer().empty();
  const bool wrote = traced.write_trace(out_path);
  std::printf("%s %s (open in https://ui.perfetto.dev)\n",
              wrote ? "wrote" : "ERROR: could not write", out_path.c_str());

  const bool ok = invariant && sums_ok && nonempty && wrote;
  if (!ok) std::printf("FAIL: trace mode checks failed\n");
  return ok ? 0 : 1;
}

// ---- Faults mode: resilience gates -----------------------------------------

int run_faults(const std::string& out_path, const Golden& golden) {
  std::printf("=== bench_perf --faults: fault-injection resilience gates ===\n\n");

  // Gate 1: the zero-fault default is bit-identical to the golden cycle
  // count — both with the fault layer absent (faults.enabled = false, no
  // injector built) and armed-but-idle (injector built, every rate zero:
  // no draws, no perturbation).
  const Model resnet = zoo::resnet50(32);
  const Cycle plain_cycles = run_resnet(resnet, false).cycles;

  SocConfig armed_cfg = SocConfig::base_1mb_l2();
  armed_cfg.accel.has_im2col = true;
  armed_cfg.faults.enabled = true;
  armed_cfg.faults.seed = 99;
  sim::Session armed = sim::Session::builder(armed_cfg).build();
  const Cycle armed_cycles = armed.run(resnet).cycles;

  const bool golden_ok =
      plain_cycles == golden.resnet && armed_cycles == plain_cycles;
  std::printf("golden %s: plain %llu, armed-zero-rate %llu (%s %llu)\n",
              kResnet, static_cast<unsigned long long>(plain_cycles),
              static_cast<unsigned long long>(armed_cycles),
              golden_ok ? "bit-identical, unchanged from" : "DIVERGED from",
              static_cast<unsigned long long>(golden.resnet));

  // Gate 2: a seeded ECC-on smoke campaign over single-bit DRAM flips must
  // correct every flip — corrected > 0 and zero silent data corruption.
  fault::FaultConfig ecc;
  ecc.enabled = true;
  ecc.name = "ecc1b";
  ecc.seed = 5;
  ecc.dram_read_flip_rate = 0.02;
  ecc.dram_flip_bits = 1;
  ecc.ecc.enabled = true;
  const unsigned kRuns = 4;
  const std::vector<sim::Report> campaign =
      sim::Experiment(SocConfig::base_1mb_l2())
          .model(zoo::squeezenet_v11(48))
          .functional()
          .fault_configs({ecc})
          .fault_campaign(kRuns)
          .run({.threads = 2});
  const sim::ReliabilityReport& rel = campaign.front().reliability;
  const bool campaign_ok =
      rel.campaign_runs == kRuns && rel.injection.ecc_corrected > 0 &&
      rel.injection.ecc_corrected == rel.injection.dram_read_flips &&
      rel.corrected > 0 && rel.sdc == 0 && rel.detected == 0;
  std::printf("ecc campaign (%u runs): %llu flips, %llu corrected, "
              "outcomes m/c/d/s = %u/%u/%u/%u (%s)\n",
              kRuns,
              static_cast<unsigned long long>(rel.injection.dram_read_flips),
              static_cast<unsigned long long>(rel.injection.ecc_corrected),
              rel.masked, rel.corrected, rel.detected, rel.sdc,
              campaign_ok ? "all corrected, SDC-free" : "GATE FAILED");

  // Gate 3: fail-soft sweeps — a poisoned point (watchdog budget far too
  // small) yields an error-status report while the other points complete.
  sim::Sweep sweep;
  SocConfig ok_cfg = SocConfig::base_1mb_l2();
  sweep.add("healthy-a", ok_cfg, zoo::squeezenet_v11(48));
  SocConfig poisoned = SocConfig::base_1mb_l2();
  poisoned.name = "poisoned";
  poisoned.max_cycles = 1000;
  sweep.add("poisoned", poisoned, zoo::squeezenet_v11(48));
  SocConfig ok2 = SocConfig::big_l2();
  sweep.add("healthy-b", ok2, zoo::squeezenet_v11(48));
  const std::vector<sim::Report> reports = sweep.run({.threads = 2});
  unsigned ok_points = 0, error_points = 0;
  for (const sim::Report& r : reports) {
    if (r.status == "ok" && r.cycles > 0) ++ok_points;
    if (r.status == "error") ++error_points;
  }
  const bool fail_soft_ok =
      reports.size() == 3 && ok_points == 2 && error_points == 1 &&
      reports[1].status == "error" &&
      reports[1].error.find("watchdog") != std::string::npos;
  std::printf("fail-soft sweep: %u/%zu points ok, %u error (%s)\n",
              ok_points, reports.size(), error_points,
              fail_soft_ok ? "poisoned point isolated" : "GATE FAILED");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 6"
      << ",\n  \"golden_unchanged\": " << (golden_ok ? "true" : "false")
      << ",\n  \"golden_cycles\": " << plain_cycles
      << ",\n  \"armed_zero_rate_cycles\": " << armed_cycles
      << ",\n  \"campaign\": {"
      << "\"runs\": " << rel.campaign_runs
      << ", \"dram_read_flips\": " << rel.injection.dram_read_flips
      << ", \"ecc_corrected\": " << rel.injection.ecc_corrected
      << ", \"masked\": " << rel.masked
      << ", \"corrected\": " << rel.corrected
      << ", \"detected\": " << rel.detected
      << ", \"sdc\": " << rel.sdc
      << ", \"sdc_rate\": " << rel.sdc_rate
      << ", \"all_single_bit_corrected\": "
      << (campaign_ok ? "true" : "false") << "}"
      << ",\n  \"fail_soft\": {"
      << "\"points\": " << reports.size()
      << ", \"ok_points\": " << ok_points
      << ", \"error_points\": " << error_points
      << ", \"fail_soft_ok\": " << (fail_soft_ok ? "true" : "false") << "}"
      << "\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (golden_ok && campaign_ok && fail_soft_ok && wrote) ? 0 : 1;
}

// ---- Serve mode: tail-latency / goodput gates ------------------------------

int run_serve(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --serve: serving-layer latency gates ===\n\n");

  // 2-core SoC serving the scaled SqueezeNet as a single request class.
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.has_im2col = true;
  cfg.cores = 2;
  const Model model = zoo::squeezenet_v11(48);

  // Gate 1: at offered load -> 0 one request's latency is *exactly* the
  // single-inference Session::run cycle count — the serving layer adds no
  // hidden cost.
  sim::Session probe = sim::Session::builder(cfg).build();
  const Cycle cold = probe.run(model).cycles;
  serve::ServeSpec identity_spec;
  identity_spec.enabled = true;
  identity_spec.classes.push_back(serve::RequestClass{model.name(), model});
  identity_spec.arrivals.kind = serve::ArrivalKind::kFixed;
  identity_spec.arrivals.requests_per_mcycle = 0.001;
  identity_spec.arrivals.horizon_cycles = 2'000'000'000;
  identity_spec.arrivals.max_requests = 1;
  serve::Server identity_server(cfg, identity_spec);
  const sim::ServerStats id_stats = identity_server.run().server;
  const bool identity_ok =
      id_stats.completed == 1 && id_stats.p50 == cold && id_stats.max_latency == cold;
  std::printf("identity: Session::run %llu cycles, served request p50 %llu "
              "(%s)\n",
              static_cast<unsigned long long>(cold),
              static_cast<unsigned long long>(id_stats.p50),
              identity_ok ? "exact" : "DIVERGED");

  // The goodput-vs-offered-load curve: 3 loads around the 2-core capacity
  // under the size-capped batching policy with a bounded admission queue.
  const double capacity = 2.0 * 1e6 / static_cast<double>(cold);
  const std::vector<double> loads = {0.25 * capacity, 1.0 * capacity,
                                     2.0 * capacity};
  serve::ServeSpec spec;
  spec.enabled = true;
  spec.arrivals.horizon_cycles = 50 * cold;
  spec.arrivals.seed = 9;
  spec.scheduler.policy = serve::ServePolicy::kBatch;
  spec.scheduler.max_batch = 4;
  spec.scheduler.admission_capacity = 64;

  sim::Experiment exp(cfg);
  exp.model(model).serve(spec).offered_loads(loads);

  // Gate 2: the sweep is byte-identical across worker thread counts.
  const std::vector<sim::Report> serial = exp.run({.threads = 1});
  const std::vector<sim::Report> parallel = exp.run({.threads = 4});
  const bool deterministic =
      sim::reports_to_json(serial, 2) == sim::reports_to_json(parallel, 2);

  // Gate 3: percentiles ordered at every load; goodput bounded by both the
  // offered load and the calibrated capacity (10% slack for switch costs),
  // and saturating — not tracking — the offered rate at overload.
  bool percentiles_ok = true;
  bool goodput_ok = true;
  std::printf("\n%-24s %10s %12s %12s %12s %10s %6s %6s\n", "point",
              "offered", "p50", "p95", "p99", "goodput", "shed", "miss");
  for (const sim::Report& r : serial) {
    const sim::ServerStats& st = r.server;
    percentiles_ok = percentiles_ok && st.completed > 0 && st.p50 <= st.p95 &&
                     st.p95 <= st.p99 && st.p99 <= st.max_latency;
    goodput_ok = goodput_ok &&
                 st.goodput_per_mcycle <= st.offered_per_mcycle + 1e-9 &&
                 st.goodput_per_mcycle <= capacity * 1.10;
    std::printf("%-24s %10.3f %12llu %12llu %12llu %10.3f %6llu %6llu\n",
                r.point.c_str(), st.offered_per_mcycle,
                static_cast<unsigned long long>(st.p50),
                static_cast<unsigned long long>(st.p95),
                static_cast<unsigned long long>(st.p99),
                st.goodput_per_mcycle,
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.deadline_misses));
  }
  const sim::ServerStats& over = serial.back().server;
  goodput_ok = goodput_ok && over.goodput_per_mcycle < over.offered_per_mcycle;
  // A curve needs points below, at and above capacity.
  const bool curve_ok = serial.size() >= 3;
  std::printf("\ncapacity %.3f req/Mcyc; %zu offered loads%s; percentiles %s, "
              "goodput %s, reports %s\n",
              capacity, serial.size(), curve_ok ? "" : " (FEWER THAN 3)",
              percentiles_ok ? "ordered" : "OUT OF ORDER",
              goodput_ok ? "bounded" : "UNBOUNDED",
              deterministic ? "byte-identical" : "DIVERGED");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 7"
      << ",\n  \"policy\": \"" << spec.scheduler.label() << "\""
      << ",\n  \"cores\": " << cfg.cores
      << ",\n  \"model\": \"" << model.name() << "\""
      << ",\n  \"session_cycles\": " << cold
      << ",\n  \"capacity_per_mcycle\": " << capacity
      << ",\n  \"identity_exact\": " << (identity_ok ? "true" : "false")
      << ",\n  \"deterministic\": " << (deterministic ? "true" : "false")
      << ",\n  \"percentiles_ok\": " << (percentiles_ok ? "true" : "false")
      << ",\n  \"goodput_bounded\": " << (goodput_ok ? "true" : "false")
      << ",\n  \"loads\": [\n";
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const sim::ServerStats& st = serial[i].server;
    out << "    {\"point\": \"" << serial[i].point << "\""
        << ", \"offered_per_mcycle\": " << st.offered_per_mcycle
        << ", \"p50\": " << st.p50 << ", \"p95\": " << st.p95
        << ", \"p99\": " << st.p99 << ", \"p999\": " << st.p999
        << ", \"goodput_per_mcycle\": " << st.goodput_per_mcycle
        << ", \"shed\": " << st.shed
        << ", \"deadline_misses\": " << st.deadline_misses << "}"
        << (i + 1 < serial.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (identity_ok && deterministic && curve_ok && percentiles_ok &&
          goodput_ok && wrote)
             ? 0
             : 1;
}

// ---- LLM mode: decode-vs-CNN memory-system gates ---------------------------

int run_llm(const std::string& out_path, const Golden&) {
  std::printf("=== bench_perf --llm: KV-cache-resident decode gates ===\n\n");

  // Shared contended memory system for every run in this suite: the --dram
  // knobs (write queue + periodic refresh, XOR-folded interleave) with a
  // 4 MB L2. The scaled conv zoo then mostly fits in cache and its FR-FCFS
  // gains collapse, while decode's working set (weights + KV cache, ~6 MB
  // at hidden=512) re-streams from DRAM on every generated token. That
  // contrast — scheduling matters *more* for decode — is the gate.
  auto contended = [](unsigned channels, DramScheduler sched) {
    SocConfig cfg = SocConfig::base_1mb_l2();
    cfg.accel.has_im2col = true;
    cfg.mem.l2.size_bytes = 4ull << 20;
    cfg.mem.dram.channels = channels;
    cfg.mem.dram.scheduler = sched;
    cfg.mem.dram.interleave = DramInterleave::kXorFold;
    cfg.mem.dram.write_queue_depth = 16;
    cfg.mem.dram.write_drain_floor = 4;
    cfg.mem.dram.refresh_interval = 7800;
    cfg.mem.dram.refresh_latency = 280;
    return cfg;
  };

  // Batch-1 decode at a DRAM-resident size: the memory-bound extreme of the
  // workload zoo.
  llm::DecodeConfig decode;
  decode.hidden = 512;
  decode.heads = 8;
  decode.prompt_tokens = 256;
  decode.decode_steps = 4;

  auto decode_cpt = [&](unsigned channels, DramScheduler sched, double* hit) {
    sim::Session s = sim::Session::builder(contended(channels, sched)).build();
    const sim::Report r = llm::run_decode(s, decode);
    if (hit != nullptr) *hit = r.substrate.dram_row_hit_rate;
    return r.llm.cycles_per_token;
  };

  auto gain_pct = [](Cycle fcfs, Cycle frfcfs) {
    return fcfs == 0 ? 0.0
                     : 100.0 * (1.0 - static_cast<double>(frfcfs) /
                                          static_cast<double>(fcfs));
  };

  // Gate 1: batch-1 decode gains strictly more from FR-FCFS than every
  // conv-zoo model under the same contended 2-channel config.
  double llm_hit_fcfs = 0.0, llm_hit_frfcfs = 0.0;
  const Cycle llm_fcfs = decode_cpt(2, DramScheduler::kFcfs, &llm_hit_fcfs);
  const Cycle llm_frfcfs =
      decode_cpt(2, DramScheduler::kFrFcfs, &llm_hit_frfcfs);
  const double llm_gain = gain_pct(llm_fcfs, llm_frfcfs);

  struct Row {
    std::string model;
    Cycle fcfs = 0, frfcfs = 0;
    double gain = 0.0;
  };
  std::vector<Row> rows;
  bool llm_gains_most = true;
  std::printf("%-18s %14s %14s %9s\n", "workload", "fcfs", "frfcfs", "saved");
  for (const Model& m : zoo::all_paper_models_scaled()) {
    Row row;
    row.model = m.name();
    sim::Session sf = sim::Session::builder(contended(2, DramScheduler::kFcfs))
                          .build();
    row.fcfs = sf.run(m).cycles;
    sim::Session sr =
        sim::Session::builder(contended(2, DramScheduler::kFrFcfs)).build();
    row.frfcfs = sr.run(m).cycles;
    row.gain = gain_pct(row.fcfs, row.frfcfs);
    llm_gains_most = llm_gains_most && llm_gain > row.gain;
    std::printf("%-18s %14llu %14llu %8.3f%%\n", row.model.c_str(),
                static_cast<unsigned long long>(row.fcfs),
                static_cast<unsigned long long>(row.frfcfs), row.gain);
    rows.push_back(std::move(row));
  }
  std::printf("%-18s %14llu %14llu %8.3f%%  (cycles/token, row-hit "
              "%.1f%% -> %.1f%%)\n",
              decode.label().c_str(),
              static_cast<unsigned long long>(llm_fcfs),
              static_cast<unsigned long long>(llm_frfcfs), llm_gain,
              100.0 * llm_hit_fcfs, 100.0 * llm_hit_frfcfs);
  std::printf("\nbatch-1 decode FR-FCFS gain %s every conv model's\n",
              llm_gains_most ? "exceeds" : "DOES NOT EXCEED");

  // Gate 2: cycles-per-token strictly improves 1 -> 2 -> 4 channels. Gated
  // on the in-order scheduler, where channel scaling is pure added
  // bandwidth; FR-FCFS reordering interacts with the XOR-folded interleave
  // and is not guaranteed monotone at every channel count.
  std::vector<Cycle> channel_cpt;
  bool channels_monotone = true;
  std::printf("\nchannel scaling (FCFS): ");
  for (const unsigned ch : {1u, 2u, 4u}) {
    const Cycle cpt = decode_cpt(ch, DramScheduler::kFcfs, nullptr);
    if (!channel_cpt.empty()) {
      channels_monotone = channels_monotone && cpt < channel_cpt.back();
    }
    channel_cpt.push_back(cpt);
    std::printf("%uch=%llu ", ch, static_cast<unsigned long long>(cpt));
  }
  std::printf("cyc/token (%s)\n",
              channels_monotone ? "strictly decreasing" : "NOT MONOTONE");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 8,\n  \"decode\": \"" << decode.label() << "\""
      // golden_gate() held the golden configuration before this mode ran.
      << ",\n  \"golden_unchanged\": true"
      << ",\n  \"llm_gains_most\": " << (llm_gains_most ? "true" : "false")
      << ",\n  \"channels_monotone\": "
      << (channels_monotone ? "true" : "false")
      << ",\n  \"llm\": {\"fcfs_cycles_per_token\": " << llm_fcfs
      << ", \"frfcfs_cycles_per_token\": " << llm_frfcfs
      << ", \"gain_pct\": " << llm_gain
      << ", \"row_hit_rate_fcfs\": " << llm_hit_fcfs
      << ", \"row_hit_rate_frfcfs\": " << llm_hit_frfcfs << "}"
      << ",\n  \"channel_cycles_per_token\": [" << channel_cpt[0] << ", "
      << channel_cpt[1] << ", " << channel_cpt[2] << "]"
      << ",\n  \"models\": {\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    \"" << r.model << "\": {"
        << "\"fcfs_cycles\": " << r.fcfs << ", "
        << "\"frfcfs_cycles\": " << r.frfcfs << ", "
        << "\"gain_pct\": " << r.gain << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (llm_gains_most && channels_monotone && wrote) ? 0 : 1;
}

// ---- Telemetry gates (--metrics) -------------------------------------------

int run_metrics(const std::string& out_path, const Golden& golden) {
  std::printf("=== bench_perf --metrics: telemetry gates ===\n\n");

  metrics::MetricsConfig sampled = metrics::MetricsConfig::enabled_default();
  const Attach metered{&sampled, nullptr};

  // Gate 1: the golden workloads are cycle-identical with the registry and
  // sampler attached — metrics are observational only. golden_gate() ran
  // the matmul without metrics and matched the table, so the table holds
  // its metrics-off count.
  const Cycle matmul_on = run_matmul(metered).cycles;
  const bool matmul_ok = matmul_on == golden.matmul;
  std::printf("%-20s off %llu  on %llu  (%s)\n", kMatmul,
              static_cast<unsigned long long>(golden.matmul),
              static_cast<unsigned long long>(matmul_on),
              matmul_ok ? "identical" : "DIVERGED");

  // The overhead gate times interleaved off/on pairs and gates on the
  // median of the per-pair on/off ratios, so load that drifts over the run
  // lands on both halves of a pair. Cycle identity is checked on every run.
  // The resnet slice is the heaviest golden workload, so its wall is the
  // one a grid sweep would pay.
  const Model resnet = zoo::resnet50(32);
  Cycle resnet_off = 0, resnet_on = 0;
  bool resnet_ok = true;
  sim::Report metered_report;
  const AbTiming ab = time_ab_ms(
      kAbPairs,
      [&] {
        resnet_off = run_resnet(resnet, false).cycles;
        resnet_ok = resnet_ok && resnet_off == golden.resnet;
      },
      [&] {
        metered_report = run_resnet(resnet, false, metered).report;
        resnet_on = metered_report.cycles;
        resnet_ok = resnet_ok && resnet_on == resnet_off;
      });
  const double wall_off = ab.a_ms, wall_on = ab.b_ms;
  const double overhead_pct = 100.0 * (ab.b_over_a - 1.0);
  const bool overhead_ok = overhead_pct <= 5.0;
  std::printf("%-20s off %llu  on %llu  (%s)\n", kResnet,
              static_cast<unsigned long long>(resnet_off),
              static_cast<unsigned long long>(resnet_on),
              resnet_ok ? "identical" : "DIVERGED");
  std::printf("metrics-on overhead  %.2f%% (median of %d pairs; off %.1f ms, "
              "on %.1f ms, %s)\n",
              overhead_pct, kAbPairs, wall_off, wall_on,
              overhead_ok ? "<= 5%" : "EXCEEDS 5%");

  // Gate 2: the reconciliation invariant on the metered resnet run — at
  // least one counter timeline, each summing exactly to its end-of-run
  // total, and every timeline spanning the full window count.
  const sim::MetricsReport& mr = metered_report.metrics;
  bool reconciled =
      mr.enabled && mr.windows > 0 && !mr.counter_timelines.empty();
  std::size_t checked = 0;
  for (const auto& [name, timeline] : mr.counter_timelines) {
    std::uint64_t total = 0;
    for (const std::uint64_t d : timeline) total += d;
    const auto it = mr.counters.find(name);
    reconciled = reconciled && it != mr.counters.end() &&
                 total == it->second && timeline.size() == mr.windows;
    ++checked;
  }
  for (const auto& [name, timeline] : mr.gauge_timelines) {
    reconciled = reconciled && timeline.size() == mr.windows;
  }
  std::printf("sampler reconciliation: %zu counter timelines over %zu "
              "windows (%s)\n",
              checked, mr.windows, reconciled ? "exact" : "MISMATCH");

  // Gate 3: the decode workload's KV-footprint gauge timeline is
  // non-decreasing and lands exactly on the configured cache size.
  llm::DecodeConfig decode;
  decode.hidden = 256;
  decode.heads = 4;
  decode.prompt_tokens = 64;
  decode.decode_steps = 8;
  metrics::MetricsConfig decode_cfg = sampled;
  decode_cfg.sample_interval_cycles = 20000;
  sim::Session decode_session =
      sim::Session::builder().metrics(decode_cfg).build();
  const sim::Report decode_report = llm::run_decode(decode_session, decode);
  bool kv_ok = decode_report.metrics.gauge_timelines.count("llm.kv_bytes") > 0;
  if (kv_ok) {
    const auto& tl = decode_report.metrics.gauge_timelines.at("llm.kv_bytes");
    for (std::size_t i = 1; i < tl.size(); ++i) {
      kv_ok = kv_ok && tl[i - 1] <= tl[i];
    }
    kv_ok = kv_ok && !tl.empty() &&
            tl.back() ==
                static_cast<double>(decode_report.llm.kv_cache_bytes);
  }
  std::printf("decode kv-footprint timeline: %s\n\n",
              kv_ok ? "monotone, reconciles with kv_cache_bytes"
                    : "BROKEN");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 9"
      << ",\n  \"matmul_cycles_off\": " << golden.matmul
      << ",\n  \"matmul_cycles_on\": " << matmul_on
      << ",\n  \"resnet_cycles_off\": " << resnet_off
      << ",\n  \"resnet_cycles_on\": " << resnet_on
      << ",\n  \"golden_identical\": "
      << (matmul_ok && resnet_ok ? "true" : "false")
      << ",\n  \"wall_ms_off\": " << wall_off
      << ",\n  \"wall_ms_on\": " << wall_on
      << ",\n  \"overhead_pct\": " << overhead_pct
      << ",\n  \"overhead_within_5pct\": " << (overhead_ok ? "true" : "false")
      << ",\n  \"sampler_windows\": " << mr.windows
      << ",\n  \"counter_timelines\": " << checked
      << ",\n  \"timelines_reconcile\": " << (reconciled ? "true" : "false")
      << ",\n  \"kv_timeline_monotone\": " << (kv_ok ? "true" : "false")
      << "\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (matmul_ok && resnet_ok && overhead_ok && reconciled && kv_ok &&
          wrote)
             ? 0
             : 1;
}

// ---- Energy gates (--energy) -----------------------------------------------

int run_energy(const std::string& out_path, const Golden& golden) {
  std::printf("=== bench_perf --energy: command-level energy gates ===\n\n");

  const energy::EnergyConfig priced = energy::EnergyConfig::enabled_default();

  // Gate 1: the golden workloads are cycle-identical with energy on —
  // energy is derived from counts after the run, so it cannot move timing.
  // golden_gate() ran each one without energy and matched the table, so
  // the table holds the energy-off counts.
  const metrics::MetricsConfig sampled =
      metrics::MetricsConfig::enabled_default();
  const Cycle matmul_on = run_matmul({nullptr, &priced}).cycles;
  const Cycle conv_on = run_conv({nullptr, &priced}).cycles;
  const sim::Report metered =
      run_resnet(zoo::resnet50(32), true, {&sampled, &priced}).report;
  const bool golden_ok = matmul_on == golden.matmul &&
                         conv_on == golden.conv &&
                         metered.cycles == golden.resnet;
  const struct {
    const char* name;
    Cycle off, on;
  } rows[] = {{kMatmul, golden.matmul, matmul_on},
              {kConv, golden.conv, conv_on},
              {kResnet, golden.resnet, metered.cycles}};
  for (const auto& r : rows) {
    std::printf("%-24s off %llu  on %llu\n", r.name,
                static_cast<unsigned long long>(r.off),
                static_cast<unsigned long long>(r.on));
  }
  std::printf("golden cycles with energy on: %s\n\n",
              golden_ok ? "identical" : "DIVERGED");

  // Gate 2: the power timeline on the metered resnet run integrates
  // exactly to the end-of-run total — integer-femtojoule accounting makes
  // this an equality, not a tolerance check.
  const sim::EnergyReport& er = metered.energy;
  std::uint64_t window_sum = 0;
  for (const std::uint64_t w : er.window_fj) window_sum += w;
  const bool timeline_ok = er.enabled && !er.window_fj.empty() &&
                           window_sum == er.total_fj &&
                           er.window_fj.size() == metered.metrics.windows;
  std::printf("power timeline: %zu windows, sum %llu fJ vs total %llu fJ "
              "(%s)\n",
              er.window_fj.size(),
              static_cast<unsigned long long>(window_sum),
              static_cast<unsigned long long>(er.total_fj),
              timeline_ok ? "exact" : "MISMATCH");
  std::printf("resnet energy: %.3f mJ, avg %.3f W, EDP %.3f uJs\n\n",
              er.total_j * 1e3, er.avg_power_watts,
              er.edp_joule_seconds * 1e6);

  // Gate 3: FR-FCFS must not spend more DRAM energy than FCFS on any zoo
  // model under the contended 2-channel config — row hits skip the
  // ACT/PRE pair, and the shorter run buys fewer refresh periods, so the
  // scheduler that wins cycles must also win joules.
  SocConfig contended = SocConfig::base_1mb_l2();
  contended.accel.has_im2col = true;
  contended.mem.dram.channels = 2;
  contended.mem.dram.interleave = DramInterleave::kXorFold;
  contended.mem.dram.write_queue_depth = 16;
  contended.mem.dram.write_drain_floor = 4;
  contended.mem.dram.refresh_interval = 7800;
  contended.mem.dram.refresh_latency = 280;

  auto dram_fj = [&](SocConfig cfg, const Model& m, Cycle* cycles) {
    sim::Session s =
        sim::Session::builder(std::move(cfg)).energy(priced).build();
    const sim::Report r = s.run(m);
    *cycles = r.cycles;
    return r.energy.dram_fj;
  };

  bool sched_ok = true;
  std::printf("%-18s %16s %16s\n", "model", "fcfs dram fJ", "frfcfs dram fJ");
  struct SchedRow {
    std::string model;
    std::uint64_t fcfs_fj = 0, frfcfs_fj = 0;
  };
  std::vector<SchedRow> sched_rows;
  for (const Model& m : zoo::all_paper_models_scaled()) {
    SocConfig fcfs = contended;
    fcfs.mem.dram.scheduler = DramScheduler::kFcfs;
    SocConfig fr = contended;
    fr.mem.dram.scheduler = DramScheduler::kFrFcfs;
    Cycle c_fcfs = 0, c_fr = 0;
    SchedRow row;
    row.model = m.name();
    row.fcfs_fj = dram_fj(fcfs, m, &c_fcfs);
    row.frfcfs_fj = dram_fj(fr, m, &c_fr);
    sched_ok = sched_ok && row.frfcfs_fj <= row.fcfs_fj && c_fr <= c_fcfs;
    std::printf("%-18s %16llu %16llu\n", row.model.c_str(),
                static_cast<unsigned long long>(row.fcfs_fj),
                static_cast<unsigned long long>(row.frfcfs_fj));
    sched_rows.push_back(std::move(row));
  }
  std::printf("FR-FCFS %s FCFS on DRAM energy for every zoo model\n\n",
              sched_ok ? "<=" : "EXCEEDS");

  // Gate 4: the successive-halving search picks the same winner as an
  // exhaustive full-fidelity sweep, with and without a power budget that
  // splits the grid.
  sim::Experiment ex(SocConfig::base_1mb_l2());
  ex.model(zoo::squeezenet_v11(48))
      .functional(true)
      .dram_channels({1, 2})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs})
      .energy(priced);

  const std::vector<sim::Report> grid = ex.run();
  std::size_t best_idx = grid.size();
  double best_edp = 0;
  double min_w = 1e300, max_w = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].status != "ok") continue;
    min_w = std::min(min_w, grid[i].energy.avg_power_watts);
    max_w = std::max(max_w, grid[i].energy.avg_power_watts);
    if (best_idx == grid.size() ||
        grid[i].energy.edp_joule_seconds < best_edp) {
      best_idx = i;
      best_edp = grid[i].energy.edp_joule_seconds;
    }
  }

  sim::SearchSpec spec;
  spec.objective = sim::SearchSpec::Objective::kEdp;
  const sim::SearchResult unconstrained = ex.search(spec);
  const bool search_ok = best_idx < grid.size() && unconstrained.found &&
                         unconstrained.best_point == grid[best_idx].point;
  std::printf("search (EDP): %s in %zu evaluations vs exhaustive %s over "
              "%zu full runs (%s)\n",
              unconstrained.best_point.c_str(), unconstrained.evaluations,
              best_idx < grid.size() ? grid[best_idx].point.c_str() : "-",
              grid.size(), search_ok ? "match" : "MISMATCH");

  // Budget between the grid's power extremes: the search must pick the
  // exhaustive feasible optimum, not the infeasible global one.
  const double budget = (min_w + max_w) / 2.0;
  std::size_t best_feasible = grid.size();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].status != "ok" ||
        grid[i].energy.avg_power_watts > budget) {
      continue;
    }
    if (best_feasible == grid.size() ||
        grid[i].energy.edp_joule_seconds <
            grid[best_feasible].energy.edp_joule_seconds) {
      best_feasible = i;
    }
  }
  spec.power_budget_watts = budget;
  const sim::SearchResult budgeted = ex.search(spec);
  const bool budget_ok =
      best_feasible == grid.size()
          ? !budgeted.found
          : budgeted.found &&
                budgeted.best_point == grid[best_feasible].point;
  std::printf("search (EDP, %.3f W budget): %s vs exhaustive feasible %s "
              "(%s)\n\n",
              budget, budgeted.found ? budgeted.best_point.c_str() : "none",
              best_feasible < grid.size() ? grid[best_feasible].point.c_str()
                                          : "none",
              budget_ok ? "match" : "MISMATCH");

  // Gate 5: the femtojoule figures equal the values committed in
  // BENCH_PR10.json. That file is this mode's default output, so the
  // reference is kept here rather than read back.
  const struct {
    const char* model;
    std::uint64_t fcfs_fj, frfcfs_fj;
  } kPinnedDramFj[] = {
      {"resnet50", 284552786000, 283288786000},
      {"alexnet", 437073666000, 437020666000},
      {"squeezenet_v1.1", 20322094000, 19859094000},
      {"mobilenetv2", 57707880000, 56497880000},
      {"bert-base", 104504562000, 103804562000},
  };
  constexpr std::uint64_t kPinnedResnetFj = 818935874640;
  bool pinned_ok = er.total_fj == kPinnedResnetFj &&
                   sched_rows.size() == std::size(kPinnedDramFj);
  for (std::size_t i = 0; pinned_ok && i < sched_rows.size(); ++i) {
    const SchedRow& r = sched_rows[i];
    pinned_ok = r.model == kPinnedDramFj[i].model &&
                r.fcfs_fj == kPinnedDramFj[i].fcfs_fj &&
                r.frfcfs_fj == kPinnedDramFj[i].frfcfs_fj;
  }
  std::printf("femtojoule pins (resnet total, scheduler DRAM table): %s\n\n",
              pinned_ok ? "equal" : "DIFFER");

  std::ofstream out(out_path);
  out << "{\n  \"pr\": 10"
      << ",\n  \"matmul_cycles_off\": " << golden.matmul
      << ",\n  \"matmul_cycles_on\": " << matmul_on
      << ",\n  \"conv_cycles_off\": " << golden.conv
      << ",\n  \"conv_cycles_on\": " << conv_on
      << ",\n  \"resnet_cycles_off\": " << golden.resnet
      << ",\n  \"resnet_cycles_on\": " << metered.cycles
      << ",\n  \"golden_identical\": " << (golden_ok ? "true" : "false")
      << ",\n  \"resnet_total_fj\": " << er.total_fj
      << ",\n  \"resnet_avg_power_watts\": " << er.avg_power_watts
      << ",\n  \"timeline_windows\": " << er.window_fj.size()
      << ",\n  \"timeline_reconciles\": " << (timeline_ok ? "true" : "false")
      << ",\n  \"frfcfs_dram_energy_never_worse\": "
      << (sched_ok ? "true" : "false")
      << ",\n  \"scheduler_dram_fj\": {";
  for (std::size_t i = 0; i < sched_rows.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    \"" << sched_rows[i].model
        << "\": {\"fcfs\": " << sched_rows[i].fcfs_fj
        << ", \"frfcfs\": " << sched_rows[i].frfcfs_fj << "}";
  }
  out << "\n  }"
      << ",\n  \"search_best_point\": \"" << unconstrained.best_point << "\""
      << ",\n  \"search_evaluations\": " << unconstrained.evaluations
      << ",\n  \"search_matches_exhaustive\": "
      << (search_ok ? "true" : "false")
      << ",\n  \"search_power_budget_watts\": " << budget
      << ",\n  \"search_budget_matches_exhaustive\": "
      << (budget_ok ? "true" : "false") << "\n}\n";
  const bool wrote = out.good();
  std::printf("%s %s\n", wrote ? "wrote" : "ERROR: could not write",
              out_path.c_str());
  return (golden_ok && timeline_ok && sched_ok && search_ok && budget_ok &&
          pinned_ok && wrote)
             ? 0
             : 1;
}

// ---- Dispatch ----------------------------------------------------------------

struct Mode {
  const char* flag;  // "" = the default perf harness
  const char* default_out;
  int (*run)(const std::string& out_path, const Golden& golden);
};

constexpr Mode kModes[] = {
    {"", "BENCH_PR1.json", run_perf},
    {"--sweep", "BENCH_PR2.json", run_sweep},
    {"--plan", "BENCH_PR3.json", run_plan_compare},
    {"--trace", "trace.json", run_trace},
    {"--dram", "BENCH_PR5.json", run_dram},
    {"--faults", "BENCH_PR6.json", run_faults},
    {"--serve", "BENCH_PR7.json", run_serve},
    {"--llm", "BENCH_PR8.json", run_llm},
    {"--metrics", "BENCH_PR9.json", run_metrics},
    {"--energy", "BENCH_PR10.json", run_energy},
};

int usage() {
  std::fprintf(stderr, "usage: bench_perf [");
  for (std::size_t i = 1; i < std::size(kModes); ++i) {
    std::fprintf(stderr, "%s%s", i == 1 ? "" : "|", kModes[i].flag);
  }
  std::fprintf(stderr, "] [out.json]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Mode* mode = &kModes[0];
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (!out_path.empty()) return usage();
      out_path = arg;
      continue;
    }
    const Mode* m = std::find_if(std::begin(kModes) + 1, std::end(kModes),
                                 [&](const Mode& k) { return arg == k.flag; });
    if (m == std::end(kModes) || mode != &kModes[0]) return usage();
    mode = m;
  }
  if (out_path.empty()) out_path = mode->default_out;

  Golden golden;
  if (!golden_gate(&golden)) return 1;
  return mode->run(out_path, golden);
}
