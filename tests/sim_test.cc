// Tests for the unified simulation facade: sim::Session (builder,
// validation, push-button runs, report consistency), sim::Sweep /
// sim::Experiment (grid expansion, parallel determinism) and sim::Report
// (JSON serialization).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>

#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/dnn/zoo.h"
#include "src/model/lowering/pipeline.h"
#include "src/runtime/conv.h"
#include "src/runtime/matmul.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

// ---- Session ----------------------------------------------------------------

TEST(SimSession, BuilderValidatesOnce) {
  // A broken accelerator template surfaces at build() with the session
  // named, not later inside the SoC constructor.
  sim::Session::Builder b;
  SocConfig cfg;
  cfg.name = "broken";
  cfg.accel.sp_capacity_bytes = 100;
  b.soc(cfg);
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

TEST(SimSession, ValidatesCpuCostModel) {
  SocConfig cfg;
  cfg.cpu.cycles_per_mac_i8 = 0;  // previously skipped by validate()
  EXPECT_THROW(cfg.validate(), ConfigError);
  EXPECT_THROW(sim::Session::builder(cfg).build(), ConfigError);
}

TEST(SimSession, ValidatesOsNoiseModel) {
  SocConfig cfg;
  cfg.os.enabled = true;
  cfg.os.period_cycles = 0;  // scheduler could never make progress
  EXPECT_THROW(cfg.validate(), ConfigError);

  SocConfig cfg2;
  cfg2.os.enabled = true;
  cfg2.os.switch_cost_cycles = cfg2.os.period_cycles;  // cost >= period
  EXPECT_THROW(cfg2.validate(), ConfigError);

  SocConfig ok;
  ok.os.enabled = true;
  EXPECT_NO_THROW(ok.validate());
}

TEST(SimSession, ValidatesDramControllerAtBuildTime) {
  // The DRAM section of the SocConfig fails at Session::build() — wrapped
  // as a ConfigError naming the session — not deep in SoC elaboration.
  SocConfig zero_channels;
  zero_channels.mem.dram.channels = 0;
  EXPECT_THROW(zero_channels.validate(), ConfigError);
  EXPECT_THROW(sim::Session::builder(zero_channels).build(), ConfigError);

  SocConfig bad_rows;
  bad_rows.mem.dram.row_bytes = 3000;  // not a power of two
  EXPECT_THROW(sim::Session::builder(bad_rows).build(), ConfigError);

  SocConfig bad_refresh;
  bad_refresh.mem.dram.refresh_interval = 50;
  bad_refresh.mem.dram.refresh_latency = 80;  // longer than the interval
  EXPECT_THROW(sim::Session::builder(bad_refresh).build(), ConfigError);

  SocConfig ok;
  ok.mem.dram.channels = 2;
  ok.mem.dram.scheduler = DramScheduler::kFrFcfs;
  ok.mem.dram.refresh_interval = 7800;
  ok.mem.dram.refresh_latency = 280;
  ok.mem.dram.write_queue_depth = 16;
  ok.mem.dram.write_drain_floor = 4;
  EXPECT_NO_THROW(sim::Session::builder(ok).build());
}

TEST(SimSession, ReportIsConsistent) {
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  sim::Session session = sim::Session::builder(cfg).build();
  const sim::Report r = session.run(zoo::squeezenet_v11(64));
  EXPECT_EQ(r.model, "squeezenet_v1.1");
  EXPECT_EQ(r.cores, 1u);
  ASSERT_EQ(r.per_core.size(), 1u);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.cycles, r.per_core[0].cycles);
  EXPECT_GT(r.fps, 0.0);
  EXPECT_NEAR(r.seconds, static_cast<double>(r.cycles) / 1e9, 1e-12);
  EXPECT_GT(r.speedup, 10.0);
  EXPECT_GT(r.array_utilization, 0.0);
  EXPECT_LT(r.array_utilization, 1.0);
  EXPECT_GT(r.per_core[0].accel.macs, 0u);
  // Estimates ride along in the report.
  EXPECT_GT(r.estimates.area.total_um2, 900000.0);
  EXPECT_NEAR(r.estimates.fmax_ghz, 1.89, 0.02);
  EXPECT_GT(r.estimates.power_mw, 1.0);
  // The tag breakdown accounts the run.
  Cycle tagged = 0;
  for (const auto& [tag, c] : r.cycles_by_tag) tagged += c;
  EXPECT_GT(tagged, 0u);
}

TEST(SimSession, RerunReportCountsCoverOnlyThatRun) {
  // Every Report section describes one run: the L2 and TLB counts restart
  // with the registry, so a second run of the same session reports the
  // registry's per-run figures, not a running total since the SoC was
  // built.
  const Model m = zoo::squeezenet_v11(48);
  sim::Session s =
      sim::Session::builder(SocConfig::base_1mb_l2())
          .metrics({.enabled = true, .sample_interval_cycles = 0})
          .build();
  const sim::Report first = s.run(m);
  const sim::Report second = s.run(m);
  for (const sim::Report* r : {&first, &second}) {
    EXPECT_GT(r->substrate.l2_hits, 0u);
    EXPECT_EQ(r->substrate.l2_hits, r->metrics.counters.at("l2.hits"));
    EXPECT_EQ(r->substrate.l2_misses, r->metrics.counters.at("l2.misses"));
    const double tlb_hits =
        static_cast<double>(r->metrics.counters.at("core0.tlb.hits"));
    const double tlb_misses =
        static_cast<double>(r->metrics.counters.at("core0.tlb.misses"));
    EXPECT_DOUBLE_EQ(r->per_core[0].private_tlb_hit_rate,
                     tlb_hits / (tlb_hits + tlb_misses));
  }
}

/// The cycle count scripts/golden_cycles.json pins for `key` (0 if absent).
Cycle golden_cycles(const std::string& key) {
  std::ifstream in(std::string(GEMMINI_SOURCE_DIR) +
                   "/scripts/golden_cycles.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t at = text.find("\"" + key + "\"");
  const std::size_t colon = at == std::string::npos ? at : text.find(':', at);
  return colon == std::string::npos
             ? 0
             : std::strtoull(text.c_str() + colon + 1, nullptr, 10);
}

VAddr upload(sim::Session& s, const TensorI8& t) {
  const VAddr va = s.address_space().alloc(t.size() + 4096);
  s.address_space().write_virt(va, t.data(), t.size());
  return va;
}

TEST(SimSession, GoldenCyclesMatchScriptsFile) {
  // The three bench_perf golden workloads, built as its golden gate builds
  // them (resnet timing-only: data does not move cycles).
  {
    Rng rng(7);
    TensorI8 a({320, 320}), b({320, 320});
    a.randomize(rng);
    b.randomize(rng);
    sim::Session s = sim::Session::builder()
                         .accel(GemminiConfig::paper_default())
                         .functional(true)
                         .build();
    MatmulParams p;
    p.a = upload(s, a);
    p.b = upload(s, b);
    p.c = s.address_space().alloc(320 * 320 + 8192);
    p.m = p.k = p.n = 320;
    p.out_shift = 7;
    p.act = Activation::kRelu;
    const Program prog = emit_tiled_matmul(s.config().accel, p);
    EXPECT_EQ(s.accelerator().run(prog, s.address_space()),
              golden_cycles("accel_tiled_matmul"));
  }
  {
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
    sim::Session s =
        sim::Session::builder().accel(std::move(cfg)).functional(true).build();
    ConvBuffers buf;
    buf.input = upload(s, in);
    buf.weights = upload(s, w);
    buf.output = s.address_space().alloc(shape.out_rows() * shape.oc + 8192);
    buf.im2col_scratch = s.address_space().alloc(shape.im2col_bytes(1) + 8192);
    const ConvPlan plan =
        emit_conv(s.config().accel, shape, buf, 7, Activation::kRelu);
    EXPECT_EQ(s.accelerator().run(plan.program, s.address_space()),
              golden_cycles("accel_conv3x3_56x56x64"));
  }
  {
    SocConfig cfg = SocConfig::base_1mb_l2();
    cfg.accel.has_im2col = true;
    sim::Session s = sim::Session::builder(cfg).build();
    EXPECT_EQ(s.run(zoo::resnet50(32)).cycles,
              golden_cycles("resnet50_slice_32"));
  }
}

TEST(SimSession, AllPaperModelsRunScaled) {
  // The whole zoo, scaled, through the push-button facade — every layer
  // kind the lowering supports (conv, depthwise, dense, pools, resadd,
  // softmax/layernorm/gelu) exercised end to end.
  for (const Model& m : zoo::all_paper_models_scaled()) {
    SocConfig cfg;
    cfg.accel.has_im2col = true;
    sim::Session session = sim::Session::builder(cfg).build();
    const sim::Report r = session.run(m);
    EXPECT_GT(r.cycles, 0u) << m.name();
    EXPECT_GT(r.speedup, 1.0) << m.name();
    EXPECT_GT(r.per_core[0].accel.instructions, 0u) << m.name();
  }
}

TEST(SimSession, FunctionalRunMaterializesData) {
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  sim::Session session =
      sim::Session::builder(cfg).functional().seed(7).build();
  // ResNet-50's dense head keeps logits nonzero after quantization (the
  // averaged squeezenet conv head rounds to all-zero at this scale).
  const Model m = zoo::resnet50(32);
  const sim::Report r = session.run(m);
  EXPECT_GT(r.cycles, 0u);
  // Read the logits back out of simulated memory via the lowering layout.
  const std::size_t out = m.layers().size() - 1;
  std::vector<std::int8_t> logits(m.shape(out).elems());
  session.address_space().read_virt(session.last_lowered().layer_output[out],
                                    logits.data(), logits.size());
  int nonzero = 0;
  for (const auto v : logits) nonzero += (v != 0);
  EXPECT_GT(nonzero, 0);
}

TEST(SimSession, MulticoreReportHasPerCoreBreakdown) {
  SocConfig cfg;
  cfg.cores = 2;
  sim::Session session = sim::Session::builder(cfg).build();
  const sim::Report r = session.run_multicore(zoo::squeezenet_v11(64));
  EXPECT_EQ(r.cores, 2u);
  ASSERT_EQ(r.per_core.size(), 2u);
  EXPECT_GT(r.per_core[0].cycles, 0u);
  EXPECT_GT(r.per_core[1].cycles, 0u);
  EXPECT_EQ(r.cycles,
            std::max(r.per_core[0].cycles, r.per_core[1].cycles));
  // Shared-substrate contention: both cores slower than a solo run.
  SocConfig solo_cfg;
  sim::Session solo = sim::Session::builder(solo_cfg).build();
  const Cycle solo_cycles = solo.run(zoo::squeezenet_v11(64)).cycles;
  EXPECT_GT(r.per_core[0].cycles, solo_cycles);
  EXPECT_GT(r.per_core[1].cycles, solo_cycles);
}

TEST(SimSession, MatchesDirectPipelinePlusSocRun) {
  // The push-button facade adds nothing to the timing: compiling and
  // running by hand through the pipeline + SoC reports identical cycles.
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  const Model m = zoo::squeezenet_v11(64);
  sim::Session session = sim::Session::builder(cfg).build();
  const Cycle via_session = session.run(m).cycles;

  Soc soc(cfg);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0), {});
  const CoreResult r = soc.run(lowered.stream);
  EXPECT_EQ(via_session, r.finish);
}

// ---- Report JSON ------------------------------------------------------------

TEST(SimReport, JsonIsDeterministicAndStructured) {
  SocConfig cfg;
  sim::Session s1 = sim::Session::builder(cfg).build();
  sim::Session s2 = sim::Session::builder(cfg).build();
  const Model m = zoo::squeezenet_v11(64);
  const sim::Report r1 = s1.run(m);
  const sim::Report r2 = s2.run(m);
  EXPECT_EQ(r1, r2);
  const std::string json = r1.to_json(2);
  EXPECT_EQ(json, r2.to_json(2));
  // Structural spot checks.
  for (const char* key :
       {"\"model\"", "\"cycles\"", "\"cycles_by_tag\"", "\"per_core\"",
        "\"substrate\"", "\"estimates\"", "\"fmax_ghz\"", "\"l2_miss_rate\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Compact mode emits no newlines.
  EXPECT_EQ(r1.to_json(0).find('\n'), std::string::npos);
}

// ---- Sweep / Experiment -----------------------------------------------------

TEST(SimSweep, ParallelResultsAreByteIdenticalToSerial) {
  // The acceptance gate: a >= 8-point grid on >= 4 worker threads must
  // produce reports byte-identical to the serial run.
  sim::Experiment exp;
  SocConfig base;
  base.accel.has_im2col = true;
  exp = sim::Experiment(base);
  exp.scratchpad_sizes({128u << 10, 256u << 10})
      .l2_sizes({1u << 20, 2u << 20})
      .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)});
  const sim::Sweep sweep = exp.sweep();
  ASSERT_GE(sweep.size(), 8u);

  const auto serial = sweep.run({.threads = 1});
  const auto parallel = sweep.run({.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "point " << serial[i].point;
  }
  EXPECT_EQ(sim::reports_to_json(serial, 2), sim::reports_to_json(parallel, 2));
}

TEST(SimSweep, ReportsArriveInPointOrder) {
  sim::Sweep sweep;
  SocConfig cfg;
  sweep.add("a", cfg, zoo::squeezenet_v11(48));
  sweep.add("b", cfg, zoo::mobilenet_v2(48));
  sweep.add("c", cfg, zoo::bert_base(16, 1));
  const auto reports = sweep.run({.threads = 3});
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(reports[0].point, "a");
  EXPECT_EQ(reports[1].point, "b");
  EXPECT_EQ(reports[2].point, "c");
  EXPECT_EQ(reports[2].model, "bert-base");
}

TEST(SimSweep, InvalidPointFailsDeterministically) {
  sim::Sweep sweep;
  SocConfig ok;
  SocConfig bad;
  bad.name = "bad-point";
  bad.accel.rob_entries = 0;
  sweep.add("ok", ok, zoo::squeezenet_v11(48));
  sweep.add("bad", bad, zoo::squeezenet_v11(48));
  // Fail-soft default: the invalid point becomes an error report, the
  // valid one still completes.
  const auto reports = sweep.run({.threads = 2});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].status, "ok");
  EXPECT_GT(reports[0].cycles, 0u);
  EXPECT_EQ(reports[1].status, "error");
  EXPECT_NE(reports[1].error.find("ROB"), std::string::npos);
  // Strict opt-in restores the historical abort, named by point order.
  try {
    sweep.run({.threads = 2, .strict = true});
    FAIL() << "strict sweep should have thrown";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("bad"), std::string::npos);
  }
}

TEST(SimSweep, RejectsTracedServePoints) {
  // serve::Server never reads SweepPoint::trace: a traced serve point would
  // silently produce no trace.
  sim::SweepPoint p{.name = "served",
                    .config = SocConfig{},
                    .model = zoo::squeezenet_v11(48)};
  p.serve.enabled = true;
  p.trace = trace::TraceConfig::enabled_default();
  sim::Sweep sweep;
  sweep.add(std::move(p));
  EXPECT_THROW(sweep.run(), ConfigError);
}

TEST(SimSweep, RejectsSharedTraceExportPath) {
  trace::TraceConfig tc = trace::TraceConfig::enabled_default();
  tc.export_path = "sim_test_shared_trace.json";
  sim::Sweep sweep;
  for (const char* name : {"a", "b"}) {
    sim::SweepPoint p{
        .name = name, .config = SocConfig{}, .model = zoo::squeezenet_v11(48)};
    p.trace = tc;
    sweep.add(std::move(p));
  }
  try {
    sweep.run({.threads = 2});
    FAIL() << "two points writing one trace file should not run";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'b'"), std::string::npos)
        << e.what();
  }
}

TEST(SimSweep, RejectsSharedMetricsExportPath) {
  // Experiment::metrics() copies its config into every point, so a grid
  // with an export path would write one OpenMetrics file from several
  // workers.
  metrics::MetricsConfig mc = metrics::MetricsConfig::enabled_default();
  mc.export_path = "sim_test_shared_metrics.txt";
  sim::Experiment exp;
  exp.models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)}).metrics(mc);
  EXPECT_THROW(exp.run({.threads = 2}), ConfigError);
  // One point alone may export.
  sim::Experiment single;
  single.model(zoo::squeezenet_v11(32)).metrics(mc);
  EXPECT_EQ(single.sweep().size(), 1u);
  EXPECT_NO_THROW(single.sweep().run());
  std::remove(mc.export_path.c_str());
}

TEST(SimExperiment, GridExpansionNamesAxes) {
  sim::Experiment exp;
  exp.core_counts({1, 2})
      .scratchpad_sizes({128u << 10, 256u << 10})
      .model(zoo::squeezenet_v11(48));
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.points()[0].name, "sp128K-c1/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].name, "sp256K-c2/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].config.cores, 2u);
  EXPECT_EQ(sweep.points()[3].config.accel.sp_capacity_bytes, 256u << 10);
}

TEST(SimExperiment, DramAxesExpandGridWithLabels) {
  sim::Experiment exp;
  exp.dram_channels({1, 2})
      .dram_schedulers({DramScheduler::kFcfs, DramScheduler::kFrFcfs})
      .dram_interleaves({DramInterleave::kXorFold})
      .model(zoo::squeezenet_v11(48));
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.points()[0].name, "1ch-fcfs-il-xor/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].name, "2ch-frfcfs-il-xor/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].config.mem.dram.channels, 2u);
  EXPECT_EQ(sweep.points()[3].config.mem.dram.scheduler,
            DramScheduler::kFrFcfs);
  EXPECT_EQ(sweep.points()[3].config.mem.dram.interleave,
            DramInterleave::kXorFold);
}

// Golden point names, in point order, for every Experiment setter and for a
// grid crossing the config, fault, tiling, serve and model axes. sweep()
// only expands the grid, so no case here simulates anything.
struct GridCase {
  const char* what;
  std::function<sim::Experiment()> make;
  std::vector<std::string> names;
};

std::vector<std::string> point_names(const sim::Sweep& sweep) {
  std::vector<std::string> names;
  for (const sim::SweepPoint& p : sweep.points()) names.push_back(p.name);
  return names;
}

llm::DecodeConfig golden_decode() {
  llm::DecodeConfig c;
  c.hidden = 64;
  c.heads = 2;
  c.ffn_mult = 2;
  c.layers = 2;
  c.prompt_tokens = 4;
  c.decode_steps = 3;
  return c;
}

serve::ServeSpec golden_serve() {
  serve::ServeSpec spec;
  spec.enabled = true;
  return spec;
}

TEST(SimExperiment, GoldenPointNamesForEverySetter) {
  const Model sq = zoo::squeezenet_v11(48);
  const Model mb = zoo::mobilenet_v2(48);
  auto exp = [&] { return sim::Experiment().model(sq); };
  auto llm_exp = [] { return sim::Experiment().llm(golden_decode()); };
  fault::FaultConfig ecc;
  ecc.enabled = true;
  ecc.name = "ecc";
  fault::FaultConfig off;  // unnamed: labelled by its column index
  SocConfig unnamed;
  unnamed.name = "";

  const std::vector<GridCase> cases = {
      {"model list", [&] { return exp().model(mb); },
       {"squeezenet_v1.1", "mobilenetv2"}},
      {"models()", [&] { return sim::Experiment().models({mb, sq}); },
       {"mobilenetv2", "squeezenet_v1.1"}},
      {"geometries",
       [&] { return exp().geometries({{16, 16, 1, 1}, {1, 16, 16, 1}}); },
       {"g16x16x1x1/squeezenet_v1.1", "g1x16x16x1/squeezenet_v1.1"}},
      {"scratchpad_sizes",
       [&] { return exp().scratchpad_sizes({128u << 10, 1u << 20, 1000}); },
       {"sp128K/squeezenet_v1.1", "sp1M/squeezenet_v1.1",
        "sp1000B/squeezenet_v1.1"}},
      {"l2_sizes", [&] { return exp().l2_sizes({512u << 10, 2u << 20}); },
       {"l2512K/squeezenet_v1.1", "l22M/squeezenet_v1.1"}},
      {"core_counts", [&] { return exp().core_counts({1, 2}); },
       {"c1/squeezenet_v1.1", "c2/squeezenet_v1.1"}},
      {"dram_channels", [&] { return exp().dram_channels({1, 4}); },
       {"1ch/squeezenet_v1.1", "4ch/squeezenet_v1.1"}},
      {"dram_schedulers",
       [&] {
         return exp().dram_schedulers(
             {DramScheduler::kFrFcfs, DramScheduler::kFcfs});
       },
       {"frfcfs/squeezenet_v1.1", "fcfs/squeezenet_v1.1"}},
      {"dram_interleaves",
       [&] {
         return exp().dram_interleaves(
             {DramInterleave::kRow, DramInterleave::kCacheline});
       },
       {"il-row/squeezenet_v1.1", "il-line/squeezenet_v1.1"}},
      {"configs",
       [&] {
         return exp().configs(
             {SocConfig::base_1mb_l2(), SocConfig::big_sp(), unnamed});
       },
       {"Base/squeezenet_v1.1", "BigSP/squeezenet_v1.1", "squeezenet_v1.1"}},
      {"placement_policies",
       [&] {
         return exp().placement_policies(
             {std::make_shared<const lowering::DefaultPlacement>(),
              std::make_shared<const lowering::CpuOnlyPlacement>()});
       },
       {"default/squeezenet_v1.1", "cpu-only/squeezenet_v1.1"}},
      {"tiling_policies",
       [&] {
         return exp().tiling_policies(
             {std::make_shared<const lowering::HeuristicTiling>(),
              std::make_shared<const lowering::ExhaustiveTiling>()});
       },
       {"heuristic/squeezenet_v1.1", "exhaustive/squeezenet_v1.1"}},
      {"fault_configs", [&] { return exp().fault_configs({ecc, off}); },
       {"ecc/squeezenet_v1.1", "f1/squeezenet_v1.1"}},
      {"serve", [&] { return exp().serve(golden_serve()); },
       {"squeezenet_v1.1"}},
      {"offered_loads",
       [&] { return exp().serve(golden_serve()).offered_loads({2.5, 10}); },
       {"load2.5/squeezenet_v1.1", "load10/squeezenet_v1.1"}},
      {"serve_policies",
       [&] {
         return exp().serve(golden_serve()).serve_policies(
             {serve::ServeConfig{},
              serve::ServeConfig{serve::ServePolicy::kBatch, 4, 0, true}});
       },
       {"fifo/squeezenet_v1.1", "batch4/squeezenet_v1.1"}},
      {"llm", llm_exp, {"llm-h64-l2-b1-t3-head-major"}},
      {"llm_batches", [&] { return llm_exp().llm_batches({2, 1}); },
       {"llm-h64-l2-b2-t3-head-major", "llm-h64-l2-b1-t3-head-major"}},
      {"llm_kv_layouts",
       [&] { return llm_exp().llm_kv_layouts({llm::KvLayout::kTokenMajor}); },
       {"llm-h64-l2-b1-t3-token-major"}},
      {"llm_decode_steps", [&] { return llm_exp().llm_decode_steps({3, 8}); },
       {"llm-h64-l2-b1-t3-head-major", "llm-h64-l2-b1-t8-head-major"}},
      {"llm_int4", [&] { return llm_exp().llm_int4({false, true}); },
       {"llm-h64-l2-b1-t3-head-major", "llm-h64-l2-b1-t3-head-major-int4"}},
      {"config axes in fixed order, whatever the call order",
       [&] {
         return exp()
             .dram_interleaves({DramInterleave::kXorFold})
             .dram_schedulers({DramScheduler::kFcfs})
             .dram_channels({2})
             .core_counts({2})
             .l2_sizes({1u << 20})
             .scratchpad_sizes({256u << 10, 512u << 10})
             .geometries({{8, 8, 1, 1}});
       },
       {"g8x8x1x1-sp256K-l21M-c2-2ch-fcfs-il-xor/squeezenet_v1.1",
        "g8x8x1x1-sp512K-l21M-c2-2ch-fcfs-il-xor/squeezenet_v1.1"}},
      {"configs x faults x tiling x serve x models",
       [&] {
         return sim::Experiment()
             .model(sq)
             .model(mb)
             .serve(golden_serve())
             .offered_loads({1, 2})
             .tiling_policies(
                 {std::make_shared<const lowering::HeuristicTiling>()})
             .fault_configs({off, ecc})
             .configs({SocConfig::base_1mb_l2(), SocConfig::big_l2()});
       },
       {"Base-f0-heuristic-load1/squeezenet_v1.1",
        "Base-f0-heuristic-load1/mobilenetv2",
        "Base-f0-heuristic-load2/squeezenet_v1.1",
        "Base-f0-heuristic-load2/mobilenetv2",
        "Base-ecc-heuristic-load1/squeezenet_v1.1",
        "Base-ecc-heuristic-load1/mobilenetv2",
        "Base-ecc-heuristic-load2/squeezenet_v1.1",
        "Base-ecc-heuristic-load2/mobilenetv2",
        "BigL2-f0-heuristic-load1/squeezenet_v1.1",
        "BigL2-f0-heuristic-load1/mobilenetv2",
        "BigL2-f0-heuristic-load2/squeezenet_v1.1",
        "BigL2-f0-heuristic-load2/mobilenetv2",
        "BigL2-ecc-heuristic-load1/squeezenet_v1.1",
        "BigL2-ecc-heuristic-load1/mobilenetv2",
        "BigL2-ecc-heuristic-load2/squeezenet_v1.1",
        "BigL2-ecc-heuristic-load2/mobilenetv2"}},
      {"config axis x placement x llm axes",
       [&] {
         return llm_exp()
             .llm_int4({false, true})
             .llm_batches({1, 2})
             .placement_policies(
                 {std::make_shared<const lowering::DefaultPlacement>()})
             .dram_channels({1, 2});
       },
       {"1ch-default/llm-h64-l2-b1-t3-head-major",
        "1ch-default/llm-h64-l2-b1-t3-head-major-int4",
        "1ch-default/llm-h64-l2-b2-t3-head-major",
        "1ch-default/llm-h64-l2-b2-t3-head-major-int4",
        "2ch-default/llm-h64-l2-b1-t3-head-major",
        "2ch-default/llm-h64-l2-b1-t3-head-major-int4",
        "2ch-default/llm-h64-l2-b2-t3-head-major",
        "2ch-default/llm-h64-l2-b2-t3-head-major-int4"}},
  };
  for (const GridCase& c : cases) {
    EXPECT_EQ(point_names(c.make().sweep()), c.names) << c.what;
  }
}

TEST(SimExperiment, PerPointRulesFollowTheColumns) {
  fault::FaultConfig ecc;
  ecc.enabled = true;
  ecc.name = "ecc";
  fault::FaultConfig off;
  off.name = "off";
  serve::ServeSpec spec = golden_serve();
  spec.default_deadline_cycles = 1234;
  const sim::Sweep faults = sim::Experiment()
                                .model(zoo::squeezenet_v11(48))
                                .functional()
                                .fault_configs({off, ecc})
                                .fault_campaign(3)
                                .sweep();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults.points()[0].campaign_runs, 0u);
  EXPECT_EQ(faults.points()[1].campaign_runs, 3u);
  EXPECT_TRUE(faults.points()[1].config.faults.enabled);

  const sim::Sweep served = sim::Experiment()
                                .model(zoo::squeezenet_v11(48))
                                .model(zoo::mobilenet_v2(48))
                                .serve(spec)
                                .offered_loads({2.5})
                                .sweep();
  ASSERT_EQ(served.size(), 2u);
  for (const sim::SweepPoint& p : served.points()) {
    EXPECT_TRUE(p.serve.enabled);
    EXPECT_EQ(p.serve.arrivals.requests_per_mcycle, 2.5);
    ASSERT_EQ(p.serve.classes.size(), 1u);
    EXPECT_EQ(p.serve.classes[0].name, p.model.name());
    EXPECT_EQ(p.serve.classes[0].deadline_cycles, 1234u);
  }

  const sim::Sweep decode =
      sim::Experiment().llm(golden_decode()).llm_decode_steps({5}).sweep();
  ASSERT_EQ(decode.size(), 1u);
  ASSERT_TRUE(decode.points()[0].llm.has_value());
  EXPECT_EQ(decode.points()[0].llm->decode_steps, 5u);
  EXPECT_EQ(decode.points()[0].model.name(), decode.points()[0].llm->label());
}

std::string sweep_error(const sim::Experiment& exp) {
  try {
    exp.sweep();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(SimExperiment, TracePointMustSelectExactlyOnePoint) {
  const Model sq = zoo::squeezenet_v11(48);
  // Two equal columns make two points with one name: both would trace and
  // write the same export path from different workers.
  const std::string twice =
      sweep_error(sim::Experiment()
                      .model(sq)
                      .scratchpad_sizes({256u << 10, 256u << 10})
                      .trace_point("sp256K/squeezenet_v1.1"));
  EXPECT_NE(twice.find("more than one"), std::string::npos) << twice;
  const std::string none = sweep_error(
      sim::Experiment().model(sq).trace_point("sp256K/squeezenet_v1.1"));
  EXPECT_NE(none.find("matches no sweep point"), std::string::npos) << none;

  const sim::Sweep one = sim::Experiment()
                             .model(sq)
                             .scratchpad_sizes({128u << 10, 256u << 10})
                             .trace_point("sp256K/squeezenet_v1.1")
                             .sweep();
  ASSERT_EQ(one.size(), 2u);
  EXPECT_FALSE(one.points()[0].trace.enabled);
  EXPECT_TRUE(one.points()[1].trace.enabled);
}

TEST(SimExperiment, TracePointRejectsServePoints) {
  // serve::Server never reads SweepPoint::trace, so a traced serve point
  // would silently produce no trace.
  const std::string err =
      sweep_error(sim::Experiment()
                      .model(zoo::squeezenet_v11(48))
                      .serve(golden_serve())
                      .offered_loads({1, 2})
                      .trace_point("load2/squeezenet_v1.1"));
  EXPECT_NE(err.find("serve"), std::string::npos) << err;
}

TEST(SimExperiment, DramAxesExclusiveWithExplicitConfigs) {
  sim::Experiment exp;
  exp.configs({SocConfig::base_1mb_l2()})
      .dram_channels({1, 2})
      .model(zoo::squeezenet_v11(48));
  EXPECT_THROW(exp.sweep(), ConfigError);
}

TEST(SimExperiment, RequiresModels) {
  sim::Experiment exp;
  EXPECT_THROW(exp.sweep(), ConfigError);
}

TEST(SimExperiment, ExplicitConfigsExclusiveWithAxes) {
  sim::Experiment exp;
  exp.configs({SocConfig::base_1mb_l2()})
      .core_counts({1, 2})
      .model(zoo::squeezenet_v11(48));
  EXPECT_THROW(exp.sweep(), ConfigError);
}

// ---- pipeline compile entry point ------------------------------------------

TEST(PipelineCompile, SingleAddressSpaceEntryPoint) {
  SocConfig cfg;
  Soc soc(cfg);
  const Model m = zoo::squeezenet_v11(48);
  const LoweredModel lowered =
      lowering::compile(m, cfg.accel, cfg.cpu, soc.address_space(0), {});
  EXPECT_FALSE(lowered.stream.steps.empty());
  EXPECT_GT(lowered.stream.total_instructions(), 0u);
  EXPECT_EQ(lowered.layer_output.size(), m.layers().size());
}

}  // namespace
}  // namespace gemmini
