// Telemetry subsystem tests (src/metrics/ + the wiring through Session,
// Sweep, serve::Server and llm::run_decode): log2 histogram bucket
// semantics, registry merge determinism, the sampler's reconciliation
// invariant (sum of per-window counter deltas == end-of-run total),
// metrics-off/on cycle invariance on the golden tiled-matmul workload,
// thread-count byte-identity of metric sections and merged metrics,
// OpenMetrics formatting, serve request-span round-trips through the
// Perfetto export, and the llm KV-footprint gauge timeline.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/tensor.h"
#include "src/dnn/zoo.h"
#include "src/energy/energy.h"
#include "src/llm/decode.h"
#include "src/metrics/metrics.h"
#include "src/metrics/openmetrics.h"
#include "src/runtime/matmul.h"
#include "src/serve/server.h"
#include "src/sim/experiment.h"
#include "src/sim/report.h"
#include "src/sim/session.h"

namespace gemmini {
namespace {

// ---- Histogram log2 bucket semantics ---------------------------------------

TEST(MetricsHistogram, Log2BucketBoundaries) {
  metrics::Histogram h;
  // Bucket 0 holds zeros; bucket i holds values of bit width i, i.e. the
  // range [2^(i-1), 2^i - 1].
  EXPECT_EQ(h.bucket_index(0), 0u);
  EXPECT_EQ(h.bucket_index(1), 1u);
  EXPECT_EQ(h.bucket_index(2), 2u);
  EXPECT_EQ(h.bucket_index(3), 2u);
  EXPECT_EQ(h.bucket_index(4), 3u);
  EXPECT_EQ(h.bucket_index(7), 3u);
  EXPECT_EQ(h.bucket_index(8), 4u);
  EXPECT_EQ(h.bucket_index((1ull << 20) - 1), 20u);
  EXPECT_EQ(h.bucket_index(1ull << 20), 21u);
  // Inclusive upper bounds mirror the same edges.
  EXPECT_EQ(h.upper_bound(0), 0u);
  EXPECT_EQ(h.upper_bound(1), 1u);
  EXPECT_EQ(h.upper_bound(2), 3u);
  EXPECT_EQ(h.upper_bound(3), 7u);
  EXPECT_EQ(h.upper_bound(20), (1ull << 20) - 1);

  h.record(0);
  h.record(1);
  h.record(6);
  h.record(7);
  h.record(8);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 0u);
  EXPECT_EQ(h.buckets()[3], 2u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 22u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 22.0 / 5.0);
}

TEST(MetricsHistogram, OverflowBucketCatchesWideValues) {
  // Default shape: bucket 0 + 32 width buckets + overflow = 34. Every
  // value of width > 32 lands in the last bucket, whose upper bound is the
  // +Inf sentinel.
  metrics::Histogram h;
  ASSERT_EQ(h.buckets().size(), metrics::Histogram::kDefaultBuckets);
  const std::size_t last = h.buckets().size() - 1;
  EXPECT_EQ(h.bucket_index((1ull << 32) - 1), 32u);
  EXPECT_EQ(h.bucket_index(1ull << 32), last);
  EXPECT_EQ(h.bucket_index(~std::uint64_t{0}), last);
  EXPECT_EQ(h.upper_bound(last), ~std::uint64_t{0});
  h.record(1ull << 40);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.buckets()[last], 2u);

  // A deliberately tiny histogram: everything wider than 2 bits overflows.
  metrics::Histogram tiny(4);
  EXPECT_EQ(tiny.bucket_index(3), 2u);
  EXPECT_EQ(tiny.bucket_index(4), 3u);
  EXPECT_EQ(tiny.bucket_index(1000), 3u);
  EXPECT_EQ(tiny.upper_bound(2), 3u);
  EXPECT_EQ(tiny.upper_bound(3), ~std::uint64_t{0});
}

// ---- Registry: handle stability + deterministic merge ----------------------

TEST(MetricsRegistry, ResetKeepsHandlesValid) {
  metrics::Registry reg;
  metrics::Counter* c = &reg.counter("x");
  metrics::Gauge* g = &reg.gauge("y");
  metrics::Histogram* h = &reg.histogram("z");
  c->add(7);
  g->set(3.5);
  h->record(9);
  reg.reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  // The cached pointers still address the live registry entries.
  c->add(1);
  EXPECT_EQ(reg.counter("x").value(), 1u);
}

TEST(MetricsRegistry, MergeIsOrderIndependent) {
  auto make = [](std::uint64_t c, double g, std::uint64_t hv) {
    metrics::Registry r;
    r.counter("c").add(c);
    r.gauge("g").set(g);
    r.histogram("h").record(hv);
    return r;
  };
  metrics::Registry a = make(10, 2.0, 4);
  metrics::Registry b = make(32, 5.0, 70);

  metrics::Registry ab = make(10, 2.0, 4);
  ab.merge_from(b);
  metrics::Registry ba = make(32, 5.0, 70);
  ba.merge_from(a);

  // Counters and histograms add; gauges take the max — all commutative.
  for (metrics::Registry* m : {&ab, &ba}) {
    EXPECT_EQ(m->counter("c").value(), 42u);
    EXPECT_DOUBLE_EQ(m->gauge("g").value(), 5.0);
    EXPECT_EQ(m->histogram("h").count(), 2u);
    EXPECT_EQ(m->histogram("h").sum(), 74u);
    EXPECT_EQ(m->histogram("h").min(), 4u);
    EXPECT_EQ(m->histogram("h").max(), 70u);
  }
  EXPECT_EQ(metrics::to_openmetrics(ab), metrics::to_openmetrics(ba));
}

// ---- Sampler: windows, zero-padding, reconciliation ------------------------

TEST(MetricsSampler, CounterDeltasReconcileExactly) {
  metrics::Registry reg;
  metrics::TimeSeriesSampler s(reg, 10);
  metrics::Counter& c = reg.counter("bytes");
  s.begin();
  c.add(3);
  s.advance_to(10);  // window 0 closes with delta 3
  c.add(4);
  s.advance_to(35);  // boundaries 20 and 30 close (deltas 4, 0)
  c.add(5);
  s.finish(35);  // one final partial window (delta 5)
  ASSERT_EQ(s.windows(), 4u);
  const auto& cs = s.counter_series().at("bytes");
  EXPECT_EQ(cs.deltas, (std::vector<std::uint64_t>{3, 4, 0, 5}));
  std::uint64_t total = 0;
  for (std::uint64_t d : cs.deltas) total += d;
  EXPECT_EQ(total, c.value());
}

TEST(MetricsSampler, LateRegisteredMetricsZeroPad) {
  metrics::Registry reg;
  metrics::TimeSeriesSampler s(reg, 10);
  reg.counter("early").add(1);
  s.begin();
  s.advance_to(20);  // two windows with only "early" registered
  reg.counter("late").add(9);   // lazily created mid-run
  reg.gauge("depth").set(2.0);  // likewise
  s.finish(25);
  ASSERT_EQ(s.windows(), 3u);
  const auto& late = s.counter_series().at("late");
  EXPECT_EQ(late.deltas, (std::vector<std::uint64_t>{0, 0, 9}));
  const auto& depth = s.gauge_series().at("depth");
  ASSERT_EQ(depth.size(), 3u);
  EXPECT_DOUBLE_EQ(depth[0], 0.0);
  EXPECT_DOUBLE_EQ(depth[1], 0.0);
  EXPECT_DOUBLE_EQ(depth[2], 2.0);
}

// ---- Golden-cycle invariance (metrics off == metrics on) -------------------

/// The bench_perf golden workload: 320^3 tiled matmul through the
/// accelerator, pinned at 309917 cycles since PR 1.
Cycle golden_matmul_cycles(sim::Session& s) {
  Rng rng(7);
  TensorI8 a({320, 320}), b({320, 320});
  a.randomize(rng);
  b.randomize(rng);
  MatmulParams p;
  p.a = s.address_space().alloc(a.size() + 4096);
  s.address_space().write_virt(p.a, a.data(), a.size());
  p.b = s.address_space().alloc(b.size() + 4096);
  s.address_space().write_virt(p.b, b.data(), b.size());
  p.c = s.address_space().alloc(320 * 320 + 8192);
  p.m = p.k = p.n = 320;
  p.out_shift = 7;
  p.act = Activation::kRelu;
  const Program prog = emit_tiled_matmul(s.config().accel, p);
  return s.accelerator().run(prog, s.address_space());
}

TEST(MetricsSession, GoldenCyclesInvariantUnderMetrics) {
  auto base = [] {
    return sim::Session::builder()
        .accel(GemminiConfig::paper_default())
        .functional(true);
  };
  sim::Session off = base().build();
  const Cycle cycles_off = golden_matmul_cycles(off);
  EXPECT_EQ(cycles_off, 309917u);

  sim::Session on =
      base().metrics(metrics::MetricsConfig::enabled_default()).build();
  const Cycle cycles_on = golden_matmul_cycles(on);
  EXPECT_EQ(cycles_on, cycles_off);
  // And the instrumentation did observe the run.
  EXPECT_GT(on.metrics().registry().counter("core0.exec.macs").value(), 0u);
}

TEST(MetricsSession, ReportIdenticalApartFromMetricsSection) {
  // A full Session::run with metrics on reproduces the metrics-off report
  // exactly once the metrics section itself is blanked.
  const Model m = zoo::squeezenet_v11(48);
  sim::Session off = sim::Session::builder().build();
  sim::Report r_off = off.run(m);

  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Session on = sim::Session::builder().metrics(cfg).build();
  sim::Report r_on = on.run(m);

  EXPECT_EQ(r_on.cycles, r_off.cycles);
  EXPECT_TRUE(r_on.metrics.enabled);
  EXPECT_FALSE(r_off.metrics.enabled);
  r_on.metrics = sim::MetricsReport{};
  EXPECT_EQ(r_on, r_off);
}

// ---- End-to-end timelines through Session::run -----------------------------

TEST(MetricsSession, TimelinesReconcileWithEndOfRunCounters) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Session s = sim::Session::builder().metrics(cfg).build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));

  ASSERT_TRUE(rep.metrics.enabled);
  EXPECT_EQ(rep.metrics.sample_interval, 50000u);
  EXPECT_GT(rep.metrics.windows, 1u);
  ASSERT_FALSE(rep.metrics.counters.empty());
  ASSERT_FALSE(rep.metrics.counter_timelines.empty());

  // The reconciliation invariant, for every sampled counter: the timeline
  // is exactly `windows` long and sums to the end-of-run total.
  for (const auto& [name, timeline] : rep.metrics.counter_timelines) {
    ASSERT_EQ(timeline.size(), rep.metrics.windows) << name;
    std::uint64_t total = 0;
    for (std::uint64_t d : timeline) total += d;
    ASSERT_TRUE(rep.metrics.counters.count(name)) << name;
    EXPECT_EQ(total, rep.metrics.counters.at(name)) << name;
  }
  for (const auto& [name, timeline] : rep.metrics.gauge_timelines) {
    EXPECT_EQ(timeline.size(), rep.metrics.windows) << name;
  }

  // The expected instrument families are all present.
  for (const char* name :
       {"core0.exec.macs", "core0.dma.load_bytes", "core0.tlb.hits",
        "l2.hits", "dram.ch0.accesses", "dram.ch0.row_hits",
        "sysbus.bytes"}) {
    EXPECT_TRUE(rep.metrics.counters.count(name)) << name;
    EXPECT_TRUE(rep.metrics.counter_timelines.count(name)) << name;
  }
  EXPECT_FALSE(rep.metrics.histograms.empty());

  // Cross-checks against the independently collected report sections.
  EXPECT_EQ(rep.metrics.counters.at("core0.exec.macs"),
            rep.per_core[0].accel.macs);
  EXPECT_EQ(rep.metrics.counters.at("l2.hits") +
                rep.metrics.counters.at("l2.misses"),
            rep.substrate.l2_hits + rep.substrate.l2_misses);
}

TEST(MetricsSession, TlbCountersMatchComponentStats) {
  // The registry's per-core TLB counters and the translation system's own
  // Stats count the same events, and the sampler's windowed deltas (the
  // Fig. 4 miss-rate path) sum back to them.
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.accel.translation.private_tlb.entries = 8;
  cfg.accel.translation.l2_tlb_present = false;
  cfg.accel.translation.filter_registers = true;
  sim::Session s =
      sim::Session::builder(cfg)
          .metrics({.enabled = true, .sample_interval_cycles = 250000})
          .build();
  const sim::Report rep = s.run(zoo::resnet50(32));
  const TranslationSystem& ts = s.soc().accelerator(0).translation();
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"core0.tlb.hits", ts.private_tlb().stats().hits},
      {"core0.tlb.misses", ts.private_tlb().stats().misses},
      {"core0.tlb.filter_hits", ts.stats().filter_hits},
  };
  EXPECT_GT(rep.metrics.windows, 1u);
  for (const auto& [name, value] : expected) {
    EXPECT_GT(value, 0u) << name;
    EXPECT_EQ(rep.metrics.counters.at(name), value) << name;
    std::uint64_t windowed = 0;
    for (const std::uint64_t d : rep.metrics.counter_timelines.at(name)) {
      windowed += d;
    }
    EXPECT_EQ(windowed, value) << name;
  }
}

TEST(MetricsSession, OpenMetricsExportIsDeterministic) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  sim::Session s1 = sim::Session::builder().metrics(cfg).build();
  sim::Session s2 = sim::Session::builder().metrics(cfg).build();
  s1.run(zoo::squeezenet_v11(48));
  s2.run(zoo::squeezenet_v11(48));
  const std::string om = s1.openmetrics();
  EXPECT_EQ(om, s2.openmetrics());
  EXPECT_NE(om.find("# TYPE gemmini_core0_exec_macs counter\n"),
            std::string::npos);
  EXPECT_NE(om.find("gemmini_core0_exec_macs_total "), std::string::npos);
  EXPECT_NE(om.find("_bucket{le=\"+Inf\"}"), std::string::npos);
  EXPECT_TRUE(om.ends_with("# EOF\n"));
}

// ---- Sweep integration: thread-count byte-identity + merge -----------------

TEST(MetricsSweep, MetricsAreByteIdenticalAcrossThreadCounts) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = 50000;
  sim::Experiment exp;
  exp.scratchpad_sizes({128u << 10, 256u << 10})
      .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)})
      .metrics(cfg);
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);

  const auto r1 = sweep.run({.threads = 1});
  const auto r2 = sweep.run({.threads = 2});
  const auto r4 = sweep.run({.threads = 4});
  for (std::size_t i = 0; i < r1.size(); ++i) {
    ASSERT_TRUE(r1[i].metrics.enabled) << r1[i].point;
    EXPECT_EQ(r1[i], r2[i]) << r1[i].point;
    EXPECT_EQ(r1[i], r4[i]) << r1[i].point;
  }
  EXPECT_EQ(sim::reports_to_json(r1, 2), sim::reports_to_json(r2, 2));
  EXPECT_EQ(sim::reports_to_json(r1, 2), sim::reports_to_json(r4, 2));

  // The cross-point merge is equally thread-count independent, and its
  // counters are the exact sums of the per-point counters.
  const sim::MetricsReport m1 = sim::merge_metrics(r1);
  EXPECT_EQ(sim::metrics_to_json(m1, 2), sim::metrics_to_json(sim::merge_metrics(r2), 2));
  EXPECT_EQ(sim::metrics_to_json(m1, 2), sim::metrics_to_json(sim::merge_metrics(r4), 2));
  std::uint64_t macs = 0;
  for (const auto& r : r1) macs += r.metrics.counters.at("core0.exec.macs");
  EXPECT_EQ(m1.counters.at("core0.exec.macs"), macs);
  EXPECT_EQ(m1.windows, std::max({r1[0].metrics.windows, r1[1].metrics.windows,
                                  r1[2].metrics.windows,
                                  r1[3].metrics.windows}));
}

// ---- Serving spans + request-track Perfetto round-trip ---------------------

Model tiny_serve_model() {
  ModelBuilder b("metrics-serve-tiny");
  b.input(12, 12, 8);
  b.conv(16, 3, 1, 1, Activation::kRelu);
  b.dense(10);
  return b.build();
}

serve::ServeSpec tiny_serve_spec() {
  serve::ServeSpec spec;
  spec.enabled = true;
  spec.arrivals.requests_per_mcycle = 4.0;
  spec.arrivals.horizon_cycles = 2'000'000;
  spec.arrivals.seed = 9;
  spec.classes.push_back(
      serve::RequestClass{"tiny", tiny_serve_model(), 1.0, 600'000});
  return spec;
}

TEST(MetricsServe, RequestSpansAreCoherentAndMetricsReconcile) {
  serve::ServerOptions opts;
  opts.metrics = metrics::MetricsConfig::enabled_default();
  opts.metrics.sample_interval_cycles = 100'000;
  serve::Server server(SocConfig{}, tiny_serve_spec(), opts);
  const sim::Report rep = server.run();

  const sim::ServerStats& st = rep.server;
  ASSERT_TRUE(st.enabled);
  ASSERT_FALSE(st.spans.empty());
  EXPECT_EQ(st.spans.size(), st.offered);
  std::uint64_t completed = 0, shed = 0, misses = 0;
  for (const sim::RequestSpan& sp : st.spans) {
    EXPECT_LE(sp.arrival, sp.dispatch);
    EXPECT_LE(sp.dispatch, sp.complete);
    if (sp.shed) {
      ++shed;
      EXPECT_FALSE(sp.ok);
    } else {
      EXPECT_LT(sp.dispatch, sp.complete);
      ++completed;
    }
    misses += sp.deadline_miss;
  }
  EXPECT_EQ(shed, st.shed);
  EXPECT_EQ(completed, st.completed + st.errors);
  EXPECT_EQ(misses, st.deadline_misses);

  // serve.* counters agree with the traffic statistics.
  ASSERT_TRUE(rep.metrics.enabled);
  EXPECT_EQ(rep.metrics.counters.at("serve.offered"), st.offered);
  EXPECT_EQ(rep.metrics.counters.at("serve.completed"), st.completed);
  EXPECT_EQ(rep.metrics.counters.at("serve.shed"), st.shed);
  EXPECT_EQ(rep.metrics.counters.at("serve.deadline_misses"),
            st.deadline_misses);
  for (const auto& [name, timeline] : rep.metrics.counter_timelines) {
    std::uint64_t total = 0;
    for (std::uint64_t d : timeline) total += d;
    EXPECT_EQ(total, rep.metrics.counters.at(name)) << name;
  }
}

TEST(MetricsServe, RequestTraceJsonRoundTripsDeterministically) {
  serve::ServerOptions opts;
  opts.metrics = metrics::MetricsConfig::enabled_default();
  opts.metrics.sample_interval_cycles = 100'000;
  serve::Server s1(SocConfig{}, tiny_serve_spec(), opts);
  serve::Server s2(SocConfig{}, tiny_serve_spec(), opts);
  const sim::Report r1 = s1.run();
  const sim::Report r2 = s2.run();
  EXPECT_EQ(r1.server.spans, r2.server.spans);

  const std::string t1 = serve::request_trace_json(r1, 2);
  EXPECT_EQ(t1, serve::request_trace_json(r2, 2));
  // Request tracks and metric counter tracks are both present.
  EXPECT_NE(t1.find("\"requests\""), std::string::npos);
  EXPECT_NE(t1.find("\"queue\""), std::string::npos);
  EXPECT_NE(t1.find("\"metrics\""), std::string::npos);
  EXPECT_NE(t1.find("\"serve.queue_depth\""), std::string::npos);
}

// ---- LLM decode: KV-footprint gauge timeline -------------------------------

TEST(MetricsLlm, KvBytesGaugeTimelineIsNonDecreasing) {
  llm::DecodeConfig cfg;
  cfg.hidden = 128;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.prompt_tokens = 8;
  cfg.decode_steps = 6;
  cfg.batch = 2;

  metrics::MetricsConfig mcfg = metrics::MetricsConfig::enabled_default();
  mcfg.sample_interval_cycles = 20000;
  sim::Session s = sim::Session::builder().metrics(mcfg).build();
  const sim::Report rep = llm::run_decode(s, cfg);

  ASSERT_TRUE(rep.metrics.enabled);
  ASSERT_TRUE(rep.metrics.gauges.count("llm.kv_bytes"));
  // The final footprint is the full KV cache for prompt + generated tokens.
  EXPECT_DOUBLE_EQ(rep.metrics.gauges.at("llm.kv_bytes"),
                   static_cast<double>(rep.llm.kv_cache_bytes));

  const auto& timeline = rep.metrics.gauge_timelines.at("llm.kv_bytes");
  ASSERT_GE(timeline.size(), 2u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1], timeline[i]) << "window " << i;
  }
  EXPECT_DOUBLE_EQ(timeline.back(),
                   static_cast<double>(rep.llm.kv_cache_bytes));
}

// ---- Golden metrics-on outputs ----------------------------------------------
//
// Byte-exact pins of everything a metered Session exports: the Report JSON,
// the OpenMetrics text and the Perfetto counter tracks, each as a 64-bit
// FNV-1a hash plus its length. Tracing is on only to reach the counter
// tracks (they ride trace_json); like metrics it is observational. Any
// change to how counts reach the registry — which names exist, when a
// lazily created counter first appears, which window a late count lands
// in — moves one of these digests.

std::string digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::ostringstream oss;
  oss << std::hex << h << std::dec << "/" << text.size();
  return oss.str();
}

/// The counter-track tail of a traced session's trace.json: the "metrics"
/// process (pid 998) and its "C" events, which the exporter writes after
/// every span event.
std::string counter_tracks(const sim::Session& s) {
  const std::string json = s.trace_json();
  const std::size_t pid = json.find("\"pid\":998");
  return pid == std::string::npos ? std::string{}
                                  : json.substr(json.rfind('{', pid));
}

struct GoldenDigests {
  const char* report;
  const char* openmetrics;
  const char* counter_tracks;
};

void expect_golden(const char* what, const sim::Session& s,
                   const sim::Report& rep, const GoldenDigests& want) {
  EXPECT_EQ(digest(rep.to_json()), want.report) << what << ": report";
  EXPECT_EQ(digest(s.openmetrics()), want.openmetrics)
      << what << ": openmetrics";
  const std::string tracks = counter_tracks(s);
  EXPECT_FALSE(tracks.empty()) << what;
  EXPECT_EQ(digest(tracks), want.counter_tracks)
      << what << ": counter tracks";
}

metrics::MetricsConfig sampled_every(Cycle interval) {
  metrics::MetricsConfig cfg = metrics::MetricsConfig::enabled_default();
  cfg.sample_interval_cycles = interval;
  return cfg;
}

TEST(MetricsGolden, SingleCoreSampledRunWithEnergy) {
  sim::Session s = sim::Session::builder()
                       .metrics(sampled_every(50000))
                       .energy(energy::EnergyConfig::enabled_default())
                       .trace(trace::TraceConfig::enabled_default())
                       .build();
  const sim::Report rep = s.run(zoo::squeezenet_v11(48));
  ASSERT_GT(rep.metrics.windows, 1u);
  expect_golden("single-core", s, rep,
                {"b458e524cc878cb0/20624", "db9267c2462b472f/10893",
                 "fc862b1d6295f4d5/123832"});
}

TEST(MetricsGolden, TwoCoreRunsWithLazyRequestorsAndAnIdleCore) {
  SocConfig cfg = SocConfig::base_1mb_l2();
  cfg.cores = 2;
  sim::Session s = sim::Session::builder(cfg)
                       .metrics(sampled_every(50000))
                       .trace(trace::TraceConfig::enabled_default())
                       .build();
  const sim::Report both = s.run_multicore(zoo::squeezenet_v11(32));
  ASSERT_TRUE(both.metrics.counters.count("sysbus.req1.bytes"));
  ASSERT_TRUE(both.metrics.counters.count("dram.req1.bytes"));
  expect_golden("multicore", s, both,
                {"40d06748180d71b6/19088", "75e3e27dfddc8810/11101",
                 "acffcf87a84d93b8/115058"});

  // Core 1 idles through a single-stream run on the same SoC: its counters
  // read zero in every window, and core 1's requestor counters persist
  // from the previous run.
  const sim::Report one = s.run(zoo::squeezenet_v11(32));
  EXPECT_EQ(one.metrics.counters.at("core1.exec.macs"), 0u);
  EXPECT_EQ(one.metrics.counters.at("sysbus.req1.bytes"), 0u);
  expect_golden("idle core 1", s, one,
                {"79ce618a5f60c1f4/18689", "1f45b91a2841e040/10991",
                 "633f645f0ce07bca/96744"});
}

TEST(MetricsGolden, LlmDecodeOnBufferedDram) {
  llm::DecodeConfig cfg;
  cfg.hidden = 128;
  cfg.heads = 4;
  cfg.layers = 2;
  cfg.prompt_tokens = 8;
  cfg.decode_steps = 6;
  cfg.batch = 2;
  SocConfig soc = SocConfig::base_1mb_l2();
  soc.mem.l2.size_bytes = 64 << 10;  // small enough to evict dirty KV lines
  soc.mem.dram.channels = 2;
  soc.mem.dram.scheduler = DramScheduler::kFrFcfs;
  soc.mem.dram.write_queue_depth = 16;
  soc.mem.dram.write_drain_floor = 4;
  soc.mem.dram.refresh_interval = 7800;
  soc.mem.dram.refresh_latency = 280;
  sim::Session s = sim::Session::builder(soc)
                       .metrics(sampled_every(20000))
                       .energy(energy::EnergyConfig::enabled_default())
                       .trace(trace::TraceConfig::enabled_default())
                       .build();
  const sim::Report rep = llm::run_decode(s, cfg);
  ASSERT_TRUE(rep.metrics.gauge_timelines.count("llm.kv_bytes"));
  // The end-of-run write drain lands in the last (partial) window.
  std::uint64_t last_window_writes = 0;
  for (const char* ch : {"dram.ch0.writes", "dram.ch1.writes"}) {
    last_window_writes += rep.metrics.counter_timelines.at(ch).back();
  }
  EXPECT_GT(last_window_writes, 0u);
  expect_golden("llm decode", s, rep,
                {"bb35c8754c30d0e5/21083", "8aa42f242aeb2aa4/8357",
                 "1beb31a7f8959bed/261164"});
}

TEST(MetricsGolden, OneSessionRunTwice) {
  sim::Session s = sim::Session::builder()
                       .metrics(metrics::MetricsConfig::enabled_default())
                       .energy(energy::EnergyConfig::enabled_default())
                       .trace(trace::TraceConfig::enabled_default())
                       .build();
  const sim::Report first = s.run(zoo::squeezenet_v11(48));
  expect_golden("first run", s, first,
                {"c4a1ca4e342c78cc/19489", "db9267c2462b472f/10893",
                 "3bad9a41f8d6b762/93884"});
  const sim::Report second = s.run(zoo::squeezenet_v11(48));
  // Published energy.* result gauges never become timelines.
  for (const auto& [name, timeline] : second.metrics.gauge_timelines) {
    EXPECT_FALSE(name.starts_with("energy.")) << name;
  }
  expect_golden("second run", s, second,
                {"d73e71793331ed53/19485", "72da3fc83b076f07/10896",
                 "a73f14f70456c684/93882"});
}

}  // namespace
}  // namespace gemmini
