// perfbench — host-throughput benchmark of the Gemmini simulator.
//
// Runs one named workload as a closed loop with one client (the next
// iteration starts when the previous one returns) for a wall-clock budget,
// through the public sim:: / llm:: / serve:: API only. Every iteration's
// outputs are checked: golden or pinned simulated cycles, CPU-reference
// logits, serving invariants, and byte-identical reports from iteration to
// iteration.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) alternate untraced and traced iterations of the same work,
// record a span around every call into a layer, and report per-layer host
// times, the machine-independent work counts the Reports carry, and the
// tracing overhead. Spans stay in memory and are written to --spans when the
// run ends.
//
//   perfbench --workload resnet_infer --seed 7 --seconds 20 --trace 0
//             [--repo <checkout>] [--spans <file>]
//
// Prints one JSON object as the last line of stdout. perfbench/run.py builds
// this program, validates that object and the span file, and prints the
// benchmark result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/gemmini.h"

using namespace gemmini;

namespace {

// ---- Host clock and spans ---------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;  ///< index into Recorder::spans, -1 for a root
  int iter = 0;
};

/// In-memory span store. A null Recorder* means an untraced iteration.
class Recorder {
 public:
  int open(const char* name, int iter) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent, iter});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed duration (ms) of every span of `iter`, by name.
  std::map<std::string, double> totals_ms(int iter) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.iter == iter) out[s.name] += static_cast<double>(s.end - s.start) / 1e6;
    }
    return out;
  }

  /// A span's duration minus the part of it its direct children cover.
  /// Children of one span run one after another, so they do not overlap.
  std::int64_t self_ns(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    std::int64_t covered = 0;
    for (const Span& c : spans_) {
      if (c.parent == id) covered += c.end - c.start;
    }
    return s.end - s.start - covered;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"parent\": " << s.parent << ", \"iter\": " << s.iter
          << ", \"self_ns\": " << self_ns(static_cast<int>(i)) << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return out.good();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer; a no-op when `rec` is null.
class Scope {
 public:
  Scope(Recorder* rec, const char* name, int iter)
      : rec_(rec), id_(rec ? rec->open(name, iter) : -1) {}
  ~Scope() {
    if (rec_) rec_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
  int id_;
};

// ---- Correctness checks -----------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  template <typename T>
  void expect_eq(const T& got, const T& want, const std::string& what) {
    std::ostringstream msg;
    msg << what << ": got " << got << ", want " << want;
    expect(got == want, msg.str());
  }
};

// ---- Machine-independent work counts ----------------------------------------

/// Simulated work summed over a set of Reports: the accel / vm / mem counts
/// that explain host time layer by layer without wall-clock noise.
struct Work {
  double mcycles = 0;  ///< simulated Mcycles the counts are normalized by
  std::uint64_t instructions = 0;
  std::uint64_t macs = 0;
  double tlb_hit_rate_sum = 0;
  unsigned cores = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t bus_bytes = 0;
  std::uint64_t bus_wait_cycles = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t dram_row_misses = 0;
  std::uint64_t dram_queue_wait_cycles = 0;

  void add(const sim::Report& r) {
    mcycles += static_cast<double>(r.cycles) / 1e6;
    for (const sim::CoreReport& c : r.per_core) {
      instructions += c.accel.instructions;
      macs += c.accel.macs;
      tlb_hit_rate_sum += c.private_tlb_hit_rate;
      ++cores;
    }
    l2_hits += r.substrate.l2_hits;
    l2_misses += r.substrate.l2_misses;
    for (const sim::RequestorTraffic& t : r.substrate.per_requestor) {
      bus_bytes += t.sysbus_bytes + t.membus_bytes;
      bus_wait_cycles += t.sysbus_wait_cycles + t.membus_wait_cycles;
    }
    for (const sim::DramChannelTraffic& ch : r.substrate.dram_channels) {
      dram_accesses += ch.accesses;
      dram_row_hits += ch.row_hits;
      dram_row_misses += ch.row_misses;
      dram_queue_wait_cycles += ch.queue_wait_cycles;
    }
  }
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// FNV-1a: a stable digest of a report, so traced and untraced runs on any
/// machine can be compared for identical simulated results.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : text) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

// ---- Workloads ----------------------------------------------------------------

/// What one iteration produced. `json` is the iteration's serialized report
/// (or reports); equal seeds must give byte-identical text every iteration.
struct Iteration {
  double seconds = 0;      ///< host, whole iteration
  double setup_s = 0;      ///< host, iteration start -> first simulate call
  double sim_mcycles = 0;  ///< simulated span the iteration covers
  std::string json;
  Work work;
  std::map<std::string, double> counts;  ///< per-layer counts, by metric name
};

/// Metric values by BENCHMARK.json name. Units live in BENCHMARK.json.
using Metrics = std::map<std::string, double>;

/// Writes `span`_ms for each named span from a per-name total.
void put_span_ms(const std::map<std::string, double>& totals,
                 std::initializer_list<const char*> spans, Metrics& out) {
  for (const char* span : spans) {
    const auto i = totals.find(span);
    if (i != totals.end()) out[std::string(span) + "_ms"] = i->second;
  }
}

/// Host cost of the simulate calls per simulated cycle and per instruction.
void put_soc_cost(double soc_ms, double mcycles, double instructions,
                  Metrics& out) {
  out["soc.host_ns_per_cycle"] = ratio(soc_ms * 1e6, mcycles * 1e6);
  out["soc.host_ns_per_instr"] = ratio(soc_ms * 1e6, instructions);
}

void put_work(const Work& w, Metrics& out) {
  const double l2 = static_cast<double>(w.l2_hits + w.l2_misses);
  const double dram_rows =
      static_cast<double>(w.dram_row_hits + w.dram_row_misses);
  out["accel.instructions_per_mcycle"] =
      ratio(static_cast<double>(w.instructions), w.mcycles);
  out["accel.macs_per_mcycle"] = ratio(static_cast<double>(w.macs), w.mcycles);
  out["vm.tlb_hit_rate"] = ratio(w.tlb_hit_rate_sum, w.cores);
  out["mem.l2_accesses_per_mcycle"] = ratio(l2, w.mcycles);
  out["mem.l2_miss_rate"] = ratio(static_cast<double>(w.l2_misses), l2);
  out["mem.bus_bytes_per_mcycle"] =
      ratio(static_cast<double>(w.bus_bytes), w.mcycles);
  out["mem.bus_wait_cycles"] = static_cast<double>(w.bus_wait_cycles);
  out["mem.dram_accesses_per_mcycle"] =
      ratio(static_cast<double>(w.dram_accesses), w.mcycles);
  out["mem.dram_row_hit_rate"] =
      ratio(static_cast<double>(w.dram_row_hits), dram_rows);
  out["mem.dram_queue_wait_cycles"] =
      static_cast<double>(w.dram_queue_wait_cycles);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Number of iteration variants the traced loop cycles through; variant 0
  /// is the measured workload, others are traced-only comparison runs.
  virtual int variants() const { return 1; }
  /// One closed-loop iteration. `rec` is null on untraced iterations. Fills
  /// everything but `seconds`, which the caller measures.
  virtual Iteration iterate(Recorder* rec, int iter, int variant,
                            Checks& checks, std::int64_t t0) = 0;
  /// Traced-only per-layer measurements made once, after the main loop
  /// (per-point sweep timing, serving calibration). `out` already holds the
  /// main loop's per-layer metrics.
  virtual void probe(Recorder& /*rec*/, int /*iter*/, Checks& /*checks*/,
                     Metrics& /*out*/) {}
};

std::uint64_t read_golden(const std::string& repo, const std::string& key) {
  const std::string path = repo + "/scripts/golden_cycles.json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t at = text.find("\"" + key + "\"");
  const std::size_t colon =
      at == std::string::npos ? at : text.find(':', at);
  if (colon == std::string::npos) {
    throw std::runtime_error(path + " has no entry " + key);
  }
  return std::strtoull(text.c_str() + colon + 1, nullptr, 10);
}

/// A built session and the plan it compiled.
struct Compiled {
  sim::Session session;
  sim::Plan plan;
};

/// Session::Builder::build then Session::plan, a span around each call.
Compiled build_and_plan(Recorder* rec, int iter,
                        const sim::Session::Builder& builder,
                        const Model& model) {
  std::optional<sim::Session> s;
  {
    Scope sp(rec, "sim.build", iter);
    s.emplace(builder.build());
  }
  Scope sp(rec, "lowering.plan", iter);
  sim::Plan plan = s->plan(model);
  return {std::move(*s), std::move(plan)};
}

std::vector<std::int8_t> read_logits(sim::Session& s, const Model& model) {
  const std::size_t out = model.layers().size() - 1;
  std::vector<std::int8_t> logits(model.shape(out).elems());
  s.address_space().read_virt(s.last_lowered().layer_output[out],
                              logits.data(), logits.size());
  return logits;
}

/// resnet_infer: cold push-button functional inference of the golden
/// 9355595-cycle model. The only workload where lowering materializes data
/// and the functional datapath moves real bytes.
class ResnetInfer final : public Workload {
 public:
  ResnetInfer(std::uint64_t seed, const std::string& repo)
      : seed_(seed),
        model_(zoo::resnet50(32)),
        golden_(read_golden(repo, "resnet50_slice_32")) {
    cfg_ = SocConfig::base_1mb_l2();
    cfg_.accel.has_im2col = true;
    // Reference logits: the same model and seed, every layer on the CPU.
    sim::Session ref =
        sim::Session::builder(cfg_)
            .functional(true)
            .seed(seed_)
            .placement(std::make_shared<const lowering::CpuOnlyPlacement>())
            .build();
    ref.run(model_);
    reference_ = read_logits(ref, model_);
  }

  Iteration iterate(Recorder* rec, int iter, int, Checks& checks,
                    std::int64_t t0) override {
    Iteration it;
    std::vector<std::int8_t> logits;
    sim::Report r;
    {
      Compiled c = build_and_plan(
          rec, iter, sim::Session::builder(cfg_).functional(true).seed(seed_),
          model_);
      it.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
      {
        Scope sp(rec, "soc.run", iter);
        r = c.session.run(c.plan);
      }
      {
        Scope sp(rec, "sim.report_json", iter);
        it.json = r.to_json();
      }
      logits = read_logits(c.session, model_);
    }
    checks.expect_eq<std::uint64_t>(r.cycles, golden_, "resnet_infer cycles");
    checks.expect(logits == reference_,
                  "resnet_infer logits equal the CPU-only reference");
    it.sim_mcycles = static_cast<double>(r.cycles) / 1e6;
    it.work.add(r);
    it.counts["sim.report_json_bytes"] = static_cast<double>(it.json.size());
    return it;
  }

 private:
  std::uint64_t seed_;
  SocConfig cfg_;
  Model model_;
  std::uint64_t golden_;
  std::vector<std::int8_t> reference_;
};

/// llm_decode: batch-1, timing-only, KV-resident decode on a contended
/// memory system with the metrics sampler and the energy meter on. It
/// bypasses lowering and the functional datapath, and is the only workload
/// where metrics and energy do work.
class LlmDecode final : public Workload {
 public:
  // Pinned simulated results of this exact shape and memory system.
  static constexpr std::uint64_t kCycles = 43806782;
  static constexpr std::uint64_t kPrefillCycles = 7765161;
  static constexpr std::uint64_t kDecodeCycles = 36041621;
  static constexpr std::uint64_t kEnergyFj = 3981856200704;

  explicit LlmDecode(std::uint64_t seed) : seed_(seed) {
    // The contended memory system of the --llm bench suite: 4 MB L2,
    // 2-channel FR-FCFS, XOR-folded interleave, write queue and refresh.
    cfg_ = SocConfig::base_1mb_l2();
    cfg_.accel.has_im2col = true;
    cfg_.mem.l2.size_bytes = 4ull << 20;
    cfg_.mem.dram.channels = 2;
    cfg_.mem.dram.scheduler = DramScheduler::kFrFcfs;
    cfg_.mem.dram.interleave = DramInterleave::kXorFold;
    cfg_.mem.dram.write_queue_depth = 16;
    cfg_.mem.dram.write_drain_floor = 4;
    cfg_.mem.dram.refresh_interval = 7800;
    cfg_.mem.dram.refresh_latency = 280;
    decode_.hidden = 512;
    decode_.heads = 8;
    decode_.prompt_tokens = 64;
    decode_.decode_steps = 16;
  }

  // Variant 1 runs the same decode with metrics and energy off, so the
  // traced run can price the instruments.
  int variants() const override { return 2; }

  Iteration iterate(Recorder* rec, int iter, int variant, Checks& checks,
                    std::int64_t t0) override {
    const bool instruments = variant == 0;
    Iteration it;
    sim::Report r;
    {
      std::optional<sim::Session> s;
      {
        Scope sp(rec, "sim.build", iter);
        sim::Session::Builder b = sim::Session::builder(cfg_).seed(seed_);
        if (instruments) {
          b.metrics(metrics::MetricsConfig::enabled_default())
              .energy(energy::EnergyConfig::enabled_default());
        }
        s.emplace(b.build());
      }
      std::optional<llm::DecodeWorkload> w;
      {
        Scope sp(rec, "llm.build", iter);
        decode_.validate();
        w.emplace(llm::build_decode_workload(decode_, s->config().accel,
                                             s->config().cpu,
                                             s->address_space(0), s->seed(),
                                             s->functional()));
      }
      it.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
      {
        Scope sp(rec, "soc.run", iter);
        r = s->run_stream(w->stream, decode_.label(),
                          s->config().cpu.gemm_cycles(w->prefill_macs +
                                                      w->decode_macs));
      }
      r.layer_intensity = std::move(w->layer_intensity);
      it.counts["llm.stream_steps"] =
          static_cast<double>(w->stream.steps.size());
      {
        Scope sp(rec, "sim.report_json", iter);
        it.json = r.to_json();
      }
      it.counts["sim.report_json_bytes"] = static_cast<double>(it.json.size());
      if (instruments) {
        Scope sp(rec, "metrics.openmetrics", iter);
        it.json += s->openmetrics();
      }
    }
    const auto tag = [&r](const char* t) -> std::uint64_t {
      const auto i = r.cycles_by_tag.find(t);
      return i == r.cycles_by_tag.end() ? 0 : i->second;
    };
    checks.expect_eq<std::uint64_t>(r.cycles, kCycles, "llm_decode cycles");
    checks.expect_eq<std::uint64_t>(tag("prefill"), kPrefillCycles,
                                    "llm_decode prefill cycles");
    checks.expect_eq<std::uint64_t>(tag("decode"), kDecodeCycles,
                                    "llm_decode decode cycles");
    if (instruments) {
      checks.expect_eq<std::uint64_t>(r.energy.total_fj, kEnergyFj,
                                      "llm_decode energy.total_fj");
      it.counts["energy.total_fj"] = static_cast<double>(r.energy.total_fj);
    }
    it.sim_mcycles = static_cast<double>(r.cycles) / 1e6;
    it.work.add(r);
    return it;
  }

 private:
  std::uint64_t seed_;
  SocConfig cfg_;
  llm::DecodeConfig decode_;
};

unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// sweep_fig9: the 9-point Fig. 9 grid, timing-only, fanned across
/// min(4, nproc) workers. The only workload that exercises Sweep
/// parallelism; it compiles 9 models without materializing data.
class SweepFig9 final : public Workload {
 public:
  SweepFig9() : threads_(std::min(4u, host_threads())) {}

  Iteration iterate(Recorder* rec, int iter, int, Checks& checks,
                    std::int64_t t0) override {
    Iteration it;
    const sim::Sweep sweep = make_sweep();
    it.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    std::vector<sim::Report> reports;
    {
      Scope sp(rec, "sweep.run", iter);
      reports = sweep.run({.threads = threads_});
    }
    {
      Scope sp(rec, "sim.report_json", iter);
      it.json = sim::reports_to_json(reports);
    }
    check_points(reports, checks);
    for (const sim::Report& r : reports) {
      it.sim_mcycles += static_cast<double>(r.cycles) / 1e6;
      it.work.add(r);
    }
    it.counts["sim.report_json_bytes"] = static_cast<double>(it.json.size());
    return it;
  }

  // Each point on its own, serially: once whole through Sweep::run_point,
  // once split into the build / plan / run calls run_point makes.
  void probe(Recorder& rec, int iter, Checks& checks, Metrics& out) override {
    const sim::Sweep sweep = make_sweep();
    double point_max = 0, point_sum = 0;
    std::vector<sim::Report> whole, split;
    for (const sim::SweepPoint& p : sweep.points()) {
      const std::int64_t t = now_ns();
      {
        Scope sp(&rec, "sweep.point", iter);
        whole.push_back(sim::Sweep::run_point(p));
      }
      const double ms = static_cast<double>(now_ns() - t) / 1e6;
      point_max = std::max(point_max, ms);
      point_sum += ms;
    }
    for (const sim::SweepPoint& p : sweep.points()) {
      Scope pt(&rec, "sweep.point_split", iter);
      Compiled c =
          build_and_plan(&rec, iter, sim::Session::builder(p.config), p.model);
      Scope sp(&rec, "soc.run", iter);
      split.push_back(c.session.run(c.plan));
      split.back().point = p.name;
    }
    check_points(whole, checks);
    check_points(split, checks);
    for (std::size_t i = 0; i < whole.size() && i < split.size(); ++i) {
      checks.expect(split[i].to_json() == whole[i].to_json(),
                    whole[i].point + ": build/plan/run report equals "
                                     "Sweep::run_point's");
    }
    Work w;
    for (const sim::Report& r : split) w.add(r);
    const std::map<std::string, double> t = rec.totals_ms(iter);
    put_span_ms(t, {"sim.build", "lowering.plan", "soc.run"}, out);
    put_soc_cost(t.at("soc.run"), w.mcycles,
                 static_cast<double>(w.instructions), out);
    out["sweep.point_ms_max"] = point_max;
    out["sweep.point_ms_sum"] = point_sum;
    out["sweep.parallel_efficiency"] =
        ratio(point_sum, threads_ * out.at("sweep.run_ms"));
  }

 private:
  // Pinned simulated cycles of every grid point, by point label.
  static const std::map<std::string, std::uint64_t>& pinned() {
    static const std::map<std::string, std::uint64_t> kCycles = {
        {"Base/squeezenet_v1.1", 1032561},  {"Base/mobilenetv2", 3503052},
        {"Base/alexnet", 12068880},         {"BigSP/squeezenet_v1.1", 1031584},
        {"BigSP/mobilenetv2", 3491430},     {"BigSP/alexnet", 12019025},
        {"BigL2/squeezenet_v1.1", 879233},  {"BigL2/mobilenetv2", 3582322},
        {"BigL2/alexnet", 11994337},
    };
    return kCycles;
  }

  static sim::Sweep make_sweep() {
    std::vector<SocConfig> configs = {SocConfig::base_1mb_l2(),
                                      SocConfig::big_sp(), SocConfig::big_l2()};
    for (SocConfig& c : configs) c.accel.has_im2col = true;
    return sim::Experiment()
        .configs(configs)
        .model(zoo::squeezenet_v11(64))
        .model(zoo::mobilenet_v2(64))
        .model(zoo::alexnet(63))
        .sweep();
  }

  static void check_points(const std::vector<sim::Report>& reports,
                           Checks& checks) {
    checks.expect_eq<std::size_t>(reports.size(), 9, "sweep_fig9 points");
    for (const sim::Report& r : reports) {
      checks.expect_eq<std::string>(r.status, "ok", r.point + " status");
      const auto pin = pinned().find(r.point);
      checks.expect_eq<std::uint64_t>(
          r.cycles, pin == pinned().end() ? 0 : pin->second,
          r.point + " cycles");
    }
  }

  unsigned threads_;
};

/// serve_mix: a 2-core SoC serving two scaled-zoo request classes under
/// seeded open-loop Poisson arrivals (in simulated time) at about 0.9x the
/// calibrated capacity. Host cost is mostly the Server's calibration runs,
/// so it measures the serve layer and Session::run_multicore.
class ServeMix final : public Workload {
 public:
  // Pinned calibration cycles of each class on this SoC, re-checked by the
  // traced calibration probe: Session::run (cold) and run_multicore (both
  // cores busy). The contended ones set the offered load.
  static constexpr std::uint64_t kColdCycles[2] = {863364, 2899575};
  static constexpr std::uint64_t kContendedCycles[2] = {940741, 3677518};

  explicit ServeMix(std::uint64_t seed) : seed_(seed) {
    cfg_ = SocConfig::base_1mb_l2();
    cfg_.accel.has_im2col = true;
    cfg_.cores = 2;
  }

  Iteration iterate(Recorder* rec, int iter, int, Checks& checks,
                    std::int64_t t0) override {
    Iteration it;
    serve::Server server(cfg_, make_spec());
    it.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    sim::Report r;
    {
      Scope sp(rec, "serve.run", iter);
      r = server.run();
    }
    {
      Scope sp(rec, "sim.report_json", iter);
      it.json = r.to_json();
    }
    const sim::ServerStats& st = r.server;
    checks.expect_eq<std::uint64_t>(st.offered,
                                    st.completed + st.shed + st.errors,
                                    "serve_mix offered = completed+shed+errors");
    checks.expect(st.completed > 0 && st.p50 <= st.p95 && st.p95 <= st.p99 &&
                      st.p99 <= st.max_latency,
                  "serve_mix p50 <= p95 <= p99 <= max");
    checks.expect_eq<std::uint64_t>(st.errors, 0, "serve_mix errors");
    it.sim_mcycles = static_cast<double>(st.makespan) / 1e6;
    it.counts["sim.report_json_bytes"] = static_cast<double>(it.json.size());
    it.counts["serve.requests"] = static_cast<double>(st.offered);
    it.counts["serve.completed"] = static_cast<double>(st.completed);
    it.counts["serve.shed"] = static_cast<double>(st.shed);
    it.counts["serve.p99_cycles"] = static_cast<double>(st.p99);
    it.counts["serve.goodput_per_mcycle"] = st.goodput_per_mcycle;
    return it;
  }

  // The Server's calibration, redone through the public API with a span
  // around each call: cold run, warm re-run, all-cores-contended run.
  void probe(Recorder& rec, int iter, Checks& checks, Metrics& out) override {
    const serve::ServeSpec spec = make_spec();
    Work w;
    double soc_mcycles = 0;
    std::uint64_t soc_instructions = 0;
    for (std::size_t i = 0; i < spec.classes.size(); ++i) {
      const Model& m = spec.classes[i].model;
      Scope cal(&rec, "serve.calib", iter);
      Compiled c = build_and_plan(&rec, iter, sim::Session::builder(cfg_), m);
      sim::Report cold;
      {
        Scope sp(&rec, "soc.run", iter);
        cold = c.session.run(c.plan);
      }
      checks.expect_eq<std::uint64_t>(cold.cycles, kColdCycles[i],
                                      spec.classes[i].name + " cold cycles");
      CoreResult warm;
      {
        Scope sp(&rec, "soc.run", iter);
        c.session.soc().reset_time();
        warm = c.session.soc().run(c.session.last_lowered().stream);
      }
      std::optional<sim::Session> mc;
      {
        Scope sp(&rec, "sim.build", iter);
        mc.emplace(sim::Session::builder(cfg_).build());
      }
      sim::Report contended;
      {
        Scope sp(&rec, "soc.run", iter);
        contended = mc->run_multicore(m);
      }
      checks.expect_eq<std::uint64_t>(contended.cycles, kContendedCycles[i],
                                      spec.classes[i].name +
                                          " contended cycles");
      w.add(cold);
      w.add(contended);
      soc_mcycles += static_cast<double>(warm.finish) / 1e6;
      soc_instructions += warm.accel.instructions;
    }
    const std::map<std::string, double> t = rec.totals_ms(iter);
    put_span_ms(t, {"serve.calib", "sim.build", "lowering.plan", "soc.run"},
                out);
    put_soc_cost(t.at("soc.run"), soc_mcycles + w.mcycles,
                 static_cast<double>(soc_instructions + w.instructions), out);
    put_work(w, out);
  }

 private:
  serve::ServeSpec make_spec() const {
    serve::ServeSpec spec;
    spec.enabled = true;
    spec.classes.push_back(
        serve::RequestClass{"squeezenet", zoo::squeezenet_v11(48), 2.0});
    spec.classes.push_back(
        serve::RequestClass{"mobilenet", zoo::mobilenet_v2(48), 1.0});
    // Mean service time of the 2:1 class mix with every core busy.
    const double mean_service =
        (2.0 * static_cast<double>(kContendedCycles[0]) +
         1.0 * static_cast<double>(kContendedCycles[1])) / 3.0;
    const double capacity = static_cast<double>(cfg_.cores) * 1e6 / mean_service;
    spec.arrivals.kind = serve::ArrivalKind::kPoisson;
    spec.arrivals.requests_per_mcycle = 0.9 * capacity;
    spec.arrivals.horizon_cycles = static_cast<Cycle>(2000 * mean_service);
    spec.arrivals.seed = seed_;
    spec.scheduler.policy = serve::ServePolicy::kBatch;
    spec.scheduler.max_batch = 4;
    spec.scheduler.admission_capacity = 64;
    return spec;
  }

  std::uint64_t seed_;
  SocConfig cfg_;
};

// ---- Driver -------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo = ".";
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "1") == 0;
    else if (k == "--repo") a.repo = v;
    else if (k == "--spans") a.spans = v;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "resnet_infer") {
    return std::make_unique<ResnetInfer>(a.seed, a.repo);
  }
  if (a.workload == "llm_decode") return std::make_unique<LlmDecode>(a.seed);
  if (a.workload == "sweep_fig9") return std::make_unique<SweepFig9>();
  if (a.workload == "serve_mix") return std::make_unique<ServeMix>(a.seed);
  throw std::runtime_error("unknown workload '" + a.workload + "'");
}

/// Runs one iteration and checks that it repeats the first iteration of its
/// variant byte for byte.
Iteration timed_iteration(Workload& w, Recorder* rec, int iter, int variant,
                          Checks& checks,
                          std::map<int, std::string>& first_json) {
  const std::int64_t t0 = now_ns();
  std::optional<Iteration> it;
  {
    std::optional<Scope> root;
    if (rec) root.emplace(rec, "iteration", iter);
    it.emplace(w.iterate(rec, iter, variant, checks, t0));
  }
  it->seconds = static_cast<double>(now_ns() - t0) / 1e9;
  const auto [first, inserted] = first_json.emplace(variant, it->json);
  if (!inserted) {
    checks.expect(it->json == first->second,
                  "report of iteration " + std::to_string(iter) +
                      " repeats the first iteration byte for byte");
  }
  return std::move(*it);
}

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  Checks checks;
  std::map<int, std::string> first_json;
  Metrics out;
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t start = now_ns();
  int iter = 0;

  if (!args.trace) {
    std::vector<double> mcps, setup;
    do {
      const Iteration it =
          timed_iteration(*w, nullptr, iter++, 0, checks, first_json);
      mcps.push_back(it.sim_mcycles / it.seconds);
      setup.push_back(it.setup_s);
    } while (now_ns() - start < budget);
    out["sim_mcycles_per_s"] = median(mcps);
    out["setup_s"] = median(setup);
    out["peak_rss_mb"] = peak_rss_mb();
    out["check_pass_pct"] =
        100.0 * static_cast<double>(checks.attempted - checks.failed) /
        static_cast<double>(checks.attempted);
    std::fprintf(stderr,
                 "%s: %d iterations, sim_mcycles_per_s median %.4g min %.4g "
                 "max %.4g\n",
                 args.workload.c_str(), iter, median(mcps),
                 *std::min_element(mcps.begin(), mcps.end()),
                 *std::max_element(mcps.begin(), mcps.end()));
  } else {
    // Untraced and traced iterations of the same work alternate, so their
    // difference is the tracing overhead under the same machine state.
    Recorder rec;
    std::vector<double> untraced_s, traced_s, self_ms;
    std::map<std::string, std::vector<double>> layer_ms, layer_ms_bare;
    Iteration last;
    do {
      untraced_s.push_back(
          timed_iteration(*w, nullptr, iter++, 0, checks, first_json).seconds);
      for (int v = 0; v < w->variants(); ++v) {
        const int id = iter++;
        const std::size_t root = rec.spans().size();
        Iteration it = timed_iteration(*w, &rec, id, v, checks, first_json);
        auto& into = v == 0 ? layer_ms : layer_ms_bare;
        for (const auto& [name, ms] : rec.totals_ms(id)) into[name].push_back(ms);
        if (v == 0) {
          traced_s.push_back(it.seconds);
          self_ms.push_back(
              static_cast<double>(rec.self_ns(static_cast<int>(root))) / 1e6);
          last = std::move(it);
        }
      }
    } while (now_ns() - start < budget);
    // Only the layers this workload exercises are written; run.py reports
    // the others as 0.
    for (const auto& [span, ms] : layer_ms) {
      if (span != "iteration") out[span + "_ms"] = median(ms);
    }
    if (last.work.cores > 0) put_work(last.work, out);
    if (const auto soc = out.find("soc.run_ms"); soc != out.end()) {
      put_soc_cost(soc->second, last.work.mcycles,
                   static_cast<double>(last.work.instructions), out);
    }
    if (const auto bare = layer_ms_bare.find("soc.run");
        bare != layer_ms_bare.end()) {
      out["metrics.overhead_pct"] =
          100.0 * (out.at("soc.run_ms") / median(bare->second) - 1.0);
    }
    out["trace.overhead_pct"] =
        100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    out["trace.iteration_self_ms"] = median(self_ms);
    out.insert(last.counts.begin(), last.counts.end());
    w->probe(rec, iter++, checks, out);
    if (!args.spans.empty() && !rec.write(args.spans)) {
      throw std::runtime_error("cannot write " + args.spans);
    }
    std::fprintf(stderr, "%s: %d iterations (traced run)\n",
                 args.workload.c_str(), iter);
  }

  std::fprintf(stderr, "%s: report digest %016llx\n", args.workload.c_str(),
               static_cast<unsigned long long>(fnv1a(first_json.at(0))));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"iterations\": %d, \"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), iter);
  bool first = true;
  for (const auto& [name, value] : out) {
    std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
