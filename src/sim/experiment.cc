#include "src/sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

namespace gemmini::sim {

Sweep& Sweep::add(SweepPoint point) {
  points_.push_back(std::move(point));
  return *this;
}

Sweep& Sweep::add(std::string name, SocConfig config, Model model) {
  return add(SweepPoint{.name = std::move(name),
                        .config = std::move(config),
                        .model = std::move(model)});
}

namespace {

/// The one Session every run path builds for a point: `cfg` is the point's
/// config, or a variant of it (a campaign's golden and seeded runs).
Session build_session(const SweepPoint& point, const SocConfig& cfg,
                      bool with_trace) {
  return Session::builder(cfg)
      .functional(point.functional)
      .seed(point.seed)
      .placement(point.placement)
      .tiling(point.tiling)
      .trace(with_trace ? point.trace : trace::TraceConfig{})
      .metrics(point.metrics)
      .energy(point.energy)
      .build();
}

/// Writes a traced session's trace.json to the point's export path, if set.
void export_trace(const SweepPoint& point, const Session& session) {
  if (!session.tracing() || point.trace.export_path.empty()) return;
  if (!session.write_trace(point.trace.export_path)) {
    throw RuntimeError("sweep point '" + point.name +
                       "': could not write trace to " +
                       point.trace.export_path);
  }
}

/// Fault campaign for one sweep point: a fault-free golden run supplies the
/// report (timing, estimates, reference output), then `campaign_runs`
/// fresh sessions rerun the same workload with fault seeds base+i and each
/// run is classified against the golden output:
///
///   threw                      -> "detected"  (watchdog, DMA abort, ...)
///   mismatch, ECC flagged any  -> "detected"
///   mismatch, nothing flagged  -> "sdc"       (silent data corruption)
///   match, ECC corrected any   -> "corrected"
///   match otherwise            -> "masked"
Report run_campaign(const SweepPoint& point) {
  GEMMINI_CONFIG_REQUIRE(point.config.faults.enabled,
                         "sweep point '" + point.name +
                             "': campaign_runs > 0 needs config.faults.enabled");
  GEMMINI_CONFIG_REQUIRE(point.functional,
                         "sweep point '" + point.name +
                             "': fault campaigns compare outputs, so the "
                             "point must be functional");
  GEMMINI_CONFIG_REQUIRE(!point.multicore,
                         "sweep point '" + point.name +
                             "': fault campaigns are single-core");

  SocConfig golden_cfg = point.config;
  golden_cfg.faults.enabled = false;
  Session golden = build_session(point, golden_cfg, /*with_trace=*/true);
  Report rep = golden.run(point.model);
  rep.point = point.name;
  export_trace(point, golden);

  const LoweredModel& lowered = golden.last_lowered();
  std::vector<std::uint8_t> golden_out(lowered.layer_bytes.back());
  golden.address_space().read_virt(lowered.layer_output.back(),
                                   golden_out.data(), golden_out.size());

  ReliabilityReport& rel = rep.reliability;
  rel.enabled = true;
  rel.seed = point.config.faults.seed;
  rel.campaign_runs = point.campaign_runs;
  rel.golden_cycles = rep.cycles;

  unsigned faulty_runs = 0;
  for (unsigned i = 0; i < point.campaign_runs; ++i) {
    SocConfig cfg = point.config;
    cfg.faults.seed = point.config.faults.seed + i;
    Session session = build_session(point, cfg, /*with_trace=*/false);
    bool threw = false;
    try {
      session.run(point.model);
    } catch (const std::exception&) {
      threw = true;
    }
    const fault::FaultStats stats = session.soc().fault_injector()->stats();
    rel.injection += stats;
    if (stats.total_injected() > 0) ++faulty_runs;

    std::string outcome;
    if (threw) {
      outcome = "detected";
    } else {
      std::vector<std::uint8_t> out(golden_out.size());
      session.address_space().read_virt(
          session.last_lowered().layer_output.back(), out.data(), out.size());
      if (out != golden_out) {
        outcome = stats.ecc_detected_uncorrectable > 0 ? "detected" : "sdc";
      } else {
        outcome = stats.ecc_corrected > 0 ? "corrected" : "masked";
      }
    }
    if (outcome == "masked") {
      ++rel.masked;
    } else if (outcome == "corrected") {
      ++rel.corrected;
    } else if (outcome == "detected") {
      ++rel.detected;
    } else {
      ++rel.sdc;
    }
    rel.run_outcomes.push_back(std::move(outcome));
  }

  if (point.campaign_runs > 0) {
    rel.sdc_rate =
        static_cast<double>(rel.sdc) / static_cast<double>(point.campaign_runs);
  }
  if (faulty_runs > 0) {
    rel.detection_rate =
        static_cast<double>(rel.corrected + rel.detected) /
        static_cast<double>(faulty_runs);
  }
  return rep;
}

/// The fail-soft stand-in for a point whose run threw: the label and the
/// exception message survive in the point's report slot, the rest stays
/// default-initialized.
Report error_report(const SweepPoint& point, std::string message) {
  Report rep;
  rep.point = point.name;
  rep.status = "error";
  rep.error = std::move(message);
  rep.config = point.config.name;
  rep.model = point.model.name();
  return rep;
}

/// What no single point can check: serving runs are never traced, and no
/// two exports (trace or metrics) of the grid write one file, since points
/// may run on different workers.
void check_grid(const std::vector<SweepPoint>& points) {
  std::set<std::string> exports;
  for (const SweepPoint& p : points) {
    GEMMINI_CONFIG_REQUIRE(!(p.serve.enabled && p.trace.enabled),
                           "sim::Sweep: point '" << p.name
                               << "' enables serve and trace, and serving "
                                  "runs are not traced");
    for (const auto& [on, path] :
         {std::pair{p.trace.enabled, &p.trace.export_path},
          std::pair{p.metrics.enabled, &p.metrics.export_path}}) {
      GEMMINI_CONFIG_REQUIRE(
          !on || path->empty() || exports.insert(*path).second,
          "sim::Sweep: point '" << p.name << "' exports to '" << *path
                                << "', which another export of the grid "
                                   "also writes");
    }
  }
}

}  // namespace

Report Sweep::run_point(const SweepPoint& point) {
  // An llm point always runs the decode stream; other points hand serving
  // and campaigns to their own drivers. Every Session is build_session's.
  if (!point.llm.has_value()) {
    if (point.serve.enabled) {
      serve::Server server(
          point.config, point.serve,
          serve::Server::Options{point.functional, point.seed, point.placement,
                                 point.tiling, point.metrics});
      Report rep = server.run();
      rep.point = point.name;
      return rep;
    }
    if (point.campaign_runs > 0) return run_campaign(point);
  }
  Session session = build_session(point, point.config, /*with_trace=*/true);
  Report rep = point.llm.has_value() ? llm::run_decode(session, *point.llm)
               : point.multicore     ? session.run_multicore(point.model)
                                     : session.run(point.model);
  rep.point = point.name;
  export_trace(point, session);
  return rep;
}

std::vector<Report> Sweep::run(const SweepOptions& opts) const {
  check_grid(points_);
  std::vector<std::optional<Report>> slots(points_.size());
  std::vector<std::string> errors(points_.size());

  unsigned threads = opts.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > points_.size()) {
    threads = static_cast<unsigned>(points_.size());
  }

  // Dynamic work distribution: workers pull the next unclaimed point. Which
  // worker runs which point is scheduling-dependent; the *result* is not,
  // because every point elaborates its own SoC and writes only its own slot.
  //
  // Fail-soft (the default): a throwing point becomes an error report in
  // its own slot and the pool keeps claiming — one poisoned config cannot
  // lose the other N-1 results, and the report vector is byte-identical at
  // any thread count because the error text depends only on the point.
  //
  // Strict: once any point fails, workers stop claiming new points — a
  // failed sweep aborts promptly instead of simulating the rest of a large
  // grid. The deterministic-error guarantee survives early abort: points
  // are claimed in index order and a claimed point always runs to
  // completion, so by the time any later point sets `failed`, the
  // lowest-indexed failing point has already been claimed and will record
  // its error.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  auto work = [&]() {
    while (!(opts.strict && failed.load(std::memory_order_relaxed))) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points_.size()) break;
      try {
        slots[i] = run_point(points_[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      } catch (...) {
        errors[i] = "unknown error";
      }
      if (!slots[i].has_value()) {
        if (opts.strict) {
          failed.store(true, std::memory_order_relaxed);
        } else {
          slots[i] = error_report(points_[i], errors[i]);
        }
      }
    }
  };

  if (threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  // Strict mode: surface the first recorded failure in *point* order,
  // independent of which thread hit it first.
  if (opts.strict) {
    for (std::size_t i = 0; i < points_.size(); ++i) {
      if (!slots[i].has_value()) {
        throw RuntimeError("sweep point " + std::to_string(i) + " '" +
                           points_[i].name + "' failed: " + errors[i]);
      }
    }
  }

  std::vector<Report> reports;
  reports.reserve(slots.size());
  for (auto& slot : slots) reports.push_back(std::move(*slot));
  return reports;
}

// ---- Experiment -------------------------------------------------------------

namespace {

std::string human_bytes(const char* prefix, std::uint64_t bytes) {
  std::ostringstream oss;
  oss << prefix;
  if (bytes >= (1ull << 20) && bytes % (1ull << 20) == 0) {
    oss << (bytes >> 20) << "M";
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    oss << (bytes >> 10) << "K";
  } else {
    oss << bytes << "B";
  }
  return oss.str();
}

}  // namespace

// The prototype's model is a one-layer placeholder (Model has no empty
// state); the model column or the llm proxy replaces it on every point.
Experiment::Experiment(SocConfig base)
    : proto_{.name = "",
             .config = std::move(base),
             .model = ModelBuilder("").input_matrix(1, 1).build()} {}

template <typename T, typename MakeColumn>
Experiment& Experiment::fill(Axis axis, std::vector<T> values,
                             MakeColumn make) {
  axes_[axis].clear();
  for (auto&& v : values) axes_[axis].push_back(make(std::move(v)));
  return *this;
}

Experiment& Experiment::model(Model m) {
  axes_[kModels].push_back(
      {"", [m = std::move(m)](SweepPoint& p) { p.model = m; }});
  return *this;
}
Experiment& Experiment::models(std::vector<Model> ms) {
  for (Model& m : ms) model(std::move(m));
  return *this;
}
Experiment& Experiment::geometries(std::vector<SpatialArrayGeometry> gs) {
  return fill(kGeometry, std::move(gs), [](SpatialArrayGeometry g) {
    std::ostringstream oss;
    oss << "g" << g.mesh_rows << "x" << g.mesh_cols << "x" << g.tile_rows
        << "x" << g.tile_cols;
    return Column{oss.str(), [g](SweepPoint& p) { p.config.accel.array = g; }};
  });
}
Experiment& Experiment::scratchpad_sizes(std::vector<std::uint64_t> bytes) {
  return fill(kScratchpad, std::move(bytes), [](std::uint64_t b) {
    return Column{human_bytes("sp", b), [b](SweepPoint& p) {
                    p.config.accel.sp_capacity_bytes = b;
                  }};
  });
}
Experiment& Experiment::l2_sizes(std::vector<std::uint64_t> bytes) {
  return fill(kL2, std::move(bytes), [](std::uint64_t b) {
    return Column{human_bytes("l2", b),
                  [b](SweepPoint& p) { p.config.mem.l2.size_bytes = b; }};
  });
}
Experiment& Experiment::core_counts(std::vector<unsigned> cores) {
  return fill(kCores, std::move(cores), [](unsigned c) {
    return Column{"c" + std::to_string(c),
                  [c](SweepPoint& p) { p.config.cores = c; }};
  });
}
Experiment& Experiment::dram_channels(std::vector<unsigned> channels) {
  return fill(kDramChannels, std::move(channels), [](unsigned ch) {
    return Column{std::to_string(ch) + "ch",
                  [ch](SweepPoint& p) { p.config.mem.dram.channels = ch; }};
  });
}
Experiment& Experiment::dram_schedulers(std::vector<DramScheduler> schedulers) {
  return fill(kDramScheduler, std::move(schedulers), [](DramScheduler s) {
    return Column{dram_scheduler_name(s),
                  [s](SweepPoint& p) { p.config.mem.dram.scheduler = s; }};
  });
}
Experiment& Experiment::dram_interleaves(
    std::vector<DramInterleave> interleaves) {
  return fill(kDramInterleave, std::move(interleaves), [](DramInterleave il) {
    return Column{std::string("il-") + dram_interleave_name(il),
                  [il](SweepPoint& p) { p.config.mem.dram.interleave = il; }};
  });
}
Experiment& Experiment::configs(std::vector<SocConfig> cfgs) {
  return fill(kConfigs, std::move(cfgs), [](SocConfig c) {
    std::string label = c.name;
    return Column{std::move(label),
                  [c = std::move(c)](SweepPoint& p) { p.config = c; }};
  });
}
Experiment& Experiment::placement_policies(
    std::vector<std::shared_ptr<const lowering::PlacementPolicy>> ps) {
  return fill(kPlacement, std::move(ps), [](auto pp) {
    return Column{pp->name(), [pp](SweepPoint& p) { p.placement = pp; }};
  });
}
Experiment& Experiment::tiling_policies(
    std::vector<std::shared_ptr<const lowering::TilingPolicy>> ts) {
  return fill(kTiling, std::move(ts), [](auto tp) {
    return Column{tp->name(), [tp](SweepPoint& p) { p.tiling = tp; }};
  });
}
// Each FaultConfig replaces the point's `faults` wholesale, so a disabled
// entry doubles as a fault-free baseline column.
Experiment& Experiment::fault_configs(std::vector<fault::FaultConfig> fcs) {
  std::size_t i = 0;
  return fill(kFaults, std::move(fcs), [&i](fault::FaultConfig fc) {
    std::string label = fc.name.empty() ? "f" + std::to_string(i) : fc.name;
    ++i;
    return Column{std::move(label),
                  [fc = std::move(fc)](SweepPoint& p) { p.config.faults = fc; }};
  });
}
Experiment& Experiment::fault_campaign(unsigned runs) {
  proto_.campaign_runs = runs;
  return *this;
}
Experiment& Experiment::serve(serve::ServeSpec spec) {
  proto_.serve = std::move(spec);
  proto_.serve.enabled = true;
  return *this;
}
Experiment& Experiment::llm(llm::DecodeConfig base) {
  proto_.llm = std::move(base);
  return *this;
}
Experiment& Experiment::llm_batches(std::vector<unsigned> batches) {
  return fill(kLlmBatch, std::move(batches), [](unsigned b) {
    return Column{"", [b](SweepPoint& p) { p.llm->batch = b; }};
  });
}
Experiment& Experiment::llm_kv_layouts(std::vector<llm::KvLayout> layouts) {
  return fill(kLlmLayout, std::move(layouts), [](llm::KvLayout l) {
    return Column{"", [l](SweepPoint& p) { p.llm->kv_layout = l; }};
  });
}
Experiment& Experiment::llm_decode_steps(std::vector<std::uint64_t> steps) {
  return fill(kLlmSteps, std::move(steps), [](std::uint64_t t) {
    return Column{"", [t](SweepPoint& p) { p.llm->decode_steps = t; }};
  });
}
Experiment& Experiment::llm_int4(std::vector<bool> int4) {
  return fill(kLlmInt4, std::move(int4), [](bool i4) {
    return Column{"", [i4](SweepPoint& p) { p.llm->int4_weights = i4; }};
  });
}
Experiment& Experiment::offered_loads(std::vector<double> loads) {
  return fill(kOfferedLoad, std::move(loads), [](double l) {
    GEMMINI_CONFIG_REQUIRE(l > 0, "sim::Experiment: offered_loads entries "
                                  "must be > 0 requests/Mcycle (got "
                                      << l << ")");
    std::ostringstream oss;
    oss << "load" << l;
    return Column{oss.str(), [l](SweepPoint& p) {
                    p.serve.arrivals.requests_per_mcycle = l;
                  }};
  });
}
Experiment& Experiment::serve_policies(std::vector<serve::ServeConfig> policies) {
  return fill(kServePolicy, std::move(policies), [](serve::ServeConfig sc) {
    return Column{sc.label(), [sc](SweepPoint& p) { p.serve.scheduler = sc; }};
  });
}
Experiment& Experiment::strict(bool on) {
  strict_ = on;
  return *this;
}
Experiment& Experiment::multicore(bool on) {
  proto_.multicore = on;
  return *this;
}
Experiment& Experiment::functional(bool on) {
  proto_.functional = on;
  return *this;
}
Experiment& Experiment::seed(std::uint64_t s) {
  proto_.seed = s;
  return *this;
}
Experiment& Experiment::trace_point(std::string point_name,
                                    trace::TraceConfig cfg) {
  trace_point_name_ = std::move(point_name);
  trace_cfg_ = std::move(cfg);
  trace_cfg_.enabled = true;
  return *this;
}
Experiment& Experiment::metrics(metrics::MetricsConfig cfg) {
  proto_.metrics = std::move(cfg);
  proto_.metrics.enabled = true;
  return *this;
}
Experiment& Experiment::energy(energy::EnergyConfig cfg) {
  proto_.energy = std::move(cfg);
  proto_.energy.enabled = true;
  return *this;
}

Sweep Experiment::sweep() const {
  // True when any axis in [first, last] has a column.
  auto filled = [this](Axis first, Axis last) {
    return std::any_of(axes_.begin() + first, axes_.begin() + last + 1,
                       [](const auto& axis) { return !axis.empty(); });
  };
  const bool decode = proto_.llm.has_value();
  const bool serving = proto_.serve.enabled;
  const unsigned campaign_runs = proto_.campaign_runs;
  GEMMINI_CONFIG_REQUIRE(!axes_[kModels].empty() || decode,
                         "sim::Experiment: add at least one model (or llm())");
  GEMMINI_CONFIG_REQUIRE(axes_[kModels].empty() || !decode,
                         "sim::Experiment: llm() replaces the model list; do "
                         "not combine it with model()/models()");
  GEMMINI_CONFIG_REQUIRE(
      decode || !filled(kLlmBatch, kLlmInt4),
      "sim::Experiment: llm_batches()/llm_kv_layouts()/llm_decode_steps()/"
      "llm_int4() need llm()");
  if (decode) {
    GEMMINI_CONFIG_REQUIRE(!serving && campaign_runs == 0 && !proto_.multicore,
                           "sim::Experiment: llm() is a single-core workload "
                           "and excludes serve() and fault_campaign()");
  }
  GEMMINI_CONFIG_REQUIRE(
      axes_[kConfigs].empty() || !filled(kGeometry, kDramInterleave),
      "sim::Experiment: configs() cannot be combined with per-axis setters");
  if (campaign_runs > 0) {
    GEMMINI_CONFIG_REQUIRE(proto_.functional && !proto_.multicore,
                           "sim::Experiment: fault_campaign() needs "
                           "functional() single-core points");
    GEMMINI_CONFIG_REQUIRE(!serving,
                           "sim::Experiment: fault_campaign() and serve() are "
                           "mutually exclusive (serving runs classify faulty "
                           "requests as error responses instead)");
  }
  GEMMINI_CONFIG_REQUIRE(
      serving || !filled(kOfferedLoad, kServePolicy),
      "sim::Experiment: offered_loads()/serve_policies() need serve()");

  // One cartesian product over the filled axes: an odometer whose last
  // axis turns fastest.
  std::vector<const std::vector<Column>*> axes;
  std::size_t points = 1;
  for (const std::vector<Column>& axis : axes_) {
    if (axis.empty()) continue;
    axes.push_back(&axis);
    points *= axis.size();
  }
  std::vector<std::size_t> at(axes.size(), 0);
  unsigned traced = 0;
  Sweep sw;
  for (std::size_t n = 0; n < points; ++n) {
    SweepPoint p = proto_;
    std::string label;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const Column& col = (*axes[a])[at[a]];
      col.apply(p);
      if (col.label.empty()) continue;
      if (!label.empty()) label += "-";
      label += col.label;
    }
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++at[a] < axes[a]->size()) break;
      at[a] = 0;
    }

    // Per-point rules, once the columns have set everything they vary.
    if (p.llm.has_value()) {
      p.llm->validate();
      p.model = llm::proxy_model(*p.llm);
    }
    p.name = label.empty() ? p.model.name() : label + "/" + p.model.name();
    if (p.serve.enabled && p.serve.classes.empty()) {
      p.serve.classes.push_back(serve::RequestClass{
          p.model.name(), p.model, 1.0, p.serve.default_deadline_cycles});
    }
    // Campaigns only make sense for fault-enabled points; a baseline column
    // in the faults axis runs once, normally.
    if (!p.config.faults.enabled) p.campaign_runs = 0;
    if (!trace_point_name_.empty() && p.name == trace_point_name_) {
      GEMMINI_CONFIG_REQUIRE(!p.serve.enabled,
                             "sim::Experiment: trace_point '" +
                                 trace_point_name_ +
                                 "' matches a serve() point, and serving "
                                 "runs are not traced");
      ++traced;
      GEMMINI_CONFIG_REQUIRE(traced == 1,
                             "sim::Experiment: trace_point '" +
                                 trace_point_name_ +
                                 "' matches more than one sweep point");
      p.trace = trace_cfg_;
    }
    sw.add(std::move(p));
  }
  GEMMINI_CONFIG_REQUIRE(
      trace_point_name_.empty() || traced == 1,
      "sim::Experiment: trace_point '" + trace_point_name_ +
          "' matches no sweep point");
  return sw;
}

std::vector<Report> Experiment::run(const SweepOptions& opts) const {
  SweepOptions o = opts;
  o.strict = o.strict || strict_;
  return sweep().run(o);
}

// ---- Successive-halving search ---------------------------------------------

namespace {

/// Layer-prefix proxy at fraction `f`: the first max(1, ceil(L * f))
/// layers. Valid for any prefix length because layer inputs only ever
/// reference earlier layers (the graph IR is producer-before-consumer).
Model prefix_model(const Model& m, double fraction) {
  const std::vector<LayerSpec>& ls = m.layers();
  const std::size_t total = ls.size();
  std::size_t k = static_cast<std::size_t>(
      std::ceil(static_cast<double>(total) * fraction));
  if (k < 1) k = 1;
  if (k > total) k = total;
  return Model(m.name(), {ls.begin(), ls.begin() + static_cast<long>(k)});
}

double search_objective(const Report& rep, SearchSpec::Objective obj) {
  switch (obj) {
    case SearchSpec::Objective::kCycles:
      return static_cast<double>(rep.cycles);
    case SearchSpec::Objective::kEnergy:
      return static_cast<double>(rep.energy.total_fj);
    case SearchSpec::Objective::kEdp:
      return rep.energy.edp_joule_seconds;
  }
  return 0.0;
}

}  // namespace

SearchResult Experiment::search(const SearchSpec& spec) const {
  GEMMINI_CONFIG_REQUIRE(spec.eta >= 2,
                         "sim::Experiment::search: eta must be >= 2 (got "
                             << spec.eta << ")");
  GEMMINI_CONFIG_REQUIRE(spec.min_rung_points >= 1,
                         "sim::Experiment::search: min_rung_points must be "
                         ">= 1");
  GEMMINI_CONFIG_REQUIRE(
      spec.min_fraction > 0 && spec.min_fraction <= 1,
      "sim::Experiment::search: min_fraction must be in (0, 1] (got "
          << spec.min_fraction << ")");
  const bool needs_energy = spec.objective != SearchSpec::Objective::kCycles ||
                            spec.power_budget_watts > 0;
  GEMMINI_CONFIG_REQUIRE(
      !needs_energy || proto_.energy.active(),
      "sim::Experiment::search: an energy/EDP objective or a power budget "
      "needs energy prices; call .energy() with nonzero prices first");

  const Sweep grid = sweep();
  for (const SweepPoint& p : grid.points()) {
    GEMMINI_CONFIG_REQUIRE(
        !p.serve.enabled && p.campaign_runs == 0 && !p.llm.has_value(),
        "sim::Experiment::search: point '" +
            p.name +
            "': search races layer-prefix proxies, so it needs plain "
            "inference points (no serve()/fault_campaign()/llm())");
  }

  SearchResult result;
  std::vector<std::size_t> survivors(grid.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) survivors[i] = i;

  SweepOptions opts;
  opts.threads = spec.threads;

  // Low-fidelity rungs: race the survivors on a model prefix, drop the
  // worst 1 - 1/eta each time. Error points rank last (+inf objective);
  // ties break on grid index, so the ranking is deterministic at any
  // thread count (Sweep::run returns reports in point order).
  double fraction = std::min(spec.min_fraction, 1.0);
  while (survivors.size() > spec.min_rung_points && fraction < 1.0) {
    Sweep rung_sweep;
    SearchRung rung;
    rung.fraction = fraction;
    for (const std::size_t idx : survivors) {
      SweepPoint p = grid.points()[idx];
      p.model = prefix_model(p.model, fraction);
      rung.points.push_back(p.name);
      rung_sweep.add(std::move(p));
    }
    const std::vector<Report> reps = rung_sweep.run(opts);
    result.evaluations += reps.size();

    std::vector<std::pair<double, std::size_t>> ranked;
    ranked.reserve(reps.size());
    for (std::size_t j = 0; j < reps.size(); ++j) {
      const double obj = reps[j].status == "error"
                             ? std::numeric_limits<double>::infinity()
                             : search_objective(reps[j], spec.objective);
      ranked.push_back({obj, survivors[j]});
    }
    std::sort(ranked.begin(), ranked.end());
    const std::size_t keep = std::max<std::size_t>(
        1, (ranked.size() + spec.eta - 1) / spec.eta);
    survivors.clear();
    for (std::size_t j = 0; j < keep; ++j) survivors.push_back(ranked[j].second);
    std::sort(survivors.begin(), survivors.end());
    result.rungs.push_back(std::move(rung));
    fraction = std::min(1.0, fraction * static_cast<double>(spec.eta));
  }

  // Full-fidelity final rung: exact reports for every survivor, then the
  // power-feasibility cut and the final ranking.
  Sweep final_sweep;
  SearchRung final_rung;
  final_rung.fraction = 1.0;
  for (const std::size_t idx : survivors) {
    final_sweep.add(grid.points()[idx]);
    final_rung.points.push_back(grid.points()[idx].name);
  }
  const std::vector<Report> reps = final_sweep.run(opts);
  result.evaluations += reps.size();
  result.rungs.push_back(std::move(final_rung));

  std::vector<std::size_t> order(reps.size());
  std::vector<SearchCandidate> cands(reps.size());
  for (std::size_t j = 0; j < reps.size(); ++j) {
    const Report& rep = reps[j];
    SearchCandidate& c = cands[j];
    c.point = rep.point;
    c.grid_index = survivors[j];
    if (rep.status == "error") {
      c.status = "error";
      c.error = rep.error;
      c.feasible = false;
      c.objective = std::numeric_limits<double>::infinity();
    } else {
      c.status = "ok";
      c.cycles = rep.cycles;
      c.energy_j = rep.energy.total_j;
      c.avg_power_watts = rep.energy.avg_power_watts;
      c.edp_joule_seconds = rep.energy.edp_joule_seconds;
      c.objective = search_objective(rep, spec.objective);
      c.feasible = spec.power_budget_watts <= 0 ||
                   c.avg_power_watts <= spec.power_budget_watts;
    }
    order[j] = j;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const SearchCandidate& ca = cands[a];
    const SearchCandidate& cb = cands[b];
    const int cla = ca.status == "error" ? 2 : (ca.feasible ? 0 : 1);
    const int clb = cb.status == "error" ? 2 : (cb.feasible ? 0 : 1);
    return std::tie(cla, ca.objective, ca.grid_index) <
           std::tie(clb, cb.objective, cb.grid_index);
  });
  for (const std::size_t j : order) {
    result.finalists.push_back(cands[j]);
  }
  if (!result.finalists.empty() && result.finalists.front().status == "ok" &&
      result.finalists.front().feasible) {
    result.found = true;
    result.best_point = result.finalists.front().point;
    for (std::size_t j = 0; j < reps.size(); ++j) {
      if (survivors[j] == result.finalists.front().grid_index) {
        result.best = reps[j];
        break;
      }
    }
  }
  return result;
}

}  // namespace gemmini::sim
