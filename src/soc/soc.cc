#include "src/soc/soc.h"

#include <algorithm>
#include <initializer_list>
#include <tuple>
#include <utility>

namespace gemmini {

SocConfig SocConfig::base_1mb_l2() {
  SocConfig cfg;
  cfg.name = "Base";
  cfg.accel.sp_capacity_bytes = 256 * 1024;
  cfg.accel.acc_capacity_bytes = 256 * 1024;
  cfg.mem.l2.size_bytes = 1ull << 20;
  return cfg;
}

SocConfig SocConfig::big_sp() {
  SocConfig cfg = base_1mb_l2();
  cfg.name = "BigSP";
  cfg.accel.sp_capacity_bytes = 512 * 1024;
  cfg.accel.acc_capacity_bytes = 512 * 1024;
  return cfg;
}

SocConfig SocConfig::big_l2() {
  SocConfig cfg = base_1mb_l2();
  cfg.name = "BigL2";
  cfg.mem.l2.size_bytes = 2ull << 20;
  return cfg;
}

std::string SocCount::name() const {
  std::string n = prefix;
  if (index >= 0) n += std::to_string(index);
  n += suffix;
  return n;
}

Soc::Soc(const SocConfig& cfg, trace::Tracer* tracer)
    : cfg_(cfg),
      tracer_(tracer),
      injector_(cfg.faults.enabled
                    ? std::make_unique<fault::Injector>(cfg.faults, tracer)
                    : nullptr),
      mem_(cfg.mem, tracer, injector_.get()),
      frames_(0x8000'0000ull),
      ptw_(cfg.accel.translation.ptw, mem_, RequestorId{kPtwRequestor}) {
  cfg_.validate();
  if (injector_) injector_->attach_phys(&mem_.phys());
  for (unsigned c = 0; c < cfg_.cores; ++c) {
    spaces_.push_back(std::make_unique<AddressSpace>(
        mem_.phys(), frames_,
        /*va_base=*/0x1'0000'0000ull + c * 0x10'0000'0000ull));
    accels_.push_back(std::make_unique<Accelerator>(
        cfg_.accel, mem_, ptw_, RequestorId{static_cast<int>(c)}, tracer,
        injector_.get()));
  }
}

void Soc::counts(std::vector<SocCount>& out) const {
  using Fields = std::initializer_list<std::pair<const char*, std::uint64_t>>;
  const auto add = [&out](const char* prefix, int index, Fields fields) {
    for (const auto& [suffix, value] : fields) {
      out.push_back({prefix, index, suffix, value});
    }
  };
  out.clear();
  const Cache::Stats& l2 = mem_.l2().stats();
  add("l2", -1, {{".hits", l2.hits}, {".misses", l2.misses}});
  for (const auto& [bus, unit, per_requestor] :
       {std::tuple{&mem_.system_bus(), "sysbus", "sysbus.req"},
        std::tuple{&mem_.memory_bus(), "membus", "membus.req"}}) {
    std::uint64_t bytes = 0, wait = 0;
    for (const Bus::RequestorStats& rs : bus->requestor_stats()) {
      bytes += rs.bytes;
      wait += rs.wait_cycles;
    }
    add(unit, -1, {{".bytes", bytes}, {".wait_cycles", wait}});
    for (const Bus::RequestorStats& rs : bus->requestor_stats()) {
      add(per_requestor, rs.requestor,
          {{".bytes", rs.bytes}, {".wait_cycles", rs.wait_cycles}});
    }
  }
  const Dram& dram = mem_.dram();
  for (const Dram::ChannelStats& cs : dram.channel_stats()) {
    const int ch = static_cast<int>(cs.channel);
    add("dram.ch", ch,
        {{".accesses", cs.accesses}, {".bytes", cs.bytes},
         {".row_hits", cs.row_hits}, {".row_misses", cs.row_misses},
         {".writes", cs.writes}, {".refresh_periods", cs.refresh_periods}});
    out.push_back({"dram.ch", ch, ".queue_depth",
                   dram.queue_size(cs.channel), /*level=*/true});
  }
  for (const Dram::RequestorStats& rs : dram.requestor_stats()) {
    add("dram.req", rs.requestor,
        {{".bytes", rs.bytes}, {".row_hits", rs.row_hits},
         {".row_misses", rs.row_misses}});
  }
  for (std::size_t c = 0; c < accels_.size(); ++c) {
    const Accelerator& a = *accels_[c];
    const Tlb::Stats& tlb = a.translation().private_tlb().stats();
    add("core", static_cast<int>(c),
        {{".exec.macs", a.report().macs}, {".exec.tiles", a.report().tiles},
         {".sp.rows", a.scratchpad().stats().rows},
         {".acc.rows", a.accumulator().stats().rows},
         {".dma.load_bytes", a.dma().stats().load_bytes},
         {".dma.store_bytes", a.dma().stats().store_bytes},
         {".tlb.hits", tlb.hits}, {".tlb.misses", tlb.misses},
         {".tlb.filter_hits", a.translation().stats().filter_hits}});
  }
}

void Soc::set_functional(bool functional) {
  functional_ = functional;
  for (auto& a : accels_) a->set_functional(functional);
}

void Soc::maybe_os_switch(CoreExec& ce, unsigned core) {
  if (!cfg_.os.enabled) return;
  while (ce.t >= ce.next_os_switch) {
    // The process is preempted: charge the switch cost and flush the
    // accelerator's address-translation state (ASID change).
    if (tracer_) {
      tracer_->span(trace::EventKind::kOsSwitch, ce.t,
                    ce.t + cfg_.os.switch_cost_cycles);
    }
    ce.t += cfg_.os.switch_cost_cycles;
    ce.result.cycles_by_tag["os"] += cfg_.os.switch_cost_cycles;
    accels_[core]->translation().flush();
    ce.next_os_switch += cfg_.os.period_cycles;
  }
}

Cycle Soc::advance(CoreExec& ce, unsigned core, RunCollector* collector) {
  if (ce.done()) return kCycleMax;
  Accelerator& accel = *accels_[core];
  const WorkStep& step = ce.stream->steps[ce.step];
  // Attribution context: everything recorded while this core advances —
  // including events on shared substrate — belongs to this core and layer.
  if (tracer_) {
    tracer_->set_context(static_cast<std::int16_t>(core), step.layer);
  }
  // Closes the step, which took `cycles`; returns the next event time.
  const auto finish = [&](Cycle cycles) {
    ce.result.cycles_by_tag[step.tag] += cycles;
    if (collector != nullptr) collector->step_done(core, ce.step, cycles);
    if (functional_ && step.post_fixup) step.post_fixup(*spaces_[core]);
    maybe_os_switch(ce, core);
    ++ce.step;
    return ce.done() ? kCycleMax : ce.t;
  };

  if (step.kind == WorkStep::Kind::kCpu) {
    const Cycle t0 = ce.t;
    ce.t += step.cpu_cycles;
    ce.result.cpu_cycles += step.cpu_cycles;
    if (tracer_) {
      tracer_->span(trace::EventKind::kCpuStep, t0, ce.t, step.cpu_cycles);
      tracer_->span(trace::EventKind::kLayerSpan, t0, ce.t, ce.step);
    }
    return finish(step.cpu_cycles);
  }

  // Accelerator step.
  if (!ce.accel_started) {
    if (functional_ && step.pre_fixup) step.pre_fixup(*spaces_[core]);
    accel.start(&step.program, spaces_[core].get(), ce.t);
    ce.accel_started = true;
  }
  if (!accel.done()) {
    accel.step();
  }
  if (accel.done()) {
    const Cycle start_t = ce.t;
    ce.t = std::max(ce.t, accel.frontier());
    // The whole program ran with ce.t frozen at start_t (only `advance`
    // moves core time), so [start_t, ce.t] is this step's wall-clock span.
    if (tracer_) {
      tracer_->span(trace::EventKind::kLayerSpan, start_t, ce.t, ce.step);
    }
    ce.accel_started = false;
    return finish(ce.t - start_t);
  }
  return accel.next_issue_hint();
}

CoreResult Soc::run(const WorkStream& stream, RunCollector* collector) {
  auto results = run_parallel({&stream}, collector);
  return results.front();
}

std::vector<CoreResult> Soc::run_parallel(
    const std::vector<const WorkStream*>& streams, RunCollector* collector) {
  GEMMINI_CHECK_MSG(streams.size() <= cfg_.cores,
                    "more streams than cores");
  std::vector<CoreExec> execs(streams.size());
  std::vector<Cycle> next_event(streams.size(), 0);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    execs[i].stream = streams[i];
    execs[i].next_os_switch = cfg_.os.period_cycles;
  }
  // Every core's report restarts, idle ones included, so per-core counts
  // cover this run only.
  for (auto& a : accels_) a->reset_report();
  // The L2 and TLB counts restart too (their contents stay warm), so they
  // cover this run only, like the bus and DRAM tables that reset_time()
  // clears.
  mem_.reset_stats();
  for (auto& a : accels_) a->translation().reset_stats();
  Cycle collect_at =
      collector != nullptr ? collector->begin_run(streams) : kCycleMax;

  // Event-merge loop: always advance the core with the earliest next event.
  while (true) {
    std::size_t best = streams.size();
    Cycle best_t = kCycleMax;
    for (std::size_t i = 0; i < execs.size(); ++i) {
      if (execs[i].done()) continue;
      if (next_event[i] <= best_t) {
        best_t = next_event[i];
        best = i;
      }
    }
    if (best == streams.size()) break;
    // Watchdog: a hang (livelocked hazards, a pathological config) shows up
    // as simulated time racing past the budget. Throw a structured error
    // naming where the run was instead of spinning forever.
    if (cfg_.max_cycles != 0 && best_t != kCycleMax &&
        best_t > cfg_.max_cycles) {
      const CoreExec& ce = execs[best];
      const WorkStep& step = ce.stream->steps[ce.step];
      if (tracer_) tracer_->clear_context();
      throw WatchdogError(cfg_.name, cfg_.max_cycles, best_t,
                          static_cast<unsigned>(best), step.layer, step.tag,
                          ce.step, ce.stream->steps.size());
    }
    // The collector sees the frontier before the work that starts at best_t
    // issues; the frontier is non-decreasing, so what it records per window
    // is deterministic.
    if (collector != nullptr && best_t >= collect_at) {
      collect_at = collector->advance_to(best_t);
    }
    next_event[best] =
        advance(execs[best], static_cast<unsigned>(best), collector);
  }

  // Flush any writebacks still buffered in the DRAM controller's write
  // queues. Their completion feeds back into nothing (cores are done), but
  // issuing them closes the accounting: every request that entered the
  // controller during this run is counted in its per-requestor and
  // per-channel statistics.
  mem_.dram().drain_writes();

  std::vector<CoreResult> results;
  results.reserve(execs.size());
  Cycle soc_finish = 0;
  for (std::size_t i = 0; i < execs.size(); ++i) {
    execs[i].result.finish =
        std::max(execs[i].t, accels_[i]->frontier());
    soc_finish = std::max(soc_finish, execs[i].result.finish);
    execs[i].result.accel = accels_[i]->report();
    results.push_back(std::move(execs[i].result));
  }
  // The collector closes the run after drain_writes() above, so the drained
  // writes count in the run's last window.
  if (collector != nullptr) collector->finish_run(soc_finish);
  if (tracer_) tracer_->clear_context();
  return results;
}

void Soc::reset_time() {
  mem_.reset_time();
  ptw_.reset_time();
  for (auto& a : accels_) a->reset_time();
  // Re-seed the fault streams so repeated runs of one Session draw the same
  // fault sequence (campaign repeatability).
  if (injector_) injector_->reset();
}

void Soc::reset_all() {
  reset_time();
  mem_.reset_all();
}

}  // namespace gemmini
