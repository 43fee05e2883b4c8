#pragma once
// Full-SoC integration (paper §III-C, Fig. 5): N cores, each a host CPU with
// its own Gemmini-generated accelerator, sharing the L2 cache, system bus,
// DRAM and a single page-table walker. Runs lowered WorkStreams and reports
// end-to-end cycles with per-layer-type breakdowns (Fig. 9) plus all the
// substrate statistics (TLB, cache, bus).
//
// Multi-core co-simulation merges the cores' instruction streams in global
// time order: at every scheduling decision, the core whose next event is
// earliest advances by one instruction, so the accelerators contend for the
// shared L2/bus/DRAM with cycle-level interleaving.
//
// Telemetry is pulled: the timed components keep only plain Stats,
// counts() names each of them, and a RunCollector passed to run_parallel()
// (a metering sim::Session) reads that listing when it asks to.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/accel/accelerator.h"
#include "src/arch/config.h"
#include "src/cpu/cost_model.h"
#include "src/fault/fault.h"
#include "src/mem/memsys.h"
#include "src/runtime/workstream.h"
#include "src/trace/trace.h"
#include "src/vm/page_table.h"
#include "src/vm/ptw.h"

namespace gemmini {

struct SocConfig {
  std::string name = "soc";
  unsigned cores = 1;
  GemminiConfig accel = GemminiConfig::paper_default();
  CpuCostModel cpu = CpuCostModel::rocket();
  MemSysConfig mem{};
  OsNoiseModel os{};
  /// Seeded fault-injection campaign config; disabled (the default) builds
  /// no injector at all, so the zero-fault timing is bit-identical.
  fault::FaultConfig faults{};
  /// Watchdog: a run whose next event exceeds this cycle count throws a
  /// structured WatchdogError instead of spinning. 0 = no watchdog.
  Cycle max_cycles = 0;

  void validate() const {
    GEMMINI_CONFIG_REQUIRE(cores >= 1 && cores <= 16,
                           "1..16 cores supported");
    GEMMINI_CONFIG_REQUIRE(
        max_cycles == 0 || !os.enabled ||
            max_cycles > os.switch_cost_cycles,
        "max_cycles must exceed the OS switch cost (or be 0 = no watchdog)");
    accel.validate();
    cpu.validate();
    mem.validate();
    os.validate();
    faults.validate();
  }

  /// The Fig. 9 configurations.
  static SocConfig base_1mb_l2();
  static SocConfig big_sp();
  static SocConfig big_l2();
};

/// One entry of Soc::counts(): a component's count under its telemetry
/// name, `prefix`, then `index` when it is >= 0, then `suffix` ("dram.ch"
/// 1 ".bytes", "l2" -1 ".hits").
struct SocCount {
  const char* prefix;
  int index;
  const char* suffix;
  std::uint64_t value;
  /// A level read at the moment of listing (a queue size), not a total.
  bool level = false;

  std::string name() const;
};

/// Observes one run_parallel() call from the SoC's event-merge loop.
/// Observational only: nothing it does feeds back into timing.
class RunCollector {
 public:
  virtual ~RunCollector() = default;
  /// Before the first event (per-run counts already restarted). Returns the
  /// first frontier cycle advance_to() wants; kCycleMax means never.
  virtual Cycle begin_run(const std::vector<const WorkStream*>& streams) = 0;
  /// The non-decreasing event-merge frontier reached `t` (at or past the
  /// last returned cycle), before work at `t` issues. Returns the next one.
  virtual Cycle advance_to(Cycle t) = 0;
  /// Core `core` completed step `step` of its stream in `cycles` cycles.
  virtual void step_done(unsigned core, std::size_t step, Cycle cycles) = 0;
  /// All cores are done and the DRAM write queues drained; the run ends
  /// at `t`.
  virtual void finish_run(Cycle t) = 0;
};

/// Result of running one stream on one core.
struct CoreResult {
  Cycle finish = 0;
  Cycle cpu_cycles = 0;
  std::map<std::string, Cycle> cycles_by_tag;
  AccelReport accel;
};

class Soc {
 public:
  /// `tracer` (may be null = tracing off) is threaded through every timed
  /// component: both buses, DRAM, L2, each core's accelerator (DMA, exec
  /// unit, translation) and the SoC-level step/OS accounting. The SoC sets
  /// the tracer's (core, layer) context before advancing a core, so events
  /// on shared substrate are attributed to the issuing core.
  explicit Soc(const SocConfig& cfg, trace::Tracer* tracer = nullptr);

  /// Per-core process address space (create one per stream you lower).
  AddressSpace& address_space(unsigned core) { return *spaces_[core]; }
  Accelerator& accelerator(unsigned core) { return *accels_[core]; }
  MemorySystem& memory() { return mem_; }
  PageTableWalker& ptw() { return ptw_; }
  const SocConfig& config() const { return cfg_; }

  /// The fault injector, or nullptr when cfg.faults.enabled is false.
  fault::Injector* fault_injector() { return injector_.get(); }
  const fault::Injector* fault_injector() const { return injector_.get(); }

  void set_functional(bool functional);

  /// Refills `out` with every count telemetry reads — L2, buses, DRAM
  /// channels, each core, plus a group per bus/DRAM requestor seen since
  /// reset_time (so within a run the listing only grows). The components
  /// never name their counts; this does.
  void counts(std::vector<SocCount>& out) const;

  /// Runs one stream on core 0 (convenience).
  CoreResult run(const WorkStream& stream, RunCollector* collector = nullptr);

  /// Runs one stream per core concurrently; streams.size() must be <=
  /// cores. Returns one result per stream. `collector` (may be null)
  /// observes the run.
  std::vector<CoreResult> run_parallel(
      const std::vector<const WorkStream*>& streams,
      RunCollector* collector = nullptr);

  /// Resets timing state (buses, banks, accelerator timelines) but keeps
  /// cache contents and data; call between repetitions.
  void reset_time();
  /// Full reset including cache tags and TLBs.
  void reset_all();

 private:
  // Per-core stream execution state machine.
  struct CoreExec {
    const WorkStream* stream = nullptr;
    std::size_t step = 0;
    Cycle t = 0;                 // core-local time
    bool accel_started = false;
    Cycle next_os_switch = 0;
    CoreResult result;
    bool done() const {
      return stream == nullptr || step >= stream->steps.size();
    }
  };

  /// Advances `core` by one unit of work (a CPU step, or one accelerator
  /// instruction). Returns the core's next event time.
  Cycle advance(CoreExec& ce, unsigned core, RunCollector* collector);
  void maybe_os_switch(CoreExec& ce, unsigned core);

  SocConfig cfg_;
  trace::Tracer* tracer_;
  /// Built before mem_ / the accelerators so it can be threaded through
  /// their constructors; null when faults are disabled.
  std::unique_ptr<fault::Injector> injector_;
  MemorySystem mem_;
  FrameAllocator frames_;
  PageTableWalker ptw_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  std::vector<std::unique_ptr<Accelerator>> accels_;
  bool functional_ = false;
};

}  // namespace gemmini
