#pragma once
// A WorkStream is the lowered form of a DNN on one core: an ordered list of
// CPU steps (im2col, softmax, dispatch overhead, marshalling) and
// accelerator steps (RoCC programs). The SoC simulator executes streams,
// interleaving multiple cores against the shared memory system.
//
// `pre_fixup` / `post_fixup` are functional-mode hooks: they materialize
// data the modeled hardware produces outside the ISA-level simulation
// (im2col expansions, pooling numerics, CPU-resident float ops). They carry
// no timing — time comes from the steps themselves.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/isa/isa.h"
#include "src/vm/page_table.h"

namespace gemmini {

struct WorkStep {
  enum class Kind { kCpu, kAccel };
  Kind kind = Kind::kCpu;
  /// Layer-type tag for the Fig. 9 accounting: "conv", "matmul", "resadd",
  /// "pool", "im2col", "special", "other".
  std::string tag = "other";
  /// Model layer index this step implements (-1 = not layer work, e.g.
  /// hand-emitted programs). Emission stamps it; the SoC forwards it to the
  /// trace subsystem so every event lands on the right layer.
  std::int32_t layer = -1;
  Cycle cpu_cycles = 0;  ///< kCpu only
  Program program;       ///< kAccel only
  std::function<void(const AddressSpace&)> pre_fixup;
  std::function<void(const AddressSpace&)> post_fixup;
  /// Optional gauge annotation: when metrics are attached and this is
  /// non-empty, the session's collector sets registry gauge `metric_gauge`
  /// to `metric_value` as the step completes. Workload generators use it to
  /// expose workload-level state as timelines (e.g. the LLM generator
  /// stamps "llm.kv_bytes" with the KV-cache footprint after each decode
  /// step). Carries no timing; ignored when metrics are off.
  std::string metric_gauge;
  double metric_value = 0.0;
};

struct WorkStream {
  std::string name;
  std::vector<WorkStep> steps;

  void add_cpu(std::string tag, Cycle cycles) {
    WorkStep s;
    s.kind = WorkStep::Kind::kCpu;
    s.tag = std::move(tag);
    s.cpu_cycles = cycles;
    steps.push_back(std::move(s));
  }
  void add_accel(std::string tag, Program prog) {
    WorkStep s;
    s.kind = WorkStep::Kind::kAccel;
    s.tag = std::move(tag);
    s.program = std::move(prog);
    steps.push_back(std::move(s));
  }

  std::uint64_t total_instructions() const {
    std::uint64_t n = 0;
    for (const auto& s : steps) n += s.program.size();
    return n;
  }
};

}  // namespace gemmini
