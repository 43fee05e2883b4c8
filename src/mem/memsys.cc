#include "src/mem/memsys.h"

#include <algorithm>

namespace gemmini {

MemorySystem::MemorySystem(const MemSysConfig& cfg, trace::Tracer* tracer,
                           fault::Injector* injector)
    : cfg_(cfg),
      tracer_(tracer),
      sysbus_(cfg.system_bus, tracer, trace::Unit::kSystemBus),
      l2_(std::make_unique<Cache>(cfg.l2)),
      membus_(cfg.memory_bus, tracer, trace::Unit::kMemoryBus),
      dram_(cfg.dram, tracer, injector) {
  cfg_.validate();
}

Cycle MemorySystem::access(PAddr addr, std::uint64_t bytes, bool write,
                           Cycle t, RequestorId requestor) {
  // CacheConfig::validate() holds line_bytes to a power of two.
  const unsigned line = cfg_.l2.line_bytes;
  const PAddr line_mask = line - 1;
  Cycle done = t;
  PAddr cur = addr;
  std::uint64_t remaining = bytes;
  while (remaining > 0) {
    const std::uint64_t in_line =
        std::min<std::uint64_t>(remaining, line - (cur & line_mask));

    // System bus carries the request (and its data beat) to the L2.
    const Cycle at_l2 = sysbus_.transfer(t, in_line, requestor);

    const CacheAccess ca = l2_->access_line(cur, write, requestor);
    if (tracer_) {
      tracer_->instant(ca.hit ? trace::EventKind::kL2Hit
                              : trace::EventKind::kL2Miss,
                       at_l2, in_line, requestor.value);
    }
    Cycle line_done = at_l2 + cfg_.l2.hit_latency;
    if (!ca.hit) {
      // Refill from DRAM over the memory bus; latency is serial:
      // bus to DRAM, DRAM access, bus back (folded into DRAM burst).
      const Cycle at_dram = membus_.transfer(line_done, line, requestor);
      line_done = dram_.access(cur & ~line_mask, line, at_dram, requestor);
    }
    if (ca.writeback) {
      // Dirty victim drains to DRAM in the background; it occupies the
      // memory bus and DRAM but does not delay this request's completion.
      // The DRAM side goes through the controller's write path: issued
      // immediately in write-through mode, queued (and scheduled against
      // reads by the channel's policy) when write buffering is on.
      const Cycle wb_at = membus_.transfer(line_done, line, requestor);
      dram_.write(ca.victim_line, line, wb_at, requestor);
      ++stats_.l2_writebacks;
    }
    done = std::max(done, line_done);
    cur += in_line;
    remaining -= in_line;
  }
  return done;
}

Cycle MemorySystem::access_uncached(PAddr addr, std::uint64_t bytes,
                                    bool write, Cycle t,
                                    RequestorId requestor) {
  (void)write;
  const Cycle at_bus = sysbus_.transfer(t, bytes, requestor);
  const Cycle at_dram = membus_.transfer(at_bus, bytes, requestor);
  return dram_.access(addr, bytes, at_dram, requestor);
}

void MemorySystem::reset_time() {
  sysbus_.reset_time();
  membus_.reset_time();
  dram_.reset_time();
}

void MemorySystem::reset_all() {
  reset_time();
  l2_->flush();
}

}  // namespace gemmini
