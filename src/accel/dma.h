#pragma once
// DMA engine (Fig. 1): moves data between main memory (virtual addresses)
// and the local scratchpad/accumulator.
//
// Every DRAM-side row of an MVIN/MVOUT is translated through the
// TranslationSystem (private TLB -> optional shared TLB -> PTW), then split
// into line-sized requests into the shared MemorySystem. Requests pipeline
// through a bounded in-flight window (dma_max_inflight), so DMA throughput
// is limited by min(bus bandwidth, inflight * latency product) exactly as in
// the RTL. Functional mode moves real bytes; timing mode moves only time.
//
// A row is translated once: the timed path records the physical chunks it
// resolved, in issue order, and functional mode copies the data through
// exactly those chunks. That is sound because a mapping never changes once
// made (AddressSpace::map_page rejects a remap), so a cached translation is
// always the current one.

#include <vector>

#include "src/accel/accumulator.h"
#include "src/accel/scratchpad.h"
#include "src/arch/config.h"
#include "src/base/types.h"
#include "src/isa/isa.h"
#include "src/mem/memsys.h"
#include "src/trace/trace.h"
#include "src/vm/translation.h"

namespace gemmini {

class DmaEngine {
 public:
  struct Stats {
    std::uint64_t load_bytes = 0;   ///< streamed from memory (MVIN)
    std::uint64_t store_bytes = 0;  ///< streamed to memory (MVOUT)
  };

  DmaEngine(const GemminiConfig& cfg, MemorySystem& mem,
            TranslationSystem& translation, Scratchpad& sp, Accumulator& acc,
            RequestorId requestor, trace::Tracer* tracer = nullptr,
            fault::Injector* injector = nullptr)
      : cfg_(cfg),
        mem_(mem),
        translation_(translation),
        sp_(sp),
        acc_(acc),
        requestor_(requestor),
        tracer_(tracer),
        injector_(injector),
        read_inflight_(cfg.dma_max_inflight),
        write_inflight_(cfg.dma_max_inflight) {}

  /// Timing result of a data-movement instruction: `issue_done` is when the
  /// DMA front-end finishes injecting requests (the next MVIN/MVOUT can
  /// start then — the engine is pipelined); `data_done` is when the last
  /// byte lands (dependent computes must wait for this).
  struct XferResult {
    Cycle issue_done;
    Cycle data_done;
  };

  /// Executes an MVIN: rows x cols elements from DRAM (row stride
  /// `stride_bytes`, scaled by `scale`) into consecutive local rows starting
  /// at `dst`. With `int4`, each DRAM row holds (cols+1)/2 bytes of packed
  /// two's-complement nibbles (low nibble first) that are sign-extended to
  /// int8 on the way into the scratchpad — dequant-on-mvin, so the array
  /// computes in int8 while DRAM traffic halves.
  XferResult mvin(const AddressSpace& as, VAddr dram,
                  std::uint64_t stride_bytes, float scale, LocalAddr dst,
                  unsigned rows, unsigned cols, Cycle start, bool functional,
                  bool int4 = false);

  /// Executes an MVOUT: rows x cols elements from local rows starting at
  /// `src` to DRAM. Accumulator sources pass through the read-out pipeline
  /// (shift + activation for int8 configs).
  XferResult mvout(const AddressSpace& as, VAddr dram,
                   std::uint64_t stride_bytes, LocalAddr src, unsigned rows,
                   unsigned cols, unsigned out_shift, Activation act,
                   Cycle start, bool functional);

  TranslationSystem& translation() { return translation_; }

  /// Drops in-flight state (absolute times) and zeroes the counts between
  /// independent runs.
  void reset_time() {
    read_inflight_.clear();
    write_inflight_.clear();
    stats_ = Stats{};
  }

  const Stats& stats() const { return stats_; }

 private:
  /// The completion times of the requests in flight, oldest first, in a
  /// fixed ring of dma_max_inflight slots.
  class InflightWindow {
   public:
    explicit InflightWindow(unsigned slots) : done_(slots, 0) {}
    bool full() const { return size_ == done_.size(); }
    Cycle pop_oldest() {
      const Cycle oldest = done_[head_];
      head_ = head_ + 1 == done_.size() ? 0 : head_ + 1;
      --size_;
      return oldest;
    }
    void push(Cycle done) {
      std::size_t tail = head_ + size_;
      if (tail >= done_.size()) tail -= done_.size();
      done_[tail] = done;
      ++size_;
    }
    void clear() { head_ = size_ = 0; }

   private:
    std::vector<Cycle> done_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };

  /// A physically contiguous piece of the current transfer, as the timed
  /// translation resolved it.
  struct Chunk {
    PAddr paddr;
    std::uint64_t bytes;
  };

  /// Streams `bytes` at virtual address `va` through the memory system with
  /// the bounded in-flight window. Returns {last completion, next issue}.
  /// With `functional`, appends the translated chunks to `chunks_`.
  struct StreamResult {
    Cycle done;
    Cycle next_issue;
  };
  StreamResult stream(const AddressSpace& as, VAddr va, std::uint64_t bytes,
                      bool write, Cycle issue, bool functional);

  const GemminiConfig& cfg_;
  MemorySystem& mem_;
  TranslationSystem& translation_;
  Scratchpad& sp_;
  Accumulator& acc_;
  RequestorId requestor_;
  trace::Tracer* tracer_;
  fault::Injector* injector_;
  // Reads and writes have independent in-flight windows, mirroring the
  // RTL's separate load/store reservation stations: a backlog of store
  // completions must not stall load issue.
  InflightWindow read_inflight_;
  InflightWindow write_inflight_;
  /// Functional path: the transfer's chunks in issue order (they tile the
  /// staging buffer's row-major layout exactly) and the staging buffer,
  /// both reused across transfers.
  std::vector<Chunk> chunks_;
  std::vector<std::uint8_t> stage_;
  Stats stats_;
};

}  // namespace gemmini
