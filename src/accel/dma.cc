#include "src/accel/dma.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/base/fixed.h"

namespace gemmini {

DmaEngine::StreamResult DmaEngine::stream(const AddressSpace& as, VAddr va,
                                          std::uint64_t bytes, bool write,
                                          Cycle issue, bool functional) {
  StreamResult r{issue, issue};
  InflightWindow& inflight = write ? write_inflight_ : read_inflight_;
  std::uint64_t remaining = bytes;
  VAddr cur = va;
  while (remaining > 0) {
    // Chunks never cross a page (re-translate at page boundaries) and are at
    // most one DMA request (= one L2 line) long.
    const std::uint64_t to_page_end = kPageBytes - page_offset(cur);
    const std::uint64_t chunk =
        std::min({remaining, to_page_end,
                  static_cast<std::uint64_t>(cfg_.dma_req_bytes)});

    // One request enters the pipe per cycle; a full in-flight window stalls
    // the issue stage until the oldest request retires.
    Cycle slot = r.next_issue;
    if (inflight.full()) slot = std::max(slot, inflight.pop_oldest());
    // Private-TLB (and filter-register) hits are pipelined with issue: they
    // add latency to *this* request without blocking the next from entering
    // the pipe. Misses are blocking, as in the RTL's TLB: the DMA stalls
    // until the shared-TLB lookup or page walk resolves — this is why TLB
    // sizing matters so much in the paper's Fig. 8.
    const Translation tr = translation_.translate(as, cur, write, slot);
    if (functional) {
      // Physically adjacent chunks merge, so a contiguous transfer copies
      // whole runs rather than line-sized pieces.
      if (!chunks_.empty() &&
          chunks_.back().paddr + chunks_.back().bytes == tr.paddr) {
        chunks_.back().bytes += chunk;
      } else {
        chunks_.push_back(Chunk{tr.paddr, chunk});
      }
    }
    Cycle req_t = std::max(tr.done, slot);
    Cycle done = mem_.access(tr.paddr, chunk, write, req_t, requestor_);
    // Fault layer: a transfer may time out. Each retry waits out the timeout
    // plus an exponential backoff, then re-arbitrates the bus for real (the
    // re-issued access mutates bus/bank state again, charging real cycles).
    // Exhausting the retry budget aborts the run — a *detected* outcome.
    if (injector_) {
      unsigned attempt = 0;
      while (injector_->draw_dma_timeout()) {
        const auto& fc = injector_->config();
        if (attempt >= fc.dma_max_retries) {
          injector_->note_dma_abort();
          std::ostringstream oss;
          oss << "dma: " << (write ? "write" : "read") << " of " << chunk
              << " bytes at VA 0x" << std::hex << cur << std::dec
              << " (requestor " << requestor_.value << ") timed out after "
              << fc.dma_max_retries << " retries (cycle " << req_t << ")";
          throw RuntimeError(oss.str());
        }
        const Cycle lost_at = std::max(done, req_t + fc.dma_timeout_cycles);
        const Cycle retry_at = lost_at + (fc.dma_retry_backoff << attempt);
        injector_->note_dma_retry(write, attempt, req_t, retry_at);
        req_t = retry_at;
        done = mem_.access(tr.paddr, chunk, write, req_t, requestor_);
        ++attempt;
      }
    }
    inflight.push(done);
    r.done = std::max(r.done, done);
    const bool blocking_miss = tr.level == TranslationLevel::kSharedTlb ||
                               tr.level == TranslationLevel::kPageWalk;
    r.next_issue = blocking_miss ? tr.done + 1 : slot + 1;
    cur += chunk;
    remaining -= chunk;
  }
  if (tracer_) {
    tracer_->span(write ? trace::EventKind::kDmaBurstWrite
                        : trace::EventKind::kDmaBurstRead,
                  issue, r.done, bytes, requestor_.value);
  }
  (write ? stats_.store_bytes : stats_.load_bytes) += bytes;
  return r;
}

DmaEngine::XferResult DmaEngine::mvin(const AddressSpace& as, VAddr dram,
                                      std::uint64_t stride_bytes, float scale,
                                      LocalAddr dst, unsigned rows,
                                      unsigned cols, Cycle start,
                                      bool functional, bool int4) {
  GEMMINI_CHECK_MSG(!dst.is_garbage(), "mvin needs a destination");
  GEMMINI_CHECK_MSG(cols <= cfg_.dim(), "mvin cols " << cols << " > dim");
  GEMMINI_CHECK_MSG(!int4 || (!dst.is_acc() && cfg_.dtype == DType::kInt8),
                    "int4 mvin dequantizes into the int8 scratchpad");
  const std::size_t elem = cfg_.input_bytes();
  // DRAM-side row width: packed int4 rows carry two elements per byte, so
  // the memory system (and the row-hit behavior under study) sees half the
  // traffic of the equivalent int8 load.
  const std::uint64_t row_bytes =
      int4 ? (static_cast<std::uint64_t>(cols) + 1) / 2
           : static_cast<std::uint64_t>(cols) * elem;

  Cycle issue = start;
  Cycle done = start;
  chunks_.clear();
  // Consecutive rows that are contiguous in DRAM (stride == row width)
  // coalesce into one burst, so the memory system sees line-sized requests
  // instead of row-sized ones — matching the RTL DMA's request coalescing.
  const bool contiguous = stride_bytes == row_bytes && rows > 1;
  if (contiguous) {
    const StreamResult sr = stream(as, dram, row_bytes * rows,
                                   /*write=*/false, issue, functional);
    issue = sr.next_issue;
    Cycle local_done;
    if (dst.is_acc()) {
      local_done = acc_.reserve(dst.row(), rows, sr.done, 1);
    } else {
      local_done = sp_.reserve(dst.row(), rows, sr.done, 1);
    }
    done = std::max(done, local_done);
  } else {
    for (unsigned r = 0; r < rows; ++r) {
      const VAddr va = dram + static_cast<std::uint64_t>(r) * stride_bytes;
      const StreamResult sr =
          stream(as, va, row_bytes, /*write=*/false, issue, functional);
      issue = sr.next_issue;

      // Local write happens when the data lands.
      Cycle row_done;
      if (dst.is_acc()) {
        row_done = acc_.reserve(dst.row() + r, 1, sr.done, 1);
      } else {
        row_done = sp_.reserve(dst.row() + r, 1, sr.done, 1);
      }
      done = std::max(done, row_done);
    }
  }

  if (functional) {
    // Gather the whole transfer into a staging buffer through the chunks the
    // timed path translated (their concatenation is the row-major payload),
    // then convert row-by-row with the dtype/destination branch hoisted out
    // of the loops.
    stage_.resize(row_bytes * rows);
    std::uint8_t* const buf_data = stage_.data();
    std::uint8_t* p = buf_data;
    for (const Chunk& c : chunks_) {
      as.phys().read(c.paddr, p, c.bytes);
      p += c.bytes;
    }

    if (dst.is_acc()) {
      // Input-typed payload widened into the accumulator, honoring the
      // accumulate bit (this is how residual additions run on Gemmini).
      if (cfg_.dtype == DType::kInt8) {
        std::vector<std::int32_t> wide(cols);
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const std::int8_t*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          for (unsigned c = 0; c < cols; ++c) {
            wide[c] = static_cast<std::int32_t>(scale_i8(src[c], scale));
          }
          acc_.write_row_i32(dst.row() + r, wide.data(), cols,
                             dst.accumulate());
        }
      } else if (scale == 1.0f) {
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const float*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          acc_.write_row_f32(dst.row() + r, src, cols, dst.accumulate());
        }
      } else {
        std::vector<float> wide(cols);
        for (unsigned r = 0; r < rows; ++r) {
          const auto* src = reinterpret_cast<const float*>(
              buf_data + static_cast<std::size_t>(r) * row_bytes);
          for (unsigned c = 0; c < cols; ++c) wide[c] = src[c] * scale;
          acc_.write_row_f32(dst.row() + r, wide.data(), cols,
                             dst.accumulate());
        }
      }
    } else if (int4) {
      // Unpack two's-complement nibbles (low nibble first) and sign-extend
      // into the int8 scratchpad row.
      for (unsigned r = 0; r < rows; ++r) {
        const std::uint8_t* src =
            buf_data + static_cast<std::size_t>(r) * row_bytes;
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        for (unsigned c = 0; c < cols; ++c) {
          const std::uint8_t nib =
              (c & 1) ? static_cast<std::uint8_t>(src[c >> 1] >> 4)
                      : static_cast<std::uint8_t>(src[c >> 1] & 0xF);
          std::int8_t v = static_cast<std::int8_t>(
              static_cast<std::int8_t>(nib << 4) >> 4);
          if (scale != 1.0f) v = scale_i8(v, scale);
          row[c] = static_cast<std::uint8_t>(v);
        }
        std::fill(row + cols, row + sp_.row_bytes(), 0);
      }
    } else if (cfg_.dtype == DType::kInt8 && scale != 1.0f) {
      for (unsigned r = 0; r < rows; ++r) {
        const auto* src = reinterpret_cast<const std::int8_t*>(
            buf_data + static_cast<std::size_t>(r) * row_bytes);
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        for (unsigned c = 0; c < cols; ++c) {
          row[c] = static_cast<std::uint8_t>(scale_i8(src[c], scale));
        }
        std::fill(row + row_bytes, row + sp_.row_bytes(), 0);
      }
    } else {
      for (unsigned r = 0; r < rows; ++r) {
        std::uint8_t* row = sp_.row_ptr(dst.row() + r);
        const std::uint8_t* src =
            buf_data + static_cast<std::size_t>(r) * row_bytes;
        std::copy(src, src + row_bytes, row);
        // Zero-pad the rest of the row so partial tiles compute correctly.
        std::fill(row + row_bytes, row + sp_.row_bytes(), 0);
      }
    }
  }
  return XferResult{issue, done};
}

DmaEngine::XferResult DmaEngine::mvout(const AddressSpace& as, VAddr dram,
                                       std::uint64_t stride_bytes,
                                       LocalAddr src, unsigned rows,
                                       unsigned cols, unsigned out_shift,
                                       Activation act, Cycle start,
                                       bool functional) {
  GEMMINI_CHECK_MSG(!src.is_garbage(), "mvout needs a source");
  GEMMINI_CHECK_MSG(cols <= cfg_.dim(), "mvout cols " << cols << " > dim");
  const std::size_t elem = cfg_.input_bytes();
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(cols) * elem;

  Cycle issue = start;
  Cycle done = start;
  chunks_.clear();
  // Contiguous output rows coalesce into one burst (see mvin).
  const bool contiguous = stride_bytes == row_bytes && rows > 1;
  if (contiguous) {
    Cycle read_done;
    if (src.is_acc()) {
      read_done = acc_.reserve(src.row(), rows, issue, rows);
    } else {
      read_done = sp_.reserve(src.row(), rows, issue, rows);
    }
    const StreamResult sr =
        stream(as, dram, row_bytes * rows, /*write=*/true,
               read_done - rows + 1, functional);
    issue = std::max(issue + rows, sr.next_issue);
    done = std::max(done, sr.done);
  } else {
    for (unsigned r = 0; r < rows; ++r) {
      const VAddr va = dram + static_cast<std::uint64_t>(r) * stride_bytes;
      // Local read first (1 cycle through the read-out pipeline)...
      Cycle read_done;
      if (src.is_acc()) {
        read_done = acc_.reserve(src.row() + r, 1, issue, 1);
      } else {
        read_done = sp_.reserve(src.row() + r, 1, issue, 1);
      }
      // ...then the write stream to memory.
      const StreamResult sr =
          stream(as, va, row_bytes, /*write=*/true, read_done, functional);
      issue = std::max(issue + 1, sr.next_issue);
      done = std::max(done, sr.done);
    }
  }

  if (functional) {
    // Assemble every output row (read-out pipeline applied for accumulator
    // sources, dtype branch hoisted) into one staging buffer, then scatter
    // it through the chunks the timed path translated.
    stage_.resize(row_bytes * rows);
    std::uint8_t* const buf_data = stage_.data();
    if (src.is_acc()) {
      if (cfg_.dtype == DType::kInt8) {
        for (unsigned r = 0; r < rows; ++r) {
          acc_.readout_i8(src.row() + r, cols, out_shift, act,
                          reinterpret_cast<std::int8_t*>(
                              buf_data + static_cast<std::size_t>(r) *
                                               row_bytes));
        }
      } else {
        for (unsigned r = 0; r < rows; ++r) {
          acc_.readout_f32(src.row() + r, cols, act,
                           reinterpret_cast<float*>(
                               buf_data + static_cast<std::size_t>(r) *
                                                row_bytes));
        }
      }
    } else {
      for (unsigned r = 0; r < rows; ++r) {
        const std::uint8_t* row = sp_.row_ptr(src.row() + r);
        std::copy(row, row + row_bytes,
                  buf_data + static_cast<std::size_t>(r) * row_bytes);
      }
    }

    const std::uint8_t* p = buf_data;
    for (const Chunk& c : chunks_) {
      as.phys().write(c.paddr, p, c.bytes);
      p += c.bytes;
    }
  }
  return XferResult{issue, done};
}

}  // namespace gemmini
