// DMA data-path tests: functional MVIN/MVOUT copy through the physical
// chunks the timed translation resolved, so they are checked byte for byte
// against a CPU reference on layouts that split rows across pages; a
// timing-only run touches no simulated memory at all.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/base/fixed.h"
#include "src/base/rng.h"
#include "src/cpu/kernels.h"
#include "src/dnn/zoo.h"
#include "src/sim/session.h"
#include "tests/test_util.h"

namespace gemmini {
namespace {

using test::AccelHarness;

constexpr unsigned kRows = 16;
/// Where the first row starts within its page: with either stride below,
/// row 2 starts at offset 4090 and straddles into the next page.
constexpr std::uint64_t kFirstOffset = 4010;

/// Maps `pages` fresh virtual pages to frames in reverse order, so no two
/// neighbouring pages are physically adjacent and a row that straddles a
/// page boundary must split into two physical chunks.
VAddr map_scattered(AccelHarness& h, std::uint64_t pages) {
  const VAddr base = 0x7'0000'0000ull;
  std::vector<PAddr> frames(pages);
  for (PAddr& f : frames) {
    f = h.frames.alloc_frame();
    h.frames.alloc_frame();  // a gap frame between neighbours
  }
  for (std::uint64_t p = 0; p < pages; ++p) {
    h.as.map_page(base + p * kPageBytes, frames[pages - 1 - p]);
  }
  return base;
}

/// A region of kRows rows of `row_bytes` each, `stride` bytes apart, filled
/// with random bytes (gaps included); returns the VA of the first row.
VAddr strided_region(AccelHarness& h, std::uint64_t row_bytes,
                     std::uint64_t stride, Rng& rng) {
  const std::uint64_t span = kFirstOffset + (kRows - 1) * stride + row_bytes;
  const VAddr base = map_scattered(h, span / kPageBytes + 1);
  std::vector<std::uint8_t> fill(span);
  for (auto& b : fill) b = static_cast<std::uint8_t>(rng.next_u64());
  h.as.write_virt(base, fill.data(), fill.size());
  // The layout really does split a row across two non-adjacent frames.
  bool straddles = false;
  for (unsigned r = 0; r < kRows; ++r) {
    const VAddr va = base + kFirstOffset + r * stride;
    const VAddr last = va + row_bytes - 1;
    if (page_number(va) != page_number(last)) {
      straddles = true;
      EXPECT_NE(page_base(h.as.translate(va)) + kPageBytes,
                page_base(h.as.translate(last)));
    }
  }
  EXPECT_TRUE(straddles);
  return base + kFirstOffset;
}

std::vector<std::uint8_t> read_row(const AccelHarness& h, VAddr va,
                                   std::uint64_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  h.as.read_virt(va, out.data(), bytes);
  return out;
}

/// Strided transfers at two strides: above one page (every row on its own
/// page, 40 bytes further in than the last) and 40 bytes (several rows per
/// page, with gaps between them that the copy must skip).
class DmaStridedPath : public testing::TestWithParam<std::uint64_t> {
 protected:
  const std::uint64_t stride_ = GetParam();
};

INSTANTIATE_TEST_SUITE_P(Strides, DmaStridedPath,
                         testing::Values(kPageBytes + 40, 40));

TEST_P(DmaStridedPath, StridedInt8MvinMatchesReference) {
  AccelHarness h;
  Rng rng(11);
  constexpr unsigned kCols = 13;  // a partial row: the rest must read zero
  const VAddr src = strided_region(h, kCols, stride_, rng);
  h.accel.dma().mvin(h.as, src, stride_, 1.0f, LocalAddr::sp_row(32), kRows,
                     kCols, 0, /*functional=*/true);
  for (unsigned r = 0; r < kRows; ++r) {
    const auto want = read_row(h, src + r * stride_, kCols);
    const std::uint8_t* got = h.accel.scratchpad().row_ptr(32 + r);
    EXPECT_EQ(0, std::memcmp(got, want.data(), kCols)) << "row " << r;
    for (std::uint64_t c = kCols; c < h.accel.scratchpad().row_bytes(); ++c) {
      EXPECT_EQ(got[c], 0) << "row " << r << " pad " << c;
    }
  }
}

TEST_P(DmaStridedPath, StridedInt4MvinMatchesReference) {
  AccelHarness h;
  Rng rng(12);
  constexpr unsigned kCols = 16;
  constexpr std::uint64_t kPacked = (kCols + 1) / 2;
  const VAddr src = strided_region(h, kPacked, stride_, rng);
  h.accel.dma().mvin(h.as, src, stride_, 1.0f, LocalAddr::sp_row(0), kRows,
                     kCols, 0, /*functional=*/true, /*int4=*/true);
  for (unsigned r = 0; r < kRows; ++r) {
    const auto packed = read_row(h, src + r * stride_, kPacked);
    const std::uint8_t* got = h.accel.scratchpad().row_ptr(r);
    for (unsigned c = 0; c < kCols; ++c) {
      EXPECT_EQ(static_cast<std::int8_t>(got[c]),
                ref::unpack_int4(packed.data(), c))
          << "row " << r << " col " << c;
    }
  }
}

TEST_P(DmaStridedPath, StridedAccumulatorMvinMatchesReference) {
  AccelHarness h;
  Rng rng(13);
  constexpr unsigned kCols = 16;
  const VAddr src = strided_region(h, kCols, stride_, rng);
  // Load once, then accumulate a second load of the same rows on top.
  for (bool accumulate : {false, true}) {
    h.accel.dma().mvin(h.as, src, stride_, 1.0f,
                       LocalAddr::acc_row(8, accumulate), kRows, kCols, 0,
                       /*functional=*/true);
  }
  for (unsigned r = 0; r < kRows; ++r) {
    const auto bytes = read_row(h, src + r * stride_, kCols);
    const std::int32_t* got = h.accel.accumulator().row_i32(8 + r);
    for (unsigned c = 0; c < kCols; ++c) {
      EXPECT_EQ(got[c], 2 * static_cast<std::int8_t>(bytes[c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST_P(DmaStridedPath, StridedMvoutMatchesReferenceAndKeepsGaps) {
  for (bool from_acc : {false, true}) {
    SCOPED_TRACE(from_acc ? "accumulator source" : "scratchpad source");
    AccelHarness h;
    Rng rng(14 + from_acc);
    constexpr unsigned kCols = 16;
    const VAddr dst = strided_region(h, kCols, stride_, rng);
    const VAddr span_lo = dst - kFirstOffset;
    const std::uint64_t span = kFirstOffset + (kRows - 1) * stride_ + kCols;
    const auto before = read_row(h, span_lo, span);

    std::vector<std::vector<std::int8_t>> want(kRows,
                                               std::vector<std::int8_t>(kCols));
    constexpr unsigned kShift = 4;
    for (unsigned r = 0; r < kRows; ++r) {
      if (from_acc) {
        std::int32_t row[kCols];
        for (unsigned c = 0; c < kCols; ++c) {
          row[c] = static_cast<std::int32_t>(rng.next_below(8192)) - 4096;
          want[r][c] = quantize_i32_to_i8(row[c], kShift, Activation::kRelu);
        }
        h.accel.accumulator().write_row_i32(r, row, kCols, false);
      } else {
        std::uint8_t* row = h.accel.scratchpad().row_ptr(r);
        for (unsigned c = 0; c < kCols; ++c) {
          row[c] = static_cast<std::uint8_t>(rng.next_u64());
          want[r][c] = static_cast<std::int8_t>(row[c]);
        }
      }
    }
    const LocalAddr src =
        from_acc ? LocalAddr::acc_row(0) : LocalAddr::sp_row(0);
    h.accel.dma().mvout(h.as, dst, stride_, src, kRows, kCols, kShift,
                        Activation::kRelu, 0, /*functional=*/true);

    auto expect = before;
    for (unsigned r = 0; r < kRows; ++r) {
      std::memcpy(expect.data() + kFirstOffset + r * stride_, want[r].data(),
                  kCols);
    }
    EXPECT_EQ(read_row(h, span_lo, span), expect);
  }
}

TEST(DmaDataPath, ContiguousRoundTripAcrossScatteredPages) {
  AccelHarness h;
  Rng rng(15);
  constexpr unsigned kCols = 16;
  // 64 contiguous rows starting 200 bytes before a page boundary: the
  // coalesced burst splits at the boundary into two non-adjacent frames.
  const VAddr base = map_scattered(h, 4) + kPageBytes - 200;
  std::vector<std::uint8_t> in(64 * kCols);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next_u64());
  h.as.write_virt(base, in.data(), in.size());
  h.accel.dma().mvin(h.as, base, kCols, 1.0f, LocalAddr::sp_row(0), 64, kCols,
                     0, /*functional=*/true);
  const VAddr out = base + 2 * kPageBytes;
  h.accel.dma().mvout(h.as, out, kCols, LocalAddr::sp_row(0), 64, kCols, 0,
                      Activation::kNone, 0, /*functional=*/true);
  EXPECT_EQ(read_row(h, out, in.size()), in);
}

TEST(DmaDataPath, TimingOnlyRunTouchesNoMemory) {
  sim::Session s =
      sim::Session::builder(SocConfig::base_1mb_l2()).functional(false).build();
  const sim::Plan plan = s.plan(zoo::squeezenet_v11(32));
  const std::size_t pages = s.soc().memory().phys().resident_pages();
  const sim::Report r = s.run(plan);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(s.soc().memory().phys().resident_pages(), pages);
}

}  // namespace
}  // namespace gemmini
