#pragma once
// Accumulator SRAM (Fig. 1): wider-than-input storage with accumulate-on-
// write, plus the read-out pipeline (matrix-scalar multiply / bitshift /
// ReLU) that converts accumulator values back to the input type on MVOUT.
//
// Storage is int32 for int8 configs and float for fp32 configs; we keep both
// backing arrays and use the one matching the config's dtype.

#include <cstdint>
#include <vector>

#include "src/arch/config.h"
#include "src/base/fixed.h"
#include "src/base/divisor.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/fault/fault.h"

namespace gemmini {

class Accumulator {
 public:
  struct Stats {
    /// Rows touched by reservations.
    std::uint64_t rows = 0;
  };

  explicit Accumulator(const GemminiConfig& cfg,
                       fault::Injector* injector = nullptr)
      : dtype_(cfg.dtype),
        dim_(cfg.dim()),
        rows_(cfg.acc_rows()),
        bank_rows_(rows_ / cfg.acc_banks),
        i32_(dtype_ == DType::kInt8 ? rows_ * dim_ : 0, 0),
        f32_(dtype_ == DType::kFp32 ? rows_ * dim_ : 0, 0.0f),
        bank_busy_(cfg.acc_banks, 0),
        injector_(injector) {}

  std::uint64_t rows() const { return rows_; }
  unsigned dim() const { return dim_; }

  // ---- Functional ---------------------------------------------------------
  /// Write `n` elements into row `row`; `accumulate` selects += vs =.
  void write_row_i32(std::uint64_t row, const std::int32_t* src, unsigned n,
                     bool accumulate);
  void write_row_f32(std::uint64_t row, const float* src, unsigned n,
                     bool accumulate);

  const std::int32_t* row_i32(std::uint64_t row) const {
    GEMMINI_CHECK(row < rows_ && dtype_ == DType::kInt8);
    return i32_.data() + row * dim_;
  }
  const float* row_f32(std::uint64_t row) const {
    GEMMINI_CHECK(row < rows_ && dtype_ == DType::kFp32);
    return f32_.data() + row * dim_;
  }

  /// Read-out pipeline: int32 accumulator -> activation -> rounding shift ->
  /// saturating int8. Produces `n` output elements from row `row`.
  void readout_i8(std::uint64_t row, unsigned n, unsigned shift,
                  Activation act, std::int8_t* dst) const;
  /// fp32 read-out: activation only.
  void readout_f32(std::uint64_t row, unsigned n, Activation act,
                   float* dst) const;

  // ---- Timing ---------------------------------------------------------------
  unsigned bank_of(std::uint64_t row) const {
    return static_cast<unsigned>(bank_rows_.div(row));
  }
  Cycle reserve(std::uint64_t row, std::uint64_t nrows, Cycle t, Cycle cycles);
  /// Frees every bank and zeroes the counts (one run's window).
  void reset_time() {
    for (auto& b : bank_busy_) b = 0;
    stats_ = Stats{};
  }

  const Stats& stats() const { return stats_; }

  /// Fault layer: flip bit `bit` of the 4-byte-per-element region starting
  /// at `row` (both dtypes store 4-byte accumulator elements).
  void corrupt_bit(std::uint64_t row, std::uint64_t bit) {
    const std::uint64_t elem = row * dim_ + bit / 32;
    std::uint8_t* base = dtype_ == DType::kInt8
                             ? reinterpret_cast<std::uint8_t*>(i32_.data())
                             : reinterpret_cast<std::uint8_t*>(f32_.data());
    GEMMINI_CHECK(elem < rows_ * dim_);
    base[elem * 4 + (bit / 8) % 4] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }

  /// Bits covered by `nrows` accumulator rows (for fault-region sizing).
  std::uint64_t region_bits(std::uint64_t nrows) const {
    return nrows * dim_ * 4 * 8;
  }

 private:
  DType dtype_;
  unsigned dim_;
  std::uint64_t rows_;
  Divisor bank_rows_;
  std::vector<std::int32_t> i32_;
  std::vector<float> f32_;
  std::vector<Cycle> bank_busy_;
  fault::Injector* injector_;
  Stats stats_;
};

}  // namespace gemmini
