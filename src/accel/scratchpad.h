#pragma once
// Banked scratchpad SRAM (Fig. 1 "Scratchpad Bank 0..K").
//
// Functional: raw byte storage, row-granular (each row = dim elements of the
// input type). Timing: per-bank busy-until timelines; an access occupying
// rows in a bank waits for that bank, which is how DMA fills and spatial-
// array reads conflict (the design reason Gemmini banks its scratchpad).

#include <cstdint>
#include <vector>

#include "src/arch/config.h"
#include "src/base/divisor.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/fault/fault.h"

namespace gemmini {

class Scratchpad {
 public:
  struct Stats {
    /// Cycles reservations waited for a busy bank.
    std::uint64_t bank_conflict_cycles = 0;
    /// Rows touched by reservations.
    std::uint64_t rows = 0;
  };

  explicit Scratchpad(const GemminiConfig& cfg,
                      fault::Injector* injector = nullptr)
      : row_bytes_(cfg.sp_row_bytes()),
        rows_(cfg.sp_rows()),
        bank_rows_(cfg.sp_bank_rows()),
        data_(rows_ * row_bytes_, 0),
        bank_busy_(cfg.sp_banks, 0),
        injector_(injector) {}

  std::uint64_t rows() const { return rows_; }
  std::uint64_t row_bytes() const { return row_bytes_; }
  unsigned banks() const { return static_cast<unsigned>(bank_busy_.size()); }
  unsigned bank_of(std::uint64_t row) const {
    return static_cast<unsigned>(bank_rows_.div(row));
  }

  // ---- Functional -------------------------------------------------------
  std::uint8_t* row_ptr(std::uint64_t row) {
    GEMMINI_CHECK_MSG(row < rows_, "scratchpad row " << row << " out of "
                                                     << rows_);
    return data_.data() + row * row_bytes_;
  }
  const std::uint8_t* row_ptr(std::uint64_t row) const {
    GEMMINI_CHECK(row < rows_);
    return data_.data() + row * row_bytes_;
  }

  // ---- Timing -------------------------------------------------------------
  /// Reserve rows [row, row+nrows) starting at `t` for `cycles` cycles.
  /// Returns the access completion (start after all touched banks free).
  Cycle reserve(std::uint64_t row, std::uint64_t nrows, Cycle t, Cycle cycles);

  /// Fault layer: flip bit `bit` of the region starting at `row` (also used
  /// by the exec unit for transient tile errors landing in the scratchpad).
  void corrupt_bit(std::uint64_t row, std::uint64_t bit) {
    GEMMINI_CHECK(row * row_bytes_ + bit / 8 < data_.size());
    data_[row * row_bytes_ + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
  }

  /// Frees every bank and zeroes the counts (one run's window).
  void reset_time() {
    for (auto& b : bank_busy_) b = 0;
    stats_ = Stats{};
  }

  const Stats& stats() const { return stats_; }

 private:
  std::uint64_t row_bytes_;
  std::uint64_t rows_;
  Divisor bank_rows_;
  std::vector<std::uint8_t> data_;
  std::vector<Cycle> bank_busy_;
  fault::Injector* injector_;
  Stats stats_;
};

}  // namespace gemmini
