#pragma once
// Division by a geometry constant fixed at construction (a cache's set
// count, a bus width, a DRAM row size, a bank's row count).
//
// The substrate divides by such constants on every simulated line. Real
// geometries are almost always powers of two, so Divisor precomputes a
// shift and a mask for them and keeps the hardware division only as the
// fallback for any other value. Both paths return the exact quotient and
// remainder.

#include <bit>
#include <cstdint>

#include "src/base/status.h"

namespace gemmini {

class Divisor {
 public:
  explicit Divisor(std::uint64_t d)
      : d_(d),
        pow2_(std::has_single_bit(d)),
        shift_(pow2_ ? static_cast<unsigned>(std::countr_zero(d)) : 0) {
    GEMMINI_CHECK_MSG(d > 0, "division by zero geometry");
  }

  std::uint64_t value() const { return d_; }
  bool power_of_two() const { return pow2_; }

  std::uint64_t div(std::uint64_t x) const {
    return pow2_ ? x >> shift_ : x / d_;
  }
  std::uint64_t mod(std::uint64_t x) const {
    return pow2_ ? x & (d_ - 1) : x % d_;
  }
  /// ceil(x / d).
  std::uint64_t div_ceil(std::uint64_t x) const { return div(x + d_ - 1); }

 private:
  std::uint64_t d_;
  bool pow2_;
  unsigned shift_;
};

}  // namespace gemmini
