#include "src/cpu/kernels.h"

#include <algorithm>
#include <cmath>

#include "src/base/fixed.h"
#include "src/base/status.h"

namespace gemmini::ref {
namespace {

// ---- Blocked-GEMM machinery -----------------------------------------------
// All three GEMMs share one strategy: pack B into a transposed panel so that
// both operands of the inner loop are contiguous, then walk output columns in
// cache-sized blocks so the packed panel stays resident while A rows stream
// through. The inner dot products are k-unrolled. Integer accumulation is
// exact (order-independent); the float path keeps a single accumulator and
// adds products in ascending-k order, so both match the naive loops
// bit-for-bit.

/// Output-column block: the packed B panel slice kept hot across all A rows.
constexpr std::size_t kColBlock = 64;

/// int8 dot product, exact. Products are accumulated in int32 in bounded
/// chunks (|p| <= 128*128 = 2^14, so 2^16 products never overflow int32),
/// then widened — the sum equals the naive all-int64 accumulation exactly
/// regardless of order, which frees the compiler to unroll and vectorize the
/// chunk loop (widening int8 multiplies into SIMD int32 lanes).
std::int64_t dot_i8(const std::int8_t* a, const std::int8_t* bt,
                    std::size_t k) {
  constexpr std::size_t kChunk = 1u << 16;
  std::int64_t total = 0;
  std::size_t kk = 0;
  while (kk < k) {
    const std::size_t end = std::min(k, kk + kChunk);
    std::int32_t s = 0;
    for (; kk < end; ++kk) {
      s += static_cast<std::int32_t>(a[kk]) * bt[kk];
    }
    total += s;
  }
  return total;
}

/// Register-blocked int8 micro-kernel: the exact sums of kMicroRows A rows
/// (`ar`) against kMicroCols packed B columns (`bt`, column c at bt + c*k),
/// written to out[r][c]. Each operand load feeds kMicroRows or kMicroCols
/// multiply-adds instead of one, and the int32 chunk accumulators follow
/// dot_i8's overflow bound, so the result is exact.
constexpr std::size_t kMicroRows = 4;
constexpr std::size_t kMicroCols = 4;

void dot_i8_block(const std::int8_t* const* ar, const std::int8_t* bt,
                  std::size_t k, std::int64_t (&out)[kMicroRows][kMicroCols]) {
  constexpr std::size_t kChunk = 1u << 16;
  for (auto& row : out) std::fill(std::begin(row), std::end(row), 0);
  const std::int8_t *a0 = ar[0], *a1 = ar[1], *a2 = ar[2], *a3 = ar[3];
  const std::int8_t *b0 = bt, *b1 = bt + k, *b2 = bt + 2 * k, *b3 = bt + 3 * k;
  std::size_t kk = 0;
  while (kk < k) {
    const std::size_t end = std::min(k, kk + kChunk);
    std::int32_t s[kMicroRows][kMicroCols] = {};
    for (; kk < end; ++kk) {
      const std::int32_t a[kMicroRows] = {a0[kk], a1[kk], a2[kk], a3[kk]};
      const std::int32_t b[kMicroCols] = {b0[kk], b1[kk], b2[kk], b3[kk]};
      for (std::size_t r = 0; r < kMicroRows; ++r) {
        for (std::size_t c = 0; c < kMicroCols; ++c) s[r][c] += a[r] * b[c];
      }
    }
    for (std::size_t r = 0; r < kMicroRows; ++r) {
      for (std::size_t c = 0; c < kMicroCols; ++c) out[r][c] += s[r][c];
    }
  }
}

/// fp32 dot product seeded with `init` (the bias). A single accumulator and
/// ascending-k adds reproduce the naive rounding sequence exactly; the
/// unrolled body is plain sequential statements for the same reason.
float dot_f32(float init, const float* a, const float* bt, std::size_t k) {
  float sum = init;
  std::size_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    sum += a[kk] * bt[kk];
    sum += a[kk + 1] * bt[kk + 1];
    sum += a[kk + 2] * bt[kk + 2];
    sum += a[kk + 3] * bt[kk + 3];
  }
  for (; kk < k; ++kk) sum += a[kk] * bt[kk];
  return sum;
}

/// Packs columns [j0, j0+jn) of B[k x n] into `bt`, one contiguous
/// length-k row per output column (transposed panel).
template <typename T>
void pack_b_panel(const Tensor<T>& b, std::size_t k, std::size_t j0,
                  std::size_t jn, std::vector<T>& bt) {
  bt.resize(jn * k);
  for (std::size_t kk = 0; kk < k; ++kk) {
    const T* brow = b.row(kk) + j0;
    for (std::size_t j = 0; j < jn; ++j) bt[j * k + kk] = brow[j];
  }
}

}  // namespace

void gemm_i8(const TensorI8& a, const TensorI8& b, const std::int32_t* bias,
             TensorI8& c, unsigned out_shift, Activation act) {
  GEMMINI_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  const auto emit = [&](std::size_t i, std::size_t j, std::int64_t dot) {
    const std::int64_t sum = (bias ? bias[j] : 0) + dot;
    const std::int32_t acc = static_cast<std::int32_t>(
        std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
    c.row(i)[j] = quantize_i32_to_i8(acc, out_shift, act);
  };
  std::vector<std::int8_t> bt;
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t jn = std::min(kColBlock, n - j0);
    pack_b_panel(b, k, j0, jn, bt);
    std::size_t i = 0;
    // Full kMicroRows x kMicroCols blocks through the micro-kernel...
    for (; i + kMicroRows <= m; i += kMicroRows) {
      const std::int8_t* const ar[kMicroRows] = {a.row(i), a.row(i + 1),
                                                 a.row(i + 2), a.row(i + 3)};
      std::size_t j = 0;
      for (; j + kMicroCols <= jn; j += kMicroCols) {
        std::int64_t dots[kMicroRows][kMicroCols];
        dot_i8_block(ar, bt.data() + j * k, k, dots);
        for (std::size_t r = 0; r < kMicroRows; ++r) {
          for (std::size_t u = 0; u < kMicroCols; ++u) {
            emit(i + r, j0 + j + u, dots[r][u]);
          }
        }
      }
      // ...then the panel's leftover columns one dot product at a time.
      for (; j < jn; ++j) {
        for (std::size_t r = 0; r < kMicroRows; ++r) {
          emit(i + r, j0 + j, dot_i8(ar[r], bt.data() + j * k, k));
        }
      }
    }
    for (; i < m; ++i) {
      for (std::size_t j = 0; j < jn; ++j) {
        emit(i, j0 + j, dot_i8(a.row(i), bt.data() + j * k, k));
      }
    }
  }
}

void gemm_f32(const TensorF32& a, const TensorF32& b, const float* bias,
              TensorF32& c, Activation act) {
  GEMMINI_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  // Float accumulation is order-sensitive, so each output keeps one
  // accumulator fed in ascending-k order (bit-exact vs the naive loop). The
  // serial FMA chain per output is the throughput limiter; interleaving
  // kJInterleave *independent* output columns hides its latency without
  // reordering any single column's sum.
  constexpr std::size_t kJInterleave = 8;
  std::vector<float> bt;
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t jn = std::min(kColBlock, n - j0);
    pack_b_panel(b, k, j0, jn, bt);
    for (std::size_t i = 0; i < m; ++i) {
      const float* ar = a.row(i);
      float* cr = c.row(i) + j0;
      std::size_t j = 0;
      for (; j + kJInterleave <= jn; j += kJInterleave) {
        const float* bp = bt.data() + j * k;
        float s[kJInterleave];
        for (std::size_t u = 0; u < kJInterleave; ++u) {
          s[u] = bias ? bias[j0 + j + u] : 0.0f;
        }
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float av = ar[kk];
          for (std::size_t u = 0; u < kJInterleave; ++u) {
            s[u] += av * bp[u * k + kk];
          }
        }
        for (std::size_t u = 0; u < kJInterleave; ++u) {
          cr[j + u] = apply_activation_f32(s[u], act);
        }
      }
      for (; j < jn; ++j) {
        const float sum =
            dot_f32(bias ? bias[j0 + j] : 0.0f, ar, bt.data() + j * k, k);
        cr[j] = apply_activation_f32(sum, act);
      }
    }
  }
}

void gemm_i8_acc_i32(const TensorI8& a, const TensorI8& b, TensorI32& c) {
  GEMMINI_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  std::vector<std::int8_t> bt;
  for (std::size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const std::size_t jn = std::min(kColBlock, n - j0);
    pack_b_panel(b, k, j0, jn, bt);
    for (std::size_t i = 0; i < m; ++i) {
      const std::int8_t* ar = a.row(i);
      std::int32_t* cr = c.row(i) + j0;
      for (std::size_t j = 0; j < jn; ++j) {
        const std::int64_t sum = dot_i8(ar, bt.data() + j * k, k);
        cr[j] = static_cast<std::int32_t>(
            std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
      }
    }
  }
}

// ---- Naive loops (equivalence oracle + perf baseline) ----------------------

void gemm_i8_naive(const TensorI8& a, const TensorI8& b,
                   const std::int32_t* bias, TensorI8& c, unsigned out_shift,
                   Activation act) {
  GEMMINI_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t sum = bias ? bias[j] : 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += static_cast<std::int64_t>(a.at(i, kk)) *
               static_cast<std::int64_t>(b.at(kk, j));
      }
      const std::int32_t acc = static_cast<std::int32_t>(
          std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
      c.at(i, j) = quantize_i32_to_i8(acc, out_shift, act);
    }
  }
}

void gemm_f32_naive(const TensorF32& a, const TensorF32& b, const float* bias,
                    TensorF32& c, Activation act) {
  GEMMINI_CHECK(a.rank() == 2 && b.rank() == 2 && c.rank() == 2);
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float sum = bias ? bias[j] : 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += a.at(i, kk) * b.at(kk, j);
      }
      c.at(i, j) = apply_activation_f32(sum, act);
    }
  }
}

void gemm_i8_acc_i32_naive(const TensorI8& a, const TensorI8& b,
                           TensorI32& c) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEMMINI_CHECK(b.dim(0) == k && c.dim(0) == m && c.dim(1) == n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int64_t sum = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += static_cast<std::int64_t>(a.at(i, kk)) *
               static_cast<std::int64_t>(b.at(kk, j));
      }
      c.at(i, j) = static_cast<std::int32_t>(
          std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
    }
  }
}

void conv2d_i8(const TensorI8& in, const TensorI8& w, const std::int32_t* bias,
               TensorI8& out, const ConvParams& p) {
  GEMMINI_CHECK(in.rank() == 4 && w.rank() == 4 && out.rank() == 4);
  const std::size_t n = in.dim(0), ih = in.dim(1), iw = in.dim(2),
                    ic = in.dim(3);
  const std::size_t kh = w.dim(0), kw = w.dim(1), oc = w.dim(3);
  GEMMINI_CHECK(w.dim(2) == ic);
  const std::size_t oh = out.dim(1), ow = out.dim(2);
  GEMMINI_CHECK(out.dim(0) == n && out.dim(3) == oc);

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t o = 0; o < oc; ++o) {
          std::int64_t sum = bias ? bias[o] : 0;
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const std::int64_t sy = static_cast<std::int64_t>(y) * p.stride +
                                    ky - p.padding;
            if (sy < 0 || sy >= static_cast<std::int64_t>(ih)) continue;
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const std::int64_t sx = static_cast<std::int64_t>(x) * p.stride +
                                      kx - p.padding;
              if (sx < 0 || sx >= static_cast<std::int64_t>(iw)) continue;
              for (std::size_t cc = 0; cc < ic; ++cc) {
                sum += static_cast<std::int64_t>(
                           in.at(b, static_cast<std::size_t>(sy),
                                 static_cast<std::size_t>(sx), cc)) *
                       static_cast<std::int64_t>(w.at(ky, kx, cc, o));
              }
            }
          }
          const std::int32_t acc = static_cast<std::int32_t>(
              std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
          out.at(b, y, x, o) = quantize_i32_to_i8(acc, p.out_shift, p.act);
        }
      }
    }
  }
}

void depthwise_conv2d_i8(const TensorI8& in, const TensorI8& w,
                         const std::int32_t* bias, TensorI8& out,
                         const ConvParams& p) {
  GEMMINI_CHECK(in.rank() == 4 && w.rank() == 3 && out.rank() == 4);
  const std::size_t n = in.dim(0), ih = in.dim(1), iw = in.dim(2),
                    c = in.dim(3);
  const std::size_t kh = w.dim(0), kw = w.dim(1);
  GEMMINI_CHECK(w.dim(2) == c && out.dim(3) == c);
  const std::size_t oh = out.dim(1), ow = out.dim(2);

  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t cc = 0; cc < c; ++cc) {
          std::int64_t sum = bias ? bias[cc] : 0;
          for (std::size_t ky = 0; ky < kh; ++ky) {
            const std::int64_t sy = static_cast<std::int64_t>(y) * p.stride +
                                    ky - p.padding;
            if (sy < 0 || sy >= static_cast<std::int64_t>(ih)) continue;
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const std::int64_t sx = static_cast<std::int64_t>(x) * p.stride +
                                      kx - p.padding;
              if (sx < 0 || sx >= static_cast<std::int64_t>(iw)) continue;
              sum += static_cast<std::int64_t>(
                         in.at(b, static_cast<std::size_t>(sy),
                               static_cast<std::size_t>(sx), cc)) *
                     static_cast<std::int64_t>(w.at(ky, kx, cc));
            }
          }
          const std::int32_t acc = static_cast<std::int32_t>(
              std::clamp<std::int64_t>(sum, INT32_MIN, INT32_MAX));
          out.at(b, y, x, cc) = quantize_i32_to_i8(acc, p.out_shift, p.act);
        }
      }
    }
  }
}

void im2col_i8(const TensorI8& in, unsigned kh, unsigned kw, unsigned stride,
               unsigned padding, TensorI8& out) {
  GEMMINI_CHECK(in.rank() == 4 && out.rank() == 2);
  const std::size_t n = in.dim(0), ih = in.dim(1), iw = in.dim(2),
                    ic = in.dim(3);
  const std::size_t oh = conv_out_dim(ih, kh, stride, padding);
  const std::size_t ow = conv_out_dim(iw, kw, stride, padding);
  GEMMINI_CHECK(out.dim(0) == n * oh * ow && out.dim(1) == kh * kw * ic);

  std::size_t row = 0;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x, ++row) {
        std::size_t col = 0;
        for (std::size_t ky = 0; ky < kh; ++ky) {
          for (std::size_t kx = 0; kx < kw; ++kx) {
            for (std::size_t cc = 0; cc < ic; ++cc, ++col) {
              const std::int64_t sy =
                  static_cast<std::int64_t>(y) * stride + ky - padding;
              const std::int64_t sx =
                  static_cast<std::int64_t>(x) * stride + kx - padding;
              const bool in_bounds = sy >= 0 &&
                                     sy < static_cast<std::int64_t>(ih) &&
                                     sx >= 0 &&
                                     sx < static_cast<std::int64_t>(iw);
              out.at(row, col) =
                  in_bounds ? in.at(b, static_cast<std::size_t>(sy),
                                    static_cast<std::size_t>(sx), cc)
                            : std::int8_t{0};
            }
          }
        }
      }
    }
  }
}

void maxpool_i8(const TensorI8& in, unsigned window, unsigned stride,
                unsigned padding, TensorI8& out) {
  GEMMINI_CHECK(in.rank() == 4 && out.rank() == 4);
  const std::size_t n = in.dim(0), ih = in.dim(1), iw = in.dim(2),
                    c = in.dim(3);
  const std::size_t oh = out.dim(1), ow = out.dim(2);
  GEMMINI_CHECK(out.dim(0) == n && out.dim(3) == c);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        for (std::size_t cc = 0; cc < c; ++cc) {
          std::int8_t best = -128;
          for (unsigned ky = 0; ky < window; ++ky) {
            const std::int64_t sy =
                static_cast<std::int64_t>(y) * stride + ky - padding;
            if (sy < 0 || sy >= static_cast<std::int64_t>(ih)) continue;
            for (unsigned kx = 0; kx < window; ++kx) {
              const std::int64_t sx =
                  static_cast<std::int64_t>(x) * stride + kx - padding;
              if (sx < 0 || sx >= static_cast<std::int64_t>(iw)) continue;
              best = std::max(best, in.at(b, static_cast<std::size_t>(sy),
                                          static_cast<std::size_t>(sx), cc));
            }
          }
          out.at(b, y, x, cc) = best;
        }
      }
    }
  }
}

void global_avgpool_i8(const TensorI8& in, TensorI8& out) {
  GEMMINI_CHECK(in.rank() == 4 && out.rank() == 2);
  const std::size_t n = in.dim(0), h = in.dim(1), w = in.dim(2),
                    c = in.dim(3);
  GEMMINI_CHECK(out.dim(0) == n && out.dim(1) == c);
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t cc = 0; cc < c; ++cc) {
      std::int64_t sum = 0;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) sum += in.at(b, y, x, cc);
      }
      const std::int64_t count = static_cast<std::int64_t>(h) * w;
      const std::int64_t avg =
          (sum + (sum >= 0 ? count / 2 : -static_cast<std::int64_t>(count / 2))) /
          count;
      out.at(b, cc) = saturate_i8(static_cast<std::int32_t>(avg));
    }
  }
}

void resadd_i8(const TensorI8& a, const TensorI8& b, TensorI8& out,
               Activation act) {
  GEMMINI_CHECK(a.shape() == b.shape() && a.shape() == out.shape());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::int32_t sum =
        static_cast<std::int32_t>(a[i]) + static_cast<std::int32_t>(b[i]);
    // Exactly the accumulator's zero-shift read-out pipeline (activation
    // with the output-domain ReLU6 threshold, then saturation), so the CPU
    // fallback placement is bit-identical to the accelerator's resadd.
    out[i] = quantize_i32_to_i8(sum, 0, act);
  }
}

void unpack_int4_matrix(const std::uint8_t* packed, std::uint64_t k,
                        std::uint64_t n, TensorI8& out) {
  GEMMINI_CHECK(out.rank() == 2 && out.size() == k * n);
  const std::uint64_t row_bytes = (n + 1) / 2;
  for (std::uint64_t r = 0; r < k; ++r) {
    const std::uint8_t* row = packed + r * row_bytes;
    for (std::uint64_t c = 0; c < n; ++c) {
      out[r * n + c] = unpack_int4(row, c);
    }
  }
}

void softmax_f32(const TensorF32& in, TensorF32& out) {
  GEMMINI_CHECK(in.rank() == 2 && out.shape() == in.shape());
  const std::size_t rows = in.dim(0), cols = in.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    float mx = in.at(r, 0);
    for (std::size_t c = 1; c < cols; ++c) mx = std::max(mx, in.at(r, c));
    float denom = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      denom += std::exp(in.at(r, c) - mx);
    }
    for (std::size_t c = 0; c < cols; ++c) {
      out.at(r, c) = std::exp(in.at(r, c) - mx) / denom;
    }
  }
}

void layernorm_f32(const TensorF32& in, TensorF32& out) {
  GEMMINI_CHECK(in.rank() == 2 && out.shape() == in.shape());
  const std::size_t rows = in.dim(0), cols = in.dim(1);
  for (std::size_t r = 0; r < rows; ++r) {
    float mean = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) mean += in.at(r, c);
    mean /= static_cast<float>(cols);
    float var = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      const float d = in.at(r, c) - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv = 1.0f / std::sqrt(var + 1e-5f);
    for (std::size_t c = 0; c < cols; ++c) {
      out.at(r, c) = (in.at(r, c) - mean) * inv;
    }
  }
}

void gelu_f32(const TensorF32& in, TensorF32& out) {
  GEMMINI_CHECK(out.shape() == in.shape());
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float x = in[i];
    out[i] = 0.5f * x * (1.0f + std::tanh(kC * (x + 0.044715f * x * x * x)));
  }
}

}  // namespace gemmini::ref
