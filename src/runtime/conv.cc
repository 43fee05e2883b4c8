#include "src/runtime/conv.h"

#include "src/base/status.h"

namespace gemmini {

ConvPlan emit_conv(const GemminiConfig& cfg, const ConvShape& shape,
                   const ConvBuffers& buf, unsigned out_shift, Activation act,
                   std::optional<TileShape> tile) {
  const std::size_t elem = cfg.input_bytes();
  ConvPlan plan;
  plan.macs = shape.macs();

  MatmulParams p;
  p.tile = tile;
  p.b = buf.weights;
  p.c = buf.output;
  p.bias = buf.bias;
  p.m = shape.out_rows();
  p.k = shape.patch_cols();
  p.n = shape.oc;
  p.c_row_stride_bytes = static_cast<std::uint64_t>(shape.oc) * elem;
  p.out_shift = out_shift;
  p.act = act;

  if (shape.is_direct()) {
    // NHWC input with 1x1/s1/p0 kernel *is* the A matrix.
    p.a = buf.input;
    p.a_row_stride_bytes = static_cast<std::uint64_t>(shape.ic) * elem;
  } else {
    if (buf.im2col_scratch == 0) {
      throw RuntimeError("conv requires an im2col scratch buffer");
    }
    p.a = buf.im2col_scratch;
    p.a_row_stride_bytes = shape.patch_cols() * elem;
    if (!cfg.has_im2col) {
      // The host CPU expands patches; serialized before the program.
      plan.cpu_im2col_bytes = shape.im2col_bytes(elem);
    }
  }
  plan.program = emit_tiled_matmul(cfg, p);
  return plan;
}

ConvPlan emit_depthwise_conv(const GemminiConfig& cfg, const ConvShape& shape,
                             const ConvBuffers& buf, unsigned out_shift,
                             Activation act, std::optional<TileShape> tile) {
  if (buf.im2col_scratch == 0) {
    throw RuntimeError("depthwise conv requires an im2col scratch buffer");
  }
  const std::size_t elem = cfg.input_bytes();
  const std::uint64_t m = shape.out_rows();
  const std::uint64_t kk = static_cast<std::uint64_t>(shape.kh) * shape.kw;
  ConvPlan plan;
  plan.macs = m * kk * shape.ic;
  if (!cfg.has_im2col) {
    plan.cpu_im2col_bytes = m * kk * shape.ic * elem;
  }

  // One skinny matmul per channel: A_c [m x kk] (channel-major scratch),
  // B_c [kk x 1] (column c of the [kk x C] weight matrix),
  // C_c [m x 1] (column c of the NHWC output).
  for (unsigned c = 0; c < shape.ic; ++c) {
    MatmulParams p;
    p.tile = tile;
    p.a = buf.im2col_scratch + static_cast<std::uint64_t>(c) * m * kk * elem;
    p.a_row_stride_bytes = kk * elem;
    p.b = buf.weights + static_cast<std::uint64_t>(c) * elem;
    p.b_row_stride_bytes = static_cast<std::uint64_t>(shape.ic) * elem;
    p.c = buf.output + static_cast<std::uint64_t>(c) * elem;
    p.c_row_stride_bytes = static_cast<std::uint64_t>(shape.ic) * elem;
    p.bias = buf.bias ? buf.bias + static_cast<std::uint64_t>(c) * elem : 0;
    p.m = m;
    p.k = kk;
    p.n = 1;
    p.out_shift = out_shift;
    p.act = act;
    Program ch = emit_tiled_matmul(cfg, p);
    // Channels are independent; drop the per-channel fence so the pipelines
    // overlap across channels, keep one final fence.
    GEMMINI_CHECK(!ch.empty() && ch.back().op == Opcode::kFence);
    ch.pop_back();
    plan.program.append(ch);
  }
  plan.program.push_back(make_fence());
  return plan;
}

}  // namespace gemmini
