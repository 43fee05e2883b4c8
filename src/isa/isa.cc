#include "src/isa/isa.h"

#include <cstring>
#include <sstream>

namespace gemmini {

namespace {
// Funct values follow the upstream gemmini-rocc-tests header where present.
constexpr std::uint8_t kFunctConfig = 0;
constexpr std::uint8_t kFunctMvin = 2;
constexpr std::uint8_t kFunctMvout = 3;
constexpr std::uint8_t kFunctComputePreloaded = 4;
constexpr std::uint8_t kFunctComputeAccumulated = 5;
constexpr std::uint8_t kFunctPreload = 6;
constexpr std::uint8_t kFunctFlush = 7;
constexpr std::uint8_t kFunctFence = 127;
constexpr std::uint8_t kFunctMvin2 = 1;
constexpr std::uint8_t kFunctMvin3 = 14;

// CONFIG sub-selector in rs1[1:0].
constexpr std::uint64_t kConfigEx = 0;
constexpr std::uint64_t kConfigLd = 1;
constexpr std::uint64_t kConfigSt = 2;

std::uint64_t pack_dims_addr(LocalAddr a, std::uint16_t rows,
                             std::uint16_t cols) {
  return (static_cast<std::uint64_t>(rows) << 48) |
         (static_cast<std::uint64_t>(cols) << 32) | a.raw();
}

void unpack_dims_addr(std::uint64_t v, LocalAddr& a, std::uint16_t& rows,
                      std::uint16_t& cols) {
  a = LocalAddr(static_cast<std::uint32_t>(v & 0xFFFF'FFFFu));
  cols = static_cast<std::uint16_t>((v >> 32) & 0xFFFF);
  rows = static_cast<std::uint16_t>((v >> 48) & 0xFFFF);
}
}  // namespace

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kConfigEx: return "config_ex";
    case Opcode::kConfigLd: return "config_ld";
    case Opcode::kConfigSt: return "config_st";
    case Opcode::kMvin: return "mvin";
    case Opcode::kMvout: return "mvout";
    case Opcode::kPreload: return "preload";
    case Opcode::kComputePreloaded: return "compute.preloaded";
    case Opcode::kComputeAccumulated: return "compute.accumulated";
    case Opcode::kFence: return "fence";
    case Opcode::kFlush: return "flush";
  }
  return "???";
}

Instruction make_config_ex(Dataflow df, Activation act, unsigned out_shift,
                           bool a_transpose) {
  GEMMINI_CHECK_MSG(df != Dataflow::kBoth,
                    "CONFIG_EX selects a concrete dataflow");
  GEMMINI_CHECK_MSG(out_shift <= 0xFF, "CONFIG_EX out_shift " << out_shift
                                           << " exceeds its 8-bit field");
  Instruction i;
  i.op = Opcode::kConfigEx;
  i.dataflow = df;
  i.activation = act;
  i.out_shift = static_cast<std::uint8_t>(out_shift);
  i.a_transpose = a_transpose;
  return i;
}

Instruction make_config_ld(std::uint64_t stride_bytes, float scale,
                           unsigned channel, bool int4) {
  GEMMINI_CHECK(channel < 3);
  Instruction i;
  i.op = Opcode::kConfigLd;
  i.stride_bytes = stride_bytes;
  i.ld_scale = scale;
  i.ld_channel = static_cast<std::uint8_t>(channel);
  i.ld_int4 = int4;
  return i;
}

Instruction make_config_st(std::uint64_t stride_bytes, unsigned pool_window,
                           unsigned pool_stride) {
  GEMMINI_CHECK_MSG(pool_window <= 0xFFFF && pool_stride <= 0xFFFF,
                    "CONFIG_ST pool window/stride exceed their 16-bit fields");
  Instruction i;
  i.op = Opcode::kConfigSt;
  i.stride_bytes = stride_bytes;
  i.pool_window = static_cast<std::uint16_t>(pool_window);
  i.pool_stride = static_cast<std::uint16_t>(pool_stride);
  return i;
}

Instruction make_mvin(VAddr dram, LocalAddr dst, unsigned rows, unsigned cols,
                      unsigned channel) {
  GEMMINI_CHECK(rows <= 0xFFFF && cols <= 0xFFFF && channel < 3);
  Instruction i;
  i.op = Opcode::kMvin;
  i.dram_addr = dram;
  i.local = dst;
  i.rows = static_cast<std::uint16_t>(rows);
  i.cols = static_cast<std::uint16_t>(cols);
  i.ld_channel = static_cast<std::uint8_t>(channel);
  return i;
}

Instruction make_mvout(VAddr dram, LocalAddr src, unsigned rows,
                       unsigned cols) {
  GEMMINI_CHECK(rows <= 0xFFFF && cols <= 0xFFFF);
  Instruction i;
  i.op = Opcode::kMvout;
  i.dram_addr = dram;
  i.local = src;
  i.rows = static_cast<std::uint16_t>(rows);
  i.cols = static_cast<std::uint16_t>(cols);
  return i;
}

Instruction make_preload(LocalAddr b, LocalAddr c, unsigned b_rows,
                         unsigned b_cols, unsigned c_rows, unsigned c_cols) {
  GEMMINI_CHECK(b_rows <= 0xFFFF && b_cols <= 0xFFFF && c_rows <= 0xFFFF &&
                c_cols <= 0xFFFF);
  Instruction i;
  i.op = Opcode::kPreload;
  i.local = b;
  i.rows = static_cast<std::uint16_t>(b_rows);
  i.cols = static_cast<std::uint16_t>(b_cols);
  i.local2 = c;
  i.rows2 = static_cast<std::uint16_t>(c_rows);
  i.cols2 = static_cast<std::uint16_t>(c_cols);
  return i;
}

Instruction make_compute(LocalAddr a, LocalAddr d, unsigned a_rows,
                         unsigned a_cols, unsigned d_rows, unsigned d_cols,
                         bool preloaded) {
  GEMMINI_CHECK(a_rows <= 0xFFFF && a_cols <= 0xFFFF && d_rows <= 0xFFFF &&
                d_cols <= 0xFFFF);
  Instruction i;
  i.op = preloaded ? Opcode::kComputePreloaded : Opcode::kComputeAccumulated;
  i.local = a;
  i.rows = static_cast<std::uint16_t>(a_rows);
  i.cols = static_cast<std::uint16_t>(a_cols);
  i.local2 = d;
  i.rows2 = static_cast<std::uint16_t>(d_rows);
  i.cols2 = static_cast<std::uint16_t>(d_cols);
  return i;
}

Instruction make_fence() {
  Instruction i;
  i.op = Opcode::kFence;
  return i;
}

Instruction make_flush() {
  Instruction i;
  i.op = Opcode::kFlush;
  return i;
}

RoccCommand encode(const Instruction& inst) {
  RoccCommand c;
  switch (inst.op) {
    case Opcode::kConfigEx: {
      GEMMINI_CHECK_MSG(inst.dataflow != Dataflow::kBoth,
                        "CONFIG_EX selects a concrete dataflow");
      GEMMINI_CHECK_MSG(static_cast<unsigned>(inst.activation) <= 0x3,
                        "activation " << unsigned(inst.activation)
                                      << " exceeds its 2-bit field");
      c.funct = kFunctConfig;
      c.rs1 = kConfigEx |
              (static_cast<std::uint64_t>(
                   inst.dataflow == Dataflow::kOutputStationary ? 1 : 0)
               << 2) |
              (static_cast<std::uint64_t>(inst.activation) << 3) |
              (static_cast<std::uint64_t>(inst.a_transpose ? 1 : 0) << 8);
      c.rs2 = inst.out_shift;
      break;
    }
    case Opcode::kConfigLd: {
      GEMMINI_CHECK(inst.ld_channel < 3);
      c.funct = kFunctConfig;
      std::uint32_t scale_bits;
      std::memcpy(&scale_bits, &inst.ld_scale, sizeof(scale_bits));
      c.rs1 = kConfigLd |
              (static_cast<std::uint64_t>(inst.ld_int4 ? 1 : 0) << 2) |
              (static_cast<std::uint64_t>(inst.ld_channel) << 3) |
              (static_cast<std::uint64_t>(scale_bits) << 32);
      c.rs2 = inst.stride_bytes;
      break;
    }
    case Opcode::kConfigSt: {
      c.funct = kFunctConfig;
      c.rs1 = kConfigSt |
              (static_cast<std::uint64_t>(inst.pool_window) << 16) |
              (static_cast<std::uint64_t>(inst.pool_stride) << 32);
      c.rs2 = inst.stride_bytes;
      break;
    }
    case Opcode::kMvin: {
      GEMMINI_CHECK(inst.ld_channel < 3);
      c.funct = inst.ld_channel == 0   ? kFunctMvin
                : inst.ld_channel == 1 ? kFunctMvin2
                                       : kFunctMvin3;
      c.rs1 = inst.dram_addr;
      c.rs2 = pack_dims_addr(inst.local, inst.rows, inst.cols);
      break;
    }
    case Opcode::kMvout: {
      c.funct = kFunctMvout;
      c.rs1 = inst.dram_addr;
      c.rs2 = pack_dims_addr(inst.local, inst.rows, inst.cols);
      break;
    }
    case Opcode::kPreload: {
      c.funct = kFunctPreload;
      c.rs1 = pack_dims_addr(inst.local, inst.rows, inst.cols);
      c.rs2 = pack_dims_addr(inst.local2, inst.rows2, inst.cols2);
      break;
    }
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated: {
      c.funct = inst.op == Opcode::kComputePreloaded
                    ? kFunctComputePreloaded
                    : kFunctComputeAccumulated;
      c.rs1 = pack_dims_addr(inst.local, inst.rows, inst.cols);
      c.rs2 = pack_dims_addr(inst.local2, inst.rows2, inst.cols2);
      break;
    }
    case Opcode::kFence: c.funct = kFunctFence; break;
    case Opcode::kFlush: c.funct = kFunctFlush; break;
  }
  return c;
}

Instruction decode(const RoccCommand& c) {
  Instruction i;
  switch (c.funct) {
    case kFunctConfig: {
      const std::uint64_t sel = c.rs1 & 0x3;
      if (sel == kConfigEx) {
        i.op = Opcode::kConfigEx;
        i.dataflow = ((c.rs1 >> 2) & 1) ? Dataflow::kOutputStationary
                                        : Dataflow::kWeightStationary;
        i.activation = static_cast<Activation>((c.rs1 >> 3) & 0x3);
        i.a_transpose = ((c.rs1 >> 8) & 1) != 0;
        i.out_shift = static_cast<std::uint8_t>(c.rs2 & 0xFF);
      } else if (sel == kConfigLd) {
        i.op = Opcode::kConfigLd;
        i.ld_int4 = ((c.rs1 >> 2) & 1) != 0;
        i.ld_channel = static_cast<std::uint8_t>((c.rs1 >> 3) & 0x3);
        const std::uint32_t scale_bits =
            static_cast<std::uint32_t>(c.rs1 >> 32);
        std::memcpy(&i.ld_scale, &scale_bits, sizeof(i.ld_scale));
        i.stride_bytes = c.rs2;
      } else {
        i.op = Opcode::kConfigSt;
        i.pool_window = static_cast<std::uint16_t>((c.rs1 >> 16) & 0xFFFF);
        i.pool_stride = static_cast<std::uint16_t>((c.rs1 >> 32) & 0xFFFF);
        i.stride_bytes = c.rs2;
      }
      break;
    }
    case kFunctMvin:
    case kFunctMvin2:
    case kFunctMvin3: {
      i.op = Opcode::kMvin;
      i.ld_channel = c.funct == kFunctMvin ? 0 : (c.funct == kFunctMvin2 ? 1 : 2);
      i.dram_addr = c.rs1;
      unpack_dims_addr(c.rs2, i.local, i.rows, i.cols);
      break;
    }
    case kFunctMvout: {
      i.op = Opcode::kMvout;
      i.dram_addr = c.rs1;
      unpack_dims_addr(c.rs2, i.local, i.rows, i.cols);
      break;
    }
    case kFunctPreload: {
      i.op = Opcode::kPreload;
      unpack_dims_addr(c.rs1, i.local, i.rows, i.cols);
      unpack_dims_addr(c.rs2, i.local2, i.rows2, i.cols2);
      break;
    }
    case kFunctComputePreloaded:
    case kFunctComputeAccumulated: {
      i.op = c.funct == kFunctComputePreloaded ? Opcode::kComputePreloaded
                                               : Opcode::kComputeAccumulated;
      unpack_dims_addr(c.rs1, i.local, i.rows, i.cols);
      unpack_dims_addr(c.rs2, i.local2, i.rows2, i.cols2);
      break;
    }
    case kFunctFence: i.op = Opcode::kFence; break;
    case kFunctFlush: i.op = Opcode::kFlush; break;
    default:
      GEMMINI_CHECK_MSG(false, "unknown RoCC funct " << int(c.funct));
  }
  return i;
}

std::string Instruction::to_string() const {
  std::ostringstream oss;
  oss << opcode_name(op);
  auto local_str = [](LocalAddr a) {
    std::ostringstream s;
    if (a.is_garbage()) {
      s << "garbage";
    } else if (a.is_acc()) {
      s << "acc[" << a.row() << "]" << (a.accumulate() ? "+" : "");
    } else {
      s << "sp[" << a.row() << "]";
    }
    return s.str();
  };
  switch (op) {
    case Opcode::kConfigEx:
      oss << " df=" << dataflow_name(dataflow)
          << " act=" << activation_name(activation)
          << " shift=" << int(out_shift)
          << (a_transpose ? " transposeA" : "");
      break;
    case Opcode::kConfigLd:
      oss << " ch=" << int(ld_channel) << " stride=" << stride_bytes
          << " scale=" << ld_scale << (ld_int4 ? " int4" : "");
      break;
    case Opcode::kConfigSt:
      oss << " stride=" << stride_bytes;
      if (pool_window) {
        oss << " pool=" << pool_window << "x" << pool_window
            << "/s" << pool_stride;
      }
      break;
    case Opcode::kMvin:
    case Opcode::kMvout:
      oss << " dram=0x" << std::hex << dram_addr << std::dec << " "
          << local_str(local) << " " << rows << "x" << cols;
      break;
    case Opcode::kPreload:
      oss << " B=" << local_str(local) << " " << rows << "x" << cols
          << " C=" << local_str(local2) << " " << rows2 << "x" << cols2;
      break;
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated:
      oss << " A=" << local_str(local) << " " << rows << "x" << cols
          << " D=" << local_str(local2) << " " << rows2 << "x" << cols2;
      break;
    default: break;
  }
  return oss.str();
}

std::string disassemble(const Program& prog) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    oss << i << ": " << prog[i].to_string() << "\n";
  }
  return oss.str();
}

}  // namespace gemmini
