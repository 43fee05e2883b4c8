// ISA tests: local-address encoding, RoCC round-trips, disassembly.

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/base/rng.h"
#include "src/isa/isa.h"

namespace gemmini {
namespace {

TEST(LocalAddr, SpRow) {
  const LocalAddr a = LocalAddr::sp_row(1234);
  EXPECT_FALSE(a.is_garbage());
  EXPECT_FALSE(a.is_acc());
  EXPECT_EQ(a.row(), 1234u);
}

TEST(LocalAddr, AccRowWithAccumulate) {
  const LocalAddr a = LocalAddr::acc_row(77, true);
  EXPECT_TRUE(a.is_acc());
  EXPECT_TRUE(a.accumulate());
  EXPECT_EQ(a.row(), 77u);
  const LocalAddr b = LocalAddr::acc_row(77, false);
  EXPECT_FALSE(b.accumulate());
}

TEST(LocalAddr, GarbageIsNeitherSpNorAcc) {
  const LocalAddr g = LocalAddr::garbage();
  EXPECT_TRUE(g.is_garbage());
  EXPECT_FALSE(g.is_acc());
  EXPECT_FALSE(g.accumulate());
}

Instruction roundtrip(const Instruction& i) { return decode(encode(i)); }

// A program stores one packed RoCC command per instruction.
static_assert(sizeof(RoccCommand) == 24);

TEST(RoccEncoding, MvinRoundTrip) {
  for (unsigned ch = 0; ch < 3; ++ch) {
    const Instruction i =
        make_mvin(0x1234'5678'9abcull, LocalAddr::sp_row(4095), 16, 13, ch);
    const Instruction r = roundtrip(i);
    EXPECT_EQ(r.op, Opcode::kMvin);
    EXPECT_EQ(r.dram_addr, i.dram_addr);
    EXPECT_EQ(r.local, i.local);
    EXPECT_EQ(r.rows, 16);
    EXPECT_EQ(r.cols, 13);
    EXPECT_EQ(r.ld_channel, ch);
  }
}

TEST(RoccEncoding, MvoutAccumulatorRoundTrip) {
  const Instruction i =
      make_mvout(0xdead'b000ull, LocalAddr::acc_row(99, false), 7, 16);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kMvout);
  EXPECT_TRUE(r.local.is_acc());
  EXPECT_EQ(r.local.row(), 99u);
  EXPECT_EQ(r.rows, 7);
}

TEST(RoccEncoding, PreloadRoundTrip) {
  const Instruction i = make_preload(LocalAddr::sp_row(100),
                                     LocalAddr::acc_row(3, true), 16, 12, 9,
                                     12);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kPreload);
  EXPECT_EQ(r.local, i.local);
  EXPECT_EQ(r.local2, i.local2);
  EXPECT_TRUE(r.local2.accumulate());
  EXPECT_EQ(r.rows, 16);
  EXPECT_EQ(r.cols, 12);
  EXPECT_EQ(r.rows2, 9);
  EXPECT_EQ(r.cols2, 12);
}

TEST(RoccEncoding, ComputeBothFlavors) {
  const Instruction p = roundtrip(make_compute(
      LocalAddr::sp_row(1), LocalAddr::garbage(), 16, 16, 0, 0, true));
  EXPECT_EQ(p.op, Opcode::kComputePreloaded);
  const Instruction a = roundtrip(make_compute(
      LocalAddr::sp_row(1), LocalAddr::sp_row(2), 4, 5, 4, 5, false));
  EXPECT_EQ(a.op, Opcode::kComputeAccumulated);
  EXPECT_EQ(a.rows2, 4);
}

TEST(RoccEncoding, ConfigExRoundTrip) {
  const Instruction i = make_config_ex(Dataflow::kOutputStationary,
                                       Activation::kRelu6, 13, true);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigEx);
  EXPECT_EQ(r.dataflow, Dataflow::kOutputStationary);
  EXPECT_EQ(r.activation, Activation::kRelu6);
  EXPECT_EQ(r.out_shift, 13);
  EXPECT_TRUE(r.a_transpose);
}

TEST(RoccEncoding, ConfigLdPreservesScale) {
  const Instruction i = make_config_ld(12345, 0.625f, 2);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigLd);
  EXPECT_EQ(r.stride_bytes, 12345u);
  EXPECT_FLOAT_EQ(r.ld_scale, 0.625f);
  EXPECT_EQ(r.ld_channel, 2);
}

TEST(RoccEncoding, ConfigLdInt4RoundTrip) {
  // The packed-int4 flag must survive encode/decode alongside the other
  // CONFIG_LD fields, and default to off when not requested.
  const Instruction i = make_config_ld(512, 1.0f, 1, /*int4=*/true);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigLd);
  EXPECT_EQ(r.stride_bytes, 512u);
  EXPECT_EQ(r.ld_channel, 1);
  EXPECT_TRUE(r.ld_int4);
  EXPECT_FALSE(roundtrip(make_config_ld(512, 1.0f, 1)).ld_int4);
}

TEST(RoccEncoding, ConfigStPooling) {
  const Instruction i = make_config_st(2048, 3, 2);
  const Instruction r = roundtrip(i);
  EXPECT_EQ(r.op, Opcode::kConfigSt);
  EXPECT_EQ(r.stride_bytes, 2048u);
  EXPECT_EQ(r.pool_window, 3);
  EXPECT_EQ(r.pool_stride, 2);
}

TEST(RoccEncoding, FenceAndFlush) {
  EXPECT_EQ(roundtrip(make_fence()).op, Opcode::kFence);
  EXPECT_EQ(roundtrip(make_flush()).op, Opcode::kFlush);
}

TEST(Disassembly, ReadableOutput) {
  Program prog{make_config_ex(Dataflow::kWeightStationary, Activation::kRelu,
                              8),
               make_mvin(0x1000, LocalAddr::sp_row(0), 16, 16),
               make_preload(LocalAddr::sp_row(0), LocalAddr::acc_row(0, false),
                            16, 16, 16, 16),
               make_compute(LocalAddr::sp_row(16), LocalAddr::garbage(), 16,
                            16, 0, 0, true),
               make_mvout(0x2000, LocalAddr::acc_row(0, false), 16, 16),
               make_fence()};
  const std::string d = disassemble(prog);
  EXPECT_NE(d.find("config_ex"), std::string::npos);
  EXPECT_NE(d.find("mvin"), std::string::npos);
  EXPECT_NE(d.find("preload"), std::string::npos);
  EXPECT_NE(d.find("compute.preloaded"), std::string::npos);
  EXPECT_NE(d.find("acc[0]"), std::string::npos);
  EXPECT_NE(d.find("fence"), std::string::npos);
}

TEST(Builders, RejectInvalidArguments) {
  EXPECT_DEATH(make_config_ex(Dataflow::kBoth, Activation::kNone, 0), "");
}

// The stored program is the encoding, so a field its slot cannot hold must
// fail loudly rather than be truncated.
TEST(Builders, RejectOutShiftWiderThanItsField) {
  EXPECT_EQ(make_config_ex(Dataflow::kWeightStationary, Activation::kNone, 255)
                .out_shift,
            255);
  EXPECT_DEATH(
      make_config_ex(Dataflow::kWeightStationary, Activation::kNone, 256),
      "out_shift");
}

TEST(Builders, RejectPoolFieldsWiderThanTheirFields) {
  EXPECT_EQ(make_config_st(64, 0xFFFF, 0xFFFF).pool_window, 0xFFFF);
  EXPECT_DEATH(make_config_st(64, 0x10000, 1), "pool");
  EXPECT_DEATH(make_config_st(64, 2, 0x10000), "pool");
}

TEST(Builders, RejectTileDimsWiderThanTheirFields) {
  const LocalAddr sp = LocalAddr::sp_row(0);
  const LocalAddr acc = LocalAddr::acc_row(0);
  EXPECT_DEATH(make_preload(sp, acc, 0x10000, 16, 16, 16), "");
  EXPECT_DEATH(make_preload(sp, acc, 16, 16, 16, 0x10000), "");
  EXPECT_DEATH(make_compute(sp, acc, 16, 0x10000, 16, 16, true), "");
  EXPECT_DEATH(make_compute(sp, acc, 16, 16, 0x10000, 16, false), "");
}

TEST(RoccEncoding, RejectActivationOutsideItsField) {
  Instruction i =
      make_config_ex(Dataflow::kWeightStationary, Activation::kRelu, 0);
  i.activation = static_cast<Activation>(4);
  EXPECT_DEATH(encode(i), "activation");
  EXPECT_DEATH(Program{i}, "activation");
}

// One random instruction per opcode, every field drawn from its full legal
// range through the builders.
Instruction random_instruction(Rng& rng, Opcode op) {
  const auto u16 = [&rng] {
    return static_cast<unsigned>(rng.next_below(0x10000));
  };
  const auto local = [&rng]() -> LocalAddr {
    switch (rng.next_below(4)) {
      case 0: return LocalAddr::garbage();
      case 1:
        return LocalAddr::sp_row(static_cast<std::uint32_t>(rng.next_u64()));
      default:
        return LocalAddr::acc_row(static_cast<std::uint32_t>(rng.next_u64()),
                                  rng.next_below(2) != 0);
    }
  };
  const auto channel = [&rng] {
    return static_cast<unsigned>(rng.next_below(3));
  };
  switch (op) {
    case Opcode::kConfigEx:
      return make_config_ex(
          rng.next_below(2) ? Dataflow::kOutputStationary
                            : Dataflow::kWeightStationary,
          static_cast<Activation>(rng.next_below(3)),
          static_cast<unsigned>(rng.next_below(256)), rng.next_below(2) != 0);
    case Opcode::kConfigLd:
      return make_config_ld(rng.next_u64(),
                            static_cast<float>(rng.next_double() * 8 - 4),
                            channel(), rng.next_below(2) != 0);
    case Opcode::kConfigSt:
      return make_config_st(rng.next_u64(), u16(), u16());
    case Opcode::kMvin:
      return make_mvin(rng.next_u64(), local(), u16(), u16(), channel());
    case Opcode::kMvout:
      return make_mvout(rng.next_u64(), local(), u16(), u16());
    case Opcode::kPreload:
      return make_preload(local(), local(), u16(), u16(), u16(), u16());
    case Opcode::kComputePreloaded:
    case Opcode::kComputeAccumulated:
      return make_compute(local(), local(), u16(), u16(), u16(), u16(),
                          op == Opcode::kComputePreloaded);
    case Opcode::kFence: return make_fence();
    case Opcode::kFlush: return make_flush();
  }
  return make_fence();
}

constexpr Opcode kAllOpcodes[] = {
    Opcode::kConfigEx,         Opcode::kConfigLd, Opcode::kConfigSt,
    Opcode::kMvin,             Opcode::kMvout,    Opcode::kPreload,
    Opcode::kComputePreloaded, Opcode::kComputeAccumulated,
    Opcode::kFence,            Opcode::kFlush};

TEST(RoccEncoding, RandomRoundTripIsExactForEveryOpcode) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    for (const Opcode op : kAllOpcodes) {
      const Instruction i = random_instruction(rng, op);
      ASSERT_EQ(i.op, op);
      ASSERT_EQ(roundtrip(i), i) << "trial " << trial << ": " << i.to_string();
    }
  }
}

TEST(ProgramStorage, IndexingAndIterationReturnWhatWasPushed) {
  Rng rng(99);
  std::vector<Instruction> pushed;
  Program prog;
  EXPECT_TRUE(prog.empty());
  for (int n = 0; n < 500; ++n) {
    const Instruction i = random_instruction(
        rng, kAllOpcodes[rng.next_below(std::size(kAllOpcodes))]);
    pushed.push_back(i);
    prog.push_back(i);
  }
  ASSERT_EQ(prog.size(), pushed.size());
  for (std::size_t n = 0; n < pushed.size(); ++n) {
    EXPECT_EQ(prog[n], pushed[n]);
  }
  std::size_t n = 0;
  for (const Instruction& i : prog) EXPECT_EQ(i, pushed[n++]);
  EXPECT_EQ(n, pushed.size());
  EXPECT_EQ(prog.back(), pushed.back());

  Program tail{pushed[0], pushed[1]};
  prog.append(tail);
  prog.pop_back();
  EXPECT_EQ(prog.size(), pushed.size() + 1);
  EXPECT_EQ(prog.back(), pushed[0]);
}

}  // namespace
}  // namespace gemmini
