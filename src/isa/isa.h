#pragma once
// Gemmini's RoCC-style ISA.
//
// The generated accelerator is driven by custom RISC-V instructions carrying
// two 64-bit operands (rs1, rs2) plus a funct field. A Program stores exactly
// that packed RoCC form (24 B per instruction); the accelerator decodes each
// command once, at issue, into the tagged Instruction struct that the
// builders, emission and execution work with. encode()/decode() convert
// between the two losslessly: encode() rejects any field that does not fit
// its slot instead of truncating it (round-trip tested).
//
// Local (scratchpad/accumulator) addresses follow the real encoding:
//   bit 31: accumulator space
//   bit 30: accumulate-on-write (accumulator only)
//   bits 29..0: row index
//   all-ones: "garbage" (operand absent)
//
// MVIN/MVOUT rs2 packs (rows << 48) | (cols << 32) | local_addr.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace gemmini {

/// A 32-bit local address in the accelerator's private memories.
class LocalAddr {
 public:
  static constexpr std::uint32_t kGarbage = 0xFFFF'FFFFu;
  static constexpr std::uint32_t kAccBit = 1u << 31;
  static constexpr std::uint32_t kAccumulateBit = 1u << 30;
  static constexpr std::uint32_t kRowMask = (1u << 30) - 1;

  constexpr LocalAddr() : raw_(kGarbage) {}
  constexpr explicit LocalAddr(std::uint32_t raw) : raw_(raw) {}

  static constexpr LocalAddr garbage() { return LocalAddr(kGarbage); }
  static constexpr LocalAddr sp_row(std::uint32_t row) {
    return LocalAddr(row & kRowMask);
  }
  static constexpr LocalAddr acc_row(std::uint32_t row,
                                     bool accumulate = false) {
    return LocalAddr((row & kRowMask) | kAccBit |
                     (accumulate ? kAccumulateBit : 0u));
  }

  constexpr std::uint32_t raw() const { return raw_; }
  constexpr bool is_garbage() const { return raw_ == kGarbage; }
  constexpr bool is_acc() const {
    return !is_garbage() && (raw_ & kAccBit) != 0;
  }
  constexpr bool accumulate() const {
    return is_acc() && (raw_ & kAccumulateBit) != 0;
  }
  constexpr std::uint32_t row() const { return raw_ & kRowMask; }

  friend constexpr bool operator==(LocalAddr a, LocalAddr b) {
    return a.raw_ == b.raw_;
  }

 private:
  std::uint32_t raw_;
};

enum class Opcode : std::uint8_t {
  kConfigEx,
  kConfigLd,
  kConfigSt,
  kMvin,
  kMvout,
  kPreload,
  kComputePreloaded,   ///< matmul using the tile latched by PRELOAD
  kComputeAccumulated, ///< matmul reusing the previously latched tile
  kFence,
  kFlush,              ///< TLB flush (context switch)
};

const char* opcode_name(Opcode op);

/// Decoded instruction. One struct (not a variant) keeps the hot loop simple
/// and the program representation compact; unused fields are zero.
struct Instruction {
  Opcode op = Opcode::kFence;

  // Data movement (MVIN / MVOUT).
  VAddr dram_addr = 0;
  LocalAddr local = LocalAddr::garbage();
  std::uint16_t rows = 0;
  std::uint16_t cols = 0;
  std::uint8_t ld_channel = 0;  ///< which CONFIG_LD stride applies (0..2)

  // Second operand (PRELOAD: B/C, COMPUTE: A/D).
  LocalAddr local2 = LocalAddr::garbage();
  std::uint16_t rows2 = 0;
  std::uint16_t cols2 = 0;

  // CONFIG payloads.
  Dataflow dataflow = Dataflow::kWeightStationary;  // CONFIG_EX
  Activation activation = Activation::kNone;        // CONFIG_EX
  std::uint8_t out_shift = 0;                       // CONFIG_EX
  bool a_transpose = false;                         // CONFIG_EX (transposer)
  std::uint64_t stride_bytes = 0;                   // CONFIG_LD / CONFIG_ST
  float ld_scale = 1.0f;                            // CONFIG_LD
  bool ld_int4 = false;                             // CONFIG_LD (packed int4)
  std::uint16_t pool_window = 0;                    // CONFIG_ST (0 = off)
  std::uint16_t pool_stride = 0;                    // CONFIG_ST

  std::string to_string() const;

  bool operator==(const Instruction&) const = default;
};

/// Builder helpers — the runtime uses these to emit programs.
Instruction make_config_ex(Dataflow df, Activation act, unsigned out_shift,
                           bool a_transpose = false);
/// `int4` marks the channel as moving packed int4 data: DRAM rows are
/// (cols+1)/2 bytes of two-nibble pairs, sign-extended to int8 on the way
/// into the scratchpad (dequant-on-mvin).
Instruction make_config_ld(std::uint64_t stride_bytes, float scale = 1.0f,
                           unsigned channel = 0, bool int4 = false);
Instruction make_config_st(std::uint64_t stride_bytes,
                           unsigned pool_window = 0, unsigned pool_stride = 0);
Instruction make_mvin(VAddr dram, LocalAddr dst, unsigned rows, unsigned cols,
                      unsigned channel = 0);
Instruction make_mvout(VAddr dram, LocalAddr src, unsigned rows,
                       unsigned cols);
Instruction make_preload(LocalAddr b, LocalAddr c, unsigned b_rows,
                         unsigned b_cols, unsigned c_rows, unsigned c_cols);
Instruction make_compute(LocalAddr a, LocalAddr d, unsigned a_rows,
                         unsigned a_cols, unsigned d_rows, unsigned d_cols,
                         bool preloaded);
Instruction make_fence();
Instruction make_flush();

/// Packed RoCC form: funct7-style selector plus two 64-bit register operands.
struct RoccCommand {
  std::uint8_t funct = 0;
  std::uint64_t rs1 = 0;
  std::uint64_t rs2 = 0;
};

/// Encodes to / decodes from the packed RoCC format. Round-trip preserving
/// for all instruction kinds (tested in tests/isa_test.cc); encode() fails a
/// GEMMINI_CHECK on a field its slot cannot hold.
RoccCommand encode(const Instruction& inst);
Instruction decode(const RoccCommand& cmd);

/// An accelerator program, stored as the RoCC commands the host core would
/// issue. push_back() encodes; indexing and iteration decode by value, so
/// an element is a temporary: hold a copy, never a reference into it.
class Program {
 public:
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Instruction;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Instruction;

    const_iterator() = default;
    Instruction operator*() const { return decode(*it_); }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator prev = *this;
      ++it_;
      return prev;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    friend class Program;
    explicit const_iterator(std::vector<RoccCommand>::const_iterator it)
        : it_(it) {}
    std::vector<RoccCommand>::const_iterator it_{};
  };

  Program() = default;
  Program(std::initializer_list<Instruction> insts) {
    cmds_.reserve(insts.size());
    for (const Instruction& i : insts) push_back(i);
  }

  void push_back(const Instruction& inst) { cmds_.push_back(encode(inst)); }
  void append(const Program& other) {
    cmds_.insert(cmds_.end(), other.cmds_.begin(), other.cmds_.end());
  }
  void pop_back() { cmds_.pop_back(); }
  void reserve(std::size_t n) { cmds_.reserve(n); }

  Instruction operator[](std::size_t i) const { return decode(cmds_[i]); }
  Instruction back() const { return decode(cmds_.back()); }
  std::size_t size() const { return cmds_.size(); }
  bool empty() const { return cmds_.empty(); }
  const_iterator begin() const { return const_iterator(cmds_.begin()); }
  const_iterator end() const { return const_iterator(cmds_.end()); }

 private:
  std::vector<RoccCommand> cmds_;
};

/// Human-readable disassembly of a whole program.
std::string disassemble(const Program& prog);

}  // namespace gemmini
