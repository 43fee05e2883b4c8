#include "src/vm/page_table.h"

#include <algorithm>

namespace gemmini {

AddressSpace::AddressSpace(PhysMem& mem, FrameAllocator& frames, VAddr va_base)
    : mem_(mem), frames_(frames), root_(frames.alloc_frame()),
      next_va_(va_base) {}

void AddressSpace::map_page(VAddr va, PAddr pa) {
  GEMMINI_CHECK_MSG(page_offset(va) == 0 && page_offset(pa) == 0,
                    "map_page requires page-aligned addresses");
  PAddr table = root_;
  for (unsigned level = 0; level < kPtLevels - 1; ++level) {
    const PAddr slot = table + vpn_slice(va, level) * sizeof(std::uint64_t);
    Pte pte{mem_.read_scalar<std::uint64_t>(slot)};
    if (!pte.valid()) {
      const PAddr next = frames_.alloc_frame();
      pte = Pte::make(next, /*leaf=*/false);
      mem_.write_scalar<std::uint64_t>(slot, pte.raw);
    }
    GEMMINI_CHECK_MSG(!pte.leaf(), "unexpected superpage in walk");
    table = pte.target();
  }
  const PAddr slot =
      table + vpn_slice(va, kPtLevels - 1) * sizeof(std::uint64_t);
  GEMMINI_CHECK_MSG(!Pte{mem_.read_scalar<std::uint64_t>(slot)}.valid(),
                    "map_page: VA 0x" << std::hex << va << std::dec
                                      << " is already mapped");
  mem_.write_scalar<std::uint64_t>(slot, Pte::make(pa, /*leaf=*/true).raw);
  ++mapped_pages_;
}

VAddr AddressSpace::alloc(std::uint64_t bytes) {
  if (bytes == 0) bytes = 1;
  const VAddr base = next_va_;
  const VAddr end = base + bytes;
  VAddr va = page_base(base);
  // base is always page-aligned by construction (we bump in page units),
  // but keep the loop robust to future sub-page packing.
  for (; va < end; va += kPageBytes) {
    map_page(va, frames_.alloc_frame());
  }
  next_va_ = va;
  return base;
}

PAddr AddressSpace::pte_addr(VAddr va, unsigned level) const {
  GEMMINI_CHECK(level < kPtLevels);
  PAddr table = root_;
  for (unsigned l = 0; l < level; ++l) {
    const PAddr slot = table + vpn_slice(va, l) * sizeof(std::uint64_t);
    Pte pte{mem_.read_scalar<std::uint64_t>(slot)};
    GEMMINI_CHECK_MSG(pte.valid() && !pte.leaf(),
                      "pte_addr walk hit invalid entry");
    table = pte.target();
  }
  return table + vpn_slice(va, level) * sizeof(std::uint64_t);
}

PAddr AddressSpace::translate(VAddr va) const {
  PAddr table = root_;
  for (unsigned level = 0;; ++level) {
    const PAddr slot = table + vpn_slice(va, level) * sizeof(std::uint64_t);
    Pte pte{mem_.read_scalar<std::uint64_t>(slot)};
    GEMMINI_CHECK_MSG(pte.valid(), "page fault: unmapped VA");
    if (pte.leaf()) {
      GEMMINI_CHECK_MSG(level == kPtLevels - 1, "superpages not supported");
      return pte.target() | page_offset(va);
    }
    table = pte.target();
  }
}

void AddressSpace::write_virt(VAddr va, const void* src,
                              std::size_t bytes) const {
  const auto* p = static_cast<const std::uint8_t*>(src);
  while (bytes > 0) {
    const std::size_t chunk =
        std::min<std::size_t>(bytes, kPageBytes - page_offset(va));
    mem_.write(translate(va), p, chunk);
    va += chunk;
    p += chunk;
    bytes -= chunk;
  }
}

void AddressSpace::read_virt(VAddr va, void* dst, std::size_t bytes) const {
  auto* p = static_cast<std::uint8_t*>(dst);
  while (bytes > 0) {
    const std::size_t chunk =
        std::min<std::size_t>(bytes, kPageBytes - page_offset(va));
    mem_.read(translate(va), p, chunk);
    va += chunk;
    p += chunk;
    bytes -= chunk;
  }
}

}  // namespace gemmini
