// Differential geometry tests for the substrate's constant-time index math.
//
// Cache sets, TLB sets, bus widths, DRAM rows/channels/banks and scratchpad/
// accumulator bank rows divide through a Divisor, which takes a shift/mask
// path for power-of-two geometry and a division path otherwise. Each test
// drives one access sequence through a power-of-two instance and a
// non-power-of-two instance and checks both against a plain reference model
// written with ordinary division and array-of-structs state.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "src/accel/accumulator.h"
#include "src/accel/scratchpad.h"
#include "src/base/divisor.h"
#include "src/base/rng.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/vm/tlb.h"

namespace gemmini {
namespace {

TEST(Divisor, MatchesDivisionForEveryGeometry) {
  Rng rng(3);
  for (std::uint64_t d : {1ull, 2ull, 3ull, 16ull, 24ull, 48ull, 64ull, 768ull,
                          1024ull, 2048ull}) {
    const Divisor div(d);
    EXPECT_EQ(div.power_of_two(), (d & (d - 1)) == 0) << d;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t x = rng.next_u64() >> (i % 40);
      ASSERT_EQ(div.div(x), x / d) << x << " / " << d;
      ASSERT_EQ(div.mod(x), x % d) << x << " % " << d;
      ASSERT_EQ(div.div_ceil(x), (x + d - 1) / d) << x << " / " << d;
    }
  }
}

// ---- L2 cache --------------------------------------------------------------

/// The cache as first written: one struct per way, division for the index.
class RefCache {
 public:
  RefCache(std::uint64_t sets, unsigned ways, unsigned line)
      : sets_(sets), ways_(ways), line_(line), lines_(sets * ways) {}

  CacheAccess access(PAddr addr, bool write) {
    const std::uint64_t ln = addr / line_;
    const std::uint64_t set = ln % sets_, tag = ln / sets_;
    Line* base = &lines_[set * ways_];
    CacheAccess r;
    ++clock_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = clock_;
        base[w].dirty = base[w].dirty || write;
        r.hit = true;
        return r;
      }
    }
    Line* victim = nullptr;
    for (unsigned w = 0; w < ways_ && victim == nullptr; ++w) {
      if (!base[w].valid) victim = &base[w];
    }
    if (victim == nullptr) {
      victim = &base[0];
      for (unsigned w = 1; w < ways_; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
      if (victim->dirty) {
        r.writeback = true;
        r.victim_line = (victim->tag * sets_ + set) * line_;
      }
    }
    *victim = Line{true, write, tag, clock_};
    return r;
  }

  bool resident(PAddr addr) const {
    const std::uint64_t ln = addr / line_;
    const Line* base = &lines_[(ln % sets_) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == ln / sets_) return true;
    }
    return false;
  }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
  };
  std::uint64_t sets_;
  unsigned ways_;
  unsigned line_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

void check_cache_against_reference(unsigned sets) {
  SCOPED_TRACE(testing::Message() << sets << " sets");
  constexpr unsigned kWays = 4, kLine = 64;
  CacheConfig cfg;
  cfg.ways = kWays;
  cfg.line_bytes = kLine;
  cfg.size_bytes = static_cast<std::uint64_t>(sets) * kWays * kLine;
  Cache cache(cfg);
  RefCache ref(sets, kWays, kLine);
  ASSERT_EQ(cache.config().num_sets(), sets);

  // A hot region that mostly hits, a cold one 4x the capacity that evicts,
  // and a large-stride stream that camps on a few sets.
  Rng rng(sets);
  const std::uint64_t cap = cfg.size_bytes;
  std::set<PAddr> touched;
  std::uint64_t hits = 0, misses = 0, writebacks = 0;
  for (int i = 0; i < 60000; ++i) {
    PAddr a;
    switch (rng.next_below(3)) {
      case 0: a = 0x8000'0000ull + rng.next_below(cap / 4); break;
      case 1: a = 0x9000'0000ull + rng.next_below(4 * cap); break;
      default: a = 0xA000'0000ull + rng.next_below(64) * 4096 * sets; break;
    }
    const bool write = rng.next_below(3) == 0;
    touched.insert(a & ~static_cast<PAddr>(kLine - 1));
    const CacheAccess got = cache.access_line(a, write, RequestorId{0});
    const CacheAccess want = ref.access(a, write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    if (want.writeback) {
      ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
    }
    hits += want.hit;
    misses += !want.hit;
    writebacks += want.writeback;
    if (i % 5000 == 4999) {
      // Residency over every line touched so far pins the LRU victims and
      // the occupancy, clean evictions included.
      std::size_t occupancy = 0;
      for (PAddr line : touched) {
        ASSERT_EQ(cache.probe(line), ref.resident(line)) << std::hex << line;
        occupancy += ref.resident(line);
      }
      EXPECT_LE(occupancy, static_cast<std::size_t>(sets) * kWays);
    }
  }
  EXPECT_EQ(cache.stats().hits, hits);
  EXPECT_EQ(cache.stats().misses, misses);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(writebacks, 0u);
}

TEST(GeometryDifferential, CachePowerOfTwoSets) {
  check_cache_against_reference(64);
}

TEST(GeometryDifferential, CacheNonPowerOfTwoSets) {
  check_cache_against_reference(48);
}

// ---- TLB -------------------------------------------------------------------

/// The TLB as first written: one struct per entry, modulo set index, no
/// last-page filter.
class RefTlb {
 public:
  RefTlb(unsigned entries, unsigned ways)
      : sets_(ways == 0 ? 1 : entries / ways),
        ways_(ways == 0 ? entries : ways),
        entries_(entries) {}

  std::optional<std::uint64_t> lookup(std::uint64_t vpn) {
    Entry* base = &entries_[(vpn % sets_) * ways_];
    ++clock_;
    for (unsigned w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].vpn == vpn) {
        base[w].lru = clock_;
        return base[w].ppn;
      }
    }
    return std::nullopt;
  }

  void fill(std::uint64_t vpn, std::uint64_t ppn) {
    Entry* base = &entries_[(vpn % sets_) * ways_];
    ++clock_;
    Entry* victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].vpn == vpn) {
        victim = &base[w];
        break;
      }
      if (!base[w].valid && victim == nullptr) victim = &base[w];
    }
    if (victim == nullptr) {
      victim = &base[0];
      for (unsigned w = 1; w < ways_; ++w) {
        if (base[w].lru < victim->lru) victim = &base[w];
      }
    }
    *victim = Entry{true, vpn, ppn, clock_};
  }

  std::size_t occupancy() const {
    return static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(),
                      [](const Entry& e) { return e.valid; }));
  }

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t vpn = 0;
    std::uint64_t ppn = 0;
    std::uint64_t lru = 0;
  };
  std::uint64_t sets_;
  unsigned ways_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
};

void check_tlb_against_reference(unsigned entries, unsigned ways) {
  SCOPED_TRACE(testing::Message() << entries << " entries, " << ways
                                  << " ways");
  Tlb tlb(TlbConfig{.entries = entries, .ways = ways, .hit_latency = 4});
  RefTlb ref(entries, ways);
  Rng rng(entries * 31 + ways);
  std::uint64_t hits = 0, misses = 0;
  std::uint64_t vpn = 0x100000;
  std::set<std::uint64_t> filled;
  for (int i = 0; i < 40000; ++i) {
    // Same-page streaks (the last-page filter's case) mixed with jumps over
    // a working set a few times the TLB's reach.
    if (rng.next_below(4) == 0) {
      vpn = 0x100000 + rng.next_below(4 * entries);
    }
    const bool write = rng.next_below(2) == 0;
    const auto got = tlb.lookup(vpn, write);
    const auto want = ref.lookup(vpn);
    ASSERT_EQ(got, want) << "lookup " << i << " vpn " << vpn;
    if (want) {
      ++hits;
    } else {
      ++misses;
      tlb.fill(vpn, vpn * 7 + 1);
      ref.fill(vpn, vpn * 7 + 1);
      filled.insert(vpn);
    }
  }
  EXPECT_EQ(tlb.stats().hits, hits);
  EXPECT_EQ(tlb.stats().misses, misses);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, entries);
  // Occupancy: every entry is full by now, and a probe of every page ever
  // filled resolves exactly the resident ones.
  EXPECT_EQ(ref.occupancy(), entries);
  std::size_t resident = 0;
  for (std::uint64_t v : filled) {
    const auto got = tlb.lookup(v, false);
    ASSERT_EQ(got, ref.lookup(v)) << "probe vpn " << v;
    resident += got.has_value();
  }
  EXPECT_EQ(resident, entries);
}

TEST(GeometryDifferential, TlbPowerOfTwoSets) {
  check_tlb_against_reference(16, 4);  // 4 sets
}

TEST(GeometryDifferential, TlbNonPowerOfTwoSets) {
  check_tlb_against_reference(12, 4);  // 3 sets
}

TEST(GeometryDifferential, TlbFullyAssociative) {
  check_tlb_against_reference(16, 0);
}

// ---- Bus -------------------------------------------------------------------

void check_bus_against_reference(unsigned width) {
  SCOPED_TRACE(testing::Message() << width << "-byte bus");
  Bus bus(BusConfig{.width_bytes = width});
  Rng rng(width);
  Cycle t = 0, busy_until = 0;
  std::uint64_t busy = 0, wait = 0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.next_below(8);
    const std::uint64_t bytes = 1 + rng.next_below(200);
    const int requestor = static_cast<int>(rng.next_below(3));
    const Cycle start = std::max(t, busy_until);
    wait += start - t;
    const Cycle occupancy = (bytes + width - 1) / width;
    busy_until = start + occupancy;
    busy += occupancy;
    ASSERT_EQ(bus.transfer(t, bytes, RequestorId{requestor}), busy_until)
        << "transfer " << i;
  }
  EXPECT_EQ(bus.stats().busy_cycles, busy);
  std::uint64_t bus_wait = 0;
  for (const Bus::RequestorStats& rs : bus.requestor_stats()) {
    bus_wait += rs.wait_cycles;
  }
  EXPECT_EQ(bus_wait, wait);
}

TEST(GeometryDifferential, BusPowerOfTwoWidth) {
  check_bus_against_reference(16);
}

TEST(GeometryDifferential, BusNonPowerOfTwoWidth) {
  check_bus_against_reference(24);
}

TEST(GeometryDifferential, BusRequestorTableKeepsFirstSeenOrder) {
  Bus bus(BusConfig{});
  for (int id : {7, 100, 7, 7, 3, 100, 3, 7}) {
    bus.transfer(0, 16, RequestorId{id});
  }
  std::vector<int> order;
  for (const Bus::RequestorStats& rs : bus.requestor_stats()) {
    order.push_back(rs.requestor);
  }
  EXPECT_EQ(order, (std::vector<int>{7, 100, 3}));
  bus.reset_time();
  for (int id : {3, 3, 7}) bus.transfer(0, 16, RequestorId{id});
  ASSERT_EQ(bus.requestor_stats().size(), 2u);
  EXPECT_EQ(bus.requestor_stats()[0].requestor, 3);
  EXPECT_EQ(bus.requestor_stats()[0].transfers, 2u);
  EXPECT_EQ(bus.requestor_stats()[1].requestor, 7);
}

// ---- DRAM address mapping --------------------------------------------------

TEST(GeometryDifferential, DramChannelAndBankMapping) {
  for (const auto& [channels, banks] :
       {std::pair{2u, 8u}, std::pair{3u, 6u}, std::pair{4u, 5u}}) {
    for (DramInterleave il : {DramInterleave::kRow, DramInterleave::kCacheline,
                              DramInterleave::kXorFold}) {
      DramConfig cfg;
      cfg.channels = channels;
      cfg.banks = banks;
      cfg.interleave = il;
      const Dram dram(cfg);
      Rng rng(channels * 10 + banks);
      for (int i = 0; i < 5000; ++i) {
        const PAddr a = rng.next_below(1ull << 36);
        std::uint64_t ch = 0;
        switch (il) {
          case DramInterleave::kRow:
            ch = (a / cfg.row_bytes) % channels;
            break;
          case DramInterleave::kCacheline:
            ch = (a / cfg.interleave_bytes) % channels;
            break;
          case DramInterleave::kXorFold: {
            const std::uint64_t blk = a / cfg.interleave_bytes;
            std::uint64_t h = blk;
            for (unsigned s = 2; s < 34; s += 2) h ^= blk >> s;
            ch = h % channels;
            break;
          }
        }
        const std::uint64_t row = a / cfg.row_bytes;
        std::uint64_t h = row;
        for (unsigned s = 3; s < 36; s += 3) h ^= row >> s;
        ASSERT_EQ(dram.channel_of(a), ch) << std::hex << a;
        ASSERT_EQ(dram.bank_of(a), h % banks) << std::hex << a;
      }
    }
  }
}

// ---- Scratchpad / accumulator banks ----------------------------------------

/// Reference banked SRAM timing: reserve() as first written.
struct RefBanks {
  RefBanks(std::uint64_t bank_rows, unsigned banks)
      : bank_rows(bank_rows), busy(banks, 0) {}
  Cycle reserve(std::uint64_t row, std::uint64_t nrows, Cycle t,
                Cycle cycles) {
    const std::uint64_t first = row / bank_rows;
    const std::uint64_t last = (row + nrows - 1) / bank_rows;
    Cycle start = t;
    for (std::uint64_t b = first; b <= last; ++b) {
      start = std::max(start, busy[b]);
    }
    for (std::uint64_t b = first; b <= last; ++b) busy[b] = start + cycles;
    return start + cycles;
  }
  std::uint64_t bank_rows;
  std::vector<Cycle> busy;
};

template <typename Sram>
void check_banks_against_reference(Sram& sram, std::uint64_t rows,
                                   std::uint64_t bank_rows, unsigned banks) {
  SCOPED_TRACE(testing::Message() << bank_rows << " rows per bank");
  for (std::uint64_t r = 0; r < rows; ++r) {
    ASSERT_EQ(sram.bank_of(r), r / bank_rows) << "row " << r;
  }
  RefBanks ref(bank_rows, banks);
  Rng rng(bank_rows);
  Cycle t = 0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.next_below(20);
    const std::uint64_t nrows = 1 + rng.next_below(40);
    const std::uint64_t row = rng.next_below(rows - nrows + 1);
    const Cycle cycles = 1 + rng.next_below(16);
    ASSERT_EQ(sram.reserve(row, nrows, t, cycles),
              ref.reserve(row, nrows, t, cycles))
        << "reservation " << i;
  }
}

TEST(GeometryDifferential, ScratchpadBankRows) {
  for (std::uint64_t bank_rows : {1024ull, 768ull}) {
    GemminiConfig cfg = GemminiConfig::paper_default();
    cfg.sp_banks = 4;
    cfg.sp_capacity_bytes = cfg.sp_banks * bank_rows * cfg.sp_row_bytes();
    cfg.validate();
    ASSERT_EQ(cfg.sp_bank_rows(), bank_rows);
    Scratchpad sp(cfg);
    check_banks_against_reference(sp, sp.rows(), bank_rows, cfg.sp_banks);
  }
}

TEST(GeometryDifferential, AccumulatorBankRows) {
  for (std::uint64_t bank_rows : {512ull, 768ull}) {
    GemminiConfig cfg = GemminiConfig::paper_default();
    cfg.acc_banks = 2;
    cfg.acc_capacity_bytes = cfg.acc_banks * bank_rows * cfg.acc_row_bytes();
    cfg.validate();
    Accumulator acc(cfg);
    ASSERT_EQ(acc.rows(), cfg.acc_banks * bank_rows);
    check_banks_against_reference(acc, acc.rows(), bank_rows, cfg.acc_banks);
  }
}

}  // namespace
}  // namespace gemmini
