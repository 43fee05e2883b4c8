#include "src/vm/tlb.h"

#include <algorithm>
#include <limits>

namespace gemmini {

Tlb::Tlb(const TlbConfig& cfg)
    : cfg_((cfg.validate(), cfg)),
      num_sets_(cfg_.ways == 0 ? 1 : cfg_.entries / cfg_.ways),
      set_ways_(cfg_.ways == 0 ? cfg_.entries : cfg_.ways),
      keys_(cfg_.entries, 0),
      ppn_(cfg_.entries, 0),
      lru_(cfg_.entries, 0) {}

std::optional<std::uint64_t> Tlb::lookup(std::uint64_t vpn, bool is_write) {
  // Consecutive same-page profiling (pre-lookup, per request stream).
  if (is_write) {
    ++stats_.write_requests;
    if (have_last_write_ && last_write_vpn_ == vpn) ++stats_.write_same_page;
    have_last_write_ = true;
    last_write_vpn_ = vpn;
  } else {
    ++stats_.read_requests;
    if (have_last_read_ && last_read_vpn_ == vpn) ++stats_.read_same_page;
    have_last_read_ = true;
    last_read_vpn_ = vpn;
  }

  // Last-page fast path: a one-entry filter per request stream in front of
  // the set scan. Same-page streaks resolve against the remembered entry
  // directly; the entry is re-validated (flush / eviction / refill may have
  // replaced it), and all architectural bookkeeping — hit counters, LRU
  // refresh — is identical to the scanning path, so timing and statistics
  // are unchanged.
  LastHit& last = is_write ? last_write_hit_ : last_read_hit_;
  const std::uint64_t key = vpn + 1;
  if (last.valid && last.vpn == vpn) {
    if (keys_[last.idx] == key) {
      lru_[last.idx] = ++lru_clock_;
      ++stats_.hits;
      ++stats_.fastpath_hits;
      return ppn_[last.idx];
    }
    last.valid = false;  // stale: entry was evicted or remapped
  }

  const std::size_t base = num_sets_.mod(vpn) * set_ways_;
  ++lru_clock_;
  for (std::size_t i = base; i < base + set_ways_; ++i) {
    if (keys_[i] == key) {
      lru_[i] = lru_clock_;
      ++stats_.hits;
      last.valid = true;
      last.vpn = vpn;
      last.idx = i;
      return ppn_[i];
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void Tlb::fill(std::uint64_t vpn, std::uint64_t ppn) {
  const std::size_t base = num_sets_.mod(vpn) * set_ways_;
  const std::size_t end = base + set_ways_;
  const std::uint64_t key = vpn + 1;
  ++lru_clock_;
  // Refresh in place, else the first invalid entry, else the LRU one.
  std::size_t victim = end;
  for (std::size_t i = base; i < end; ++i) {
    if (keys_[i] == key) {
      victim = i;
      break;
    }
    if (keys_[i] == 0 && victim == end) victim = i;
  }
  if (victim == end) {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = base; i < end; ++i) {
      if (lru_[i] < oldest) {
        oldest = lru_[i];
        victim = i;
      }
    }
  }
  keys_[victim] = key;
  ppn_[victim] = ppn;
  lru_[victim] = lru_clock_;
}

void Tlb::flush() {
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(ppn_.begin(), ppn_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  have_last_read_ = have_last_write_ = false;
  // Shootdown also drops the last-page filters: the remembered entries are
  // gone, and a post-flush streak must re-walk like the RTL would.
  last_read_hit_ = LastHit{};
  last_write_hit_ = LastHit{};
}

double Tlb::consecutive_same_page_rate(bool writes) const {
  const std::uint64_t total =
      writes ? stats_.write_requests : stats_.read_requests;
  const std::uint64_t same =
      writes ? stats_.write_same_page : stats_.read_same_page;
  return total <= 1 ? 0.0
                    : static_cast<double>(same) /
                          static_cast<double>(total - 1);
}

}  // namespace gemmini
