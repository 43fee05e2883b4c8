#include "src/mem/cache.h"

#include <algorithm>
#include <limits>

namespace gemmini {

void CacheConfig::validate() const {
  GEMMINI_CONFIG_REQUIRE(line_bytes >= 8 && (line_bytes & (line_bytes - 1)) == 0,
                         "cache line size must be a power of two >= 8, got "
                             << line_bytes);
  GEMMINI_CONFIG_REQUIRE(ways >= 1, "cache must have at least 1 way");
  GEMMINI_CONFIG_REQUIRE(size_bytes % (static_cast<std::uint64_t>(ways) * line_bytes) == 0,
                         "cache size " << size_bytes
                                       << " not divisible by ways*line");
  GEMMINI_CONFIG_REQUIRE(num_sets() >= 1, "cache must have at least 1 set");
}

Cache::Cache(const CacheConfig& cfg)
    : cfg_((cfg.validate(), cfg)),
      line_bytes_(cfg_.line_bytes),
      num_sets_(cfg_.num_sets()),
      ways_(cfg_.ways),
      keys_(num_sets_.value() * ways_, 0),
      lru_(keys_.size(), 0),
      dirty_(keys_.size(), 0) {}

CacheAccess Cache::access_line(PAddr addr, bool write, RequestorId requestor) {
  (void)requestor;
  const std::uint64_t line = line_bytes_.div(addr);
  const std::uint64_t set = num_sets_.mod(line);
  const std::uint64_t key = num_sets_.div(line) + 1;
  const std::size_t base = set * ways_;
  const std::uint64_t* keys = &keys_[base];

  CacheAccess result;
  ++lru_clock_;

  // Hit path; remember the first invalid way on the way through.
  unsigned victim = ways_;
  for (unsigned w = 0; w < ways_; ++w) {
    if (keys[w] == key) {
      lru_[base + w] = lru_clock_;
      dirty_[base + w] |= static_cast<std::uint8_t>(write);
      ++stats_.hits;
      result.hit = true;
      return result;
    }
    if (keys[w] == 0 && victim == ways_) victim = w;
  }

  // Miss: the first invalid way, else the LRU victim.
  ++stats_.misses;
  if (victim == ways_) {
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < ways_; ++w) {
      if (lru_[base + w] < oldest) {
        oldest = lru_[base + w];
        victim = w;
      }
    }
    if (dirty_[base + victim]) {
      result.writeback = true;
      result.victim_line =
          ((keys[victim] - 1) * num_sets_.value() + set) * cfg_.line_bytes;
    }
  }

  keys_[base + victim] = key;
  dirty_[base + victim] = static_cast<std::uint8_t>(write);
  lru_[base + victim] = lru_clock_;
  return result;
}

bool Cache::probe(PAddr addr) const {
  const std::uint64_t line = line_bytes_.div(addr);
  const std::uint64_t key = num_sets_.div(line) + 1;
  const std::uint64_t* keys = &keys_[num_sets_.mod(line) * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    if (keys[w] == key) return true;
  }
  return false;
}

void Cache::flush() {
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  std::fill(dirty_.begin(), dirty_.end(), 0);
}

}  // namespace gemmini
