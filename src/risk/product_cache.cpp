#include "risk/product_cache.h"

#include <climits>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace wfire::risk {

int ProductCache::env_capacity() {
  constexpr int kDefault = 32;
  const char* s = std::getenv("WFIRE_RISK_CACHE");
  if (s == nullptr || *s == '\0') return kDefault;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == nullptr || *end != '\0') return kDefault;
  // strtol saturates out-of-range values to LONG_MIN/LONG_MAX, which the
  // clamp maps to 1 and INT_MAX like any other value beyond int.
  if (v < 1) return 1;
  return v > INT_MAX ? INT_MAX : static_cast<int>(v);
}

ProductCache::ProductCache(int capacity)
    : capacity_(capacity >= 1 ? capacity : 1) {}

void ProductCache::count_fetch(std::uint64_t key) {
  ++counts_[key];
  if (++fetches_since_aging_ < 10 * static_cast<std::int64_t>(capacity_))
    return;
  fetches_since_aging_ = 0;
  for (auto it = counts_.begin(); it != counts_.end();)
    it = (it->second /= 2) == 0 ? counts_.erase(it) : std::next(it);
}

std::int64_t ProductCache::count_of(std::uint64_t key) const {
  const auto it = counts_.find(key);
  return it == counts_.end() ? 0 : it->second;
}

std::shared_ptr<const BurnProbabilityGrid> ProductCache::fetch(
    const serve::ScenarioSpec& base, const PerturbationSpec& pert,
    const SweepOptions& opt) {
  const std::uint64_t key = product_key(base, pert, opt);

  std::shared_future<Product> fut;
  std::promise<Product> prom;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    count_fetch(key);
    if (const auto it = index_.find(key); it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      return it->second->grid;
    }
    ++misses_;
    if (const auto fit = inflight_.find(key); fit != inflight_.end()) {
      fut = fit->second;  // join the in-flight compute
    } else {
      leader = true;
      ++sweeps_;
      fut = prom.get_future().share();
      inflight_.emplace(key, fut);
    }
  }

  if (!leader) return fut.get();  // rethrows the leader's failure

  Product grid;
  try {
    SweepDriver driver(base, pert, opt);
    grid = std::make_shared<const BurnProbabilityGrid>(driver.run());
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    prom.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    bool keep = static_cast<int>(lru_.size()) < capacity_;
    if (!keep && count_of(key) > count_of(lru_.back().key)) {
      index_.erase(lru_.back().key);
      lru_.pop_back();  // clients holding the pointer keep the grid alive
      ++evictions_;
      keep = true;
    }
    if (keep) {
      lru_.push_front(Entry{key, grid});
      index_[key] = lru_.begin();
    } else {
      ++rejections_;
    }
  }
  prom.set_value(grid);
  return grid;
}

long ProductCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

long ProductCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

long ProductCache::sweeps_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sweeps_;
}

long ProductCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

long ProductCache::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

int ProductCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(lru_.size());
}

int ProductCache::counted_keys() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(counts_.size());
}

}  // namespace wfire::risk
