// The serving layer of the risk product: a bounded cache of finished
// burn-probability grids keyed by product_key(). What a million users
// actually request is the same product for the same fire over and over —
// repeated fetches are served from the cached grid without re-simulation,
// and concurrent first requests for one product are deduplicated
// (single-flight: one sweep runs, every waiter shares its result).
//
// Ownership and threading contract:
//  - fetch() is safe from any number of threads. Products are handed out as
//    shared_ptr<const BurnProbabilityGrid>: immutable, and they outlive
//    eviction for as long as any client holds the pointer.
//  - The cache lock is never held while a sweep runs; only the map, recency
//    and count bookkeeping is under it. A failing sweep propagates its
//    exception to the leader and every waiter, and leaves no cache entry
//    behind.
//  - Capacity is in products (default 32, env override WFIRE_RISK_CACHE,
//    clamped to [1, INT_MAX]).
//
// Admission and eviction (the one statement of the policy; the docs refer
// here). Frequency-aware admission in front of recency eviction, after
// TinyLFU (Einziger et al., arXiv:1512.00727), deterministic and with no
// knob of its own:
//  - Every fetch, hit or miss, counts its key. Every 10 x capacity fetches
//    all counts halve and zero counts are dropped, so one-off keys are
//    forgotten and the table holds fewer than 20 x capacity keys.
//  - A finished sweep is kept while the cache has room. In a full cache it
//    is kept only if its key's count exceeds that of the least-recently-
//    fetched resident, which it then evicts; otherwise it is served to the
//    leader and its single-flight waiters and not kept (a rejection).
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "risk/sweep.h"

namespace wfire::risk {

class ProductCache {
 public:
  explicit ProductCache(int capacity = env_capacity());

  // The product for (base, pert, opt): served from cache when present,
  // computed by one SweepDriver run otherwise (concurrent misses for the
  // same key share that one run). Execution knobs in `opt` (threads)
  // do not participate in the key — the product is
  // bitwise-independent of them.
  [[nodiscard]] std::shared_ptr<const BurnProbabilityGrid> fetch(
      const serve::ScenarioSpec& base, const PerturbationSpec& pert,
      const SweepOptions& opt);

  [[nodiscard]] long hits() const;        // served from a finished grid
  [[nodiscard]] long misses() const;      // had to compute or join a compute
  [[nodiscard]] long sweeps_run() const;  // actual simulations (<= misses)
  [[nodiscard]] long evictions() const;   // residents dropped for a product
  [[nodiscard]] long rejections() const;  // sweeps served but not kept
  [[nodiscard]] int size() const;
  [[nodiscard]] int capacity() const { return capacity_; }
  // Keys in the frequency table (< 20 x capacity).
  [[nodiscard]] int counted_keys() const;

  // WFIRE_RISK_CACHE, default 32, clamped to [1, INT_MAX].
  [[nodiscard]] static int env_capacity();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const BurnProbabilityGrid> grid;
  };
  using Product = std::shared_ptr<const BurnProbabilityGrid>;

  // Both under mu_.
  void count_fetch(std::uint64_t key);
  [[nodiscard]] std::int64_t count_of(std::uint64_t key) const;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently fetched
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_future<Product>> inflight_;
  std::unordered_map<std::uint64_t, std::int64_t> counts_;
  std::int64_t fetches_since_aging_ = 0;
  int capacity_;
  long hits_ = 0, misses_ = 0, sweeps_ = 0, evictions_ = 0, rejections_ = 0;
};

}  // namespace wfire::risk
