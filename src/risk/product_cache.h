// The serving layer of the risk product: a bounded LRU cache of finished
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
//  - The cache lock is never held while a sweep runs; only the map/LRU
//    bookkeeping is under it. A failing sweep propagates its exception to
//    the leader and every waiter, and leaves no cache entry behind.
//  - Capacity is in products (default 32, env override WFIRE_RISK_CACHE,
//    clamped to >= 1); least-recently-fetched products evict first.
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
  [[nodiscard]] int size() const;
  [[nodiscard]] int capacity() const { return capacity_; }

  // WFIRE_RISK_CACHE, default 32, clamped to >= 1.
  [[nodiscard]] static int env_capacity();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const BurnProbabilityGrid> grid;
  };
  using Product = std::shared_ptr<const BurnProbabilityGrid>;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently fetched
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<std::uint64_t, std::shared_future<Product>> inflight_;
  int capacity_;
  long hits_ = 0, misses_ = 0, sweeps_ = 0;
};

}  // namespace wfire::risk
