#include "la/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wfire::la {

namespace {

int clamp_block(int nb) { return nb < 8 ? 8 : (nb > 1024 ? 1024 : nb); }

Backend backend_from_env() {
  const char* s = std::getenv("WFIRE_LA_BACKEND");
  if (!s || std::strcmp(s, "blocked") == 0) return Backend::kBlocked;
  if (std::strcmp(s, "reference") == 0 || std::strcmp(s, "naive") == 0)
    return Backend::kReference;
  // A typo here would silently invalidate backend comparisons — say so.
  std::fprintf(stderr,
               "wfire: unrecognized WFIRE_LA_BACKEND='%s' "
               "(expected 'blocked' or 'reference'); using blocked\n",
               s);
  return Backend::kBlocked;
}

// Relaxed atomics: the backend is set during startup or between test cases,
// never concurrently with kernel calls, but TSan-instrumented suites flip it
// while worker threads from earlier phases may still be parked in the pool.
std::atomic<Backend>& backend_flag() {
  static std::atomic<Backend> b{backend_from_env()};
  return b;
}

std::atomic<int>& block_flag() {
  static std::atomic<int> nb{64};
  return nb;
}

}  // namespace

Backend backend() { return backend_flag().load(std::memory_order_relaxed); }

void set_backend(Backend b) {
  backend_flag().store(b, std::memory_order_relaxed);
}

int block_size() { return block_flag().load(std::memory_order_relaxed); }

void set_block_size(int nb) {
  block_flag().store(clamp_block(nb), std::memory_order_relaxed);
}

}  // namespace wfire::la
