#ifndef OIR_UTIL_THREAD_SLOT_H_
#define OIR_UTIL_THREAD_SLOT_H_

// Per-thread slot numbers for striping shared state by thread, so that hot
// paths write only cache lines their own thread owns: the counter stripes
// (util/counters.h), the table lock's reader slots (sync/table_lock.h) and
// the wait-state aggregates (obs/waitstate.cc). Threads are numbered in the
// order they first ask, so up to kThreadSlots threads get distinct slots;
// past that, slots are shared. Striped state must tolerate sharing: it
// updates its slot with atomic read-modify-writes, never by ownership.

#include <atomic>
#include <cstddef>

namespace oir {

constexpr size_t kCacheLineSize = 64;
constexpr size_t kThreadSlots = 64;

inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
  return slot;
}

}  // namespace oir

#endif  // OIR_UTIL_THREAD_SLOT_H_
