#ifndef OIR_UTIL_COUNTERS_H_
#define OIR_UTIL_COUNTERS_H_

// Global event counters used to account for the cost drivers the paper
// discusses: latch-manager and lock-manager calls, log volume, page I/O and
// level-1 page visits (Section 4.3, Section 6.4). Benchmarks snapshot and
// reset these around measured regions.
//
// The counters are striped by thread: an increment goes to the calling
// thread's stripe (GlobalCounters::Local()), one cache-line-aligned block
// per thread slot (util/thread_slot.h), so a hot path bumping a counter
// writes no cache line another thread writes. Snapshot() and Reset() run
// over every stripe; a stripe outlives the threads that wrote it, so the
// counts of exited threads stay in the totals. A gauge (e.g.
// wal_inflight_bytes) may be raised on one thread and lowered on another:
// its stripes wrap, their sum does not.
//
// The field set is defined once, in OIR_COUNTER_FIELDS; the snapshot
// struct, the stripe struct, operator-, Snapshot(), Reset(), ToString() and
// the visitor are all generated from it, so they cannot drift.

#include <atomic>
#include <cstdint>
#include <string>

#include "util/thread_slot.h"

namespace oir {

// V(name) for every counter. Add new counters here and nowhere else.
#define OIR_COUNTER_FIELDS(V) \
  V(latch_acquires)           \
  V(latch_waits)              \
  V(lock_requests)            \
  V(lock_waits)               \
  V(lock_watchdog_fires)      \
  V(cond_lock_failures)       \
  V(log_records)              \
  V(log_bytes)                \
  V(pages_read)               \
  V(pages_written)            \
  V(io_ops)                   \
  V(io_read_ops)              \
  V(io_write_ops)             \
  V(level1_visits)            \
  V(traversal_restarts)       \
  V(blocked_traversals)       \
  V(pool_hits)                \
  V(pool_misses)              \
  V(pool_evictions)           \
  V(pool_writebacks)          \
  V(pool_prefetched)          \
  V(log_flush_calls)          \
  V(log_fsyncs)               \
  V(log_commits_acked)        \
  V(log_groups_acked)         \
  V(wal_segments_sealed)      \
  V(wal_segments_completed)   \
  V(wal_inflight_bytes)       \
  V(pool_wb_enqueued)         \
  V(pool_wb_async_writes)     \
  V(flight_records_dumped)

struct CounterSnapshot {
#define OIR_COUNTER_DECL(name) uint64_t name = 0;
  OIR_COUNTER_FIELDS(OIR_COUNTER_DECL)
#undef OIR_COUNTER_DECL

  CounterSnapshot operator-(const CounterSnapshot& b) const {
    CounterSnapshot r;
#define OIR_COUNTER_SUB(name) r.name = name - b.name;
    OIR_COUNTER_FIELDS(OIR_COUNTER_SUB)
#undef OIR_COUNTER_SUB
    return r;
  }

  // Calls fn(name, value) for every field, in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define OIR_COUNTER_VISIT(name) fn(#name, name);
    OIR_COUNTER_FIELDS(OIR_COUNTER_VISIT)
#undef OIR_COUNTER_VISIT
  }

  std::string ToString() const;
};

// One thread slot's counters. Written by the threads mapped to the slot.
struct alignas(kCacheLineSize) CounterStripe {
#define OIR_COUNTER_DECL(name) std::atomic<uint64_t> name{0};
  OIR_COUNTER_FIELDS(OIR_COUNTER_DECL)
#undef OIR_COUNTER_DECL
};

class GlobalCounters {
 public:
  static GlobalCounters& Get();

  // The calling thread's stripe: count events here, e.g.
  // GlobalCounters::Local().pool_hits.fetch_add(1, relaxed).
  static CounterStripe& Local() { return Get().stripes_[ThreadSlot()]; }

  // Sums every stripe. Not a point-in-time cut across threads: increments
  // racing with the sum may or may not be in it.
  CounterSnapshot Snapshot() const;
  void Reset();

 private:
  GlobalCounters() = default;

  CounterStripe stripes_[kThreadSlots];
};

}  // namespace oir

#endif  // OIR_UTIL_COUNTERS_H_
