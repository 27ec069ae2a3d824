#ifndef OIR_OBS_WAITSTATE_H_
#define OIR_OBS_WAITSTATE_H_

// The instrumentation primitive: one RAII Span per instrumented section,
// behind one switch (WaitProfiler::SetEnabled, default off).
//
// Every span site is declared once, in OIR_SPAN_SITES. On exit a span
//   - closes its wait-state segment, if its site classifies a wait;
//   - for timed sites, records its elapsed nanoseconds into the site's
//     latency histogram (the "timers" section of DumpStatsJson);
//   - for traced sites, has written a begin record on entry and writes an
//     end record now, so a span still open shows up in a flight-record
//     bundle and a closed one becomes a chrome://tracing slice.
// With the switch off a span costs one relaxed load and reads no clock. The
// instant OIR_TRACE events (obs/trace.h) sit behind the same switch.
//
// Wait-state model: each thread owns a set of monotone per-state
// accumulators and a current state. A wait span switches the thread into
// its state for the duration of the blocking section; nested waits fold
// into the outermost one (the outermost classification wins — a WAL flush
// performed while waiting for a latch is still latch wait from the
// operation's point of view). OpScope brackets one logical operation (point
// read, write, commit, rebuild batch): it snapshots the accumulators on
// entry and records the deltas — including measured RUNNING time — into a
// global per-operation-type aggregate on exit. Because every transition
// closes the current segment into an accumulator, the per-state components
// of an operation sum to its wall-clock exactly; the bench asserts >= 95%
// only to leave room for snapshot races.
//
// This header is included from sync/latch.h and therefore stays minimal:
// atomics only — no sync/mutex.h, no histogram. The enabled paths live in
// waitstate.cc.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace oir::obs {

// Order is the dump order; kRunning must stay first.
enum class WaitState : uint8_t {
  kRunning = 0,
  kLatchWait,       // page latch (Latch::LockS/LockX blocked path)
  kLockWait,        // lock-manager CV wait
  kWalCommitWait,   // LogManager::FlushTo (group-commit wait or sync write)
  kIoWait,          // buffer-pool miss / eviction / frame-loading wait
  kThrottled,       // admission control (rebuild pacing)
  kNumStates,
};

enum class OpType : uint8_t {
  kRead = 0,
  kWrite,
  kCommit,
  kRebuild,
  kOther,
  kNumTypes,
};

// What a site's span feeds besides its wait state: kTimed records the
// elapsed time into the site's latency histogram, kTraced writes begin/end
// trace records. kSampled marks a hot-path site (several per operation):
// its spans time one section in 16 per thread, chosen at random, so its
// histogram is a uniform sample — the count is the sections timed — and
// the other 15 cost the profiler-on path no clock read.
enum SpanSinks : uint8_t { kTimed = 1, kTraced = 2, kSampled = 4 };

// X(id, name, wait state it classifies (kRunning: none), sinks).
// Add span sites here and nowhere else.
#define OIR_SPAN_SITES(X)                                                     \
  X(kPoolFetch, "pool.fetch_ns", kRunning, kTimed | kSampled)                 \
  X(kPoolRead, "pool.read_ns", kIoWait, kTimed)                               \
  X(kPoolWrite, "pool.write_ns", kIoWait, kTimed)                             \
  X(kPoolWait, "pool.wait_ns", kIoWait, kTimed)                               \
  X(kLatchWait, "latch.wait_ns", kLatchWait, kTimed)                          \
  X(kLockAcquire, "lock.acquire_ns", kRunning, kTimed | kSampled)             \
  X(kLockWait, "lock.wait_ns", kLockWait, kTimed | kTraced)                   \
  X(kBtreeTraverse, "btree.traverse_ns", kRunning, kTimed | kSampled)         \
  X(kWalAppend, "wal.append_ns", kRunning, kTimed | kSampled)                 \
  X(kWalFlushWait, "wal.flush_wait_ns", kWalCommitWait, kTimed)               \
  X(kWalCommitAck, "wal.commit_ack_ns", kRunning, kTimed)                     \
  X(kWalSegmentIo, "wal.segment_io_ns", kRunning, kTimed)                     \
  X(kWalDrain, "wal.drain_ns", kIoWait, kTimed)                               \
  X(kRebuildTopAction, "rebuild.top_action", kRunning, kTraced)               \
  X(kRebuildCopy, "rebuild.copy_ns", kRunning, kTimed | kTraced)              \
  X(kRebuildPropagate, "rebuild.propagate_ns", kRunning, kTimed | kTraced)    \
  X(kRebuildFlush, "rebuild.flush_ns", kRunning, kTimed | kTraced)            \
  X(kRebuildThrottle, "rebuild.throttle_ns", kThrottled, kTimed)

enum class Site : uint8_t {
#define OIR_SPAN_SITE_ID(id, name, state, sinks) id,
  OIR_SPAN_SITES(OIR_SPAN_SITE_ID)
#undef OIR_SPAN_SITE_ID
  kNumSites,
};

constexpr size_t kNumWaitStates = static_cast<size_t>(WaitState::kNumStates);
constexpr size_t kNumOpTypes = static_cast<size_t>(OpType::kNumTypes);
constexpr size_t kNumSites = static_cast<size_t>(Site::kNumSites);

const char* WaitStateName(WaitState s);
const char* OpTypeName(OpType t);
const char* SiteName(Site s);

// One site's latency histogram, merged across threads.
struct SpanSummary {
  const char* name = "";
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class WaitProfiler {
 public:
  struct OpBreakdown {
    OpType type = OpType::kOther;
    uint64_t count = 0;
    uint64_t wall_ns = 0;
    uint64_t state_ns[kNumWaitStates] = {};
    // Wall-clock distribution (ns), merged across shards.
    uint64_t hist_count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };

  // The one instrumentation switch: spans, op scopes and trace events.
  static void SetEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  // One entry per op type that recorded at least one operation.
  static std::vector<OpBreakdown> TakeSnapshot();
  // One entry per timed span site, in table order, recorded or not.
  static std::vector<SpanSummary> SpanSnapshot();
  static SpanSummary SpanStats(Site s);
  // {"read":{"count":..,"wall_ns":..,"states":{"running":..,...},
  //          "wall_hist":{"count":..,"p50":..,"p95":..,"p99":..,"max":..}},
  //  ...}
  static std::string ToJson();
  // Clears the op aggregates and the span histograms.
  static void Reset();

  // --- slow paths used by OpScope; callers gate on enabled() ---
  // Begin/End must be balanced; only the outermost level on a thread
  // snapshots and records.
  static void BeginOp();
  static void EndOp(OpType t);

 private:
  static std::atomic<bool> enabled_;
};

// RAII span over one instrumented section of `site`. `arg0`/`arg1` ride in
// the trace records of traced sites (lock key and requester txn, top-action
// ordinal and pages); set_arg1() changes what the end record carries. A
// caller that times the section for its own bookkeeping passes its clock
// readings as `start_ns` and to End(), so the section is timed once.
// Balanced even if the switch flips mid-span (the constructor's decision is
// remembered).
class Span {
 public:
  explicit Span(Site site, uint64_t arg0 = 0, uint64_t arg1 = 0,
                uint64_t start_ns = 0)
      : site_(site) {
    if (WaitProfiler::enabled()) Begin(arg0, arg1, start_ns);
  }
  ~Span() { End(); }

  void set_arg1(uint64_t arg1) { arg1_ = arg1; }

  // Closes the span now, once: later End() calls and the destructor are
  // no-ops. `end_ns` is the caller's clock reading, or 0 to read it here.
  void End(uint64_t end_ns = 0) {
    if (open_) Finish(end_ns);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Begin(uint64_t arg0, uint64_t arg1, uint64_t start_ns);
  void Finish(uint64_t end_ns);

  Site site_;
  bool open_ = false;
  WaitState prev_ = WaitState::kRunning;
  uint64_t arg0_ = 0;
  uint64_t arg1_ = 0;
  uint64_t start_ns_ = 0;
};

// RAII: brackets one logical operation of type `t`. Nested op scopes are
// inert — only the outermost records a breakdown.
class OpScope {
 public:
  explicit OpScope(OpType t) : type_(t) {
    if (WaitProfiler::enabled()) {
      entered_ = true;
      WaitProfiler::BeginOp();
    }
  }
  ~OpScope() {
    if (entered_) WaitProfiler::EndOp(type_);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpType type_;
  bool entered_ = false;
};

}  // namespace oir::obs

#endif  // OIR_OBS_WAITSTATE_H_
