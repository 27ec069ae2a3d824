#include "obs/waitstate.h"

#include "obs/json.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/thread_slot.h"

namespace oir::obs {

std::atomic<bool> WaitProfiler::enabled_{false};

namespace {

struct SiteInfo {
  const char* name;
  WaitState state;  // kRunning: the site classifies no wait
  uint8_t sinks;    // SpanSinks bits
};

#define OIR_SPAN_SITE_INFO(id, name, state, sinks) \
  {name, WaitState::state, static_cast<uint8_t>(sinks)},
constexpr SiteInfo kSites[] = {OIR_SPAN_SITES(OIR_SPAN_SITE_INFO)};
#undef OIR_SPAN_SITE_INFO
static_assert(sizeof(kSites) / sizeof(kSites[0]) == kNumSites);

constexpr size_t kShards = 16;

// Per-thread shard index: threads are striped over the shards in the order
// they first ask for a thread slot, so a small thread count gets distinct
// shards.
size_t ThreadShardIndex() { return ThreadSlot() % kShards; }

// Everything a thread needs to classify its own time. Touched only by the
// owning thread, so plain (non-atomic) fields are fine.
struct ThreadClock {
  uint64_t acc[kNumWaitStates] = {};  // monotone per-state nanoseconds
  uint64_t mark = 0;                  // start of the current segment
  WaitState state = WaitState::kRunning;
  uint32_t wait_depth = 0;
  uint32_t op_depth = 0;
  uint64_t op_start = 0;
  uint64_t op_snap[kNumWaitStates] = {};
  uint32_t sample_rng = 0x9e3779b9;  // xorshift32 state for kSampled sites

  // True for one call in 16, at random.
  bool Sample() {
    sample_rng ^= sample_rng << 13;
    sample_rng ^= sample_rng >> 17;
    sample_rng ^= sample_rng << 5;
    return (sample_rng & 15) == 0;
  }

  // Closes the current segment into acc[state] and restarts it at `now`.
  void Roll(uint64_t now) {
    acc[static_cast<size_t>(state)] += now - mark;
    mark = now;
  }
};

ThreadClock& Tls() {
  thread_local ThreadClock tc;
  return tc;
}

// Switches the thread into `s` at `now` (outermost wait only). Returns the
// state to restore on exit.
WaitState EnterWait(WaitState s, uint64_t now) {
  ThreadClock& tc = Tls();
  if (tc.wait_depth++ != 0) return tc.state;  // nested: outermost wins
  WaitState prev = tc.state;
  if (tc.mark == 0) tc.mark = now;
  tc.Roll(now);
  tc.state = s;
  return prev;
}

void ExitWait(WaitState prev, uint64_t now) {
  ThreadClock& tc = Tls();
  if (--tc.wait_depth != 0) return;
  tc.Roll(now);
  tc.state = prev;
}

// One thread-striped aggregate: an op type's breakdown, or a span site's
// latency histogram (sites use only `wall_hist`). Scalar fields are relaxed
// atomics; the Histogram has its own mutex, uncontended within a shard.
struct alignas(64) AggShard {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> wall_ns{0};
  std::atomic<uint64_t> state_ns[kNumWaitStates] = {};
  Histogram wall_hist;
};

struct Agg {
  AggShard shards[kShards];
};

AggShard& MyShard(Agg& agg) { return agg.shards[ThreadShardIndex()]; }

// Op types first, then span sites.
Agg* Aggs() {
  static Agg* aggs = new Agg[kNumOpTypes + kNumSites];
  return aggs;
}

Agg& OpAgg(size_t t) { return Aggs()[t]; }
Agg& SiteAgg(Site s) { return Aggs()[kNumOpTypes + static_cast<size_t>(s)]; }

}  // namespace

const char* WaitStateName(WaitState s) {
  switch (s) {
    case WaitState::kRunning:
      return "running";
    case WaitState::kLatchWait:
      return "latch_wait";
    case WaitState::kLockWait:
      return "lock_wait";
    case WaitState::kWalCommitWait:
      return "wal_commit_wait";
    case WaitState::kIoWait:
      return "io_wait";
    case WaitState::kThrottled:
      return "throttled";
    case WaitState::kNumStates:
      break;
  }
  return "unknown";
}

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kRead:
      return "read";
    case OpType::kWrite:
      return "write";
    case OpType::kCommit:
      return "commit";
    case OpType::kRebuild:
      return "rebuild";
    case OpType::kOther:
      return "other";
    case OpType::kNumTypes:
      break;
  }
  return "unknown";
}

const char* SiteName(Site s) {
  const size_t i = static_cast<size_t>(s);
  return i < kNumSites ? kSites[i].name : "unknown";
}

void Span::Begin(uint64_t arg0, uint64_t arg1, uint64_t start_ns) {
  const SiteInfo& info = kSites[static_cast<size_t>(site_)];
  if ((info.sinks & kSampled) && !Tls().Sample()) return;
  open_ = true;
  arg0_ = arg0;
  arg1_ = arg1;
  start_ns_ = start_ns != 0 ? start_ns : NowNanos();
  if (info.state != WaitState::kRunning) {
    prev_ = EnterWait(info.state, start_ns_);
  }
  if (info.sinks & kTraced) {
    TraceBuffer::Get().RecordAt(start_ns_, TraceEventType::kSpanBegin, arg0_,
                                arg1_, site_);
  }
}

void Span::Finish(uint64_t end_ns) {
  open_ = false;
  const uint64_t end = end_ns != 0 ? end_ns : NowNanos();
  const SiteInfo& info = kSites[static_cast<size_t>(site_)];
  if (info.state != WaitState::kRunning) ExitWait(prev_, end);
  if (info.sinks & kTimed) {
    MyShard(SiteAgg(site_)).wall_hist.Add(end - start_ns_);
  }
  if (info.sinks & kTraced) {
    TraceBuffer::Get().RecordAt(end, TraceEventType::kSpanEnd, arg0_, arg1_,
                                site_);
  }
}

void WaitProfiler::BeginOp() {
  ThreadClock& tc = Tls();
  if (tc.op_depth++ != 0) return;
  uint64_t now = NowNanos();
  // A fresh thread has mark == 0; start its clock here rather than
  // attributing process-uptime to the first segment.
  if (tc.mark == 0) tc.mark = now;
  tc.Roll(now);
  tc.op_start = now;
  for (size_t i = 0; i < kNumWaitStates; ++i) tc.op_snap[i] = tc.acc[i];
}

void WaitProfiler::EndOp(OpType t) {
  ThreadClock& tc = Tls();
  if (--tc.op_depth != 0) return;
  uint64_t now = NowNanos();
  tc.Roll(now);
  uint64_t wall = now - tc.op_start;
  AggShard& sh = MyShard(OpAgg(static_cast<size_t>(t)));
  sh.count.fetch_add(1, std::memory_order_relaxed);
  sh.wall_ns.fetch_add(wall, std::memory_order_relaxed);
  for (size_t i = 0; i < kNumWaitStates; ++i) {
    sh.state_ns[i].fetch_add(tc.acc[i] - tc.op_snap[i],
                             std::memory_order_relaxed);
  }
  sh.wall_hist.Add(wall);
}

std::vector<WaitProfiler::OpBreakdown> WaitProfiler::TakeSnapshot() {
  std::vector<OpBreakdown> out;
  for (size_t t = 0; t < kNumOpTypes; ++t) {
    OpBreakdown b;
    b.type = static_cast<OpType>(t);
    Histogram merged;
    for (AggShard& sh : OpAgg(t).shards) {
      b.count += sh.count.load(std::memory_order_relaxed);
      b.wall_ns += sh.wall_ns.load(std::memory_order_relaxed);
      for (size_t i = 0; i < kNumWaitStates; ++i) {
        b.state_ns[i] += sh.state_ns[i].load(std::memory_order_relaxed);
      }
      merged.Merge(sh.wall_hist);
    }
    if (b.count == 0) continue;
    b.hist_count = merged.Count();
    b.p50 = merged.Percentile(50);
    b.p95 = merged.Percentile(95);
    b.p99 = merged.Percentile(99);
    b.max = static_cast<double>(merged.Max());
    out.push_back(b);
  }
  return out;
}

SpanSummary WaitProfiler::SpanStats(Site s) {
  Histogram h;
  for (AggShard& sh : SiteAgg(s).shards) h.Merge(sh.wall_hist);
  SpanSummary out;
  out.name = SiteName(s);
  out.count = h.Count();
  out.sum = h.Sum();
  out.min = h.Min();
  out.max = h.Max();
  out.mean = h.Mean();
  out.p50 = h.Percentile(50);
  out.p95 = h.Percentile(95);
  out.p99 = h.Percentile(99);
  return out;
}

std::vector<SpanSummary> WaitProfiler::SpanSnapshot() {
  std::vector<SpanSummary> out;
  out.reserve(kNumSites);
  for (size_t i = 0; i < kNumSites; ++i) {
    if (kSites[i].sinks & kTimed) {
      out.push_back(SpanStats(static_cast<Site>(i)));
    }
  }
  return out;
}

std::string WaitProfiler::ToJson() {
  std::vector<OpBreakdown> snap = TakeSnapshot();
  JsonWriter w;
  w.BeginObject();
  for (const OpBreakdown& b : snap) {
    w.Key(OpTypeName(b.type)).BeginObject();
    w.Key("count").Value(b.count);
    w.Key("wall_ns").Value(b.wall_ns);
    w.Key("states").BeginObject();
    for (size_t i = 0; i < kNumWaitStates; ++i) {
      w.Key(WaitStateName(static_cast<WaitState>(i))).Value(b.state_ns[i]);
    }
    w.EndObject();
    w.Key("wall_hist").BeginObject();
    w.Key("count").Value(b.hist_count);
    w.Key("p50").Value(b.p50);
    w.Key("p95").Value(b.p95);
    w.Key("p99").Value(b.p99);
    w.Key("max").Value(b.max);
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

void WaitProfiler::Reset() {
  for (size_t a = 0; a < kNumOpTypes + kNumSites; ++a) {
    for (AggShard& sh : Aggs()[a].shards) {
      sh.count.store(0, std::memory_order_relaxed);
      sh.wall_ns.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i < kNumWaitStates; ++i) {
        sh.state_ns[i].store(0, std::memory_order_relaxed);
      }
      sh.wall_hist.Clear();
    }
  }
}

}  // namespace oir::obs
