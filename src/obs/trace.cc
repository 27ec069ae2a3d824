#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"
#include "util/clock.h"

namespace oir::obs {

namespace {

// Small dense thread id, assigned on first trace from each thread.
uint32_t TraceTid() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

bool IsSpan(TraceEventType t) {
  return t == TraceEventType::kSpanBegin || t == TraceEventType::kSpanEnd;
}

}  // namespace

const char* TraceEventName(TraceEventType t) {
  switch (t) {
    case TraceEventType::kNone: return "none";
    case TraceEventType::kSpanBegin: return "span_begin";
    case TraceEventType::kSpanEnd: return "span_end";
    case TraceEventType::kTopActionTruncate: return "top_action_truncate";
    case TraceEventType::kSmoSplit: return "smo_split";
    case TraceEventType::kSmoShrink: return "smo_shrink";
    case TraceEventType::kCondLockFail: return "cond_lock_fail";
    case TraceEventType::kLockWatchdog: return "lock_watchdog";
    case TraceEventType::kCheckpoint: return "checkpoint";
    case TraceEventType::kFaultInjected: return "fault_injected";
    case TraceEventType::kWalSegSeal: return "wal_seg_seal";
    case TraceEventType::kWalSegSubmit: return "wal_seg_submit";
    case TraceEventType::kWalSegComplete: return "wal_seg_complete";
  }
  return "unknown";
}

TraceBuffer& TraceBuffer::Get() {
  static TraceBuffer* instance = new TraceBuffer();
  return *instance;
}

void TraceBuffer::Allocate() {
  MutexLock l(init_mu_);
  if (allocated_.load(std::memory_order_relaxed)) return;
  auto rings = std::make_unique<Ring[]>(kNumRings);
  for (size_t i = 0; i < kNumRings; ++i) {
    rings[i].slots = std::make_unique<Slot[]>(kRingCapacity);
  }
  rings_ = std::move(rings);
  allocated_.store(true, std::memory_order_release);
}

void TraceBuffer::Clear() {
  if (!allocated_.load(std::memory_order_acquire)) return;
  for (size_t r = 0; r < kNumRings; ++r) {
    Ring& ring = rings_[r];
    ring.cursor.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < kRingCapacity; ++i) {
      ring.slots[i].type.store(0, std::memory_order_relaxed);
    }
  }
}

void TraceBuffer::Record(TraceEventType type, uint64_t arg0, uint64_t arg1) {
  RecordAt(NowNanos(), type, arg0, arg1);
}

void TraceBuffer::RecordAt(uint64_t ts_ns, TraceEventType type, uint64_t arg0,
                           uint64_t arg1, Site site) {
  if (!allocated_.load(std::memory_order_acquire)) Allocate();
  const uint32_t tid = TraceTid();
  Ring& ring = rings_[tid % kNumRings];
  const uint64_t seq = ring.cursor.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring.slots[seq % kRingCapacity];
  s.ts_ns.store(ts_ns, std::memory_order_relaxed);
  s.arg0.store(arg0, std::memory_order_relaxed);
  s.arg1.store(arg1, std::memory_order_relaxed);
  s.tid.store(tid, std::memory_order_relaxed);
  s.site.store(static_cast<uint8_t>(site), std::memory_order_relaxed);
  s.type.store(static_cast<uint8_t>(type), std::memory_order_release);
}

std::vector<TraceRecord> TraceBuffer::Snapshot() const {
  std::vector<TraceRecord> out;
  if (!allocated_.load(std::memory_order_acquire)) return out;
  for (size_t r = 0; r < kNumRings; ++r) {
    const Ring& ring = rings_[r];
    const uint64_t cursor = ring.cursor.load(std::memory_order_acquire);
    const uint64_t n = std::min<uint64_t>(cursor, kRingCapacity);
    const uint64_t start = cursor - n;
    for (uint64_t i = start; i < cursor; ++i) {
      const Slot& s = ring.slots[i % kRingCapacity];
      TraceRecord rec;
      rec.type = static_cast<TraceEventType>(
          s.type.load(std::memory_order_acquire));
      if (rec.type == TraceEventType::kNone) continue;
      rec.ts_ns = s.ts_ns.load(std::memory_order_relaxed);
      rec.arg0 = s.arg0.load(std::memory_order_relaxed);
      rec.arg1 = s.arg1.load(std::memory_order_relaxed);
      rec.tid = s.tid.load(std::memory_order_relaxed);
      rec.site = static_cast<Site>(s.site.load(std::memory_order_relaxed));
      out.push_back(rec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  return out;
}

std::string TraceBuffer::DumpJson() const {
  std::vector<TraceRecord> recs = Snapshot();
  JsonWriter w;
  w.BeginObject().Key("events").BeginArray();
  for (const TraceRecord& r : recs) {
    w.BeginObject();
    w.Key("ts_ns").Value(r.ts_ns);
    w.Key("type").Value(TraceEventName(r.type));
    w.Key("tid").Value(static_cast<uint64_t>(r.tid));
    if (IsSpan(r.type)) w.Key("span").Value(SiteName(r.site));
    w.Key("arg0").Value(r.arg0);
    w.Key("arg1").Value(r.arg1);
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

std::string TraceBuffer::DumpChromeTracing() const {
  std::vector<TraceRecord> recs = Snapshot();
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const TraceRecord& r : recs) {
    const bool span = IsSpan(r.type);
    w.BeginObject();
    w.Key("name").Value(span ? SiteName(r.site) : TraceEventName(r.type));
    w.Key("cat").Value("oir");
    if (span) {
      w.Key("ph").Value(r.type == TraceEventType::kSpanBegin ? "B" : "E");
    } else {
      w.Key("ph").Value("i");
      w.Key("s").Value("t");
    }
    w.Key("ts").Value(static_cast<double>(r.ts_ns) / 1000.0);
    w.Key("pid").Value(static_cast<uint64_t>(1));
    w.Key("tid").Value(static_cast<uint64_t>(r.tid));
    w.Key("args").BeginObject();
    w.Key("arg0").Value(r.arg0);
    w.Key("arg1").Value(r.arg1);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray().EndObject();
  return w.str();
}

}  // namespace oir::obs
