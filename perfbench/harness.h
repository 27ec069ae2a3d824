#ifndef OIR_PERFBENCH_HARNESS_H_
#define OIR_PERFBENCH_HARNESS_H_

// Measurement primitives of the benchmark of record: a fixed-size
// nanosecond latency histogram, the benchmark's own spans (one per call
// into an engine module), a pause gate that quiesces the clients for
// correctness checks, and the named-metric sink the benchmark prints.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "sync/mutex.h"
#include "util/clock.h"

namespace oir::perfbench {

// Log-linear histogram of nanosecond values: exact below 128 ns, then 128
// sub-buckets per power of two (under 0.8% relative bucket width). Fixed
// size, so recording never allocates and no per-sample storage is kept.
class LatencyHistogram {
 public:
  LatencyHistogram() : buckets_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
    sum_ += ns;
    max_ = std::max(max_, ns);
  }
  void Merge(const LatencyHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }

  // Value at percentile p (0 < p <= 100): the rank-ceil(p% * count)
  // sample, placed inside its bucket by linear interpolation over the
  // bucket's samples. 0 when empty.
  double Percentile(double p) const {
    if (count_ == 0) return 0.0;
    uint64_t rank = static_cast<uint64_t>(p / 100.0 * count_ + 0.999999);
    rank = std::clamp<uint64_t>(rank, 1, count_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] >= rank) {
        const double frac = (rank - seen - 0.5) / buckets_[i];
        return Lower(i) + frac * static_cast<double>(Width(i));
      }
      seen += buckets_[i];
    }
    return Lower(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSub;

  static int Index(uint64_t v) {
    if (v < static_cast<uint64_t>(kSub)) return static_cast<int>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return kSub + shift * kSub + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t Lower(int idx) {
    if (idx < kSub) return static_cast<uint64_t>(idx);
    const int shift = (idx - kSub) / kSub;
    return static_cast<uint64_t>(kSub + (idx - kSub) % kSub) << shift;
  }
  static uint64_t Width(int idx) {
    return idx < kSub ? 1 : uint64_t{1} << ((idx - kSub) / kSub);
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

// ---- spans ----

// One span per call into an engine module, plus the client transaction
// and the rebuild's top actions (bounded by on_progress callbacks).
enum class SpanKind : uint8_t {
  kTxn,              // client transaction, BeginTxn to Commit/Abort return
  kLookup,           // Index::Lookup
  kInsert,           // Index::Insert
  kDelete,           // Index::Delete
  kScan,             // Cursor::Seek + 50 x Cursor::Next
  kSeek,             // Cursor::Seek
  kNext,             // Cursor::Next
  kCommit,           // Db::Commit
  kAbort,            // Db::Abort
  kCheckpoint,       // Db::Checkpoint
  kCrashAndRecover,  // Db::CrashAndRecover
  kRebuild,          // Index::RebuildOnline
  kTopAction,        // gap between on_progress callbacks ending a top action
  kRebuildTxnEnd,    // gap ending at a rebuild transaction's commit callback
  kCount,
};

const char* SpanName(SpanKind k);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t txn = 0;     // engine transaction id (0: none)
  int32_t parent = -1;  // index of the parent span in the same log, or -1
  SpanKind kind = SpanKind::kTxn;
};

// Per-thread span log. Spans nest on their thread; a span's self time is
// its duration minus the durations of its children. Every span feeds the
// per-kind duration and self-time histograms; the first `capacity` spans
// are also kept verbatim and written out when the run ends.
class ThreadTrace {
 public:
  ThreadTrace(int thread_id, size_t capacity)
      : thread_id_(thread_id), capacity_(capacity),
        dur_(static_cast<size_t>(SpanKind::kCount)),
        self_(static_cast<size_t>(SpanKind::kCount)) {
    kept_.reserve(capacity);
  }

  void Open(SpanKind k, uint64_t txn, uint64_t start_ns) {
    int32_t idx = -1;
    if (kept_.size() < capacity_) {
      idx = static_cast<int32_t>(kept_.size());
      Span s;
      s.start_ns = start_ns;
      s.txn = txn;
      s.parent = stack_.empty() ? -1 : stack_.back().index;
      s.kind = k;
      kept_.push_back(s);
    } else {
      ++dropped_;
    }
    stack_.push_back(OpenSpan{k, start_ns, idx, 0});
  }

  void Close(uint64_t end_ns) {
    const OpenSpan o = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end_ns - o.start_ns;
    if (o.index >= 0) kept_[o.index].end_ns = end_ns;
    Account(o.kind, dur, o.child_ns);
  }

  // A completed span observed after the fact (rebuild top actions), as a
  // child of the innermost open span.
  void Record(SpanKind k, uint64_t txn, uint64_t start_ns, uint64_t end_ns) {
    Open(k, txn, start_ns);
    Close(end_ns);
  }

  const LatencyHistogram& duration(SpanKind k) const {
    return dur_[static_cast<size_t>(k)];
  }
  const LatencyHistogram& self(SpanKind k) const {
    return self_[static_cast<size_t>(k)];
  }
  const std::vector<Span>& kept() const { return kept_; }
  uint64_t dropped() const { return dropped_; }
  int thread_id() const { return thread_id_; }

 private:
  struct OpenSpan {
    SpanKind kind;
    uint64_t start_ns;
    int32_t index;
    uint64_t child_ns;
  };

  void Account(SpanKind k, uint64_t dur, uint64_t child_ns) {
    dur_[static_cast<size_t>(k)].Add(dur);
    self_[static_cast<size_t>(k)].Add(dur > child_ns ? dur - child_ns : 0);
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  const int thread_id_;
  const size_t capacity_;
  std::vector<OpenSpan> stack_;
  std::vector<Span> kept_;
  uint64_t dropped_ = 0;
  std::vector<LatencyHistogram> dur_;
  std::vector<LatencyHistogram> self_;
};

// RAII span; inert when `trace` is null (untraced transactions).
class SpanScope {
 public:
  SpanScope(ThreadTrace* trace, SpanKind k, uint64_t txn) : trace_(trace) {
    if (trace_ != nullptr) trace_->Open(k, txn, NowNanos());
  }
  ~SpanScope() {
    if (trace_ != nullptr) trace_->Close(NowNanos());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  ThreadTrace* const trace_;
};

// ---- client pause gate ----

// Lets a controller quiesce every client at a transaction boundary (the
// engine's invariant checks need a quiescent index), and keeps the paused
// wall time so the timed phase can leave it out.
class Gate {
 public:
  // Client side: called between transactions.
  void Park() {
    if (!pause_.load(std::memory_order_acquire)) return;
    MutexLock l(mu_);
    ++parked_;
    cv_.NotifyAll();
    while (pause_.load(std::memory_order_relaxed)) cv_.Wait(mu_);
    --parked_;
  }

  // Controller side: returns once all `clients` are parked.
  void PauseAll(int clients) {
    MutexLock l(mu_);
    pause_.store(true, std::memory_order_release);
    while (parked_ < clients) cv_.Wait(mu_);
    pause_start_ns_.store(NowNanos());
  }
  void ResumeAll() {
    MutexLock l(mu_);
    // Total first, then clear the start: a concurrent paused_ns() may then
    // briefly count this pause twice, never miss it.
    paused_ns_.fetch_add(NowNanos() - pause_start_ns_.load());
    pause_start_ns_.store(0);
    pause_.store(false, std::memory_order_release);
    cv_.NotifyAll();
  }
  // Total time spent with every client parked, the current pause included.
  uint64_t paused_ns() const {
    const uint64_t since = pause_start_ns_.load();
    return paused_ns_.load() + (since == 0 ? 0 : NowNanos() - since);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::atomic<bool> pause_{false};
  int parked_ OIR_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> pause_start_ns_{0};  // 0 while not paused
  std::atomic<uint64_t> paused_ns_{0};
};

// ---- results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // sample count, spread or provenance, printed beside
};

class Results {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    metrics_.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace oir::perfbench

#endif  // OIR_PERFBENCH_HARNESS_H_
