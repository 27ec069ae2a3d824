#ifndef OIR_OBS_METRICS_H_
#define OIR_OBS_METRICS_H_

// Process-wide metric registry: named counters (views over external
// atomics, e.g. every GlobalCounters field), gauges (sampled callbacks) and
// low-contention timer histograms (per-thread sharded Add, merged on read).
//
// Timer recording is gated by a single relaxed atomic flag that defaults to
// off, so instrumented hot paths (buffer-pool fetch, WAL append, lock
// acquire, B-tree traversal) cost one predictable branch when timing is
// disabled. Enable with MetricRegistry::SetTimersEnabled(true).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sync/mutex.h"
#include "util/clock.h"
#include "util/histogram.h"

namespace oir::obs {

// A named latency/size distribution. Add() lands in one of kShards
// histograms picked by a per-thread index, so concurrent writers rarely
// share a mutex; readers merge the shards.
class TimerStat {
 public:
  static constexpr size_t kShards = 16;

  explicit TimerStat(std::string name) : name_(std::move(name)) {}

  void Record(uint64_t ns);
  // Merges every shard into *out (Histogram is not movable).
  void MergeInto(Histogram* out) const;
  void Reset();

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    Histogram h;
  };

  const std::string name_;
  Shard shards_[kShards];
};

class MetricRegistry {
 public:
  struct TimerSummary {
    std::string name;
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t min = 0;
    uint64_t max = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, uint64_t>> gauges;
    std::vector<TimerSummary> timers;
  };

  // The singleton registers every GlobalCounters field on first use.
  static MetricRegistry& Get();

  // Registers a named view over an externally owned atomic. The atomic must
  // outlive the process (GlobalCounters does). Re-registering a name
  // replaces the previous view.
  void RegisterCounter(const std::string& name,
                       const std::atomic<uint64_t>* v);
  // Gauges are sampled at snapshot time. The callback must be safe to call
  // from any thread and must not register or unregister gauges; unregister
  // before anything it captures dies (UnregisterGauge waits out a sample in
  // progress).
  void RegisterGauge(const std::string& name, std::function<uint64_t()> fn);
  void UnregisterGauge(const std::string& name);

  // Finds or creates a timer. The returned pointer is stable for the
  // process lifetime — cache it at the call site.
  TimerStat* Timer(const std::string& name);

  static void SetTimersEnabled(bool on) {
    timers_enabled_.store(on, std::memory_order_relaxed);
  }
  static bool timers_enabled() {
    return timers_enabled_.load(std::memory_order_relaxed);
  }

  Snapshot TakeSnapshot() const;
  void ResetTimers();

  // Named JSON documents for one-shot reports (last rebuild result, last
  // recovery stats); spliced verbatim into ToJson(). `json` must be a valid
  // JSON value.
  void SetReport(const std::string& name, std::string json);
  std::string GetReport(const std::string& name) const;  // "" if absent

  // {"counters":{...},"gauges":{...},"timers":{name:{histogram}},
  //  "reports":{name:<spliced doc>}}
  std::string ToJson() const;
  // Human-readable one-metric-per-line text.
  std::string ToText() const;

 private:
  MetricRegistry();

  static std::atomic<bool> timers_enabled_;

  // Held while gauges are sampled, so a gauge cannot be unregistered (and
  // what it captures destroyed) mid-call. Taken before mu_, never after.
  mutable Mutex gauge_mu_;
  mutable Mutex mu_;
  std::map<std::string, const std::atomic<uint64_t>*> counters_
      OIR_GUARDED_BY(mu_);
  std::map<std::string, std::function<uint64_t()>> gauges_
      OIR_GUARDED_BY(gauge_mu_);
  std::map<std::string, std::unique_ptr<TimerStat>> timers_
      OIR_GUARDED_BY(mu_);
  std::map<std::string, std::string> reports_ OIR_GUARDED_BY(mu_);
};

// RAII timer scope: records elapsed wall nanoseconds into `t` on
// destruction. When timers are globally disabled the constructor is a
// single relaxed load and the destructor a null check.
//
// Recording is idempotent: Stop() nulls the timer pointer, so a sample is
// recorded exactly once no matter how the scope ends — explicit Stop(),
// normal unwind, or an exception thrown through the scope (e.g. a test-only
// crash point aborting the enclosing operation). Cancel() drops the sample,
// for paths that decide the measured interval is meaningless (a timed
// section that turned into a retry loop, an operation abandoned mid-way).
class ScopedTimer {
 public:
  explicit ScopedTimer(TimerStat* t)
      : t_(MetricRegistry::timers_enabled() ? t : nullptr),
        start_(t_ != nullptr ? NowNanos() : 0) {}
  ~ScopedTimer() { Stop(); }

  // Records the sample now (once); later Stop()/destruction are no-ops.
  void Stop() {
    if (t_ != nullptr) {
      t_->Record(NowNanos() - start_);
      t_ = nullptr;
    }
  }

  // Discards the measurement; nothing is recorded for this scope.
  void Cancel() { t_ = nullptr; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerStat* t_;
  uint64_t start_;
};

}  // namespace oir::obs

#endif  // OIR_OBS_METRICS_H_
