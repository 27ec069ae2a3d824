#include "obs/metrics.h"

#include <cstdio>

#include "obs/json.h"
#include "util/counters.h"

namespace oir::obs {

std::atomic<bool> MetricRegistry::timers_enabled_{false};

namespace {

// Per-thread shard index: threads are striped over the shard array in
// registration order, so a small thread count gets distinct shards.
size_t ThreadShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

}  // namespace

void TimerStat::Record(uint64_t ns) {
  shards_[ThreadShardIndex() % kShards].h.Add(ns);
}

void TimerStat::MergeInto(Histogram* out) const {
  for (const Shard& s : shards_) out->Merge(s.h);
}

void TimerStat::Reset() {
  for (Shard& s : shards_) s.h.Clear();
}

MetricRegistry::MetricRegistry() {
  GlobalCounters::Get().ForEach(
      [this](const char* name, std::atomic<uint64_t>& v) {
        counters_.emplace(name, &v);
      });
}

MetricRegistry& MetricRegistry::Get() {
  static MetricRegistry* instance = new MetricRegistry();
  return *instance;
}

void MetricRegistry::RegisterCounter(const std::string& name,
                                     const std::atomic<uint64_t>* v) {
  MutexLock l(mu_);
  counters_[name] = v;
}

void MetricRegistry::RegisterGauge(const std::string& name,
                                   std::function<uint64_t()> fn) {
  MutexLock l(gauge_mu_);
  gauges_[name] = std::move(fn);
}

void MetricRegistry::UnregisterGauge(const std::string& name) {
  MutexLock l(gauge_mu_);
  gauges_.erase(name);
}

TimerStat* MetricRegistry::Timer(const std::string& name) {
  MutexLock l(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(name, std::make_unique<TimerStat>(name)).first;
  }
  return it->second.get();
}

MetricRegistry::Snapshot MetricRegistry::TakeSnapshot() const {
  // Copy the counter and timer maps under mu_, then read them outside it.
  // Gauges are sampled under gauge_mu_ (not mu_, so a callback may still
  // read counters or timers): UnregisterGauge then cannot return while a
  // callback is running on what its owner is about to destroy.
  std::vector<std::pair<std::string, const std::atomic<uint64_t>*>> counters;
  std::vector<TimerStat*> timers;
  {
    MutexLock l(mu_);
    counters.assign(counters_.begin(), counters_.end());
    timers.reserve(timers_.size());
    for (const auto& [_, t] : timers_) timers.push_back(t.get());
  }
  Snapshot snap;
  snap.counters.reserve(counters.size());
  for (const auto& [name, v] : counters) {
    snap.counters.emplace_back(name, v->load(std::memory_order_relaxed));
  }
  {
    MutexLock l(gauge_mu_);
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) {
      snap.gauges.emplace_back(name, fn());
    }
  }
  snap.timers.reserve(timers.size());
  for (TimerStat* t : timers) {
    Histogram h;
    t->MergeInto(&h);
    TimerSummary s;
    s.name = t->name();
    s.count = h.Count();
    s.sum = h.Sum();
    s.min = h.Min();
    s.max = h.Max();
    s.mean = h.Mean();
    s.p50 = h.Percentile(50);
    s.p95 = h.Percentile(95);
    s.p99 = h.Percentile(99);
    snap.timers.push_back(std::move(s));
  }
  return snap;
}

void MetricRegistry::ResetTimers() {
  std::vector<TimerStat*> timers;
  {
    MutexLock l(mu_);
    timers.reserve(timers_.size());
    for (const auto& [_, t] : timers_) timers.push_back(t.get());
  }
  for (TimerStat* t : timers) t->Reset();
}

void MetricRegistry::SetReport(const std::string& name, std::string json) {
  MutexLock l(mu_);
  reports_[name] = std::move(json);
}

std::string MetricRegistry::GetReport(const std::string& name) const {
  MutexLock l(mu_);
  auto it = reports_.find(name);
  return it == reports_.end() ? std::string() : it->second;
}

std::string MetricRegistry::ToJson() const {
  Snapshot snap = TakeSnapshot();
  std::map<std::string, std::string> reports;
  {
    MutexLock l(mu_);
    reports = reports_;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, v] : snap.counters) w.Key(name).Value(v);
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, v] : snap.gauges) w.Key(name).Value(v);
  w.EndObject();
  w.Key("timers").BeginObject();
  for (const auto& t : snap.timers) {
    w.Key(t.name).BeginObject();
    w.Key("count").Value(t.count);
    w.Key("sum").Value(t.sum);
    w.Key("min").Value(t.min);
    w.Key("max").Value(t.max);
    w.Key("mean").Value(t.mean);
    w.Key("p50").Value(t.p50);
    w.Key("p95").Value(t.p95);
    w.Key("p99").Value(t.p99);
    w.EndObject();
  }
  w.EndObject();
  w.Key("reports").BeginObject();
  for (const auto& [name, json] : reports) w.Key(name).RawValue(json);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string MetricRegistry::ToText() const {
  Snapshot snap = TakeSnapshot();
  std::string out;
  char buf[256];
  for (const auto& [name, v] : snap.counters) {
    std::snprintf(buf, sizeof(buf), "counter %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : snap.gauges) {
    std::snprintf(buf, sizeof(buf), "gauge   %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& t : snap.timers) {
    std::snprintf(buf, sizeof(buf),
                  "timer   %-24s count=%llu mean=%.0f p50=%.0f p95=%.0f "
                  "p99=%.0f max=%llu\n",
                  t.name.c_str(), static_cast<unsigned long long>(t.count),
                  t.mean, t.p50, t.p95, t.p99,
                  static_cast<unsigned long long>(t.max));
    out += buf;
  }
  return out;
}

}  // namespace oir::obs
