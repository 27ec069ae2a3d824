#include "obs/metrics.h"

#include <cstdio>

#include "obs/json.h"
#include "util/counters.h"

namespace oir::obs {

MetricRegistry& MetricRegistry::Get() {
  static MetricRegistry* instance = new MetricRegistry();
  return *instance;
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

MetricRegistry::Snapshot MetricRegistry::TakeSnapshot() const {
  // Gauges are sampled under gauge_mu_: UnregisterGauge then cannot return
  // while a callback is running on what its owner is about to destroy.
  Snapshot snap;
  {
    MutexLock l(gauge_mu_);
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) {
      snap.gauges.emplace_back(name, fn());
    }
  }
  snap.timers = WaitProfiler::SpanSnapshot();
  return snap;
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
  GlobalCounters::Get().Snapshot().ForEach(
      [&w](const char* name, uint64_t v) { w.Key(name).Value(v); });
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
  GlobalCounters::Get().Snapshot().ForEach(
      [&out, &buf](const char* name, uint64_t v) {
        std::snprintf(buf, sizeof(buf), "counter %-24s %llu\n", name,
                      static_cast<unsigned long long>(v));
        out += buf;
      });
  for (const auto& [name, v] : snap.gauges) {
    std::snprintf(buf, sizeof(buf), "gauge   %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& t : snap.timers) {
    std::snprintf(buf, sizeof(buf),
                  "timer   %-24s count=%llu mean=%.0f p50=%.0f p95=%.0f "
                  "p99=%.0f max=%llu\n",
                  t.name, static_cast<unsigned long long>(t.count), t.mean,
                  t.p50, t.p95, t.p99, static_cast<unsigned long long>(t.max));
    out += buf;
  }
  return out;
}

}  // namespace oir::obs
