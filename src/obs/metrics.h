#ifndef OIR_OBS_METRICS_H_
#define OIR_OBS_METRICS_H_

// Process-wide metric registry: the GlobalCounters fields, gauges (sampled
// callbacks), the span-site latency histograms (obs/waitstate.h) and named
// one-shot reports, rendered as one JSON or text document. The registry
// owns no counters or timers of its own; it reads them where they live.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/waitstate.h"
#include "sync/mutex.h"

namespace oir::obs {

class MetricRegistry {
 public:
  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> gauges;
    std::vector<SpanSummary> timers;  // one per span site, in table order
  };

  static MetricRegistry& Get();

  // Gauges are sampled at snapshot time. The callback must be safe to call
  // from any thread and must not register or unregister gauges; unregister
  // before anything it captures dies (UnregisterGauge waits out a sample in
  // progress).
  void RegisterGauge(const std::string& name, std::function<uint64_t()> fn);
  void UnregisterGauge(const std::string& name);

  Snapshot TakeSnapshot() const;

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
  MetricRegistry() = default;

  // Held while gauges are sampled, so a gauge cannot be unregistered (and
  // what it captures destroyed) mid-call.
  mutable Mutex gauge_mu_;
  mutable Mutex mu_;
  std::map<std::string, std::function<uint64_t()>> gauges_
      OIR_GUARDED_BY(gauge_mu_);
  std::map<std::string, std::string> reports_ OIR_GUARDED_BY(mu_);
};

}  // namespace oir::obs

#endif  // OIR_OBS_METRICS_H_
