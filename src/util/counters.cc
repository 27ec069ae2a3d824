#include "util/counters.h"

#include <cstdio>

namespace oir {

GlobalCounters& GlobalCounters::Get() {
  static GlobalCounters* instance = new GlobalCounters();
  return *instance;
}

CounterSnapshot GlobalCounters::Snapshot() const {
  CounterSnapshot s;
  for (const CounterStripe& st : stripes_) {
#define OIR_COUNTER_LOAD(name) \
  s.name += st.name.load(std::memory_order_relaxed);
    OIR_COUNTER_FIELDS(OIR_COUNTER_LOAD)
#undef OIR_COUNTER_LOAD
  }
  return s;
}

void GlobalCounters::Reset() {
  for (CounterStripe& st : stripes_) {
#define OIR_COUNTER_ZERO(name) st.name.store(0, std::memory_order_relaxed);
    OIR_COUNTER_FIELDS(OIR_COUNTER_ZERO)
#undef OIR_COUNTER_ZERO
  }
}

std::string CounterSnapshot::ToString() const {
  std::string out;
  out.reserve(768);
  ForEach([&out](const char* name, uint64_t value) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s=%llu", out.empty() ? "" : " ", name,
                  static_cast<unsigned long long>(value));
    out += buf;
  });
  return out;
}

}  // namespace oir
