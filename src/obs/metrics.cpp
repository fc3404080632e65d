#include "obs/metrics.hpp"

namespace aa::obs {

void Metrics::count(std::string_view name, std::int64_t delta) {
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Metrics::time(std::string_view name, double wall_ms, double cpu_ms) {
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), TimerStat{}).first;
  }
  it->second.add(wall_ms, cpu_ms);
}

void Metrics::merge(const Metrics& other) {
  for (const auto& [name, value] : other.counters_) {
    count(name, value);
  }
  for (const auto& [name, stat] : other.timers_) {
    auto it = timers_.find(name);
    if (it == timers_.end()) {
      timers_.emplace(name, stat);
    } else {
      it->second.merge(stat);
    }
  }
}

std::int64_t Metrics::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const TimerStat* Metrics::timer(std::string_view name) const {
  const auto it = timers_.find(name);
  return it == timers_.end() ? nullptr : &it->second;
}

support::JsonValue Metrics::counters_json() const {
  support::JsonValue::Object object;
  object.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    object.emplace_back(name, support::JsonValue(value));
  }
  return support::JsonValue(std::move(object));
}

support::JsonValue Metrics::timers_json() const {
  support::JsonValue::Object object;
  object.reserve(timers_.size());
  for (const auto& [name, stat] : timers_) {
    support::JsonValue entry{support::JsonValue::Object{}};
    entry.set("count", support::JsonValue(stat.wall_ms.count()));
    entry.set("wall_ms_total",
              stat.wall_ms.mean() * static_cast<double>(stat.wall_ms.count()));
    entry.set("wall_ms_mean", stat.wall_ms.mean());
    entry.set("wall_ms_max",
              stat.wall_ms.count() == 0 ? 0.0 : stat.wall_ms.max());
    entry.set("cpu_ms_total",
              stat.cpu_ms.mean() * static_cast<double>(stat.cpu_ms.count()));
    entry.set("cpu_ms_mean", stat.cpu_ms.mean());
    object.emplace_back(name, std::move(entry));
  }
  return support::JsonValue(std::move(object));
}

support::JsonValue Metrics::to_json(bool include_timings) const {
  support::JsonValue out{support::JsonValue::Object{}};
  out.set("counters", counters_json());
  if (include_timings) out.set("timers", timers_json());
  return out;
}

}  // namespace aa::obs
