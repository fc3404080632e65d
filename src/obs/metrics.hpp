#pragma once

// Mergeable metrics value type for the observability layer (aa::obs).
//
// A Metrics object is a plain bag of named integer counters and named
// timer statistics (wall + thread-CPU durations accumulated in
// RunningStats, so merging across ThreadPool workers follows the same
// Chan parallel-update rule as the experiment harness). Metrics itself is
// NOT thread-safe and carries no support/sync.hpp annotations: the
// intended pattern is one Metrics per worker, merged at the join point —
// exactly like RunningStats — or a Session (session.hpp), which wraps one
// Metrics behind an annotated support::Mutex for ad-hoc cross-thread
// recording. Distribution-shaped figures (latencies, queue depths, batch
// sizes) live in obs::Histogram (histogram.hpp) blocks owned by whoever
// records them, e.g. the service's per-shard stats.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "support/json.hpp"
#include "support/stats.hpp"

namespace aa::obs {

/// Accumulated durations of one named timer. Wall and thread-CPU time are
/// tracked separately (milliseconds) so blocked phases are visible.
struct TimerStat {
  support::RunningStats wall_ms;
  support::RunningStats cpu_ms;

  void add(double wall, double cpu) noexcept {
    wall_ms.add(wall);
    cpu_ms.add(cpu);
  }

  void merge(const TimerStat& other) noexcept {
    wall_ms.merge(other.wall_ms);
    cpu_ms.merge(other.cpu_ms);
  }
};

class Metrics {
 public:
  using CounterMap = std::map<std::string, std::int64_t, std::less<>>;
  using TimerMap = std::map<std::string, TimerStat, std::less<>>;

  /// Adds `delta` to the named counter (created at zero on first use).
  void count(std::string_view name, std::int64_t delta = 1);

  /// Records one sample of the named timer.
  void time(std::string_view name, double wall_ms, double cpu_ms);

  /// Element-wise merge: counters add, timer stats merge Chan-style.
  void merge(const Metrics& other);

  /// Current counter value; 0 when the counter was never touched.
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  /// Timer statistics, or nullptr when the timer was never recorded.
  [[nodiscard]] const TimerStat* timer(std::string_view name) const;

  [[nodiscard]] const CounterMap& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const TimerMap& timers() const noexcept { return timers_; }
  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && timers_.empty();
  }

  /// {"name": value, ...} in lexicographic name order — deterministic for a
  /// deterministic solve, so golden tests can pin the exact string.
  [[nodiscard]] support::JsonValue counters_json() const;

  /// {"name": {"count": n, "wall_ms_total": ..., ...}, ...}. Timings are
  /// wall-clock dependent; never pin these in golden tests.
  [[nodiscard]] support::JsonValue timers_json() const;

  /// {"counters": ..., "timers": ...}; timers omitted when
  /// `include_timings` is false (deterministic export).
  [[nodiscard]] support::JsonValue to_json(bool include_timings = true) const;

 private:
  CounterMap counters_;
  TimerMap timers_;
};

}  // namespace aa::obs
