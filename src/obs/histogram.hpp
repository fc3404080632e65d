#pragma once

// Log2-bucketed histogram for latency-style samples.
//
// A Histogram is a fixed array of power-of-two buckets plus exact
// count/sum/min/max, so it is O(1) per sample, allocation-free after
// construction, and *exactly* mergeable: merging per-worker histograms
// bucket-wise gives the same distribution as one histogram fed every
// sample, the same worker-merge discipline Metrics uses for its
// RunningStats timers (build one per worker, merge() at the join point).
// Quantile readout interpolates inside the winning bucket, so p50/p90/
// p99/p99.9 estimates carry at most one bucket width (a factor of 2) of
// error — tests/obs_histogram_test.cpp pins parity against the exact
// support::quantiles of the raw sample stream within that bound.
//
// Bucket b (0-based) covers values in (upper(b-1), upper(b)] with
// upper(b) = kMinUpper * 2^b; values <= kMinUpper land in bucket 0 and
// values above the top boundary saturate into the last bucket (counted,
// never dropped). Negative and non-finite samples are NOT recorded:
// sample() returns false so the caller sees bad data instead of it
// silently poisoning the distribution.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/json.hpp"

namespace aa::obs {

class Histogram {
 public:
  /// Number of buckets: upper bounds kMinUpper * 2^b for b in [0, 64).
  static constexpr std::size_t kNumBuckets = 64;
  /// Upper bound of bucket 0, in the caller's unit (ms for latencies):
  /// 2^-20 ms ~ 1 ns, far below anything a steady_clock can resolve.
  static constexpr double kMinUpper = 9.5367431640625e-7;  // 2^-20

  /// Records one sample. Returns false (and records nothing) for negative
  /// or non-finite values; the caller is responsible for counting drops.
  bool sample(double value) noexcept;

  /// Bucket-wise merge; exact (no approximation in the merge itself).
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  /// Inclusive upper bound of bucket `b` (the Prometheus `le` boundary).
  [[nodiscard]] static double bucket_upper(std::size_t b) noexcept;
  /// Count in bucket `b` (not cumulative).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const noexcept {
    return buckets_[b];
  }
  /// Index of the bucket `value` falls into (the same mapping sample uses).
  [[nodiscard]] static std::size_t bucket_index(double value) noexcept;

  /// Quantile estimate, q in [0, 1]: finds the bucket holding the q-th
  /// order statistic and interpolates linearly inside it, clamped to the
  /// observed [min, max]. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;
  /// One estimate per entry of `qs`, in order (single pass).
  [[nodiscard]] std::vector<double> quantiles(
      std::span<const double> qs) const;

  /// {"count": n, "sum": s, "min": ..., "max": ..., "p50": ..., "p90": ...,
  ///  "p99": ..., "p999": ..., "buckets": [{"le": ..., "count": ...}, ...]}
  /// with only occupied buckets listed. Values are wall-clock dependent —
  /// never pin in golden tests.
  [[nodiscard]] support::JsonValue to_json() const;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace aa::obs
