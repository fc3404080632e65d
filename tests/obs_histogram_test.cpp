// Tests for obs::Histogram (src/obs/histogram.hpp): exact merge parity with
// a sequentially fed reference under the per-worker-then-merge discipline,
// quantile agreement with the exact support::quantiles of the raw stream to
// within one bucket width, bucket-boundary placement (inclusive power-of-two
// upper bounds), saturation, and rejection of negative/non-finite samples.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "obs/histogram.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace aa::obs {
namespace {

TEST(Histogram, EmptyReadsAsZeros) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Histogram, BucketBoundariesAreInclusivePowersOfTwo) {
  // upper(b) = kMinUpper * 2^b and the bound is inclusive: a value exactly
  // on a boundary lands in the *lower* bucket, matching the Prometheus `le`
  // (less-or-equal) convention the exposition uses.
  for (std::size_t b = 0; b + 1 < Histogram::kNumBuckets; ++b) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper(b),
                     Histogram::kMinUpper * std::ldexp(1.0, static_cast<int>(b)))
        << "bucket " << b;
    const double upper = Histogram::bucket_upper(b);
    EXPECT_EQ(Histogram::bucket_index(upper), b) << "on-boundary " << upper;
    EXPECT_EQ(Histogram::bucket_index(std::nextafter(
                  upper, std::numeric_limits<double>::infinity())),
              b + 1)
        << "just above " << upper;
  }
}

TEST(Histogram, TinyValuesLandInBucketZero) {
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMinUpper), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kMinUpper / 1024.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::denorm_min()),
            0u);
}

TEST(Histogram, HugeValuesSaturateIntoTheLastBucket) {
  const std::size_t last = Histogram::kNumBuckets - 1;
  const double top = Histogram::bucket_upper(last);
  EXPECT_EQ(Histogram::bucket_index(top), last);
  EXPECT_EQ(Histogram::bucket_index(2.0 * top), last);
  EXPECT_EQ(Histogram::bucket_index(std::numeric_limits<double>::max()), last);

  Histogram h;
  EXPECT_TRUE(h.sample(2.0 * top));
  EXPECT_EQ(h.bucket_count(last), 1u);
  EXPECT_EQ(h.count(), 1u);  // Saturated, not dropped.
  EXPECT_DOUBLE_EQ(h.max(), 2.0 * top);
}

TEST(Histogram, NegativeAndNonFiniteSamplesAreRejected) {
  Histogram h;
  EXPECT_FALSE(h.sample(-1.0));
  EXPECT_FALSE(h.sample(-0.5 * Histogram::kMinUpper));
  EXPECT_FALSE(h.sample(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(h.sample(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(h.sample(-std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(h.empty());
  EXPECT_TRUE(h.sample(0.0));  // Zero is a legal latency.
  EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeMatchesSequentiallyFedReference) {
  // The worker-merge discipline (one histogram per worker, bucket-wise
  // merge at the join point) must reproduce the sequential result exactly:
  // identical bucket counts, count, sum, min, and max.
  support::ThreadPool pool(4);
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kValuesPerWorker = 1000;
  std::vector<std::vector<double>> streams(kWorkers);
  std::mt19937 rng(20160523);
  std::lognormal_distribution<double> latency(0.0, 2.0);
  for (auto& stream : streams) {
    stream.reserve(kValuesPerWorker);
    for (std::size_t s = 0; s < kValuesPerWorker; ++s) {
      stream.push_back(latency(rng));
    }
  }

  std::vector<Histogram> shards(kWorkers);
  support::parallel_for(pool, 0, kWorkers, [&](std::size_t w) {
    for (const double value : streams[w]) shards[w].sample(value);
  });
  Histogram merged;
  for (const Histogram& shard : shards) merged.merge(shard);

  Histogram reference;
  std::vector<double> all;
  all.reserve(kWorkers * kValuesPerWorker);
  for (const auto& stream : streams) {
    for (const double value : stream) {
      reference.sample(value);
      all.push_back(value);
    }
  }

  EXPECT_EQ(merged.count(), reference.count());
  // Bucket counts merge exactly; the sum is a float reduction whose
  // addition order differs between the sharded and sequential runs.
  EXPECT_NEAR(merged.sum(), reference.sum(), 1e-9 * reference.sum());
  EXPECT_DOUBLE_EQ(merged.min(), reference.min());
  EXPECT_DOUBLE_EQ(merged.max(), reference.max());
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(merged.bucket_count(b), reference.bucket_count(b))
        << "bucket " << b;
  }

  // Quantile estimates carry at most one bucket width (factor of 2) of
  // error against the exact order statistics of the raw stream.
  constexpr std::array<double, 4> kQs{0.5, 0.9, 0.99, 0.999};
  const std::vector<double> exact = support::quantiles(all, kQs);
  const std::vector<double> approx = merged.quantiles(kQs);
  ASSERT_EQ(approx.size(), exact.size());
  for (std::size_t i = 0; i < kQs.size(); ++i) {
    EXPECT_GE(approx[i], 0.5 * exact[i]) << "q=" << kQs[i];
    EXPECT_LE(approx[i], 2.0 * exact[i]) << "q=" << kQs[i];
  }
}

TEST(Histogram, QuantilesAreExactForSingleValueStreams) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.sample(3.25);
  // All mass in one bucket and min == max: interpolation clamps to the
  // observed range, so every quantile is the value itself.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.25);
}

TEST(Histogram, QuantilesAreMonotoneAndWithinRange) {
  Histogram h;
  std::mt19937 rng(7);
  std::exponential_distribution<double> latency(0.5);
  for (int i = 0; i < 5000; ++i) h.sample(latency(rng));
  double previous = h.quantile(0.0);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}) {
    const double estimate = h.quantile(q);
    EXPECT_GE(estimate, previous) << "q=" << q;
    EXPECT_GE(estimate, h.min());
    EXPECT_LE(estimate, h.max());
    previous = estimate;
  }
}

TEST(Histogram, JsonListsOnlyOccupiedBuckets) {
  Histogram h;
  h.sample(1.0);
  h.sample(1.5);
  h.sample(100.0);
  const support::JsonValue blob =
      support::json_parse(h.to_json().dump());
  EXPECT_EQ(blob.at("count").as_int(), 3);
  const auto& buckets = blob.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 3u);  // 1.0 and 1.5 split across two buckets.
  std::uint64_t total = 0;
  for (const auto& bucket : buckets) {
    total += static_cast<std::uint64_t>(bucket.at("count").as_int());
    EXPECT_GT(bucket.at("le").as_number(), 0.0);
  }
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace aa::obs
