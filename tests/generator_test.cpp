// Tests for the paper's random utility generator (utility/generator.hpp).

#include "utility/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/stats.hpp"
#include "utility/utility_function.hpp"

namespace aa::util {
namespace {

using support::DistributionKind;
using support::DistributionParams;

class GeneratorAllDistributions
    : public ::testing::TestWithParam<DistributionKind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, GeneratorAllDistributions,
                         ::testing::Values(DistributionKind::kUniform,
                                           DistributionKind::kNormal,
                                           DistributionKind::kPowerLaw,
                                           DistributionKind::kDiscrete),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case DistributionKind::kUniform: return "uniform";
                             case DistributionKind::kNormal: return "normal";
                             case DistributionKind::kPowerLaw: return "powerlaw";
                             case DistributionKind::kDiscrete: return "discrete";
                           }
                           return "unknown";
                         });

TEST_P(GeneratorAllDistributions, ProducesValidConcaveUtilities) {
  support::Rng rng(1234);
  DistributionParams dist;
  dist.kind = GetParam();
  for (int trial = 0; trial < 50; ++trial) {
    const UtilityPtr f = generate_utility(500, dist, rng);
    ASSERT_EQ(f->capacity(), 500);
    ASSERT_TRUE(is_valid_on_grid(*f, 1e-7)) << "trial " << trial;
    ASSERT_DOUBLE_EQ(f->value(0.0), 0.0);
  }
}

TEST_P(GeneratorAllDistributions, MidpointAndEndpointFollowRecipe) {
  // f(C/2) = v and f(C) = v + w with w <= v implies f(C) <= 2 f(C/2) and
  // f(C) >= f(C/2) (up to the PAV repair, which rarely moves these knots).
  support::Rng rng(4321);
  DistributionParams dist;
  dist.kind = GetParam();
  for (int trial = 0; trial < 50; ++trial) {
    const UtilityPtr f = generate_utility(400, dist, rng);
    const double mid = f->value(200.0);
    const double end = f->value(400.0);
    ASSERT_GT(mid, 0.0);
    ASSERT_GE(end, mid - 1e-9);
    ASSERT_LE(end, 2.0 * mid + 1e-6);
  }
}

TEST(Generator, DeterministicGivenSeed) {
  DistributionParams dist;
  dist.kind = DistributionKind::kPowerLaw;
  support::Rng rng1(9);
  support::Rng rng2(9);
  const UtilityPtr a = generate_utility(300, dist, rng1);
  const UtilityPtr b = generate_utility(300, dist, rng2);
  for (Resource x = 0; x <= 300; x += 7) {
    ASSERT_DOUBLE_EQ(a->value(static_cast<double>(x)),
                     b->value(static_cast<double>(x)));
  }
}

TEST(Generator, BatchGeneratesIndependentFunctions) {
  support::Rng rng(10);
  DistributionParams dist;
  dist.kind = DistributionKind::kUniform;
  const auto batch = generate_utilities(10, 100, dist, rng);
  ASSERT_EQ(batch.size(), 10u);
  // Not all functions should be identical (overwhelming probability).
  int distinct = 0;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    if (batch[i]->value(50.0) != batch[0]->value(50.0)) ++distinct;
  }
  EXPECT_GT(distinct, 0);
}

TEST(Generator, InternsEqualDraws) {
  // The batch holds generate_utility's grids, drawn from the same rng
  // stream, and threads with equal draws share one object.
  for (const DistributionKind kind :
       {DistributionKind::kDiscrete, DistributionKind::kUniform}) {
    DistributionParams dist;
    dist.kind = kind;
    support::Rng batch_rng(201);
    support::Rng single_rng(201);
    support::Rng draw_rng(201);
    const std::vector<UtilityPtr> batch =
        generate_utilities(10'000, 1000, dist, batch_rng);
    ASSERT_EQ(batch.size(), 10'000u);
    std::map<std::pair<double, double>, const UtilityFunction*> by_draw;
    std::set<const UtilityFunction*> objects;
    for (const UtilityPtr& f : batch) {
      const UtilityPtr single = generate_utility(1000, dist, single_rng);
      const std::span<const double> expected =
          dynamic_cast<const TabulatedUtility&>(*single).grid();
      const std::span<const double> got =
          dynamic_cast<const TabulatedUtility&>(*f).grid();
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()));
      const auto it =
          by_draw.emplace(support::draw_ordered_pair(dist, draw_rng), f.get())
              .first;
      ASSERT_EQ(it->second, f.get());
      objects.insert(f.get());
    }
    EXPECT_EQ(objects.size(), by_draw.size());
    if (kind == DistributionKind::kDiscrete) {
      EXPECT_LE(objects.size(), 3u);
    } else {
      EXPECT_EQ(objects.size(), batch.size());
    }
  }
}

TEST(Generator, EmptyBatchSkipsTheCapacityCheck) {
  support::Rng rng(13);
  DistributionParams dist;
  EXPECT_TRUE(generate_utilities(0, 1, dist, rng).empty());
  EXPECT_THROW((void)generate_utilities(3, 1, dist, rng),
               std::invalid_argument);
}

TEST(Generator, DiscreteDistThetaControlsSpread) {
  // With theta = 1 every thread has (v, w) = (x, x) for x in {low}; all
  // peaks coincide. With large theta peaks differ by ~theta.
  support::Rng rng(11);
  DistributionParams narrow;
  narrow.kind = DistributionKind::kDiscrete;
  narrow.gamma = 0.5;
  narrow.theta = 1.0;
  support::RunningStats peaks;
  for (int i = 0; i < 50; ++i) {
    peaks.add(generate_utility(100, narrow, rng)->value(100.0));
  }
  EXPECT_NEAR(peaks.stddev(), 0.0, 1e-9);
}

TEST(Generator, RejectsTinyCapacity) {
  support::Rng rng(12);
  DistributionParams dist;
  EXPECT_THROW((void)generate_utility(1, dist, rng), std::invalid_argument);
}

}  // namespace
}  // namespace aa::util
