// Tests for the reference single-pool allocators (alloc/oracle.hpp):
// greedy == bisection == DP on concave inputs, plus edge cases.

#include "alloc/oracle.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <cmath>
#include <numeric>

#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::alloc {
namespace {

using util::CappedLinearUtility;
using util::LogUtility;
using util::PowerUtility;
using util::Resource;
using util::UtilityPtr;

std::vector<UtilityPtr> two_power_threads() {
  return {std::make_shared<PowerUtility>(1.0, 0.5, 100),
          std::make_shared<PowerUtility>(1.0, 0.5, 100)};
}

TEST(Greedy, SplitsEquallyBetweenIdenticalConcaveThreads) {
  const auto threads = two_power_threads();
  const AllocationResult r = allocate_greedy(threads, 10);
  EXPECT_EQ(r.amounts[0] + r.amounts[1], 10);
  EXPECT_LE(std::abs(r.amounts[0] - r.amounts[1]), 1);
  EXPECT_NEAR(r.total_utility, 2.0 * std::sqrt(5.0), 1e-9);
}

TEST(Greedy, PrefersSteeperThread) {
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(10.0, 5.0, 100),
      std::make_shared<CappedLinearUtility>(1.0, 100.0, 100)};
  const AllocationResult r = allocate_greedy(threads, 8);
  EXPECT_EQ(r.amounts[0], 5);  // Steep thread saturates first.
  EXPECT_EQ(r.amounts[1], 3);
  EXPECT_DOUBLE_EQ(r.total_utility, 53.0);
}

TEST(Greedy, RespectsPerThreadCap) {
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(10.0, 100.0, 100)};
  const AllocationResult r = allocate_greedy(threads, 50, 20);
  EXPECT_EQ(r.amounts[0], 20);
}

TEST(Greedy, ZeroPool) {
  const auto threads = two_power_threads();
  const AllocationResult r = allocate_greedy(threads, 0);
  EXPECT_EQ(r.amounts[0], 0);
  EXPECT_EQ(r.amounts[1], 0);
  EXPECT_DOUBLE_EQ(r.total_utility, 0.0);
}

TEST(Greedy, EmptyThreadList) {
  const AllocationResult r = allocate_greedy({}, 100);
  EXPECT_TRUE(r.amounts.empty());
  EXPECT_DOUBLE_EQ(r.total_utility, 0.0);
}

TEST(Greedy, StopsAtZeroMarginals) {
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(1.0, 3.0, 100)};
  const AllocationResult r = allocate_greedy(threads, 100);
  EXPECT_EQ(r.amounts[0], 3);  // Never wastes units on zero marginals.
}

TEST(Greedy, RejectsBadInput) {
  EXPECT_THROW((void)allocate_greedy({}, -1), std::invalid_argument);
  std::vector<UtilityPtr> bad{nullptr};
  EXPECT_THROW((void)allocate_greedy(bad, 5), std::invalid_argument);
}

TEST(Bisection, MatchesGreedyOnAnalyticMix) {
  std::vector<UtilityPtr> threads{
      std::make_shared<PowerUtility>(2.0, 0.5, 1000),
      std::make_shared<PowerUtility>(1.0, 0.8, 1000),
      std::make_shared<LogUtility>(5.0, 0.05, 1000),
      std::make_shared<CappedLinearUtility>(0.7, 300.0, 1000)};
  for (const Resource pool : {0, 1, 10, 100, 999, 2500, 4000}) {
    const AllocationResult g = allocate_greedy(threads, pool);
    const AllocationResult b = allocate_bisection(threads, pool);
    ASSERT_NEAR(g.total_utility, b.total_utility, 1e-6 * (1.0 + g.total_utility))
        << "pool = " << pool;
  }
}

TEST(Bisection, MatchesGreedyOnTiePlateaus) {
  // All-equal slopes: a worst case for threshold search (one huge plateau).
  std::vector<UtilityPtr> threads;
  for (int i = 0; i < 5; ++i) {
    threads.push_back(std::make_shared<CappedLinearUtility>(1.0, 50.0, 100));
  }
  for (const Resource pool : {0, 7, 100, 249, 250, 251}) {
    const AllocationResult g = allocate_greedy(threads, pool);
    const AllocationResult b = allocate_bisection(threads, pool);
    ASSERT_NEAR(g.total_utility, b.total_utility, 1e-9) << "pool = " << pool;
    const Resource used = std::accumulate(b.amounts.begin(), b.amounts.end(),
                                          Resource{0});
    ASSERT_LE(used, pool);
  }
}

TEST(Bisection, SaturatedPoolGivesEveryoneTheirCap) {
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(1.0, 10.0, 100),
      std::make_shared<CappedLinearUtility>(2.0, 20.0, 100)};
  const AllocationResult r = allocate_bisection(threads, 100000, 100);
  EXPECT_EQ(r.amounts[0], 10);
  EXPECT_EQ(r.amounts[1], 20);
}

TEST(Bisection, RespectsPerThreadCap) {
  std::vector<UtilityPtr> threads{
      std::make_shared<PowerUtility>(1.0, 0.9, 1000),
      std::make_shared<PowerUtility>(1.0, 0.9, 1000)};
  const AllocationResult r = allocate_bisection(threads, 500, 200);
  EXPECT_LE(r.amounts[0], 200);
  EXPECT_LE(r.amounts[1], 200);
}

TEST(DpExact, MatchesHandComputedOptimum) {
  // f1 = min(x,2), f2 = 0.6x capped at domain; pool 3 -> give f1 2, f2 1.
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(1.0, 2.0, 10),
      std::make_shared<CappedLinearUtility>(0.6, 10.0, 10)};
  const AllocationResult r = allocate_dp_exact(threads, 3);
  EXPECT_DOUBLE_EQ(r.total_utility, 2.6);
  EXPECT_EQ(r.amounts[0], 2);
  EXPECT_EQ(r.amounts[1], 1);
}

TEST(DpExact, BudgetFullyUsableButNotForced) {
  std::vector<UtilityPtr> threads{
      std::make_shared<CappedLinearUtility>(1.0, 1.0, 10)};
  const AllocationResult r = allocate_dp_exact(threads, 10);
  EXPECT_DOUBLE_EQ(r.total_utility, 1.0);
}

class AllocatorAgreement : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorAgreement,
                         ::testing::Range<std::uint64_t>(0, 12));

TEST_P(AllocatorAgreement, GreedyBisectionDpAgreeOnRandomConcave) {
  // Property: on random generated concave utilities, all three allocators
  // achieve the same total utility (allocations may differ on plateaus).
  support::Rng rng(1000 + GetParam());
  support::DistributionParams dist;
  dist.kind = static_cast<support::DistributionKind>(GetParam() % 4);
  dist.alpha = 2.5;
  const std::size_t n = 2 + GetParam() % 4;
  std::vector<UtilityPtr> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.push_back(util::generate_utility(40, dist, rng));
  }
  const Resource pool = static_cast<Resource>(rng.uniform_below(80));
  const AllocationResult g = allocate_greedy(threads, pool, 40);
  const AllocationResult b = allocate_bisection(threads, pool, 40);
  const AllocationResult d = allocate_dp_exact(threads, pool, 40);
  const double tol = 1e-7 * (1.0 + d.total_utility);
  EXPECT_NEAR(g.total_utility, d.total_utility, tol);
  EXPECT_NEAR(b.total_utility, d.total_utility, tol);
}

TEST(AllocatorInvariants, NeverExceedPoolOrCaps) {
  support::Rng rng(555);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kPowerLaw;
  std::vector<UtilityPtr> threads;
  for (int i = 0; i < 10; ++i) {
    threads.push_back(util::generate_utility(100, dist, rng));
  }
  for (const Resource pool : {0, 50, 500, 1500}) {
    for (const auto* name : {"greedy", "bisection"}) {
      const AllocationResult r =
          std::string(name) == "greedy"
              ? allocate_greedy(threads, pool, 100)
              : allocate_bisection(threads, pool, 100);
      Resource used = 0;
      for (const Resource a : r.amounts) {
        ASSERT_GE(a, 0);
        ASSERT_LE(a, 100);
        used += a;
      }
      ASSERT_LE(used, pool) << name << " pool " << pool;
    }
  }
}

}  // namespace
}  // namespace aa::alloc
