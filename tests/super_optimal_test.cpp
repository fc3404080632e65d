// Tests for the super-optimal allocation (alloc/super_optimal.hpp):
// Definition V.1, Lemmas V.2 and V.3.

#include "alloc/super_optimal.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "aa/exact.hpp"
#include "alloc/oracle.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::alloc {
namespace {

using util::PowerUtility;
using util::Resource;
using util::UtilityPtr;

TEST(SuperOptimal, SingleServerEqualsPlainAllocation) {
  std::vector<UtilityPtr> threads{
      std::make_shared<PowerUtility>(1.0, 0.5, 50),
      std::make_shared<PowerUtility>(2.0, 0.5, 50)};
  const SuperOptimalResult so = super_optimal(threads, 1, 50);
  const AllocationResult direct = allocate_bisection(threads, 50, 50);
  EXPECT_NEAR(so.utility, direct.total_utility, 1e-12);
}

TEST(SuperOptimal, PerThreadAllocationNeverExceedsSingleServer) {
  // Definition V.1 allocates from a pool of mC, but f_i lives on [0, C]:
  // no thread may get more than C.
  std::vector<UtilityPtr> threads{std::make_shared<PowerUtility>(1.0, 0.9, 60)};
  const SuperOptimalResult so = super_optimal(threads, 4, 60);
  ASSERT_EQ(so.c_hat.size(), 1u);
  EXPECT_EQ(so.c_hat[0], 60);  // Capped at C, not 4C.
}

TEST(SuperOptimal, GreedyAndBisectionPathsAgree) {
  support::Rng rng(2024);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kNormal;
  std::vector<UtilityPtr> threads;
  for (int i = 0; i < 12; ++i) {
    threads.push_back(util::generate_utility(100, dist, rng));
  }
  const SuperOptimalResult a = super_optimal(threads, 3, 100);
  const AllocationResult b = allocate_greedy(threads, 300, 100);
  EXPECT_NEAR(a.utility, b.total_utility, 1e-7 * (1.0 + b.total_utility));
}

TEST(SuperOptimal, UsesFullPoolWhenProfitable) {
  // Lemma V.3: with strictly increasing utilities and enough demand, the
  // super-optimal allocation uses the entire pool mC.
  std::vector<UtilityPtr> threads;
  for (int i = 0; i < 6; ++i) {
    threads.push_back(std::make_shared<PowerUtility>(1.0, 0.7, 40));
  }
  const SuperOptimalResult so = super_optimal(threads, 2, 40);
  const Resource used =
      std::accumulate(so.c_hat.begin(), so.c_hat.end(), Resource{0});
  EXPECT_EQ(used, 80);
}

TEST(SuperOptimal, LemmaV2UpperBoundsExactOptimum) {
  // F* <= F_hat on random small instances, checked against brute force.
  support::Rng rng(31337);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kPowerLaw;
  for (int trial = 0; trial < 10; ++trial) {
    core::Instance instance;
    instance.num_servers = 2;
    instance.capacity = 20;
    for (int i = 0; i < 5; ++i) {
      instance.threads.push_back(util::generate_utility(20, dist, rng));
    }
    const SuperOptimalResult so =
        super_optimal(instance.threads, instance.num_servers,
                      instance.capacity);
    const core::ExactResult exact = core::solve_exact(instance);
    ASSERT_LE(exact.utility, so.utility + 1e-7 * (1.0 + so.utility))
        << "trial " << trial;
  }
}

TEST(SuperOptimal, ZeroCapacityGivesZero) {
  std::vector<UtilityPtr> threads{std::make_shared<PowerUtility>(1.0, 0.5, 10)};
  const SuperOptimalResult so = super_optimal(threads, 3, 0);
  EXPECT_EQ(so.c_hat[0], 0);
  EXPECT_DOUBLE_EQ(so.utility, 0.0);
}

TEST(SuperOptimal, RejectsNegativeCapacity) {
  std::vector<UtilityPtr> threads{std::make_shared<PowerUtility>(1.0, 0.5, 10)};
  EXPECT_THROW((void)super_optimal(threads, 2, -5), std::invalid_argument);
}

}  // namespace
}  // namespace aa::alloc
