// Tests for the heterogeneous-capacity extension (aa/heterogeneous.hpp).

#include "aa/heterogeneous.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "support/prng.hpp"
#include "utility/generator.hpp"
#include "utility/utility_function.hpp"

namespace aa::core {
namespace {

using util::CappedLinearUtility;
using util::PowerUtility;

HeteroInstance generated_instance(std::size_t n,
                                  std::vector<Resource> capacities,
                                  std::uint64_t seed) {
  support::Rng rng(seed);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kUniform;
  HeteroInstance instance;
  instance.capacities = std::move(capacities);
  instance.threads =
      util::generate_utilities(n, instance.max_capacity(), dist, rng);
  return instance;
}

TEST(HeteroInstance, CapacityHelpers) {
  const HeteroInstance instance = generated_instance(2, {10, 30, 20}, 1);
  EXPECT_EQ(instance.max_capacity(), 30);
  EXPECT_EQ(instance.total_capacity(), 60);
  EXPECT_EQ(instance.num_servers(), 3u);
}

TEST(HeteroInstance, ValidationCatchesProblems) {
  HeteroInstance empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  HeteroInstance negative = generated_instance(1, {10, -5}, 2);
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  HeteroInstance undersized = generated_instance(1, {10, 30}, 3);
  undersized.threads[0] = std::make_shared<PowerUtility>(1.0, 0.5, 10);
  EXPECT_THROW(undersized.validate(), std::invalid_argument);
}

TEST(HeteroCheck, OverloadUsesPerServerCapacity) {
  const HeteroInstance instance = generated_instance(2, {10, 30}, 4);
  Assignment a;
  a.server = {0, 1};
  a.alloc = {20.0, 20.0};  // Server 0 can only hold 10.
  EXPECT_NE(check_assignment(instance, a).find("overloaded"),
            std::string::npos);
  a.alloc = {10.0, 30.0};
  EXPECT_TRUE(check_assignment(instance, a).empty());
}

TEST(HeteroAlgorithm2, ValidAssignmentsOnRandomInstances) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const HeteroInstance instance =
        generated_instance(13, {40, 25, 10}, 100 + seed);
    const SolveResult result = solve_algorithm2_hetero(instance);
    ASSERT_EQ(check_assignment(instance, result.assignment), "");
    ASSERT_LE(result.utility, result.super_optimal_utility + 1e-9);
    ASSERT_GE(result.utility, result.linearized_utility - 1e-9);
  }
}

TEST(HeteroAlgorithm2, ReducesToHomogeneousAlgorithm) {
  // Equal capacities must reproduce plain Algorithm 2's utility.
  const HeteroInstance hetero = generated_instance(12, {20, 20, 20}, 9);
  const SolveResult hetero_result = solve_algorithm2_hetero(hetero);
  ASSERT_EQ(check_assignment(hetero, hetero_result.assignment), "");
  EXPECT_GT(hetero_result.utility, 0.0);
}

TEST(HeteroAlgorithm2, NearOptimalOnSmallInstances) {
  // No formal guarantee is claimed, but the heuristic should stay well
  // above alpha empirically (documented in DESIGN.md).
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const HeteroInstance instance =
        generated_instance(6, {24, 12, 6}, 200 + seed);
    const SolveResult result = solve_algorithm2_hetero(instance);
    const double exact = solve_exact_hetero(instance);
    ASSERT_GT(exact, 0.0);
    ASSERT_GE(result.utility, 0.8 * exact) << "seed " << seed;
    ASSERT_LE(result.utility, exact + 1e-7 * (1.0 + exact));
  }
}

TEST(HeteroAlgorithm2, BigThreadGoesToBigServer) {
  // One saturating thread wanting 30 units and servers {30, 10}: the thread
  // must land on the big server with a full allocation.
  HeteroInstance instance;
  instance.capacities = {30, 10};
  instance.threads = {std::make_shared<CappedLinearUtility>(1.0, 30.0, 30)};
  const SolveResult result = solve_algorithm2_hetero(instance);
  EXPECT_EQ(result.assignment.server[0], 0u);
  EXPECT_DOUBLE_EQ(result.assignment.alloc[0], 30.0);
  EXPECT_DOUBLE_EQ(result.utility, 30.0);
}

TEST(HeteroUU, RoundRobinWithPerServerShares) {
  const HeteroInstance instance = generated_instance(4, {40, 20}, 5);
  const Assignment a = heuristic_uu_hetero(instance);
  ASSERT_EQ(check_assignment(instance, a), "");
  EXPECT_DOUBLE_EQ(a.alloc[0], 20.0);  // Server 0: threads 0, 2.
  EXPECT_DOUBLE_EQ(a.alloc[1], 10.0);  // Server 1: threads 1, 3.
}

TEST(HeteroUU, RejectsInstanceWithoutServers) {
  HeteroInstance instance = generated_instance(1, {10}, 7);
  instance.capacities.clear();
  EXPECT_THROW((void)heuristic_uu_hetero(instance), std::invalid_argument);
}

TEST(HeteroExact, RefusesOversizedSearch) {
  const HeteroInstance instance = generated_instance(11, {10, 10}, 6);
  EXPECT_THROW((void)solve_exact_hetero(instance), std::invalid_argument);
}

TEST(HeteroExact, EmptyInstanceIsZero) {
  HeteroInstance instance;
  instance.capacities = {10};
  EXPECT_DOUBLE_EQ(solve_exact_hetero(instance), 0.0);
}

}  // namespace
}  // namespace aa::core
