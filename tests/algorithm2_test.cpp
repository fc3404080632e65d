// Tests for Algorithm 2 (aa/algorithm2.hpp): structure, the Lemma V.15
// guarantee on the linearized objective, and the Theorem V.17 tightness
// instance.

#include "aa/algorithm2.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "aa/exact.hpp"
#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::core {
namespace {

using util::CappedLinearUtility;
using util::PowerUtility;

Instance generated_instance(std::size_t n, std::size_t m, Resource capacity,
                            support::DistributionKind kind,
                            std::uint64_t seed) {
  support::Rng rng(seed);
  support::DistributionParams dist;
  dist.kind = kind;
  Instance instance;
  instance.num_servers = m;
  instance.capacity = capacity;
  instance.threads = util::generate_utilities(n, capacity, dist, rng);
  return instance;
}

TEST(Algorithm2, AssignmentIsAlwaysValid) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = generated_instance(
        23, 4, 100, support::DistributionKind::kPowerLaw, seed);
    const SolveResult result = solve_algorithm2(instance);
    ASSERT_EQ(check_assignment(instance, result.assignment), "");
  }
}

TEST(Algorithm2, UtilityFieldsAreConsistent) {
  const Instance instance = generated_instance(
      16, 3, 80, support::DistributionKind::kUniform, 7);
  const SolveResult result = solve_algorithm2(instance);
  EXPECT_NEAR(result.utility, total_utility(instance, result.assignment),
              1e-9);
  // Lemma V.4: F >= G.
  EXPECT_GE(result.utility, result.linearized_utility - 1e-9);
  // Lemma V.2 direction: achieved utility can never exceed the bound.
  EXPECT_LE(result.utility, result.super_optimal_utility + 1e-9);
}

TEST(Algorithm2, FewThreadsThanServersGetSuperOptimalAllocations) {
  // With n <= m every thread lands alone on a server and receives exactly
  // c_hat, so F == F_hat.
  const Instance instance = generated_instance(
      3, 8, 100, support::DistributionKind::kNormal, 11);
  const SolveResult result = solve_algorithm2(instance);
  EXPECT_NEAR(result.utility, result.super_optimal_utility,
              1e-9 * (1.0 + result.super_optimal_utility));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(result.assignment.alloc[i],
                     static_cast<double>(result.c_hat[i]));
  }
}

TEST(Algorithm2, LemmaV15GuaranteeOnLinearizedObjective) {
  // G >= alpha * F_hat across distributions and shapes.
  for (const auto kind :
       {support::DistributionKind::kUniform, support::DistributionKind::kNormal,
        support::DistributionKind::kPowerLaw,
        support::DistributionKind::kDiscrete}) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const Instance instance =
          generated_instance(4 + seed * 5, 3, 60, kind, 100 + seed);
      const SolveResult result = solve_algorithm2(instance);
      ASSERT_GE(result.linearized_utility,
                kApproximationRatio * result.super_optimal_utility - 1e-7)
          << "kind " << static_cast<int>(kind) << " seed " << seed;
    }
  }
}

TEST(Algorithm2, TheoremV17TightnessInstance) {
  // 3 threads, 2 servers, C = 1000 units (the paper's 1 divisible unit
  // scaled by 1000): f1 = f2 = min(2x/C, 1), f3 = x/C. Algorithm 2 spreads
  // threads 1 and 2 and achieves 2.5 versus the optimal 3 -> ratio 5/6.
  constexpr Resource kC = 1000;
  Instance instance;
  instance.num_servers = 2;
  instance.capacity = kC;
  instance.threads = {
      std::make_shared<CappedLinearUtility>(0.002, 500.0, kC),
      std::make_shared<CappedLinearUtility>(0.002, 500.0, kC),
      std::make_shared<CappedLinearUtility>(0.001, 1000.0, kC)};

  const SolveResult result = solve_algorithm2(instance);
  EXPECT_NEAR(result.super_optimal_utility, 3.0, 1e-9);
  EXPECT_NEAR(result.utility, 2.5, 1e-9);

  const ExactResult exact = solve_exact(instance);
  EXPECT_NEAR(exact.utility, 3.0, 1e-9);
  // 5/6 > alpha: the example shows the analysis is nearly tight.
  EXPECT_NEAR(result.utility / exact.utility, 5.0 / 6.0, 1e-9);
  EXPECT_GE(result.utility / exact.utility, kApproximationRatio);
}

TEST(Algorithm2, HandlesEmptyInstance) {
  Instance instance;
  instance.num_servers = 2;
  instance.capacity = 10;
  const SolveResult result = solve_algorithm2(instance);
  EXPECT_TRUE(result.assignment.server.empty());
  EXPECT_DOUBLE_EQ(result.utility, 0.0);
}

TEST(Algorithm2, SingleServerMatchesSingleServerOptimal) {
  // With m = 1 the super-optimal allocation IS the optimal allocation, and
  // Algorithm 2 hands every thread min(c_hat, remaining); since
  // sum c_hat <= C it reproduces it exactly.
  const Instance instance = generated_instance(
      6, 1, 120, support::DistributionKind::kUniform, 3);
  const SolveResult result = solve_algorithm2(instance);
  EXPECT_NEAR(result.utility, result.super_optimal_utility,
              1e-9 * (1.0 + result.super_optimal_utility));
}

TEST(Algorithm2, AtMostOneUnfullThreadPerServer) {
  // Lemma V.5: threads receiving less than c_hat are alone-per-server.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = generated_instance(
        19, 4, 50, support::DistributionKind::kDiscrete, 200 + seed);
    const SolveResult result = solve_algorithm2(instance);
    std::vector<int> unfull_per_server(instance.num_servers, 0);
    for (std::size_t i = 0; i < instance.num_threads(); ++i) {
      if (result.assignment.alloc[i] <
          static_cast<double>(result.c_hat[i]) - 0.5) {
        ++unfull_per_server[result.assignment.server[i]];
      }
    }
    for (const int count : unfull_per_server) ASSERT_LE(count, 1);
  }
}

TEST(Algorithm2Options, DisablingSortsDegradesOrMatches) {
  const Instance instance = generated_instance(
      40, 4, 100, support::DistributionKind::kPowerLaw, 42);
  const SolveResult full = solve_algorithm2(instance);

  alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  const auto linearized = util::linearize(instance.threads, so.c_hat);

  Algorithm2Options no_sort;
  no_sort.sort_by_peak = false;
  no_sort.resort_tail_by_density = false;
  const Assignment degraded = assign_algorithm2(instance, linearized, no_sort);
  EXPECT_EQ(check_assignment(instance, degraded), "");
  // Unsorted assignment can never beat the full algorithm by more than
  // noise on this heavy-tailed workload (and typically loses).
  EXPECT_LE(total_utility(instance, degraded), full.utility + 1e-9);
}

// With no server to be the fullest, the assignment rejects the instance as
// Instance::validate does, rather than reading the top of an empty heap.
TEST(Algorithm2, ThreadsWithoutServersAreRejected) {
  Instance instance;
  instance.num_servers = 0;
  instance.capacity = 10;
  instance.threads.push_back(
      std::make_shared<CappedLinearUtility>(1.0, 5.0, 10));
  const std::vector<util::Linearized> linearized = {{5, 5.0}};
  EXPECT_THROW((void)assign_algorithm2(instance, linearized),
               std::invalid_argument);
}

TEST(Algorithm2, DeterministicAcrossRuns) {
  const Instance instance = generated_instance(
      25, 5, 64, support::DistributionKind::kNormal, 77);
  const SolveResult a = solve_algorithm2(instance);
  const SolveResult b = solve_algorithm2(instance);
  EXPECT_EQ(a.assignment.server, b.assignment.server);
  EXPECT_EQ(a.assignment.alloc, b.assignment.alloc);
  EXPECT_DOUBLE_EQ(a.utility, b.utility);
}

}  // namespace
}  // namespace aa::core
