// Tests for per-server allocation refinement (aa/refine.hpp).

#include "aa/refine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/exact.hpp"
#include "aa/heuristics.hpp"
#include "alloc/oracle.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::core {
namespace {

Instance generated_instance(
    std::size_t n, std::size_t m, Resource capacity, std::uint64_t seed,
    support::DistributionKind kind = support::DistributionKind::kUniform) {
  support::Rng rng(seed);
  support::DistributionParams dist;
  dist.kind = kind;
  Instance instance;
  instance.num_servers = m;
  instance.capacity = capacity;
  instance.threads = util::generate_utilities(n, capacity, dist, rng);
  return instance;
}

TEST(Reoptimize, NeverDecreasesUtilityAndStaysValid) {
  support::Rng heur_rng(3);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = generated_instance(20, 4, 60, seed);
    // Start from a deliberately bad allocation: UR's random split.
    const Assignment before = heuristic_ur(instance, heur_rng);
    const Assignment after = reoptimize_allocations(instance, before);
    ASSERT_EQ(check_assignment(instance, after), "");
    ASSERT_EQ(before.server, after.server);  // Placement untouched.
    ASSERT_GE(total_utility(instance, after),
              total_utility(instance, before) - 1e-9);
  }
}

TEST(Reoptimize, RejectsOutOfRangeServer) {
  const Instance instance = generated_instance(6, 3, 40, 2);
  Assignment placement;
  placement.server = {0, 1, 2, 3, 0, 1};
  placement.alloc.assign(6, 0.0);
  EXPECT_THROW((void)reoptimize_allocations(instance, placement),
               std::out_of_range);
}

TEST(Reoptimize, FixedPointOnAlreadyOptimalAllocations) {
  const Instance instance = generated_instance(6, 3, 40, 1);
  const SolveResult refined = solve_algorithm2_refined(instance);
  const Assignment again =
      reoptimize_allocations(instance, refined.assignment);
  EXPECT_NEAR(total_utility(instance, again), refined.utility, 1e-9);
}

/// Per-server utilities of `assignment`, and each server's member list.
struct Servers {
  std::vector<double> utility;
  std::vector<std::vector<UtilityPtr>> members;
};

Servers per_server(const Instance& instance, const Assignment& assignment) {
  Servers out;
  out.utility.assign(instance.num_servers, 0.0);
  out.members.assign(instance.num_servers, {});
  for (std::size_t i = 0; i < instance.num_threads(); ++i) {
    const std::size_t j = assignment.server[i];
    out.utility[j] += instance.threads[i]->value(assignment.alloc[i]);
    out.members[j].push_back(instance.threads[i]);
  }
  return out;
}

TEST(Reoptimize, EveryServerMatchesTheGreedyOracle) {
  // Each server is the single-pool problem with pool = cap = C. The shapes
  // include Algorithm 2 placements with many more threads than servers, so
  // one server receives every c_hat = 0 thread.
  struct Shape {
    std::size_t n;
    std::size_t m;
    Resource capacity;
  };
  for (const Shape shape : {Shape{12, 4, 50}, Shape{64, 8, 100},
                            Shape{400, 8, 100}, Shape{2000, 8, 200}}) {
    for (const support::DistributionKind kind :
         {support::DistributionKind::kUniform,
          support::DistributionKind::kNormal,
          support::DistributionKind::kPowerLaw,
          support::DistributionKind::kDiscrete}) {
      SCOPED_TRACE("n=" + std::to_string(shape.n) + " kind=" +
                   std::to_string(static_cast<int>(kind)));
      const Instance instance = generated_instance(
          shape.n, shape.m, shape.capacity, 41 + shape.n, kind);
      const Assignment placement = solve_algorithm2(instance).assignment;
      const Servers refined =
          per_server(instance, reoptimize_allocations(instance, placement));
      for (std::size_t j = 0; j < instance.num_servers; ++j) {
        const double greedy =
            alloc::allocate_greedy(refined.members[j], instance.capacity,
                                   instance.capacity)
                .total_utility;
        EXPECT_NEAR(refined.utility[j], greedy, 1e-12 * std::abs(greedy))
            << "server " << j;
      }
    }
  }
}

TEST(Reoptimize, SmallPoolsMatchTheDynamicProgram) {
  // The DP oracle is exact without the concavity argument; on pools small
  // enough for it, every server must reach its optimum too.
  support::Rng heur_rng(11);
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Instance instance = generated_instance(
        14, 3, 24, 300 + seed,
        seed % 2 == 0 ? support::DistributionKind::kDiscrete
                      : support::DistributionKind::kNormal);
    const Assignment placement = heuristic_ur(instance, heur_rng);
    const Servers refined =
        per_server(instance, reoptimize_allocations(instance, placement));
    for (std::size_t j = 0; j < instance.num_servers; ++j) {
      const alloc::AllocationResult dp = alloc::allocate_dp_exact(
          refined.members[j], instance.capacity, instance.capacity);
      EXPECT_NEAR(refined.utility[j], dp.total_utility,
                  1e-12 * (1.0 + dp.total_utility))
          << "seed " << seed << " server " << j;
    }
  }
}

TEST(Reoptimize, RejectsSizeMismatch) {
  const Instance instance = generated_instance(4, 2, 20, 2);
  Assignment wrong;
  EXPECT_THROW((void)reoptimize_allocations(instance, wrong),
               std::invalid_argument);
}

TEST(RefinedSolvers, ImproveOnRawAndKeepCertificates) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Instance instance = generated_instance(32, 4, 80, 100 + seed);
    const SolveResult raw = solve_algorithm2(instance);
    const SolveResult refined = solve_algorithm2_refined(instance);
    ASSERT_GE(refined.utility, raw.utility - 1e-9);
    ASSERT_LE(refined.utility, refined.super_optimal_utility + 1e-9);
    // Certificates carried over unchanged.
    ASSERT_DOUBLE_EQ(refined.super_optimal_utility, raw.super_optimal_utility);
    ASSERT_EQ(check_assignment(instance, refined.assignment), "");
  }
}

TEST(RefinedSolvers, Algorithm1VariantAlsoImproves) {
  const Instance instance = generated_instance(24, 3, 70, 7);
  const SolveResult raw = solve_algorithm1(instance);
  const SolveResult refined = solve_algorithm1_refined(instance);
  EXPECT_GE(refined.utility, raw.utility - 1e-9);
}

TEST(RefinedSolvers, CloseTheGapToSuperOptimalOnPaperWorkload) {
  // The reproduction of the paper's ">= 99% of optimal" headline: refined
  // Algorithm 2 averages above 0.99 of the SUPER-optimal bound (stronger
  // than optimal) on the uniform workload at beta = 3.
  double total_ratio = 0.0;
  const int trials = 30;
  for (std::uint64_t seed = 0; seed < trials; ++seed) {
    const Instance instance = generated_instance(24, 8, 200, 500 + seed);
    const SolveResult refined = solve_algorithm2_refined(instance);
    total_ratio += refined.utility / refined.super_optimal_utility;
  }
  EXPECT_GE(total_ratio / trials, 0.99);
}

TEST(RefinedSolvers, StillAboveAlphaTimesExactOptimum) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance instance = generated_instance(7, 3, 18, 900 + seed);
    const SolveResult refined = solve_algorithm2_refined(instance);
    const ExactResult exact = solve_exact(instance);
    ASSERT_GE(refined.utility,
              kApproximationRatio * exact.utility - 1e-9);
    ASSERT_LE(refined.utility, exact.utility + 1e-7 * (1.0 + exact.utility));
  }
}

}  // namespace
}  // namespace aa::core
