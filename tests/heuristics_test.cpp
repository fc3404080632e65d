// Tests for the UU / UR / RU / RR baselines (aa/heuristics.hpp).

#include "aa/heuristics.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>

#include "aa/algorithm2.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::core {
namespace {

Instance generated_instance(std::size_t n, std::size_t m, Resource capacity,
                            std::uint64_t seed) {
  support::Rng rng(seed);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kUniform;
  Instance instance;
  instance.num_servers = m;
  instance.capacity = capacity;
  instance.threads = util::generate_utilities(n, capacity, dist, rng);
  return instance;
}

TEST(HeuristicUU, RoundRobinPlacementAndEqualShares) {
  const Instance instance = generated_instance(7, 3, 90, 1);
  const Assignment a = heuristic_uu(instance);
  ASSERT_EQ(check_assignment(instance, a), "");
  // Round robin: servers get threads {0,3,6}, {1,4}, {2,5}.
  EXPECT_EQ(a.server[0], 0u);
  EXPECT_EQ(a.server[1], 1u);
  EXPECT_EQ(a.server[2], 2u);
  EXPECT_EQ(a.server[3], 0u);
  // Equal shares per server: server 0 has 3 threads -> 30 each.
  EXPECT_DOUBLE_EQ(a.alloc[0], 30.0);
  EXPECT_DOUBLE_EQ(a.alloc[3], 30.0);
  EXPECT_DOUBLE_EQ(a.alloc[1], 45.0);
  EXPECT_DOUBLE_EQ(a.alloc[2], 45.0);
}

TEST(HeuristicUU, SingleThreadPerServerGetsEverything) {
  const Instance instance = generated_instance(3, 3, 50, 2);
  const Assignment a = heuristic_uu(instance);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(a.alloc[i], 50.0);
}

TEST(HeuristicUU, BetaOneIsOptimal) {
  // Paper: "for beta = 1, UU achieves the optimal utility because it places
  // one thread on each server and allocates it all the resources."
  const Instance instance = generated_instance(4, 4, 100, 3);
  const double uu = total_utility(instance, heuristic_uu(instance));
  const double alg2 = solve_algorithm2(instance).utility;
  EXPECT_NEAR(uu, alg2, 1e-9 * (1.0 + alg2));
}

TEST(HeuristicUR, RoundRobinButRandomAmounts) {
  const Instance instance = generated_instance(8, 2, 100, 4);
  support::Rng rng(10);
  const Assignment a = heuristic_ur(instance, rng);
  ASSERT_EQ(check_assignment(instance, a), "");
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(a.server[i], i % 2);
  // Random amounts: with probability 1 the four allocations on a server
  // differ.
  std::set<double> amounts(a.alloc.begin(), a.alloc.end());
  EXPECT_GT(amounts.size(), 2u);
  // Server loads must exactly exhaust capacity.
  const auto loads = server_loads(instance, a);
  EXPECT_NEAR(loads[0], 100.0, 1e-9);
  EXPECT_NEAR(loads[1], 100.0, 1e-9);
}

TEST(HeuristicRU, RandomServersEqualShares) {
  const Instance instance = generated_instance(40, 4, 100, 5);
  support::Rng rng(11);
  const Assignment a = heuristic_ru(instance, rng);
  ASSERT_EQ(check_assignment(instance, a), "");
  // Every used server's threads share equally: verify per-server equality.
  std::vector<std::vector<double>> by_server(4);
  for (std::size_t i = 0; i < a.size(); ++i) {
    by_server[a.server[i]].push_back(a.alloc[i]);
  }
  for (const auto& allocs : by_server) {
    for (const double x : allocs) {
      ASSERT_DOUBLE_EQ(x, allocs.front());
    }
  }
  // With 40 threads over 4 servers, all servers are used w.h.p.
  for (const auto& allocs : by_server) EXPECT_FALSE(allocs.empty());
}

TEST(HeuristicRR, ValidAndExhaustsUsedServers) {
  const Instance instance = generated_instance(20, 4, 60, 6);
  support::Rng rng(12);
  const Assignment a = heuristic_rr(instance, rng);
  ASSERT_EQ(check_assignment(instance, a), "");
  const auto loads = server_loads(instance, a);
  for (std::size_t j = 0; j < loads.size(); ++j) {
    if (loads[j] > 0.0) {
      EXPECT_NEAR(loads[j], 60.0, 1e-9);
    }
  }
}

TEST(Heuristics, RandomizedOnesAreSeedDeterministic) {
  const Instance instance = generated_instance(10, 3, 50, 7);
  support::Rng rng1(42);
  support::Rng rng2(42);
  const Assignment a = heuristic_rr(instance, rng1);
  const Assignment b = heuristic_rr(instance, rng2);
  EXPECT_EQ(a.server, b.server);
  EXPECT_EQ(a.alloc, b.alloc);
}

TEST(Heuristics, Algorithm2DominatesAllFourOnAverage) {
  // Not guaranteed per-instance, but with 20 pooled instances Algorithm 2's
  // mean utility must exceed every heuristic's (the paper's headline).
  double alg2_sum = 0.0;
  double uu_sum = 0.0;
  double ur_sum = 0.0;
  double ru_sum = 0.0;
  double rr_sum = 0.0;
  support::Rng heur_rng(99);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Instance instance = generated_instance(24, 4, 80, 1000 + seed);
    alg2_sum += solve_algorithm2(instance).utility;
    uu_sum += total_utility(instance, heuristic_uu(instance));
    ur_sum += total_utility(instance, heuristic_ur(instance, heur_rng));
    ru_sum += total_utility(instance, heuristic_ru(instance, heur_rng));
    rr_sum += total_utility(instance, heuristic_rr(instance, heur_rng));
  }
  EXPECT_GT(alg2_sum, uu_sum);
  EXPECT_GT(alg2_sum, ur_sum);
  EXPECT_GT(alg2_sum, ru_sum);
  EXPECT_GT(alg2_sum, rr_sum);
  // And the paper's secondary observation: uniform allocation beats random.
  EXPECT_GT(uu_sum, ur_sum);
  EXPECT_GT(ru_sum, rr_sum);
}

TEST(Heuristics, EmptyInstance) {
  Instance instance;
  instance.num_servers = 2;
  instance.capacity = 10;
  support::Rng rng(1);
  EXPECT_TRUE(heuristic_uu(instance).server.empty());
  EXPECT_TRUE(heuristic_rr(instance, rng).server.empty());
}

// Without servers the round robin and the random pick would divide by zero:
// each heuristic validates its input as the solvers do.
TEST(Heuristics, RejectInstanceWithoutServers) {
  Instance instance = generated_instance(1, 1, 10, 2);
  instance.num_servers = 0;
  support::Rng rng(1);
  EXPECT_THROW((void)heuristic_uu(instance), std::invalid_argument);
  EXPECT_THROW((void)heuristic_ur(instance, rng), std::invalid_argument);
  EXPECT_THROW((void)heuristic_ru(instance, rng), std::invalid_argument);
  EXPECT_THROW((void)heuristic_rr(instance, rng), std::invalid_argument);
}

}  // namespace
}  // namespace aa::core
