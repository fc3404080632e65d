// Differential wall for the single-pool allocator (alloc/bisection_soa.cpp):
// allocate_bisection_soa — and super_optimal, which is that allocator with
// pool = m*C — must be BIT-IDENTICAL to the literal allocate_bisection
// oracle (alloc/oracle.hpp): same allocation vector, same total-utility
// double, for every tested input. That exactness is what lets every solver
// run on it without re-running any golden or certificate test: downstream
// consumers cannot observe which of the two ran. Mirrors
// algorithm1_equivalence_test's reference-pinning style
// (docs/ALGORITHMS.md "Single-pool allocator").
//
// Coverage deliberately includes: all four generated distributions at
// super-optimal shapes (pool = m*C) up to n = 2*10^4, the per-server
// refine shape (pool = cap = C with many more threads than the pool can
// serve, where the order-statistic start leaves about pool+1 threads
// active), the per-server member-list overload, exact ties at the start
// price, all-identical utilities, pool = 0, exactly pool+1 threads with a
// positive first marginal, zero capacity, capacity starvation,
// single-thread shapes, and non-tabulated utilities that miss the raw-grid
// fast path (scaled/analytic families).

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/oracle.hpp"
#include "alloc/super_optimal.hpp"
#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"
#include "utility/utility_function.hpp"

namespace aa {
namespace {

using util::Resource;
using util::UtilityPtr;

/// Asserts the allocator reproduces the oracle bit-for-bit at (pool, cap).
void expect_pool_identical(const std::vector<UtilityPtr>& threads,
                           Resource pool, Resource cap) {
  SCOPED_TRACE("pool=" + std::to_string(pool) + " cap=" + std::to_string(cap));
  const alloc::AllocationResult oracle =
      alloc::allocate_bisection(threads, pool, cap);
  const alloc::AllocationResult fast =
      alloc::allocate_bisection_soa(threads, pool, cap);
  EXPECT_EQ(fast.amounts, oracle.amounts);
  EXPECT_EQ(fast.total_utility, oracle.total_utility);
}

/// Asserts super_optimal reproduces the oracle at pool = m*C, cap = C.
void expect_bit_identical(const std::vector<UtilityPtr>& threads,
                          std::size_t num_servers, Resource capacity) {
  const alloc::AllocationResult oracle = alloc::allocate_bisection(
      threads, static_cast<Resource>(num_servers) * capacity, capacity);
  const alloc::SuperOptimalResult so =
      alloc::super_optimal(threads, num_servers, capacity);
  ASSERT_EQ(so.c_hat.size(), oracle.amounts.size());
  EXPECT_EQ(so.c_hat, oracle.amounts);
  EXPECT_EQ(so.utility, oracle.total_utility);
}

std::vector<UtilityPtr> generated(support::DistributionKind kind,
                                  std::size_t n, Resource capacity,
                                  std::uint64_t seed) {
  support::DistributionParams dist;
  dist.kind = kind;
  support::Rng rng = support::Rng::child(seed, n);
  return util::generate_utilities(n, capacity, dist, rng);
}

/// A tabulated utility with the given marginals (f(0) = 0).
UtilityPtr from_marginals(const std::vector<double>& marginals) {
  std::vector<double> values{0.0};
  for (const double m : marginals) values.push_back(values.back() + m);
  return std::make_shared<const util::TabulatedUtility>(std::move(values));
}

const support::DistributionKind kKinds[] = {
    support::DistributionKind::kUniform,
    support::DistributionKind::kNormal,
    support::DistributionKind::kPowerLaw,
    support::DistributionKind::kDiscrete,
};

const char* kind_name(support::DistributionKind kind) {
  switch (kind) {
    case support::DistributionKind::kUniform: return "uniform";
    case support::DistributionKind::kNormal: return "normal";
    case support::DistributionKind::kPowerLaw: return "powerlaw";
    case support::DistributionKind::kDiscrete: return "discrete";
  }
  return "?";
}

TEST(SuperOptimalEquivalence, AllDistributionsAcrossSizes) {
  // m=1 vs m=8 moves the pooled budget from starved to saturating.
  const std::size_t sizes[] = {1, 2, 3, 5, 9, 17, 33, 64, 129, 256, 1024};
  for (const support::DistributionKind kind : kKinds) {
    for (const std::size_t n : sizes) {
      for (const std::size_t m : {1UL, 8UL}) {
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
          SCOPED_TRACE(std::string(kind_name(kind)) + " n=" +
                       std::to_string(n) + " m=" + std::to_string(m) +
                       " seed=" + std::to_string(seed));
          expect_bit_identical(generated(kind, n, 48, seed), m, 48);
        }
      }
    }
  }
}

TEST(SuperOptimalEquivalence, MidSizeInstances) {
  for (const support::DistributionKind kind :
       {support::DistributionKind::kUniform,
        support::DistributionKind::kPowerLaw}) {
    for (const std::size_t n : {2048UL, 4096UL}) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " n=" + std::to_string(n));
      expect_bit_identical(generated(kind, n, 32, 31), 8, 32);
    }
  }
}

TEST(SuperOptimalEquivalence, SuperOptimalAtTenThousandThreads) {
  // The batch benchmark's shape: n = 10^4, m = 8, C = 1000, so the pool of
  // 8000 units leaves a positive start price on every distribution.
  for (const support::DistributionKind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    expect_bit_identical(generated(kind, 10'000, 1000, 5), 8, 1000);
  }
}

TEST(SuperOptimalEquivalence, SuperOptimalAtTwentyThousandThreads) {
  for (const support::DistributionKind kind :
       {support::DistributionKind::kUniform,
        support::DistributionKind::kDiscrete}) {
    SCOPED_TRACE(kind_name(kind));
    expect_bit_identical(generated(kind, 20'000, 400, 6), 8, 400);
  }
}

TEST(SuperOptimalEquivalence, RefineShapeOnePoolOfCapacityC) {
  // Per-server re-allocation: pool = cap = C = 1000 over far more threads
  // than the pool can serve (Algorithm 2 piles the c_hat = 0 threads onto
  // one server), so the start price prunes all but about pool+1 threads.
  for (const support::DistributionKind kind : kKinds) {
    for (const std::size_t n : {1250UL, 4000UL, 10'000UL}) {
      SCOPED_TRACE(std::string(kind_name(kind)) + " n=" + std::to_string(n));
      expect_pool_identical(generated(kind, n, 1000, 8), 1000, 1000);
    }
  }
}

TEST(SuperOptimalEquivalence, MemberListOverloadMatchesTheSubsetOracle) {
  // allocate_bisection_soa(threads, members, ...) must equal the oracle run
  // on the copied subset — the form refine, exact and local search use.
  const std::vector<UtilityPtr> all =
      generated(support::DistributionKind::kNormal, 3000, 200, 9);
  std::vector<std::size_t> members;
  std::vector<UtilityPtr> subset;
  for (std::size_t i = 0; i < all.size(); i += 3) {
    members.push_back(i);
    subset.push_back(all[i]);
  }
  for (const Resource pool : {0L, 1L, 200L, 5000L, 1'000'000L}) {
    SCOPED_TRACE("pool=" + std::to_string(pool));
    const alloc::AllocationResult oracle =
        alloc::allocate_bisection(subset, pool, 200);
    const alloc::AllocationResult fast =
        alloc::allocate_bisection_soa(all, members, pool, 200);
    EXPECT_EQ(fast.amounts, oracle.amounts);
    EXPECT_EQ(fast.total_utility, oracle.total_utility);
  }
}

TEST(SuperOptimalEquivalence, DiscreteTiesAtTheStartPrice) {
  // Three distinct utilities, each shared by many threads: first marginals
  // tie in blocks, so for every pool below the (pool+1)-th largest first
  // marginal sits inside a tie block and threads exactly at the start
  // price must stay in the sweep.
  const UtilityPtr high = from_marginals({0.9, 0.5, 0.5, 0.2, 0.1});
  const UtilityPtr mid = from_marginals({0.5, 0.5, 0.3, 0.3, 0.0});
  const UtilityPtr low = from_marginals({0.2, 0.2, 0.1, 0.05, 0.05});
  std::vector<UtilityPtr> threads;
  for (std::size_t i = 0; i < 60; ++i) {
    threads.push_back(i % 3 == 0 ? high : (i % 3 == 1 ? mid : low));
  }
  for (Resource pool = 0; pool <= 300; pool += 7) {
    expect_pool_identical(threads, pool, 5);
  }
  // And the discrete generator's own ties at the super-optimal shape.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::vector<UtilityPtr> discrete =
        generated(support::DistributionKind::kDiscrete, 600, 20, seed);
    for (const Resource pool : {1L, 20L, 150L, 599L, 600L, 601L, 6000L}) {
      expect_pool_identical(discrete, pool, 20);
    }
  }
}

TEST(SuperOptimalEquivalence, ExactTiesFromSharedUtility) {
  // Every thread is the same object: all marginals tie exactly, the lambda
  // plateau spans the whole instance, and the residual distribution plus
  // greedy tie-breaks must replay identically.
  support::DistributionParams dist;
  support::Rng rng(99);
  const UtilityPtr shared = util::generate_utility(100, dist, rng);
  for (const std::size_t n : {5UL, 40UL, 2500UL}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<UtilityPtr> threads(n, shared);
    expect_bit_identical(threads, 4, 100);
  }
}

TEST(SuperOptimalEquivalence, AllIdenticalUtilitiesAcrossPools) {
  // The start price is the shared first marginal itself whenever
  // pool < n: every thread ties at it.
  support::DistributionParams dist;
  support::Rng rng(17);
  const UtilityPtr shared = util::generate_utility(30, dist, rng);
  const std::vector<UtilityPtr> threads(50, shared);
  for (const Resource pool : {0L, 1L, 2L, 49L, 50L, 51L, 99L, 750L, 1499L,
                              1500L, 1501L}) {
    expect_pool_identical(threads, pool, 30);
  }
}

TEST(SuperOptimalEquivalence, ZeroPool) {
  for (const support::DistributionKind kind : kKinds) {
    SCOPED_TRACE(kind_name(kind));
    const std::vector<UtilityPtr> threads = generated(kind, 300, 64, 12);
    expect_pool_identical(threads, 0, 64);
    expect_pool_identical(threads, 0, alloc::kNoCap);
  }
}

TEST(SuperOptimalEquivalence, ExactlyPoolPlusOnePositiveFirstMarginals) {
  // pool + 1 threads have a positive first marginal and the rest are flat,
  // so the start price is the smallest positive first marginal; one unit
  // fewer in the pool and it moves up a rank, one more and it drops to 0.
  // With cap = 1 every thread holds one unit, so count(start) = pool + 1
  // exactly: the start invariant holds with no slack.
  support::DistributionParams dist;
  support::Rng rng(23);
  const UtilityPtr flat = from_marginals({0.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  for (const Resource pool : {1L, 4L, 9L, 32L}) {
    std::vector<UtilityPtr> threads;
    for (Resource i = 0; i <= pool; ++i) {
      threads.push_back(flat);
      threads.push_back(util::generate_utility(6, dist, rng));
    }
    threads.push_back(flat);
    SCOPED_TRACE("positive=" + std::to_string(pool + 1));
    for (const Resource p : {pool - 1, pool, pool + 1}) {
      expect_pool_identical(threads, p, 6);
      expect_pool_identical(threads, p, 1);
    }
  }
}

TEST(SuperOptimalEquivalence, ZeroCapacityAndStarvation) {
  support::DistributionParams dist;
  support::Rng rng(7);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(40, 50, dist, rng);
  // capacity = 0: pooled budget and every per-thread cap collapse to zero.
  expect_bit_identical(threads, 4, 0);
  // Starved: pool = m * C = 8 units across 40 threads of capacity 50.
  expect_bit_identical(threads, 2, 4);
  // Zero servers: empty pooled budget with live utilities.
  expect_bit_identical(threads, 0, 50);
}

TEST(SuperOptimalEquivalence, SingleThreadShapes) {
  support::DistributionParams dist;
  support::Rng rng(13);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(1, 50, dist, rng);
  expect_bit_identical(threads, 1, 50);
  expect_bit_identical(threads, 6, 50);
  expect_bit_identical(threads, 1, 1);
}

TEST(SuperOptimalEquivalence, NonTabulatedUtilitiesMissTheGridFastPath) {
  // Scaled and analytic families are not TabulatedUtility, so the allocator
  // falls back to virtual marginal() calls; the values must still match the
  // oracle exactly. Mixed in with tabulated threads to cover both code
  // paths inside one probe sweep.
  support::DistributionParams dist;
  support::Rng rng(55);
  std::vector<UtilityPtr> threads;
  for (std::size_t i = 0; i < 24; ++i) {
    const UtilityPtr tabulated = util::generate_utility(60, dist, rng);
    switch (i % 4) {
      case 0:
        threads.push_back(tabulated);
        break;
      case 1:
        threads.push_back(
            std::make_shared<const util::ScaledUtility>(tabulated, 1.7));
        break;
      case 2:
        threads.push_back(std::make_shared<const util::LogUtility>(
            3.0, 0.2 + 0.05 * static_cast<double>(i), 60));
        break;
      default:
        threads.push_back(std::make_shared<const util::PowerUtility>(
            2.0, 0.6, 60));
        break;
    }
  }
  expect_bit_identical(threads, 3, 60);
  expect_pool_identical(threads, 60, 60);
}

TEST(SuperOptimalEquivalence, EmptyInstance) {
  const std::vector<UtilityPtr> threads;
  expect_bit_identical(threads, 4, 16);
}

TEST(SuperOptimalEquivalence, NegativeCapacityThrowsOnEveryPath) {
  support::DistributionParams dist;
  support::Rng rng(3);
  const std::vector<UtilityPtr> threads =
      util::generate_utilities(2, 8, dist, rng);
  EXPECT_THROW((void)alloc::super_optimal(threads, 2, -1),
               std::invalid_argument);
  EXPECT_THROW((void)alloc::allocate_bisection_soa(threads, -1),
               std::invalid_argument);
  const std::vector<UtilityPtr> with_null{threads[0], nullptr};
  EXPECT_THROW((void)alloc::allocate_bisection_soa(with_null, 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace aa
