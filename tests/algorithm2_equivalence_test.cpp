// Differential tests pinning Algorithm 2's placement (aa/algorithm2.cpp) to
// the literal pseudocode: two std::stable_sort passes over every thread and
// a heap pop and push per thread, kept below as `reference_place`. The
// shipped routine sorts only the nonzero keys and skips the heap for
// threads granted nothing (docs/ALGORITHMS.md, Step 3); the server and
// allocation vectors must match bit for bit, not merely in utility, across
// every Algorithm2Options combination, homogeneous and per-server
// capacities, and the key shapes that decide the zero block: zero keys
// with either sign, negative peaks, zero-cap threads with a positive peak
// in the head m, positive-cap threads with a zero peak, densities that
// underflow to 0, and all-equal keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "aa/algorithm2.hpp"
#include "aa/heterogeneous.hpp"
#include "aa/problem.hpp"
#include "alloc/allocator.hpp"
#include "alloc/super_optimal.hpp"
#include "sim/workload.hpp"
#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace aa {
namespace {

using util::Linearized;
using util::Resource;

/// Algorithm 2 lines 1-10 as the paper writes them.
core::Assignment reference_place(std::span<const Linearized> linearized,
                                 std::span<const Resource> capacities,
                                 const core::Algorithm2Options& options) {
  const std::size_t n = linearized.size();
  const std::size_t m = capacities.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options.sort_by_peak) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return linearized[a].peak > linearized[b].peak;
                     });
  }
  if (options.resort_tail_by_density && n > m) {
    const auto tail = order.begin() + static_cast<std::ptrdiff_t>(m);
    if (options.density_nonincreasing) {
      std::stable_sort(tail, order.end(), [&](std::size_t a, std::size_t b) {
        return linearized[a].density() > linearized[b].density();
      });
    } else {
      std::stable_sort(tail, order.end(), [&](std::size_t a, std::size_t b) {
        return linearized[a].density() < linearized[b].density();
      });
    }
  }
  using HeapEntry = std::pair<Resource, std::size_t>;
  auto cmp = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(
      cmp);
  for (std::size_t j = 0; j < m; ++j) heap.push({capacities[j], j});
  core::Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);
  for (const std::size_t i : order) {
    const auto [remaining, j] = heap.top();
    heap.pop();
    const Resource granted = std::min(linearized[i].cap, remaining);
    out.server[i] = j;
    out.alloc[i] = static_cast<double>(granted);
    heap.push({remaining - granted, j});
  }
  return out;
}

/// The eight Algorithm2Options combinations, the default first.
std::vector<core::Algorithm2Options> all_options() {
  std::vector<core::Algorithm2Options> out;
  for (int mask = 7; mask >= 0; --mask) {
    core::Algorithm2Options options;
    options.sort_by_peak = (mask & 4) != 0;
    options.resort_tail_by_density = (mask & 2) != 0;
    options.density_nonincreasing = (mask & 1) != 0;
    out.push_back(options);
  }
  return out;
}

std::string describe(const core::Algorithm2Options& options) {
  return std::string("peak=") + (options.sort_by_peak ? "1" : "0") +
         " density=" + (options.resort_tail_by_density ? "1" : "0") +
         " nonincreasing=" + (options.density_nonincreasing ? "1" : "0");
}

/// place_algorithm2 against the reference under every option combination.
void expect_same_placement(std::span<const Linearized> linearized,
                           std::span<const Resource> capacities) {
  for (const core::Algorithm2Options& options : all_options()) {
    SCOPED_TRACE(describe(options));
    const core::Assignment fast =
        core::place_algorithm2(linearized, capacities, options);
    const core::Assignment reference =
        reference_place(linearized, capacities, options);
    ASSERT_EQ(fast.server, reference.server);
    ASSERT_EQ(fast.alloc, reference.alloc);
  }
}

/// The homogeneous entry point, which also records the obs phase, against
/// the reference on m servers of capacity C; then per-server capacities
/// spread around C, as the heterogeneous solver passes them.
void expect_same_on_instance(const core::Instance& instance,
                             std::span<const Linearized> linearized) {
  const std::vector<Resource> uniform(instance.num_servers,
                                      instance.capacity);
  for (const core::Algorithm2Options& options : all_options()) {
    SCOPED_TRACE(describe(options));
    const core::Assignment fast =
        core::assign_algorithm2(instance, linearized, options);
    const core::Assignment reference =
        reference_place(linearized, uniform, options);
    ASSERT_EQ(fast.server, reference.server);
    ASSERT_EQ(fast.alloc, reference.alloc);
  }
  std::vector<Resource> spread(instance.num_servers);
  for (std::size_t j = 0; j < spread.size(); ++j) {
    spread[j] = instance.capacity / 2 +
                static_cast<Resource>(j * 7 % 5) * instance.capacity / 4;
  }
  expect_same_placement(linearized, spread);
}

std::vector<Linearized> linearize_super_optimal(
    const core::Instance& instance) {
  const alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  return util::linearize(instance.threads, so.c_hat);
}

const support::DistributionKind kKinds[] = {
    support::DistributionKind::kUniform,
    support::DistributionKind::kNormal,
    support::DistributionKind::kPowerLaw,
    support::DistributionKind::kDiscrete,
};

// The Section VII defaults at n = 10^4 (m = 8, C = 1000), where the
// super-optimal allocation gives c_hat = 0 to most threads: the shortcuts
// carry nearly the whole instance here.
TEST(Algorithm2Equivalence, SectionViiInstancesAtN10k) {
  for (std::size_t d = 0; d < 4; ++d) {
    SCOPED_TRACE("distribution " + std::to_string(d));
    sim::WorkloadConfig config;
    config.dist.kind = kKinds[d];
    config.beta = 10'000.0 / static_cast<double>(config.num_servers);
    support::Rng rng = support::Rng::child(1, 100 + d);
    const core::Instance instance = sim::generate_instance(config, rng);
    const std::vector<Linearized> linearized =
        linearize_super_optimal(instance);
    ASSERT_EQ(linearized.size(), 10'000U);
    const auto zero_caps = std::count_if(
        linearized.begin(), linearized.end(),
        [](const Linearized& g) { return g.cap == 0; });
    EXPECT_GT(zero_caps, 5'000);
    expect_same_on_instance(instance, linearized);
  }
}

// Few threads: n = 0..m (no density tail) and n = m + 1 (a tail of one).
TEST(Algorithm2Equivalence, ThreadCountsAroundServerCount) {
  for (std::size_t m = 1; m <= 7; ++m) {
    for (std::size_t n = 0; n <= m + 1; ++n) {
      SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n));
      support::Rng rng = support::Rng::child(11, m * 16 + n);
      core::Instance instance;
      instance.num_servers = m;
      instance.capacity = 20;
      support::DistributionParams dist;
      dist.kind = kKinds[n % 4];
      instance.threads =
          util::generate_utilities(n, instance.capacity, dist, rng);
      expect_same_on_instance(instance, linearize_super_optimal(instance));
    }
  }
}

// Random small generated instances: m 1..7, C 2..41, beta 0.5..8.5, all
// four distributions. The heterogeneous solver is held to the reference on
// its own pooled linearization with random per-server capacities.
TEST(Algorithm2Equivalence, RandomSmallInstances) {
  support::Rng rng(2027);
  for (int trial = 0; trial < 1200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    sim::WorkloadConfig config;
    config.dist.kind = kKinds[trial % 4];
    config.num_servers = 1 + rng.uniform_below(7);
    config.capacity = 2 + static_cast<Resource>(rng.uniform_below(40));
    config.beta = 0.5 + 8.0 * rng.uniform01();
    const core::Instance instance = sim::generate_instance(config, rng);
    expect_same_on_instance(instance, linearize_super_optimal(instance));

    core::HeteroInstance hetero;
    hetero.threads = instance.threads;
    for (std::size_t j = 0; j < instance.num_servers; ++j) {
      hetero.capacities.push_back(static_cast<Resource>(
          rng.uniform_below(static_cast<std::uint64_t>(config.capacity) + 1)));
    }
    const alloc::AllocationResult pooled = alloc::allocate_bisection_soa(
        hetero.threads, hetero.total_capacity(), hetero.max_capacity());
    const std::vector<Linearized> linearized =
        util::linearize(hetero.threads, pooled.amounts);
    const core::Assignment reference = reference_place(
        linearized, hetero.capacities, core::Algorithm2Options{});
    const core::SolveResult solved = core::solve_algorithm2_hetero(hetero);
    ASSERT_EQ(solved.assignment.server, reference.server);
    ASSERT_EQ(solved.assignment.alloc, reference.alloc);
  }
}

// Hand-built keys on each side of the zero block. The smallest subnormal
// over a cap of 3 rounds to a density of exactly 0 with a positive peak.
TEST(Algorithm2Equivalence, ZeroBlockEdgeKeys) {
  constexpr double kTiny = 4.9406564584124654e-324;
  ASSERT_EQ((Linearized{3, kTiny}.density()), 0.0);
  const std::vector<Linearized> edges = {
      {0, 9.0},    {4, 2.0}, {0, 8.0},  {7, 0.0},   {0, -1e-10}, {3, kTiny},
      {0, -0.0},   {5, 5.0}, {0, 0.0},  {2, -0.0},  {0, 3.0},    {6, 1.5},
      {0, -1e-10}, {1, 0.0}, {3, kTiny}, {0, 0.0},  {9, 4.5},    {0, 8.0},
  };
  for (std::size_t m = 1; m <= 6; ++m) {
    SCOPED_TRACE("m=" + std::to_string(m));
    expect_same_placement(edges, std::vector<Resource>(m, 10));
    expect_same_placement(edges, std::vector<Resource>(m, 0));
  }
  // All-equal keys: one tie block for both sorts.
  for (const Linearized same : {Linearized{5, 2.0}, Linearized{0, 0.0},
                                Linearized{4, -0.0}, Linearized{0, 1.0}}) {
    const std::vector<Linearized> tied(13, same);
    expect_same_placement(tied, std::vector<Resource>{7, 12, 7});
  }
}

// Random mixes drawn from few values, so ties, zeros of both signs,
// negative peaks and zero-cap threads with positive peaks all collide.
TEST(Algorithm2Equivalence, RandomTieHeavyKeys) {
  constexpr double kTiny = 4.9406564584124654e-324;
  const Resource caps[] = {0, 0, 0, 1, 2, 3, 5};
  const double peaks[] = {0.0, -0.0, -1e-10, kTiny, 1.0, 1.0, 2.0, 3.5};
  support::Rng rng(31);
  for (int trial = 0; trial < 2000; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<Linearized> linearized(rng.uniform_below(25));
    for (Linearized& g : linearized) {
      g.cap = caps[rng.uniform_below(7)];
      g.peak = peaks[rng.uniform_below(8)];
    }
    std::vector<Resource> capacities(1 + rng.uniform_below(6));
    for (Resource& c : capacities) {
      c = static_cast<Resource>(rng.uniform_below(11));
    }
    expect_same_placement(linearized, capacities);
  }
}

// The same key shapes from real utilities through the full pipeline: flat
// threads, which the super-optimal allocation leaves at c_hat = 0, with
// f(0) = 0 (slope 0), f(0) = -1e-10 (inside TabulatedUtility's tolerance)
// and f(0) = 3 (a zero-cap thread in the head m), mixed with generated ones.
TEST(Algorithm2Equivalence, DegenerateUtilitiesThroughThePipeline) {
  constexpr Resource kCapacity = 12;
  support::Rng rng(5);
  core::Instance instance;
  instance.num_servers = 3;
  instance.capacity = kCapacity;
  instance.threads = util::generate_utilities(9, kCapacity, {}, rng);
  for (int copy = 0; copy < 3; ++copy) {
    instance.threads.push_back(std::make_shared<util::CappedLinearUtility>(
        0.0, 4.0, kCapacity));
    instance.threads.push_back(std::make_shared<util::TabulatedUtility>(
        std::vector<double>(kCapacity + 1, -1e-10)));
    instance.threads.push_back(std::make_shared<util::TabulatedUtility>(
        std::vector<double>(kCapacity + 1, 3.0)));
  }
  const std::vector<Linearized> linearized = linearize_super_optimal(instance);
  EXPECT_TRUE(std::any_of(linearized.begin(), linearized.end(),
                          [](const Linearized& g) { return g.peak < 0.0; }));
  EXPECT_TRUE(std::any_of(
      linearized.begin(), linearized.end(),
      [](const Linearized& g) { return g.cap == 0 && g.peak > 0.0; }));
  expect_same_on_instance(instance, linearized);
}

}  // namespace
}  // namespace aa
