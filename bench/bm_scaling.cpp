// Asymptotic-shape benchmarks for Theorems V.18 and VI.2:
//   Algorithm 1: O(m n^2 + n (log mC)^2) as the paper writes it
//                (BM_Algorithm1Reference_ScaleN) — time grows ~quadratically
//                in n. The shipped incremental rounds choose the same pairs
//                in O(n log n + (n + m) m), near-linear at m = 8.
//   Algorithm 2: O(n (log mC)^2) — near-linear in n (dominated by the
//                super-optimal allocation). Its assignment phase alone
//                (BM_Algorithm2Assign_N10k) is O(n + k log k + k log m),
//                k the threads with c_hat > 0 or a nonzero peak.
// The super-optimal allocator is also timed alone: heap greedy
// O((n + mC) log n) against the bisection O(n (log mC)^2) across C, the
// bisection across n = 10^3..10^6 (m = 8), and per server as the refine
// step on Algorithm 2's placement.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/refine.hpp"
#include "alloc/oracle.hpp"
#include "alloc/super_optimal.hpp"
#include "sim/workload.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace {

aa::core::Instance sized_instance(std::size_t n, std::size_t m,
                                  aa::util::Resource capacity) {
  aa::sim::WorkloadConfig config;
  config.num_servers = m;
  config.capacity = capacity;
  config.beta = static_cast<double>(n) / static_cast<double>(m);
  config.dist.kind = aa::support::DistributionKind::kUniform;
  auto rng = aa::support::Rng::child(7, n * 1000 + m);
  return aa::sim::generate_instance(config, rng);
}

void BM_Algorithm1_ScaleN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = sized_instance(n, 8, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm1(instance));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Algorithm1_ScaleN)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

// solve_algorithm1's pipeline with the literal pseudocode rounds in place
// of the incremental ones; the assignment is bit-identical
// (tests/algorithm1_equivalence_test.cpp), so the gap is the rescans' cost.
void BM_Algorithm1Reference_ScaleN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = sized_instance(n, 8, 200);
  for (auto _ : state) {
    const aa::alloc::SuperOptimalResult so = aa::alloc::super_optimal(
        instance.threads, instance.num_servers, instance.capacity);
    const std::vector<aa::util::Linearized> linearized =
        aa::util::linearize(instance.threads, so.c_hat);
    const aa::core::Assignment assignment =
        aa::core::assign_algorithm1_reference(instance, linearized);
    benchmark::DoNotOptimize(aa::core::total_utility(instance, assignment));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Algorithm1Reference_ScaleN)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_Algorithm2_ScaleN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto instance = sized_instance(n, 8, 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm2(instance));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Algorithm2_ScaleN)->RangeMultiplier(2)->Range(32, 512)
    ->Complexity();

void BM_SuperOptimalBisection_ScaleC(benchmark::State& state) {
  const auto capacity =
      static_cast<aa::util::Resource>(state.range(0));
  const auto instance = sized_instance(64, 8, capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::alloc::super_optimal(
        instance.threads, instance.num_servers, instance.capacity));
  }
}
BENCHMARK(BM_SuperOptimalBisection_ScaleC)
    ->RangeMultiplier(4)
    ->Range(256, 16384);

void BM_SuperOptimalGreedy_ScaleC(benchmark::State& state) {
  const auto capacity =
      static_cast<aa::util::Resource>(state.range(0));
  const auto instance = sized_instance(64, 8, capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::alloc::allocate_greedy(
        instance.threads,
        static_cast<aa::util::Resource>(instance.num_servers) *
            instance.capacity,
        instance.capacity));
  }
}
BENCHMARK(BM_SuperOptimalGreedy_ScaleC)
    ->RangeMultiplier(4)
    ->Range(256, 16384);

// The allocator at the scales perfbench's solve_n10k does not reach:
// n threads from the Section VII generator (seed 42, stream n), pool 8 * C.
// n = 10^6 uses C = 128 so the sampled utility tables fit in ~1.1 GB.
std::vector<aa::util::UtilityPtr> allocator_threads(
    std::size_t n, aa::util::Resource capacity) {
  auto rng = aa::support::Rng::child(42, n);
  return aa::util::generate_utilities(n, capacity, {}, rng);
}

void BM_SuperOptimal_ScaleN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto capacity = static_cast<aa::util::Resource>(state.range(1));
  const auto threads = allocator_threads(n, capacity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::alloc::super_optimal(threads, 8, capacity));
  }
}
BENCHMARK(BM_SuperOptimal_ScaleN)
    ->ArgNames({"n", "c"})
    ->Args({1024, 1000})
    ->Args({10'000, 1000})
    ->Args({100'000, 1000})
    ->Args({1'000'000, 128})
    ->Unit(benchmark::kMillisecond);

// The same allocator per server (pool = C) on Algorithm 2's placement of
// the n = 10^4 threads above: the threads with c_hat = 0 all land on one
// server, so one refine call sees most of the instance.
void BM_Refine_N10k(benchmark::State& state) {
  aa::core::Instance instance;
  instance.num_servers = 8;
  instance.capacity = 1000;
  instance.threads = allocator_threads(10'000, instance.capacity);
  const aa::core::Assignment placement =
      aa::core::solve_algorithm2(instance).assignment;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aa::core::reoptimize_allocations(instance, placement));
  }
}
BENCHMARK(BM_Refine_N10k)->Unit(benchmark::kMillisecond);

// Algorithm 2's assignment phase alone on the same threads, linearization
// computed once outside the loop. Both sorts and the heap touch only the
// threads with a nonzero key; most of the 10^4 threads have c_hat = 0.
void BM_Algorithm2Assign_N10k(benchmark::State& state) {
  aa::core::Instance instance;
  instance.num_servers = 8;
  instance.capacity = 1000;
  instance.threads = allocator_threads(10'000, instance.capacity);
  const aa::alloc::SuperOptimalResult so = aa::alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  const std::vector<aa::util::Linearized> linearized =
      aa::util::linearize(instance.threads, so.c_hat);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        aa::core::assign_algorithm2(instance, linearized));
  }
}
BENCHMARK(BM_Algorithm2Assign_N10k)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
