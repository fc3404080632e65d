// Asymptotic-shape benchmarks for Theorems V.18 and VI.2:
//   Algorithm 1: O(m n^2 + n (log mC)^2) — the m n^2 term dominates at
//                large n, so time grows ~quadratically in n.
//   Algorithm 2: O(n (log mC)^2) — near-linear in n (dominated by the
//                super-optimal allocation).
// Also isolates the two super-optimal allocator implementations: the
// heap greedy is O((n + mC) log n), the bisection O(n (log mC)^2), so the
// bisection wins at large C.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "alloc/oracle.hpp"
#include "alloc/super_optimal.hpp"
#include "sim/workload.hpp"

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

}  // namespace

BENCHMARK_MAIN();
