// Microbenchmarks of the end-to-end solvers at the paper's timing point
// (Section VII: m = 8, n = 100, C = 1000 — "an unoptimized Matlab
// implementation of Algorithm 2 finishes in only 0.02 seconds") and of the
// baselines. Expected shape: Algorithm 2 comfortably under the paper's
// Matlab time; heuristics orders of magnitude cheaper; Algorithm 1 close to
// Algorithm 2 at this size (the m n^2 term is still small).

#include <benchmark/benchmark.h>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/heterogeneous.hpp"
#include "aa/heuristics.hpp"
#include "aa/refine.hpp"
#include "sim/workload.hpp"
#include "utility/generator.hpp"

namespace {

aa::core::Instance paper_instance(std::uint64_t seed) {
  aa::sim::WorkloadConfig config;
  config.num_servers = 8;
  config.capacity = 1000;
  config.beta = 12.5;  // n = 100.
  config.dist.kind = aa::support::DistributionKind::kUniform;
  auto rng = aa::support::Rng::child(2016, seed);
  return aa::sim::generate_instance(config, rng);
}

void BM_Algorithm2_PaperPoint(benchmark::State& state) {
  const auto instance = paper_instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm2(instance));
  }
}
BENCHMARK(BM_Algorithm2_PaperPoint);

void BM_Algorithm2Refined_PaperPoint(benchmark::State& state) {
  const auto instance = paper_instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm2_refined(instance));
  }
}
BENCHMARK(BM_Algorithm2Refined_PaperPoint);

void BM_Algorithm1_PaperPoint(benchmark::State& state) {
  const auto instance = paper_instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm1(instance));
  }
}
BENCHMARK(BM_Algorithm1_PaperPoint);

void BM_HeuristicUU_PaperPoint(benchmark::State& state) {
  const auto instance = paper_instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::heuristic_uu(instance));
  }
}
BENCHMARK(BM_HeuristicUU_PaperPoint);

void BM_HeuristicRR_PaperPoint(benchmark::State& state) {
  const auto instance = paper_instance(0);
  aa::support::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::heuristic_rr(instance, rng));
  }
}
BENCHMARK(BM_HeuristicRR_PaperPoint);

// n = 512 on m = 8 servers of capacity 800, 850, ..., 1150.
void BM_Algorithm2Hetero(benchmark::State& state) {
  aa::core::HeteroInstance instance;
  for (aa::util::Resource j = 0; j < 8; ++j) {
    instance.capacities.push_back(800 + 50 * j);
  }
  auto rng = aa::support::Rng::child(42, 9001);
  instance.threads =
      aa::util::generate_utilities(512, instance.max_capacity(), {}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aa::core::solve_algorithm2_hetero(instance));
  }
}
BENCHMARK(BM_Algorithm2Hetero)->Unit(benchmark::kMillisecond);

void BM_InstanceGeneration_PaperPoint(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(paper_instance(seed++));
  }
}
BENCHMARK(BM_InstanceGeneration_PaperPoint);

}  // namespace

BENCHMARK_MAIN();
