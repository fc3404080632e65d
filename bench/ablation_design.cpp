// Ablation bench: quantifies each design choice DESIGN.md calls out, on the
// paper's power-law workload (the most discriminating one):
//
//   full       — Algorithm 2 + per-server re-allocation (paper's evaluated
//                configuration, `solve_algorithm2_refined`)
//   raw        — Algorithm 2 exactly as the pseudocode (no refinement)
//   no-density — step 2 (tail density sort) disabled
//   paper-typo — tail sorted NONDECREASING by density (the Section VI-A
//                prose reading; Lemma V.10 requires the opposite)
//   no-sort    — both sorts disabled (heap placement only)
//   alg1       — Algorithm 1 (raw) for cross-algorithm comparison
//
// Every row reports mean utility relative to the super-optimal bound.
// Expected: full > raw ~ no-density > paper-typo > no-sort; alg1 ~ raw.
// (The tail density sort matters mostly through its *direction*: the
// nondecreasing reading of the paper's prose measurably loses.)

#include <array>
#include <iostream>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "sim/workload.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace aa;

struct Accumulator {
  std::array<double, 6> utility{};
  double so = 0.0;
};

Accumulator run_beta(double beta, std::size_t trials) {
  std::vector<Accumulator> partial(trials);
  support::parallel_for(
      support::global_pool(), 0, trials, [&](std::size_t t) {
        sim::WorkloadConfig config;
        config.num_servers = 8;
        config.capacity = 1000;
        config.beta = beta;
        config.dist.kind = support::DistributionKind::kPowerLaw;
        config.dist.alpha = 2.0;
        auto rng = support::Rng::child(808, t);
        const core::Instance instance = sim::generate_instance(config, rng);

        const alloc::SuperOptimalResult so = alloc::super_optimal(
            instance.threads, instance.num_servers, instance.capacity);
        const auto lin = util::linearize(instance.threads, so.c_hat);

        auto evaluate = [&](const core::Algorithm2Options& options) {
          return core::total_utility(
              instance, core::assign_algorithm2(instance, lin, options));
        };

        Accumulator& acc = partial[t];
        acc.so = so.utility;
        acc.utility[0] = core::solve_algorithm2_refined(instance).utility;
        acc.utility[1] = evaluate(core::Algorithm2Options{});
        core::Algorithm2Options no_density;
        no_density.resort_tail_by_density = false;
        acc.utility[2] = evaluate(no_density);
        core::Algorithm2Options typo;
        typo.density_nonincreasing = false;
        acc.utility[3] = evaluate(typo);
        core::Algorithm2Options no_sort;
        no_sort.sort_by_peak = false;
        no_sort.resort_tail_by_density = false;
        acc.utility[4] = evaluate(no_sort);
        acc.utility[5] = core::solve_algorithm1(instance).utility;
      });
  Accumulator total;
  for (const Accumulator& p : partial) {
    total.so += p.so;
    for (std::size_t i = 0; i < total.utility.size(); ++i) {
      total.utility[i] += p.utility[i];
    }
  }
  return total;
}

std::size_t trials_from_env() {
  if (const char* env = std::getenv("AA_BENCH_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 500;
}

}  // namespace

int main() {
  const std::size_t trials = trials_from_env();
  support::Table table({"beta", "full/SO", "raw/SO", "no-density/SO",
                        "paper-typo/SO", "no-sort/SO", "alg1/SO"});
  for (const double beta : {2.0, 5.0, 10.0, 15.0}) {
    const Accumulator acc = run_beta(beta, trials);
    table.add_row_numeric({beta, acc.utility[0] / acc.so,
                           acc.utility[1] / acc.so, acc.utility[2] / acc.so,
                           acc.utility[3] / acc.so, acc.utility[4] / acc.so,
                           acc.utility[5] / acc.so});
  }
  std::cout << "== Ablation: Algorithm 2 design choices (power law, "
               "alpha = 2, m = 8, C = 1000, "
            << trials << " trials) ==\n"
            << "expect: full > raw ~ no-density > paper-typo > no-sort;\n"
            << "alg1 close to raw.\n\n"
            << table.to_text() << std::flush;
  return 0;
}
