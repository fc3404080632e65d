#include "aa/online.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "aa/refine.hpp"

namespace aa::core {

std::size_t count_migrations(const Assignment& before,
                             const Assignment& after) {
  std::size_t moves = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before.server[i] != after.server[i]) ++moves;
  }
  return moves;
}

namespace {

Instance scaled_instance(const Instance& base,
                         const std::vector<double>& factors) {
  Instance epoch = base;
  for (std::size_t i = 0; i < base.threads.size(); ++i) {
    epoch.threads[i] =
        std::make_shared<util::ScaledUtility>(base.threads[i], factors[i]);
  }
  return epoch;
}

}  // namespace

PolicyStep policy_step(OnlinePolicy policy, const Instance& instance,
                       const Assignment& current, const SolveResult& fresh,
                       double hysteresis) {
  if (current.size() == 0) return {fresh.assignment, fresh.utility, 0};
  if (policy == OnlinePolicy::kStatic) {  // Frozen epoch-0 placement.
    return {current, total_utility(instance, current), 0};
  }
  if (policy == OnlinePolicy::kSticky) {
    // Re-allocate within servers for free; migrate only when the fresh
    // solution wins by more than the hysteresis.
    Assignment retuned = reoptimize_allocations(instance, current);
    const double retained = total_utility(instance, retuned);
    if (!sticky_should_migrate(fresh.utility, retained, hysteresis)) {
      return {std::move(retuned), retained, 0};
    }
  }
  return {fresh.assignment, fresh.utility,
          count_migrations(current, fresh.assignment)};
}

OnlineResult run_online(const Instance& base, OnlinePolicy policy,
                        const OnlineConfig& config, support::Rng& rng) {
  base.validate();
  const std::size_t n = base.num_threads();
  std::vector<double> factors(n, 1.0);

  OnlineResult result;
  Assignment current;  // Placement carried across epochs.
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (epoch > 0) {
      for (double& f : factors) {
        f = std::clamp(f * std::exp(config.drift_sigma * rng.normal()),
                       config.factor_min, config.factor_max);
      }
    }
    const Instance instance = scaled_instance(base, factors);
    const SolveResult fresh = solve_algorithm2_refined(instance);
    result.oracle_utility += fresh.utility;
    PolicyStep step =
        policy_step(policy, instance, current, fresh, config.hysteresis);
    result.total_utility += step.utility;
    result.migrations += step.migrations;
    current = std::move(step.placement);
  }
  return result;
}

}  // namespace aa::core
