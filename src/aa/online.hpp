#pragma once

// Online/dynamic extension (paper Section VIII future work): "in practice
// the utility functions of threads may change over time ... we would like to
// integrate online performance measurements into our algorithms to produce
// dynamically optimal assignments."
//
// We model drift as a per-thread multiplicative factor following a bounded
// geometric random walk (factor *= exp(sigma * N(0,1)), clamped), re-scaling
// each base utility every epoch. Three policies are compared:
//
//   kStatic   — solve once with the initial utilities, never adapt.
//   kResolve  — re-run Algorithm 2 from scratch every epoch (maximum
//               utility, maximum migration churn).
//   kSticky   — re-run Algorithm 2 every epoch but keep the previous
//               assignment unless the fresh solution improves utility by
//               more than `hysteresis` (relative); bounds migrations.
//
// Migrations count threads whose server changes between consecutive epochs;
// reallocating on the same server is free (cache partition resizing is
// cheap; moving a thread is not).

#include <cstddef>

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "support/prng.hpp"

namespace aa::core {

enum class OnlinePolicy { kStatic, kResolve, kSticky };

struct OnlineConfig {
  std::size_t epochs = 50;
  double drift_sigma = 0.2;    ///< Std-dev of the log-factor step per epoch.
  double factor_min = 0.2;     ///< Clamp for the drift factor.
  double factor_max = 5.0;
  double hysteresis = 0.05;    ///< kSticky: required relative improvement.
};

struct OnlineResult {
  double total_utility = 0.0;    ///< Sum over epochs of achieved utility.
  double oracle_utility = 0.0;   ///< Sum over epochs of per-epoch Algorithm 2
                                 ///< utility (the kResolve upper reference).
  std::size_t migrations = 0;    ///< Thread moves between consecutive epochs.

  [[nodiscard]] double utility_fraction() const noexcept {
    return oracle_utility > 0.0 ? total_utility / oracle_utility : 1.0;
  }
};

/// Threads whose server differs between two same-shape assignments (the
/// migration metric above). Also used by the allocation service (src/svc)
/// to account churn across incremental re-solves.
[[nodiscard]] std::size_t count_migrations(const Assignment& before,
                                           const Assignment& after);

/// The kSticky acceptance rule: migrate to the fresh solution only when it
/// beats the retained one by more than the relative hysteresis. Shared with
/// the warm-start path of the allocation service.
[[nodiscard]] constexpr bool sticky_should_migrate(
    double fresh_utility, double retained_utility, double hysteresis) noexcept {
  return fresh_utility > retained_utility * (1.0 + hysteresis);
}

/// One epoch of `policy`: the placement held from now on, its utility on
/// `instance`, and the threads that moved to reach it. `fresh` is this
/// epoch's refined Algorithm 2 solution; an empty `current` (the first
/// epoch) adopts it under every policy. Shared with the phased cache
/// simulation (cachesim/phased.hpp).
struct PolicyStep {
  Assignment placement;
  double utility = 0.0;
  std::size_t migrations = 0;
};
[[nodiscard]] PolicyStep policy_step(OnlinePolicy policy,
                                     const Instance& instance,
                                     const Assignment& current,
                                     const SolveResult& fresh,
                                     double hysteresis);

/// Simulates `config.epochs` epochs of drift on the given base instance and
/// returns the aggregate metrics for the chosen policy. The drift sequence
/// is a deterministic function of `rng`, so policies can be compared on
/// identical drift by passing equally-seeded generators.
[[nodiscard]] OnlineResult run_online(const Instance& base,
                                      OnlinePolicy policy,
                                      const OnlineConfig& config,
                                      support::Rng& rng);

}  // namespace aa::core
