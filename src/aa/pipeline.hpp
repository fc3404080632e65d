#pragma once

// The solve pipeline of the paper's two algorithms (Sections V-VI), as
// stages that every solver strings around its own placement:
//
//   relax  — validate the instance, then the super-optimal allocation c_hat
//            with its bound F_hat (Definition V.1) and the Equation-1
//            linearization g_i at c_hat, each under its obs phase timer;
//   place  — the caller's own: Algorithm 1's rounds, Algorithm 2's sorted
//            heap, the allocation service's pinned warm placement;
//   finish — F = sum f_i(c_i), G = sum g_i(c_i), F_hat and c_hat;
//   refine — re-allocate within each server (aa/refine.hpp), keeping the
//            placement's own allocations when that would score lower.
//
// solve_algorithm1 and solve_algorithm2 are relax -> place -> finish, and
// their _refined variants add refine. Certification stays with the caller,
// so each caller records exactly the certificate it reports.

#include <span>
#include <utility>
#include <vector>

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

/// What every placement on one instance shares: the relax stage's output.
struct Relaxation {
  std::vector<Resource> c_hat;  ///< The super-optimal allocation.
  double f_hat = 0.0;           ///< Its utility: the bound F_hat.
  std::vector<util::Linearized> linearized;  ///< g_i, two segments at c_hat_i.
};

/// Stage relax. Throws std::invalid_argument on an invalid instance.
[[nodiscard]] Relaxation relax(const Instance& instance);

/// Stage finish: packages a placement built on `linearized`. F is
/// total_utility on the caller's own instance type; G sums g_i over the
/// placement's allocations.
template <typename Problem>
[[nodiscard]] SolveResult finish(const Problem& instance, Assignment placement,
                                 std::span<const util::Linearized> linearized,
                                 std::vector<Resource> c_hat, double f_hat) {
  SolveResult result;
  result.utility = total_utility(instance, placement);
  double g_total = 0.0;
  for (std::size_t i = 0; i < placement.size(); ++i) {
    g_total += linearized[i].value(placement.alloc[i]);
  }
  result.linearized_utility = g_total;
  result.super_optimal_utility = f_hat;
  result.c_hat = std::move(c_hat);
  result.assignment = std::move(placement);
  return result;
}

/// Stage refine: re-optimizes the allocations within every server. G, F_hat
/// and c_hat stay those of the placement (the certificate chain's links).
[[nodiscard]] SolveResult refine(const Instance& instance, SolveResult raw);

}  // namespace aa::core
