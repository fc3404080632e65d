#pragma once

// Shared result type for the paper's approximation algorithms. Both
// Algorithm 1 (Section V) and Algorithm 2 (Section VI) run the same
// pipeline — super-optimal allocation, two-segment linearization, greedy
// assignment — and report the same artifacts.

#include <span>
#include <utility>
#include <vector>

#include "aa/problem.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

struct SolveResult {
  Assignment assignment;

  /// F = sum f_i(c_i): objective value on the original concave utilities.
  double utility = 0.0;

  /// G = sum g_i(c_i): objective value on the linearized utilities
  /// (Lemma V.15 guarantees G >= alpha * F_hat; F >= G by Lemma V.4).
  double linearized_utility = 0.0;

  /// F_hat: the super-optimal upper bound of Definition V.1
  /// (F* <= F_hat by Lemma V.2, so utility / super_optimal_utility is a
  /// certified lower bound on the achieved approximation factor).
  double super_optimal_utility = 0.0;

  /// The super-optimal allocation c_hat_i the run was based on.
  std::vector<Resource> c_hat;
};

/// Packages a run: F (the caller's total_utility on its own instance type),
/// G = sum g_i(c_i) over the linearization the assignment was built on,
/// F_hat and c_hat.
[[nodiscard]] inline SolveResult make_solve_result(
    double utility, Assignment assignment,
    std::span<const util::Linearized> linearized, std::vector<Resource> c_hat,
    double f_hat) {
  SolveResult result;
  result.utility = utility;
  double g_total = 0.0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    g_total += linearized[i].value(assignment.alloc[i]);
  }
  result.linearized_utility = g_total;
  result.super_optimal_utility = f_hat;
  result.c_hat = std::move(c_hat);
  result.assignment = std::move(assignment);
  return result;
}

/// alpha = 2(sqrt(2) - 1) > 0.828: the approximation ratio of both
/// algorithms (Theorems V.16 and VI.1).
inline constexpr double kApproximationRatio = 0.8284271247461901;

}  // namespace aa::core
