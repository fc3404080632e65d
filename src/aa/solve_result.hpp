#pragma once

// Shared result type for the paper's approximation algorithms. Both
// Algorithm 1 (Section V) and Algorithm 2 (Section VI) run the same
// pipeline (aa/pipeline.hpp) and report the same artifacts.

#include <vector>

#include "aa/problem.hpp"

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

/// alpha = 2(sqrt(2) - 1) > 0.828: the approximation ratio of both
/// algorithms (Theorems V.16 and VI.1).
inline constexpr double kApproximationRatio = 0.8284271247461901;

}  // namespace aa::core
