#pragma once

// Algorithm 2 (paper Section VI): the faster O(n (log mC)^2)
// alpha = 2(sqrt(2)-1)-approximation.
//
//   1. Sort threads in nonincreasing order of the linearized peak
//      g_i(c_hat_i).
//   2. Re-sort threads m+1..n of that order in nonincreasing order of the
//      ramp density g_i(c_hat_i) / c_hat_i. (The paper's Section VI-A prose
//      says "nondecreasing", contradicting its own pseudocode and Lemma
//      V.10, which needs higher-density threads to receive more resource;
//      since servers only lose capacity over time, higher density must be
//      assigned earlier — nonincreasing. See DESIGN.md.)
//   3. Keep server remaining capacities in a max-heap; give each thread in
//      order min(c_hat_i, C_j) on the fullest server.
//
// Steps 1-3 cost O(n + k log k + k log m), k the threads with a nonzero key:
// a stable sort keeps the zero keys (c_hat = 0, most threads at large n) one
// block in order, and a thread granted 0 leaves the heap alone (Step 3 in
// docs/ALGORITHMS.md).

#include <span>
#include <vector>

#include "aa/solve_result.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

/// Runs the full pipeline: super-optimal allocation (bisection), Equation-1
/// linearization, then the sorted heap assignment.
[[nodiscard]] SolveResult solve_algorithm2(const Instance& instance);

/// Sorting switches; bench/ablation_design measures each design choice.
struct Algorithm2Options {
  bool sort_by_peak = true;      ///< Step 1 (off = keep input order).
  bool resort_tail_by_density = true;  ///< Step 2.
  bool density_nonincreasing = true;   ///< false reproduces the paper's typo.
};

/// Assignment phase only (precomputed linearization), m servers of C each.
[[nodiscard]] Assignment assign_algorithm2(
    const Instance& instance, std::span<const util::Linearized> linearized,
    const Algorithm2Options& options = {});

/// Step 1 alone: thread indices by nonincreasing peak, ties in index order.
[[nodiscard]] std::vector<std::size_t> peak_order(
    std::span<const util::Linearized> linearized);

/// Steps 1-3 on servers with the given starting capacities, one per server.
/// Throws std::invalid_argument when there are threads but no servers.
[[nodiscard]] Assignment place_algorithm2(
    std::span<const util::Linearized> linearized,
    std::span<const Resource> capacities,
    const Algorithm2Options& options = {});

}  // namespace aa::core
