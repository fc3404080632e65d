#pragma once

// Algorithm 1 (paper Section V-B): the O(m n^2 + n (log mC)^2)
// alpha = 2(sqrt(2)-1)-approximation.
//
// Each round, over the unassigned threads R:
//   * U = set of (thread, server) pairs where the server's remaining
//     capacity covers the thread's super-optimal allocation c_hat_i;
//   * if U is nonempty, pick the thread in U with the largest linearized
//     peak g_i(c_hat_i) ("full" threads, set D in the analysis);
//   * otherwise pick the (thread, server) pair maximizing g_i(C_j), the
//     utility obtainable from the server's leftover capacity ("unfull"
//     threads, set E);
//   * assign the chosen thread to a server giving it the greatest utility
//     with allocation min(c_hat_i, C_j).
//
// The shipped assign_algorithm1 replaces the paper's O(m n^2) rescans with
// incremental candidate selection (a peak-sorted cursor for the full picks,
// one memoized two-segment evaluation per thread for the unfull picks) and
// runs the rounds in O(n log n + (n + m) m) while producing bit-identical
// assignments — the pair-selection tie-breaks of the literal pseudocode are
// replayed exactly (see the invariant notes in algorithm1.cpp, and
// docs/BENCHMARKS.md for the measured speedup).

#include <span>

#include "aa/solve_result.hpp"

namespace aa::core {

/// Runs the full pipeline: super-optimal allocation (bisection), Equation-1
/// linearization, then the greedy rounds above.
[[nodiscard]] SolveResult solve_algorithm1(const Instance& instance);

/// Assignment phase only, for callers that already computed the
/// super-optimal allocation (benches isolate phases this way).
[[nodiscard]] Assignment assign_algorithm1(
    const Instance& instance, std::span<const util::Linearized> linearized);

/// The literal O(m n^2) transcription of the paper's pseudocode: rescans
/// every (thread, server) pair each round. Kept as the differential-testing
/// oracle for the incremental implementation above
/// (tests/algorithm1_equivalence_test.cpp pins bit-identical output) and as
/// the baseline of BM_Algorithm1Reference_ScaleN in bench/bm_scaling.cpp.
/// Records no obs metrics, so oracle runs never pollute a measurement
/// session.
[[nodiscard]] Assignment assign_algorithm1_reference(
    const Instance& instance, std::span<const util::Linearized> linearized);

}  // namespace aa::core
