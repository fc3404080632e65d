#pragma once

// Multiple-Choice Knapsack (MCKP) substrate.
//
// The paper frames AA as a combined multiple-choice multiple-knapsack
// problem (Section II): each thread is an item *class* — one (allocation,
// utility) item must be chosen per class — and each server is a knapsack.
// For a single server, MCKP solves the allocation problem even for
// NON-concave utilities (where the bisection allocator of allocator.hpp
// and the oracles of oracle.hpp lose their exactness guarantee; cf. Lai &
// Fan [11]).
//
// Provided solvers:
//  * mckp_dp_exact   — textbook DP, O(sum_class_items * capacity). Weakly
//                      NP-hard in general; fine for the integer capacities
//                      used here.
//  * mckp_greedy     — LP-style greedy (Kellerer [17] / Gens & Levner [18]
//                      flavour): take the upper convex hull of each class,
//                      add hull increments in global density order, and
//                      return the better of the greedy fill and the best
//                      single item — a 1/2-approximation with
//                      O(N log N) running time.
//
// For concave utilities the class hulls are the classes themselves and the
// greedy is exact up to its last fractional step, which is why it agrees
// with oracle.hpp's exact algorithms in the tests.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "utility/utility_function.hpp"

namespace aa::alloc {

struct MckpItem {
  util::Resource weight = 0;
  double value = 0.0;
};

/// One class: the candidate items of a single thread. Need not be sorted;
/// solvers normalize internally. An implicit (0, 0) item is always
/// available (threads may receive nothing).
using MckpClass = std::vector<MckpItem>;

struct MckpResult {
  std::vector<std::size_t> choice;  ///< Item index per class; kZeroChoice = the implicit (0,0).
  double total_value = 0.0;
  util::Resource total_weight = 0;
};

inline constexpr std::size_t kZeroChoice =
    std::numeric_limits<std::size_t>::max();

/// Exact DP over integer capacity. Throws on negative weights/capacity.
[[nodiscard]] MckpResult mckp_dp_exact(std::span<const MckpClass> classes,
                                       util::Resource capacity);

/// Convex-hull greedy 1/2-approximation (exact for concave classes up to
/// the final fractional item).
[[nodiscard]] MckpResult mckp_greedy(std::span<const MckpClass> classes,
                                     util::Resource capacity);

/// Builds a class from a utility function sampled at the given allocation
/// levels (each level one item). Levels outside [0, f.capacity()] are
/// clamped; duplicates are dropped.
[[nodiscard]] MckpClass class_from_utility(const util::UtilityFunction& f,
                                           std::span<const util::Resource> levels);

/// Uniformly spaced levels: step, 2*step, ..., up to f.capacity().
[[nodiscard]] MckpClass class_from_utility_uniform(
    const util::UtilityFunction& f, util::Resource step);

}  // namespace aa::alloc
