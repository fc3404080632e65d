#pragma once

// Super-optimal allocation (paper Definition V.1): relax the m per-server
// capacity constraints to the single pooled constraint sum c_hat_i <= m*C
// (with each thread still capped at C, the domain of its utility function).
// Its utility F_hat upper-bounds the optimal AA utility F* (Lemma V.2), and
// both approximation algorithms take it as input. It is the single-pool
// allocator of alloc/allocator.hpp with pool = m*C.

#include <span>

#include "alloc/allocator.hpp"

namespace aa::alloc {

struct SuperOptimalResult {
  std::vector<util::Resource> c_hat;  ///< Super-optimal allocation per thread.
  double utility = 0.0;               ///< F_hat = sum f_i(c_hat_i).
};

/// Computes a super-optimal allocation for `num_servers` servers of capacity
/// `capacity` each (the paper's O(n (log mC)^2) path, citing Galil [16]).
/// Bit-identical to the allocate_bisection oracle with pool = m*C, cap = C.
[[nodiscard]] SuperOptimalResult super_optimal(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity);

/// Alias of super_optimal, kept because perfbench/ calls it by this name.
[[nodiscard]] inline SuperOptimalResult super_optimal_routed(
    std::span<const util::UtilityPtr> threads, std::size_t num_servers,
    util::Resource capacity) {
  return super_optimal(threads, num_servers, capacity);
}

}  // namespace aa::alloc
