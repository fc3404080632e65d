#pragma once

// Single-pool concave resource allocation (paper Section II related work;
// used as a black box by Section V's Definition V.1).
//
// Problem: given threads with concave utility functions and a pool of `pool`
// integer resource units, choose allocations a_i in [0, min(cap_i, C_i)]
// with sum a_i <= pool maximizing sum f_i(a_i).
//
// One exact allocator serves every production caller: the super-optimal
// allocation (pool = m * C, see super_optimal.hpp), the per-server
// re-allocation after placement (pool = C, see aa/refine.hpp), and the
// exact, branch-and-bound, local-search, co-scheduling, heterogeneous and
// multi-resource solvers. The reference algorithms it is checked against
// (heap greedy, literal bisection, dynamic program) live in
// alloc/oracle.hpp, which only tests and benchmarks link.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "utility/utility_function.hpp"

namespace aa::alloc {

struct AllocationResult {
  std::vector<util::Resource> amounts;  ///< One allocation per thread.
  double total_utility = 0.0;           ///< sum_i f_i(amounts[i]).
  /// Price-bisection iterations the allocator ran (0 for the oracles and
  /// for the trivial saturate-everyone / nothing-to-allocate cases).
  std::int64_t bisect_iterations = 0;
};

/// Per-thread allocation cap: each thread may receive at most
/// min(f.capacity(), per_thread_cap) units. Pass kNoCap for no extra bound.
inline constexpr util::Resource kNoCap =
    std::numeric_limits<util::Resource>::max();

/// Exact threshold bisection on the pool's dual price over
/// structure-of-arrays marginal grids, started at an order-statistic price
/// bracket (docs/ALGORITHMS.md "Single-pool allocator"). Requires concave
/// utilities (nonincreasing marginals). Bit-identical to the
/// allocate_bisection oracle for every input.
[[nodiscard]] AllocationResult allocate_bisection_soa(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

/// Same, over the subset threads[members[0]], threads[members[1]], ...:
/// amounts[k] belongs to threads[members[k]]. Saves callers that allocate
/// per server a copy of the utility handles.
[[nodiscard]] AllocationResult allocate_bisection_soa(
    std::span<const util::UtilityPtr> threads,
    std::span<const std::size_t> members, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

}  // namespace aa::alloc
