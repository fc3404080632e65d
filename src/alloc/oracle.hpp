#pragma once

// Reference single-pool allocators (test and benchmark oracles).
//
// These are the textbook algorithms the production allocator
// (alloc/allocator.hpp) is proven against. Only tests/ and bench/ link the
// aa_alloc_oracle library; aa_lint's oracle-use check bans calling them
// from src/ and tools/.
//
//  * allocate_greedy   — marginal-gain heap greedy (Fox et al. [12] style),
//                        O((n + pool) log n). Exact because concavity makes
//                        the per-unit marginal sequence nonincreasing, so the
//                        greedy exchange argument applies.
//  * allocate_bisection— threshold search on the marginal value (Galil [16]
//                        style), O(n (log pool)^2 + n log n): binary-searches
//                        the Lagrange multiplier lambda, then distributes the
//                        residual units across the lambda-plateau. This is
//                        the algorithm the paper's complexity bounds cite,
//                        kept literal so the production allocator can be
//                        held bit-identical to it.
//  * allocate_dp_exact — O(n pool^2) dynamic program; reference oracle for
//                        small pools (works for arbitrary, even
//                        non-concave, tabulated utilities).

#include <span>

#include "alloc/allocator.hpp"
#include "utility/utility_function.hpp"

namespace aa::alloc {

/// Exact heap greedy. Requires concave utilities (nonincreasing marginals);
/// behaviour on non-concave inputs is unspecified (use allocate_dp_exact).
[[nodiscard]] AllocationResult allocate_greedy(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

/// Exact threshold bisection; same contract as allocate_greedy.
[[nodiscard]] AllocationResult allocate_bisection(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

/// Exact dynamic program over integer units (reference oracle).
[[nodiscard]] AllocationResult allocate_dp_exact(
    std::span<const util::UtilityPtr> threads, util::Resource pool,
    util::Resource per_thread_cap = kNoCap);

}  // namespace aa::alloc
