#pragma once

// Random concave utility generator reproducing the paper's Section VII
// recipe:
//
//   1. Fix the server capacity C and set f(0) = 0.
//   2. Draw v, w from the distribution H conditioned on w <= v.
//   3. Set f(C/2) = v and f(C) = v + w. (Because w <= v the secant slopes
//      2v/C and 2w/C are nonincreasing, so the three points are concave.)
//   4. Interpolate with PCHIP to produce a smooth concave utility.
//
// Our PCHIP (Fritsch-Carlson, the same scheme as Matlab's pchip) is sampled
// on the integer grid 0..C and projected onto the concave cone via
// pool-adjacent-violators; for these three-point concave data the projection
// is almost always the identity, and it guarantees the precondition of the
// allocation algorithms regardless.

#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "utility/utility_function.hpp"

namespace aa::util {

/// Generates one random utility function on [0, C] (C >= 2).
[[nodiscard]] UtilityPtr generate_utility(
    Resource capacity, const support::DistributionParams& dist,
    support::Rng& rng);

/// Generates a set of `count` independent utility functions: the same
/// draws, in the same rng order, as `count` calls of generate_utility.
/// Equal draws share one UtilityPtr (the discrete distribution's 10^4
/// threads hold 3 grids), so the allocator sweeps them as one.
[[nodiscard]] std::vector<UtilityPtr> generate_utilities(
    std::size_t count, Resource capacity,
    const support::DistributionParams& dist, support::Rng& rng);

}  // namespace aa::util
