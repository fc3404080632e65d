#include "alloc/super_optimal.hpp"

#include <cstdint>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::alloc {

SuperOptimalResult super_optimal(std::span<const util::UtilityPtr> threads,
                                 std::size_t num_servers,
                                 util::Resource capacity) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseSuperOptimal);
  obs::count(obs::metric::kSuperOptimalCalls);
  obs::count(obs::metric::kSuperOptimalThreads,
             static_cast<std::int64_t>(threads.size()));
  if (capacity < 0) {
    throw std::invalid_argument("super_optimal: negative capacity");
  }
  AllocationResult result = allocate_bisection_soa(
      threads, static_cast<util::Resource>(num_servers) * capacity, capacity);
  // Recorded here, not in the allocator, so the per-call figure covers
  // super-optimal solves only (refine's per-server calls stay out of it).
  if (result.bisect_iterations > 0) {
    obs::count(obs::metric::kSuperOptimalBisectIterations,
               result.bisect_iterations);
  }
  return {std::move(result.amounts), result.total_utility};
}

}  // namespace aa::alloc
