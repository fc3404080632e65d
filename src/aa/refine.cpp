#include "aa/refine.hpp"

#include <stdexcept>
#include <vector>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "alloc/allocator.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

Assignment reoptimize_allocations(const Instance& instance,
                                  const Assignment& placement) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseRefineReoptimize);
  if (placement.server.size() != instance.num_threads() ||
      placement.alloc.size() != instance.num_threads()) {
    throw std::invalid_argument("reoptimize: assignment size mismatch");
  }
  Assignment out = placement;
  std::vector<std::vector<std::size_t>> groups(instance.num_servers);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    groups.at(placement.server[i]).push_back(i);
  }
  std::int64_t reoptimized = 0;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    ++reoptimized;
    const alloc::AllocationResult result = alloc::allocate_bisection_soa(
        instance.threads, group, instance.capacity, instance.capacity);
    for (std::size_t k = 0; k < group.size(); ++k) {
      out.alloc[group[k]] = static_cast<double>(result.amounts[k]);
    }
  }
  obs::count(obs::metric::kRefineServersReoptimized, reoptimized);
  return out;
}

namespace {

SolveResult refined(const Instance& instance, SolveResult raw,
                    std::string_view solver) {
  obs::count(obs::metric::kRefineSolves);
  Assignment better = reoptimize_allocations(instance, raw.assignment);
  const double better_utility = total_utility(instance, better);
  // Guaranteed non-decreasing, but guard against pathological float drift.
  if (better_utility >= raw.utility) {
    raw.assignment = std::move(better);
    raw.utility = better_utility;
  }
  certify_and_record(instance, raw, solver);
  return raw;
}

}  // namespace

SolveResult solve_algorithm2_refined(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2SolveRefined);
  return refined(instance, solve_algorithm2(instance), "algorithm2_refined");
}

SolveResult solve_algorithm1_refined(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg1SolveRefined);
  return refined(instance, solve_algorithm1(instance), "algorithm1_refined");
}

}  // namespace aa::core
