#include "aa/refine.hpp"

#include <span>
#include <stdexcept>
#include <vector>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/pipeline.hpp"
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
  // Server j's members, in index order, are
  // members[offsets[j] .. offsets[j + 1]): one counting pass, one fill.
  const std::size_t m = instance.num_servers;
  std::vector<std::size_t> offsets(m + 1, 0);
  for (const std::size_t j : placement.server) {
    if (j >= m) throw std::out_of_range("reoptimize: server out of range");
    ++offsets[j + 1];
  }
  for (std::size_t j = 0; j < m; ++j) offsets[j + 1] += offsets[j];
  std::vector<std::size_t> members(placement.size());
  {
    std::vector<std::size_t> next(offsets.begin(), offsets.end() - 1);
    for (std::size_t i = 0; i < placement.size(); ++i) {
      members[next[placement.server[i]]++] = i;
    }
  }
  std::int64_t reoptimized = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const std::span<const std::size_t> group(members.data() + offsets[j],
                                             offsets[j + 1] - offsets[j]);
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

SolveResult solve_algorithm2_refined(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2SolveRefined);
  SolveResult result = refine(instance, solve_algorithm2(instance));
  certify_and_record(instance, result, "algorithm2_refined");
  return result;
}

SolveResult solve_algorithm1_refined(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg1SolveRefined);
  SolveResult result = refine(instance, solve_algorithm1(instance));
  certify_and_record(instance, result, "algorithm1_refined");
  return result;
}

}  // namespace aa::core
