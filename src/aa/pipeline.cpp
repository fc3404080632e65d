#include "aa/pipeline.hpp"

#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

Relaxation relax(const Instance& instance) {
  instance.validate();
  alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  Relaxation relaxed{std::move(so.c_hat), so.utility, {}};
  const obs::ScopedPhase linearize_phase(obs::metric::kPhaseLinearize);
  relaxed.linearized = util::linearize(instance.threads, relaxed.c_hat);
  return relaxed;
}

SolveResult refine(const Instance& instance, SolveResult raw) {
  obs::count(obs::metric::kRefineSolves);
  Assignment better = reoptimize_allocations(instance, raw.assignment);
  const double better_utility = total_utility(instance, better);
  // Guaranteed non-decreasing, but guard against pathological float drift.
  if (better_utility >= raw.utility) {
    raw.assignment = std::move(better);
    raw.utility = better_utility;
  }
  return raw;
}

}  // namespace aa::core
