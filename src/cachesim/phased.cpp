#include "cachesim/phased.hpp"

#include <stdexcept>

#include "aa/refine.hpp"

namespace aa::cachesim {

namespace {

core::Instance epoch_instance(const Machine& machine,
                              const std::vector<PhasedThread>& threads,
                              std::size_t epoch) {
  std::vector<ThreadProfile> profiles;
  profiles.reserve(threads.size());
  for (const PhasedThread& thread : threads) {
    profiles.push_back(thread.profile_at(epoch));
  }
  return build_instance(machine, profiles);
}

double measure_epoch(const std::vector<PhasedThread>& threads,
                     std::size_t epoch, const core::Assignment& assignment) {
  std::vector<ThreadProfile> profiles;
  profiles.reserve(threads.size());
  for (const PhasedThread& thread : threads) {
    profiles.push_back(thread.profile_at(epoch));
  }
  return measure_throughput(profiles, assignment);
}

}  // namespace

PhasedResult simulate_phased(const Machine& machine,
                             const std::vector<PhasedThread>& threads,
                             core::OnlinePolicy policy, std::size_t epochs,
                             double hysteresis) {
  for (const PhasedThread& thread : threads) {
    if (thread.phases.empty()) {
      throw std::invalid_argument("phased: thread with no phases");
    }
  }

  PhasedResult result;
  core::Assignment current;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const core::Instance instance = epoch_instance(machine, threads, epoch);
    const core::SolveResult fresh =
        core::solve_algorithm2_refined(instance);
    result.oracle_ipc += measure_epoch(threads, epoch, fresh.assignment);
    // Migration is judged on the model utility, throughput on the raw
    // miss curve of the active phase.
    core::PolicyStep step =
        core::policy_step(policy, instance, current, fresh, hysteresis);
    result.migrations += step.migrations;
    current = std::move(step.placement);
    result.achieved_ipc += measure_epoch(threads, epoch, current);
  }
  return result;
}

}  // namespace aa::cachesim
