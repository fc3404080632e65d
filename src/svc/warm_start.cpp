#include "svc/warm_start.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/online.hpp"
#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "utility/linearized.hpp"

namespace aa::svc {

namespace {

constexpr const char* kFullSolverLabel = "svc_full";
constexpr const char* kWarmSolverLabel = "svc_warm";

/// previous_servers() entry of a thread the last solve did not place.
constexpr std::size_t kNoServer = static_cast<std::size_t>(-1);

/// Relative slack on F_hat when ruling the fresh candidate out: covers the
/// rounding of the two utility sums, far below any hysteresis in use.
constexpr double kFreshBoundSlack = 1e-9;

/// Orders thread indices by nonincreasing linearized peak (Algorithm 2's
/// primary sort), ties broken by position for determinism.
std::vector<std::size_t> peak_order(
    const std::vector<util::Linearized>& linearized) {
  std::vector<std::size_t> order(linearized.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (linearized[a].peak != linearized[b].peak) {
      return linearized[a].peak > linearized[b].peak;
    }
    return a < b;
  });
  return order;
}

double linearized_total(const std::vector<util::Linearized>& linearized,
                        const core::Assignment& assignment) {
  double total = 0.0;
  for (std::size_t i = 0; i < linearized.size(); ++i) {
    total += linearized[i].value(assignment.alloc[i]);
  }
  return total;
}

/// The warm placement: surviving threads pinned to their previous server
/// in nonincreasing-peak order, each taking min(c_hat_i, remaining); new
/// threads fill the least-loaded servers afterwards.
core::Assignment pin_previous(const core::Instance& instance,
                              const std::vector<util::Linearized>& linearized,
                              const std::vector<std::size_t>& previous) {
  const std::size_t n = linearized.size();
  core::Assignment placed;
  placed.server.assign(n, 0);
  placed.alloc.assign(n, 0.0);
  std::vector<double> remaining(instance.num_servers,
                                static_cast<double>(instance.capacity));
  const auto place = [&](std::size_t index, std::size_t server) {
    const double give = std::min(static_cast<double>(linearized[index].cap),
                                 remaining[server]);
    placed.server[index] = server;
    placed.alloc[index] = give;
    remaining[server] -= give;
  };
  std::vector<std::size_t> arrivals;  // New threads, still in peak order.
  for (const std::size_t index : peak_order(linearized)) {
    if (previous[index] == kNoServer) {
      arrivals.push_back(index);
    } else {
      place(index, previous[index]);
    }
  }
  for (const std::size_t index : arrivals) {
    place(index, static_cast<std::size_t>(
                     std::max_element(remaining.begin(), remaining.end()) -
                     remaining.begin()));
  }
  return placed;
}

/// Surviving threads whose server differs from `previous`.
std::size_t count_migrations(const std::vector<std::size_t>& previous,
                             const core::Assignment& assignment) {
  std::size_t moves = 0;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    if (previous[i] != kNoServer && previous[i] != assignment.server[i]) {
      ++moves;
    }
  }
  return moves;
}

}  // namespace

const char* solve_path_name(SolvePath path) noexcept {
  switch (path) {
    case SolvePath::kCached: return "cached";
    case SolvePath::kWarm: return "warm";
    case SolvePath::kFull: return "full";
  }
  return "unknown";
}

WarmStartSolver::WarmStartSolver(WarmStartConfig config)
    : config_(config) {}

void WarmStartSolver::reset() {
  have_previous_ = false;
  solved_version_ = 0;
  previous_ = ServiceSolveResult{};
}

bool WarmStartSolver::deltas_exceed_threshold(std::uint64_t deltas,
                                              std::size_t num_threads) const {
  const double fraction_limit =
      config_.resolve_delta_fraction * static_cast<double>(num_threads);
  const double limit =
      std::max(static_cast<double>(config_.resolve_delta_min), fraction_limit);
  return static_cast<double>(deltas) > limit;
}

std::vector<std::size_t> WarmStartSolver::previous_servers(
    const std::vector<ThreadId>& ids) const {
  // One merge walk: both id lists ascend.
  const std::vector<ThreadId>& before = previous_.ids;
  const std::vector<std::size_t>& servers = previous_.result.assignment.server;
  std::vector<std::size_t> previous(ids.size(), kNoServer);
  std::size_t j = 0;
  for (std::size_t i = 0; i < ids.size() && j < before.size(); ++i) {
    while (j < before.size() && before[j] < ids[i]) ++j;
    if (j < before.size() && before[j] == ids[i]) previous[i] = servers[j];
  }
  return previous;
}

const ServiceSolveResult& WarmStartSolver::remember(
    ServiceSolveResult&& solved, std::uint64_t version) {
  obs::ScopedPhase phase(obs::metric::kPhaseSvcRemember);
  previous_ = std::move(solved);
  solved_version_ = version;
  have_previous_ = true;
  return previous_;
}

const ServiceSolveResult& WarmStartSolver::solve(const InstanceState& state,
                                                 bool force_full) {
  obs::ScopedPhase phase(obs::metric::kPhaseSvcSolve);
  const std::uint64_t version = state.version();

  // Version unchanged: the previous answer (and certificate) still holds.
  if (have_previous_ && !force_full && version == solved_version_) {
    previous_.path = SolvePath::kCached;
    previous_.migrations = 0;
    return previous_;
  }

  ServiceSolveResult solved;
  const core::Instance instance = state.to_instance(&solved.ids);
  const std::size_t n = instance.num_threads();
  const core::CertifyOptions certify_options{/*check_concavity=*/false};

  // Empty instance: a trivial (vacuously certified) solution.
  if (n == 0) {
    solved.result = core::SolveResult{};
    solved.path = SolvePath::kFull;
    solved.certificate = core::certify(instance, solved.result,
                                       kFullSolverLabel, certify_options);
    return remember(std::move(solved), version);
  }

  const std::uint64_t deltas =
      have_previous_ ? version - solved_version_ : version;
  const bool must_resolve = force_full || !have_previous_ ||
                            deltas_exceed_threshold(deltas, n);
  const std::vector<std::size_t> previous = previous_servers(solved.ids);

  if (must_resolve) {
    solved.result = core::solve_algorithm2_refined(instance);
    solved.path = SolvePath::kFull;
    solved.certificate = core::certify(instance, solved.result,
                                       kFullSolverLabel, certify_options);
  } else {
    // Shared prefix of both candidates: the super-optimal allocation and
    // the two-segment linearization certify the *current* utilities.
    alloc::SuperOptimalResult super =
        alloc::super_optimal(instance.threads, instance.num_servers,
                             instance.capacity);
    const std::vector<util::Linearized> linearized =
        util::linearize(instance.threads, super.c_hat);

    core::SolveResult warm;
    obs::Certificate warm_certificate;
    {
      obs::ScopedPhase warm_phase(obs::metric::kPhaseSvcWarmCandidate);
      const core::Assignment warm_raw =
          pin_previous(instance, linearized, previous);
      warm.linearized_utility = linearized_total(linearized, warm_raw);
      warm.assignment = core::reoptimize_allocations(instance, warm_raw);
      warm.utility = core::total_utility(instance, warm.assignment);
      warm.super_optimal_utility = super.utility;
      warm.c_hat = std::move(super.c_hat);
      warm_certificate =
          core::certify(instance, warm, kWarmSolverLabel, certify_options);
    }

    // kSticky rule: keep the pinned placement unless the fresh one beats it
    // by more than the hysteresis — but only when the warm candidate can
    // certify its own 0.828 bound; otherwise fall back to Algorithm 2,
    // whose bound is Theorem VI.1. The fresh candidate scores at most
    // F_hat (Lemma V.2), so it is built only when F_hat leaves it room.
    const double fresh_bound =
        super.utility + kFreshBoundSlack * std::abs(super.utility);
    bool keep_warm =
        warm_certificate.ok() &&
        !core::sticky_should_migrate(fresh_bound, warm.utility,
                                     config_.hysteresis);
    core::SolveResult fresh;
    if (!keep_warm) {
      obs::count(obs::metric::kSvcFreshCandidates);
      // Fresh candidate: Algorithm 2's placement on the shared
      // linearization.
      const core::Assignment fresh_raw =
          core::assign_algorithm2(instance, linearized);
      fresh.linearized_utility = linearized_total(linearized, fresh_raw);
      fresh.assignment = core::reoptimize_allocations(instance, fresh_raw);
      fresh.utility = core::total_utility(instance, fresh.assignment);
      fresh.super_optimal_utility = super.utility;
      keep_warm = warm_certificate.ok() &&
                  !core::sticky_should_migrate(fresh.utility, warm.utility,
                                               config_.hysteresis);
    }
    if (keep_warm) {
      solved.result = std::move(warm);
      solved.path = SolvePath::kWarm;
      solved.certificate = std::move(warm_certificate);
    } else {
      fresh.c_hat = std::move(warm.c_hat);
      solved.result = std::move(fresh);
      solved.path = SolvePath::kFull;
      solved.certificate = core::certify(instance, solved.result,
                                         kFullSolverLabel, certify_options);
      if (!warm_certificate.ok()) {
        obs::count(obs::metric::kSvcWarmCertificateRejects);
      }
    }
  }
  solved.migrations = count_migrations(previous, solved.result.assignment);

  // Surface the reply certificate on the installed session (the
  // certificate list behind `aa_serve --metrics`).
  if (obs::Session::current() != nullptr) {
    obs::ScopedPhase record_phase(obs::metric::kPhaseSvcRecordCertificate);
    obs::record_certificate(solved.certificate.input);
  }
  return remember(std::move(solved), version);
}

}  // namespace aa::svc
