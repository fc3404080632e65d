#include "svc/warm_start.hpp"

#include <algorithm>
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
  previous_server_.clear();
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

std::size_t WarmStartSolver::count_id_migrations(
    const std::vector<ThreadId>& ids,
    const core::Assignment& assignment) const {
  std::size_t moves = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto it = previous_server_.find(ids[i]);
    if (it != previous_server_.end() && it->second != assignment.server[i]) {
      ++moves;
    }
  }
  return moves;
}

void WarmStartSolver::remember(const ServiceSolveResult& solved,
                               std::uint64_t version) {
  previous_server_.clear();
  for (std::size_t i = 0; i < solved.ids.size(); ++i) {
    previous_server_.emplace(solved.ids[i], solved.result.assignment.server[i]);
  }
  previous_ = solved;
  solved_version_ = version;
  have_previous_ = true;
}

ServiceSolveResult WarmStartSolver::solve(const InstanceState& state,
                                          bool force_full) {
  obs::ScopedPhase phase(obs::metric::kPhaseSvcSolve);
  const std::uint64_t version = state.version();

  // Version unchanged: the previous answer (and certificate) still holds.
  if (have_previous_ && !force_full && version == solved_version_) {
    ServiceSolveResult cached = previous_;
    cached.path = SolvePath::kCached;
    cached.migrations = 0;
    obs::count(obs::metric::kSvcSolveCached);
    return cached;
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
    remember(solved, version);
    obs::count(obs::metric::kSvcSolveFull);
    return solved;
  }

  const std::uint64_t deltas =
      have_previous_ ? version - solved_version_ : version;
  const bool must_resolve = force_full || !have_previous_ ||
                            deltas_exceed_threshold(deltas, n);

  if (must_resolve) {
    solved.result = core::solve_algorithm2_refined(instance);
    solved.path = SolvePath::kFull;
    solved.migrations = count_id_migrations(solved.ids,
                                            solved.result.assignment);
    solved.certificate = core::certify(instance, solved.result,
                                       kFullSolverLabel, certify_options);
    obs::count(obs::metric::kSvcSolveFull);
  } else {
    // Shared prefix of both candidates: the super-optimal allocation and
    // the two-segment linearization certify the *current* utilities.
    alloc::SuperOptimalResult super =
        alloc::super_optimal(instance.threads, instance.num_servers,
                                    instance.capacity);
    const std::vector<util::Linearized> linearized =
        util::linearize(instance.threads, super.c_hat);

    // Fresh candidate: Algorithm 2's placement on the shared linearization.
    core::Assignment fresh_raw = assign_algorithm2(instance, linearized);
    const double fresh_linearized = linearized_total(linearized, fresh_raw);
    core::Assignment fresh_refined =
        core::reoptimize_allocations(instance, fresh_raw);
    const double fresh_utility = core::total_utility(instance, fresh_refined);

    // Warm candidate: surviving threads pinned to their previous server in
    // nonincreasing-peak order, each taking min(c_hat_i, remaining); new
    // threads fill the least-loaded servers afterwards.
    core::Assignment warm_raw;
    warm_raw.server.assign(n, 0);
    warm_raw.alloc.assign(n, 0.0);
    std::vector<double> remaining(instance.num_servers,
                                  static_cast<double>(instance.capacity));
    const std::vector<std::size_t> order = peak_order(linearized);
    std::vector<std::size_t> arrivals;  // New threads, still in peak order.
    for (const std::size_t index : order) {
      const auto it = previous_server_.find(solved.ids[index]);
      if (it == previous_server_.end()) {
        arrivals.push_back(index);
        continue;
      }
      const std::size_t server = it->second;
      const double give =
          std::min(static_cast<double>(linearized[index].cap),
                   remaining[server]);
      warm_raw.server[index] = server;
      warm_raw.alloc[index] = give;
      remaining[server] -= give;
    }
    for (const std::size_t index : arrivals) {
      const std::size_t server = static_cast<std::size_t>(
          std::max_element(remaining.begin(), remaining.end()) -
          remaining.begin());
      const double give = std::min(
          static_cast<double>(linearized[index].cap), remaining[server]);
      warm_raw.server[index] = server;
      warm_raw.alloc[index] = give;
      remaining[server] -= give;
    }
    const double warm_linearized = linearized_total(linearized, warm_raw);
    core::Assignment warm_refined =
        core::reoptimize_allocations(instance, warm_raw);
    const double warm_utility = core::total_utility(instance, warm_refined);

    core::SolveResult warm_result;
    warm_result.assignment = std::move(warm_refined);
    warm_result.utility = warm_utility;
    warm_result.linearized_utility = warm_linearized;
    warm_result.super_optimal_utility = super.utility;
    warm_result.c_hat = super.c_hat;
    const obs::Certificate warm_certificate = core::certify(
        instance, warm_result, kWarmSolverLabel, certify_options);

    // kSticky rule: keep the pinned placement unless the fresh one beats it
    // by more than the hysteresis — but only when the warm candidate can
    // certify its own 0.828 bound; otherwise fall back to Algorithm 2,
    // whose bound is Theorem VI.1.
    const bool keep_warm =
        warm_certificate.ok() &&
        !core::sticky_should_migrate(fresh_utility, warm_utility,
                                     config_.hysteresis);
    if (keep_warm) {
      solved.result = std::move(warm_result);
      solved.path = SolvePath::kWarm;
      solved.certificate = warm_certificate;
      obs::count(obs::metric::kSvcSolveWarm);
    } else {
      core::SolveResult fresh_result;
      fresh_result.assignment = std::move(fresh_refined);
      fresh_result.utility = fresh_utility;
      fresh_result.linearized_utility = fresh_linearized;
      fresh_result.super_optimal_utility = super.utility;
      fresh_result.c_hat = std::move(super.c_hat);
      solved.result = std::move(fresh_result);
      solved.path = SolvePath::kFull;
      solved.certificate = core::certify(instance, solved.result,
                                         kFullSolverLabel, certify_options);
      obs::count(obs::metric::kSvcSolveFull);
      if (!warm_certificate.ok()) {
        obs::count(obs::metric::kSvcWarmCertificateRejects);
      }
    }
    solved.migrations = count_id_migrations(solved.ids,
                                            solved.result.assignment);
  }

  // Surface the reply certificate on the installed session (the
  // counters/certificate list behind `aa_serve --metrics`).
  if (obs::Session::current() != nullptr) {
    obs::record_certificate(solved.certificate.input);
  }
  obs::count(obs::metric::kSvcMigrations,
             static_cast<std::int64_t>(solved.migrations));
  remember(solved, version);
  return solved;
}

}  // namespace aa::svc
