// Tests for the warm-start incremental solver (svc/warm_start.hpp).
//
// The property at the heart of the service: after ANY delta sequence, the
// solve reply's certificate chain verifies against the *current* instance,
// so warm-start utility is never below alpha * F_hat (0.828 * the
// super-optimal bound). The sticky/warm path must additionally never
// migrate more than a from-scratch re-solve policy over the same deltas.

#include "svc/warm_start.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/online.hpp"
#include "aa/problem.hpp"
#include "aa/refine.hpp"
#include "aa/solve_result.hpp"
#include "alloc/super_optimal.hpp"
#include "support/distributions.hpp"
#include "support/prng.hpp"
#include "svc/instance_state.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace aa::svc {
namespace {

constexpr util::Resource kCapacity = 64;
constexpr std::size_t kServers = 3;

util::UtilityPtr random_utility(support::Rng& rng) {
  support::DistributionParams dist;  // Section VII uniform H.
  return util::generate_utility(kCapacity, dist, rng);
}

InstanceState seeded_state(std::size_t threads, support::Rng& rng) {
  InstanceState state(kServers, kCapacity);
  for (std::size_t i = 0; i < threads; ++i) {
    (void)state.add_thread(random_utility(rng));
  }
  return state;
}

/// Re-certifies a solve result against the state it claims to solve,
/// including the O(n C) concavity sweep the service skips per-solve.
void expect_certified(const InstanceState& state,
                      const ServiceSolveResult& solved,
                      const std::string& context) {
  EXPECT_TRUE(solved.certificate.ok())
      << context << ": " << solved.certificate.to_json().dump();
  const core::Instance instance = state.to_instance();
  const obs::Certificate recheck =
      core::certify(instance, solved.result, "recheck",
                    core::CertifyOptions{/*check_concavity=*/true});
  EXPECT_TRUE(recheck.ok()) << context << ": " << recheck.to_json().dump();
  EXPECT_GE(solved.result.utility,
            core::kApproximationRatio * solved.result.super_optimal_utility -
                1e-7 * (1.0 + solved.result.super_optimal_utility))
      << context;
}

TEST(WarmStartSolver, EmptyInstanceSolves) {
  InstanceState state(kServers, kCapacity);
  WarmStartSolver solver;
  const ServiceSolveResult solved = solver.solve(state);
  EXPECT_TRUE(solved.certificate.ok());
  EXPECT_TRUE(solved.ids.empty());
  EXPECT_DOUBLE_EQ(solved.result.utility, 0.0);
}

TEST(WarmStartSolver, CachedPathWhenVersionUnchanged) {
  support::Rng rng(1);
  InstanceState state = seeded_state(6, rng);
  WarmStartSolver solver;
  const ServiceSolveResult first = solver.solve(state);
  EXPECT_EQ(first.path, SolvePath::kFull);  // No previous solution yet.
  const ServiceSolveResult second = solver.solve(state);
  EXPECT_EQ(second.path, SolvePath::kCached);
  EXPECT_EQ(second.migrations, 0u);
  EXPECT_DOUBLE_EQ(second.result.utility, first.result.utility);
  expect_certified(state, second, "cached");
}

TEST(WarmStartSolver, ForceFullSkipsCacheAndWarm) {
  support::Rng rng(2);
  InstanceState state = seeded_state(6, rng);
  WarmStartSolver solver;
  (void)solver.solve(state);
  const ServiceSolveResult forced = solver.solve(state, /*force_full=*/true);
  EXPECT_EQ(forced.path, SolvePath::kFull);
  expect_certified(state, forced, "forced full");
}

TEST(WarmStartSolver, WarmPathPinsPlacement) {
  support::Rng rng(3);
  InstanceState state = seeded_state(10, rng);
  WarmStartSolver solver;
  (void)solver.solve(state);
  // One mild drift delta: few deltas, so the warm path is eligible; when
  // taken it must not migrate anything.
  ASSERT_TRUE(state.scale_utility(state.threads()[0].first, 1.02));
  const ServiceSolveResult solved = solver.solve(state);
  EXPECT_NE(solved.path, SolvePath::kCached);
  if (solved.path == SolvePath::kWarm) {
    EXPECT_EQ(solved.migrations, 0u);
  }
  expect_certified(state, solved, "after mild drift");
}

TEST(WarmStartSolver, ManyDeltasForceFullResolve) {
  support::Rng rng(4);
  InstanceState state = seeded_state(12, rng);
  WarmStartConfig config;
  config.resolve_delta_min = 4;
  config.resolve_delta_fraction = 0.25;
  WarmStartSolver solver(config);
  (void)solver.solve(state);
  // 5 deltas > max(4, 0.25 * 12) = 4: warm path no longer trusted.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(state.scale_utility(state.threads()[0].first, 1.01));
  }
  const ServiceSolveResult solved = solver.solve(state);
  EXPECT_EQ(solved.path, SolvePath::kFull);
  expect_certified(state, solved, "past delta threshold");
}

/// One random delta; returns true when it changed the state.
bool apply_random_delta(InstanceState& state, support::Rng& rng,
                        double drift_low, double drift_high) {
  const double dice = rng.uniform01();
  if (state.num_threads() == 0 || dice < 0.12) {
    (void)state.add_thread(random_utility(rng));
    return true;
  }
  const std::size_t pick = rng.uniform_below(state.num_threads());
  const ThreadId id = state.threads()[pick].first;
  if (dice < 0.24 && state.num_threads() > 2) {
    return state.remove_thread(id);
  }
  const double factor =
      drift_low + (drift_high - drift_low) * rng.uniform01();
  return state.scale_utility(id, factor);
}

class WarmStartProperty : public ::testing::TestWithParam<std::uint64_t> {};

// The tentpole property: after any delta sequence — including aggressive
// drift and churn — every solve (whatever path it took) carries a passing
// certificate, i.e. utility >= 0.828 * F_hat on the current instance.
TEST_P(WarmStartProperty, EveryPathCertifiesAfterAnyDeltaSequence) {
  support::Rng rng(GetParam());
  InstanceState state = seeded_state(4 + rng.uniform_below(8), rng);
  WarmStartSolver solver;
  bool saw_warm = false;
  for (int round = 0; round < 30; ++round) {
    const std::size_t deltas = 1 + rng.uniform_below(4);
    for (std::size_t d = 0; d < deltas; ++d) {
      (void)apply_random_delta(state, rng, 0.5, 2.0);
    }
    const ServiceSolveResult solved =
        solver.solve(state, /*force_full=*/rng.uniform01() < 0.1);
    expect_certified(state, solved,
                     "seed " + std::to_string(GetParam()) + " round " +
                         std::to_string(round) + " path " +
                         solve_path_name(solved.path));
    saw_warm = saw_warm || solved.path == SolvePath::kWarm;
  }
  EXPECT_TRUE(saw_warm) << "delta mix never exercised the warm path";
}

// Satellite: warm-start vs from-scratch parity. Over the same mild-drift
// delta stream, both policies certify every solve and the sticky solver
// never migrates more than the always-resolve solver.
TEST_P(WarmStartProperty, StickyMigratesNoMoreThanResolve) {
  support::Rng rng(GetParam() + 1000);
  InstanceState sticky_state = seeded_state(8, rng);
  // Mirror the state (same utilities, same ids) for the resolve policy.
  InstanceState resolve_state(kServers, kCapacity);
  for (const auto& [id, utility] : sticky_state.threads()) {
    (void)resolve_state.add_thread(utility);
  }
  WarmStartSolver sticky;
  WarmStartSolver resolve;
  std::size_t sticky_migrations = 0;
  std::size_t resolve_migrations = 0;
  for (int round = 0; round < 25; ++round) {
    // Same drift applied to both copies (ids line up by construction).
    const std::size_t pick = rng.uniform_below(sticky_state.num_threads());
    const ThreadId id = sticky_state.threads()[pick].first;
    const double factor = 0.95 + 0.1 * rng.uniform01();
    ASSERT_TRUE(sticky_state.scale_utility(id, factor));
    ASSERT_TRUE(resolve_state.scale_utility(id, factor));

    const ServiceSolveResult sticky_solved = sticky.solve(sticky_state);
    const ServiceSolveResult resolve_solved =
        resolve.solve(resolve_state, /*force_full=*/true);
    sticky_migrations += sticky_solved.migrations;
    resolve_migrations += resolve_solved.migrations;
    expect_certified(sticky_state, sticky_solved, "sticky");
    expect_certified(resolve_state, resolve_solved, "resolve");
  }
  EXPECT_LE(sticky_migrations, resolve_migrations)
      << "seed " << GetParam();
}

/// The build-both decision for one warm attempt, made in the test by the
/// literal rule: both candidates on the same super-optimal allocation
/// and linearization, the warm one pinned to `previous` (thread id ->
/// server) in nonincreasing-peak order with new threads on the
/// least-loaded server, then kSticky over the refined utilities.
struct ReferenceDecision {
  double f_hat = 0.0;
  double fresh = 0.0;
  double warm = 0.0;
  bool warm_ok = false;
  SolvePath path = SolvePath::kFull;
};

ReferenceDecision reference_decision(
    const InstanceState& state,
    const std::map<ThreadId, std::size_t>& previous, double hysteresis) {
  std::vector<ThreadId> ids;
  const core::Instance instance = state.to_instance(&ids);
  const std::size_t n = instance.num_threads();
  const alloc::SuperOptimalResult super = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  const std::vector<util::Linearized> linearized =
      util::linearize(instance.threads, super.c_hat);

  ReferenceDecision decision;
  decision.f_hat = super.utility;
  decision.fresh = core::total_utility(
      instance, core::reoptimize_allocations(
                    instance, core::assign_algorithm2(instance, linearized)));

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (linearized[a].peak != linearized[b].peak) {
      return linearized[a].peak > linearized[b].peak;
    }
    return a < b;
  });
  core::Assignment warm_raw;
  warm_raw.server.assign(n, 0);
  warm_raw.alloc.assign(n, 0.0);
  std::vector<double> remaining(instance.num_servers,
                                static_cast<double>(instance.capacity));
  const auto place = [&](std::size_t index, std::size_t server) {
    const double give = std::min(static_cast<double>(linearized[index].cap),
                                 remaining[server]);
    warm_raw.server[index] = server;
    warm_raw.alloc[index] = give;
    remaining[server] -= give;
  };
  std::vector<std::size_t> arrivals;
  for (const std::size_t index : order) {
    const auto it = previous.find(ids[index]);
    if (it == previous.end()) {
      arrivals.push_back(index);
    } else {
      place(index, it->second);
    }
  }
  for (const std::size_t index : arrivals) {
    place(index, static_cast<std::size_t>(
                     std::max_element(remaining.begin(), remaining.end()) -
                     remaining.begin()));
  }
  double warm_linearized = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    warm_linearized += linearized[i].value(warm_raw.alloc[i]);
  }
  core::SolveResult warm;
  warm.assignment = core::reoptimize_allocations(instance, warm_raw);
  warm.utility = core::total_utility(instance, warm.assignment);
  warm.linearized_utility = warm_linearized;
  warm.super_optimal_utility = super.utility;
  warm.c_hat = super.c_hat;
  decision.warm = warm.utility;
  decision.warm_ok =
      core::certify(instance, warm, "reference", core::CertifyOptions{false})
          .ok();
  decision.path = decision.warm_ok && !core::sticky_should_migrate(
                                          decision.fresh, decision.warm,
                                          hysteresis)
                      ? SolvePath::kWarm
                      : SolvePath::kFull;
  return decision;
}

std::map<ThreadId, std::size_t> placement_of(const ServiceSolveResult& solved) {
  std::map<ThreadId, std::size_t> placement;
  for (std::size_t i = 0; i < solved.ids.size(); ++i) {
    placement.emplace(solved.ids[i], solved.result.assignment.server[i]);
  }
  return placement;
}

// The solver builds the fresh candidate only when F_hat leaves it room to
// win. The skip is exact: on every warm attempt the fresh candidate stays
// under the super-optimal bound (Lemma V.2), and the path taken is the one
// the build-both rule picks, with the chosen candidate's utility.
TEST_P(WarmStartProperty, FreshCandidateSkipMatchesTheBuildBothRule) {
  support::Rng rng(GetParam() + 2000);
  InstanceState state = seeded_state(6 + rng.uniform_below(10), rng);
  const WarmStartConfig config;
  WarmStartSolver solver(config);
  std::map<ThreadId, std::size_t> previous =
      placement_of(solver.solve(state));
  bool saw_warm = false;
  for (int round = 0; round < 40; ++round) {
    // Mostly mild drift (the warm path's home ground), some churn, and an
    // occasional large swing that can make the fresh candidate win.
    const bool swing = rng.uniform01() < 0.15;
    const std::size_t deltas = 1 + rng.uniform_below(3);
    for (std::size_t d = 0; d < deltas; ++d) {
      (void)apply_random_delta(state, rng, swing ? 0.2 : 0.9,
                               swing ? 4.0 : 1.1);
    }
    const ReferenceDecision want =
        reference_decision(state, previous, config.hysteresis);
    const ServiceSolveResult& solved = solver.solve(state);
    const std::string context = "seed " + std::to_string(GetParam()) +
                                " round " + std::to_string(round);
    EXPECT_LE(want.fresh, want.f_hat * (1.0 + 1e-9)) << context;
    EXPECT_EQ(solved.path, want.path) << context;
    EXPECT_EQ(solved.result.utility,
              want.path == SolvePath::kWarm ? want.warm : want.fresh)
        << context;
    expect_certified(state, solved, context);
    saw_warm = saw_warm || solved.path == SolvePath::kWarm;
    previous = placement_of(solved);
  }
  EXPECT_TRUE(saw_warm) << "delta mix never exercised the warm path";
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// Every field of two results, doubles compared bit for bit.
void expect_same_result(const core::SolveResult& got,
                        const core::SolveResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.assignment.server, want.assignment.server) << context;
  ASSERT_EQ(got.assignment.alloc.size(), want.assignment.alloc.size())
      << context;
  for (std::size_t i = 0; i < want.assignment.alloc.size(); ++i) {
    EXPECT_EQ(bits_of(got.assignment.alloc[i]),
              bits_of(want.assignment.alloc[i]))
        << context << " thread " << i;
  }
  EXPECT_EQ(bits_of(got.utility), bits_of(want.utility)) << context;
  EXPECT_EQ(bits_of(got.linearized_utility),
            bits_of(want.linearized_utility))
      << context;
  EXPECT_EQ(bits_of(got.super_optimal_utility),
            bits_of(want.super_optimal_utility))
      << context;
  EXPECT_EQ(got.c_hat, want.c_hat) << context;
}

// The service's full path is the batch solver: whether the delta rule or
// mode=full forced it, or the fresh candidate won a warm attempt, the
// reply's result is solve_algorithm2_refined's on the same state.
TEST_P(WarmStartProperty, FullPathMatchesTheBatchSolver) {
  support::Rng rng(GetParam() + 3000);
  InstanceState state = seeded_state(6 + rng.uniform_below(10), rng);
  WarmStartSolver solver;
  std::size_t forced = 0;
  std::size_t fallbacks = 0;
  for (int round = 0; round < 60; ++round) {
    // At most 3 deltas, under the threshold of 8: an unforced full solve
    // after the first is the fresh candidate's fallback.
    const bool swing = rng.uniform01() < 0.3;
    const std::size_t deltas = 1 + rng.uniform_below(3);
    for (std::size_t d = 0; d < deltas; ++d) {
      (void)apply_random_delta(state, rng, swing ? 0.1 : 0.9,
                               swing ? 6.0 : 1.1);
    }
    const bool force_full = round == 0 || rng.uniform01() < 0.15;
    const ServiceSolveResult& solved = solver.solve(state, force_full);
    if (solved.path != SolvePath::kFull) continue;
    ++(force_full ? forced : fallbacks);
    expect_same_result(solved.result,
                       core::solve_algorithm2_refined(state.to_instance()),
                       "seed " + std::to_string(GetParam()) + " round " +
                           std::to_string(round) +
                           (force_full ? " forced" : " fallback"));
  }
  EXPECT_GT(forced, 0u);
  EXPECT_GT(fallbacks, 0u) << "the fresh candidate never won a warm attempt";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmStartProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

/// One seeded delta/solve stream: mild drift and churn with warm solves,
/// repeated solves (cached), forced full solves and delta bursts past the
/// re-solve threshold. Each solve renders as "path migrations utility-bits".
std::vector<std::string> golden_stream() {
  support::Rng rng(2026);
  InstanceState state = seeded_state(24, rng);
  WarmStartSolver solver;
  std::vector<std::string> out;
  const auto record = [&](const ServiceSolveResult& solved) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &solved.result.utility, sizeof bits);
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(bits));
    out.push_back(std::string(solve_path_name(solved.path)) + " " +
                  std::to_string(solved.migrations) + " " + hex);
  };
  for (int round = 0; round < 48; ++round) {
    const std::size_t deltas =
        round % 16 == 15 ? 12 : 1 + rng.uniform_below(3);
    for (std::size_t d = 0; d < deltas; ++d) {
      (void)apply_random_delta(state, rng, 0.6, 1.6);
    }
    record(solver.solve(state, /*force_full=*/round % 11 == 10));
    if (round % 7 == 3) record(solver.solve(state));
  }
  return out;
}

// Decisions pinned bit for bit against a recording of the solver that
// built both candidates on every warm attempt.
TEST(WarmStartGolden, SeededStreamMatchesTheBuildBothRecording) {
  const std::vector<std::string> want = {
      "full 0 401792dfdd07ce36",
      "warm 0 401792dfdd07ce36",
      "warm 0 401792dfdd07ce36",
      "warm 0 40188cb20723a03a",
      "cached 0 40188cb20723a03a",
      "warm 0 40191525ee7cc8f3",
      "warm 0 40191525ee7cc8f3",
      "warm 0 40191525ee7cc8f3",
      "warm 0 40191525ee7cc8f3",
      "warm 0 401a9c3cd4952140",
      "warm 0 401afd482dd0f178",
      "full 20 401be7e30610a4c1",
      "cached 0 401be7e30610a4c1",
      "warm 0 401bbe2504c82f49",
      "warm 0 401adbbea7063692",
      "warm 0 401a778f14ab572c",
      "warm 0 401b8d4053e04b76",
      "full 9 401ff5e64f960932",
      "warm 0 401fecdaf0e94279",
      "warm 0 401fecdaf0e94279",
      "cached 0 401fecdaf0e94279",
      "warm 0 401ff2a14b5ab5a3",
      "warm 0 401eb6717fbcb817",
      "warm 0 401dd03cfc8e537d",
      "full 21 401dba4b2c0c72d5",
      "warm 0 401d717a8c12fa7e",
      "warm 0 401e44edcfa62f6d",
      "warm 0 401e1529f5992449",
      "cached 0 401e1529f5992449",
      "warm 0 401e1529f5992449",
      "warm 0 401e1529f5992449",
      "warm 0 401e1529f5992449",
      "warm 0 401e1529f5992449",
      "warm 0 401e50bff131b931",
      "full 9 401e8ea3d7a8fee9",
      "full 16 401c8033030c2045",
      "cached 0 401c8033030c2045",
      "full 5 401d3071977b4867",
      "warm 0 401c8c7407aeb320",
      "warm 0 4020d2ff4a93cc9d",
      "warm 0 402386f63a2bdd84",
      "warm 0 40243f03a29a8a6a",
      "warm 0 40243f03a29a8a6a",
      "warm 0 4022894552a34456",
      "cached 0 4022894552a34456",
      "warm 0 40235df041fed731",
      "warm 0 40235df041fed731",
      "warm 0 4026c6b625c35af4",
      "warm 0 4026c6b625c35af4",
      "full 4 4026f44994c8de97",
      "warm 0 4026ffaad434a460",
      "warm 0 4026ffa2e7bfec7f",
      "cached 0 4026ffa2e7bfec7f",
      "warm 0 4026ffa2e7bfec7f",
      "full 11 402685821d0551f3",
  };
  EXPECT_EQ(golden_stream(), want);
}

}  // namespace
}  // namespace aa::svc
