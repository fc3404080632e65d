#pragma once

// Warm-start incremental re-solve for the allocation service.
//
// The batch pipeline (Algorithm 2 + per-server refinement) recomputes the
// placement from scratch on every call; in a long-running service that
// migrates threads needlessly whenever utilities drift a little (paper
// Section VIII; cf. OnlinePolicy::kSticky in aa/online.hpp). The
// WarmStartSolver keeps the previous solution, ids included, and picks
// one of three paths per solve:
//
//   kCached — the state version is unchanged since the last solve: the
//             previous result (and its certificate) is returned as-is.
//   kWarm   — few deltas: recompute the super-optimal allocation and the
//             Equation-1 linearization (they certify the new utilities),
//             but pin every surviving thread to its previous server, give
//             it min(c_hat_i, remaining) in nonincreasing-peak order, place
//             only new threads on the least-loaded servers, and re-optimize
//             allocations per server. Zero migrations by construction.
//   kFull   — a fresh Algorithm-2 placement. Taken when deltas since the
//             last solve exceed the configured threshold, when there is no
//             previous solution, on mode=full requests, when the warm
//             candidate's approximation certificate fails, or when the
//             fresh candidate beats the warm one by more than the kSticky
//             hysteresis (aa::core::sticky_should_migrate).
//
// A warm attempt builds the warm candidate first and the fresh one only
// when it could win. Any feasible placement, the fresh one included, is at
// most F_hat (Lemma V.2: F* <= F_hat), so once the certified warm utility
// clears the hysteresis against F_hat (with a 1e-9 relative slack for
// floating-point sums) the kSticky rule would keep the warm candidate
// whatever the fresh one scored. Skipping it therefore changes no decision.
//
// Every path's result carries a full aa::obs certificate computed against
// the *current* instance — the super-optimal bound is always recomputed
// after any delta, so the 0.828 guarantee in replies is never claimed from
// stale data. The warm path has no a-priori ratio theorem; it is accepted
// only if its certificate chain verifies, with kFull as the fallback, so
// warm-start utility is never below alpha * F_hat.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "aa/problem.hpp"
#include "aa/solve_result.hpp"
#include "obs/certificate.hpp"
#include "svc/instance_state.hpp"

namespace aa::svc {

struct WarmStartConfig {
  /// Relative fresh-solution improvement required to abandon the warm
  /// placement (the kSticky rule from aa/online.hpp).
  double hysteresis = 0.05;
  /// Full re-solve when deltas since the last solve exceed
  /// max(resolve_delta_min, resolve_delta_fraction * num_threads).
  double resolve_delta_fraction = 0.25;
  std::size_t resolve_delta_min = 8;
};

enum class SolvePath { kCached, kWarm, kFull };

[[nodiscard]] const char* solve_path_name(SolvePath path) noexcept;

struct ServiceSolveResult {
  core::SolveResult result;
  std::vector<ThreadId> ids;  ///< Thread id at each assignment position.
  SolvePath path = SolvePath::kFull;
  /// Surviving threads whose server changed vs. the previous solve.
  std::size_t migrations = 0;
  obs::Certificate certificate;
};

/// Chooses among the cached / warm / full solve paths and carries
/// placements across instance versions by thread id.
///
/// Not thread-safe by itself: like InstanceState, a WarmStartSolver is a
/// Tenant member reached only through Shard::tenants, which is
/// AA_GUARDED_BY the owning shard's turn_mutex (service.hpp). The turn
/// lock serializes every solve() and reset(); no support/sync.hpp
/// annotations appear here because the analysis cannot see through the
/// tenant map to these members.
class WarmStartSolver {
 public:
  explicit WarmStartSolver(WarmStartConfig config = {});

  /// Solves the current state. `force_full` skips the cached and warm
  /// paths (protocol mode=full). The result stays valid until the next
  /// solve() or reset().
  [[nodiscard]] const ServiceSolveResult& solve(const InstanceState& state,
                                                bool force_full = false);

  /// Drops all warm state; the next solve takes the full path.
  void reset();

 private:
  [[nodiscard]] bool deltas_exceed_threshold(std::uint64_t deltas,
                                             std::size_t num_threads) const;
  [[nodiscard]] std::vector<std::size_t> previous_servers(
      const std::vector<ThreadId>& ids) const;
  const ServiceSolveResult& remember(ServiceSolveResult&& solved,
                                     std::uint64_t version);

  WarmStartConfig config_;
  bool have_previous_ = false;
  std::uint64_t solved_version_ = 0;
  /// The last solve: the cached reply, and the placement the next warm
  /// attempt pins. Its ids ascend (InstanceState order, ids never reused).
  ServiceSolveResult previous_;
};

}  // namespace aa::svc
