#pragma once

// Mutable AA instance behind the allocation service.
//
// The batch solvers take an immutable core::Instance; a long-running
// service instead owns a set of threads with stable ids that grows,
// shrinks, and drifts between solves (paper Section VIII). InstanceState
// is that set: delta operations (add / remove / update / scale) mutate it
// and bump a version counter, and to_instance() snapshots it into the
// solver's Instance form together with the id at each position, so solve
// results can be reported per thread id and placements carried across
// versions by id rather than by position.
//
// Not thread-safe by itself, and deliberately free of support/sync.hpp
// vocabulary: every InstanceState lives inside a Tenant owned by exactly
// one Service shard, and the shard's turn_mutex (the root of the lock
// hierarchy in service.hpp) serializes all access — one request batch at
// a time. The thread-safety analysis guards the map that reaches this
// object (Shard::tenants is AA_GUARDED_BY(turn_mutex)); it cannot see
// through the map into these members, which is why the ownership rule is
// stated here instead.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "aa/problem.hpp"
#include "utility/utility_function.hpp"

namespace aa::svc {

using ThreadId = std::uint64_t;

class InstanceState {
 public:
  /// Throws std::invalid_argument on zero servers or capacity < 1.
  InstanceState(std::size_t num_servers, util::Resource capacity);

  [[nodiscard]] std::size_t num_servers() const noexcept {
    return num_servers_;
  }
  [[nodiscard]] util::Resource capacity() const noexcept { return capacity_; }

  /// Per-server capacity snapshots actually solve with. Defaults to
  /// capacity(); the multi-tenant fairness layer lowers it to the tenant's
  /// pool slice (svc/fairness.hpp). Clamped to [1, capacity()]; a change
  /// bumps the version so warm-start caches of the old slice are invalid.
  [[nodiscard]] util::Resource solve_capacity() const noexcept {
    return solve_capacity_;
  }
  void set_solve_capacity(util::Resource solve_capacity);
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return threads_.size();
  }

  /// Bumped by every successful delta; solvers compare versions to count
  /// the deltas applied since their last snapshot.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Adds a thread (utility domain must cover the capacity and f(C) be
  /// finite; throws std::invalid_argument otherwise) and returns its fresh
  /// id. Ids are never reused.
  ThreadId add_thread(util::UtilityPtr utility);

  /// Removes a thread; false when the id is unknown.
  bool remove_thread(ThreadId id);

  /// Replaces a thread's utility; false when the id is unknown. Throws
  /// std::invalid_argument, leaving the state as it was, when the new
  /// domain is too small or f(C) is not finite.
  bool update_utility(ThreadId id, util::UtilityPtr utility);

  /// Rescales a thread's utility by `factor` >= 0 (drift in the Section
  /// VIII sense). Wraps in util::ScaledUtility, collapsing nested wrappers
  /// so long drift streams stay O(1) deep. False when the id is unknown.
  /// Throws std::invalid_argument, leaving the state as it was, when the
  /// rescaled f(C) is not finite.
  bool scale_utility(ThreadId id, double factor);

  /// The utility behind an id, or nullptr.
  [[nodiscard]] const util::UtilityPtr* find(ThreadId id) const;

  /// Threads in insertion order as (id, utility) pairs.
  [[nodiscard]] const std::vector<std::pair<ThreadId, util::UtilityPtr>>&
  threads() const noexcept {
    return threads_;
  }

  /// Snapshots the current set into solver form. When `ids` is non-null it
  /// receives the thread id at each instance position.
  [[nodiscard]] core::Instance to_instance(
      std::vector<ThreadId>* ids = nullptr) const;

 private:
  [[nodiscard]] std::optional<std::size_t> index_of(ThreadId id) const;
  void require_domain(const util::UtilityPtr& utility) const;
  void require_finite(const util::UtilityFunction& utility) const;

  std::size_t num_servers_;
  util::Resource capacity_;
  util::Resource solve_capacity_;
  std::vector<std::pair<ThreadId, util::UtilityPtr>> threads_;
  ThreadId next_id_ = 1;
  std::uint64_t version_ = 0;
};

}  // namespace aa::svc
