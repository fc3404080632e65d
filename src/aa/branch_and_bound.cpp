#include "aa/branch_and_bound.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "aa/local_search.hpp"
#include "aa/refine.hpp"
#include "alloc/allocator.hpp"
#include "alloc/super_optimal.hpp"

namespace aa::core {

namespace {

class Search {
 public:
  Search(const Instance& instance, const BranchAndBoundOptions& options)
      : instance_(instance), options_(options) {
    const std::size_t n = instance.num_threads();

    // Branch big threads first: nonincreasing standalone utility f(C).
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return standalone(a) > standalone(b);
                     });

    // Suffix relaxation: SO utility of threads order_[t..n-1] over the
    // pooled capacity m*C (Lemma V.2 applied to the remainder). Because
    // the branch order is fixed, the "remaining" set at depth t is always
    // this suffix, so the bounds are precomputable.
    suffix_bound_.assign(n + 1, 0.0);
    for (std::size_t t = n; t-- > 0;) {
      std::vector<UtilityPtr> suffix;
      suffix.reserve(n - t);
      for (std::size_t k = t; k < n; ++k) {
        suffix.push_back(instance.threads[order_[k]]);
      }
      suffix_bound_[t] = alloc::super_optimal(suffix, instance.num_servers,
                                              instance.capacity)
                             .utility;
    }

    // Warm incumbent: Algorithm 2 + refinement + local search.
    const SolveResult seed = solve_algorithm2_refined(instance);
    const LocalSearchResult improved =
        improve_local_search(instance, seed.assignment);
    best_utility_ = improved.utility;
    best_ = improved.assignment;

    groups_.assign(instance.num_servers, {});
    group_value_.assign(instance.num_servers, 0.0);
  }

  BranchAndBoundResult run() {
    recurse(0, 0, 0.0);
    BranchAndBoundResult result;
    result.assignment = std::move(best_);
    result.utility = best_utility_;
    result.nodes_explored = nodes_;
    result.proven_optimal = nodes_ < options_.max_nodes;
    return result;
  }

 private:
  [[nodiscard]] double standalone(std::size_t i) const {
    return instance_.threads[i]->value(
        static_cast<double>(instance_.capacity));
  }

  [[nodiscard]] double group_value(const std::vector<std::size_t>& group)
      const {
    if (group.empty()) return 0.0;
    return alloc::allocate_bisection_soa(instance_.threads, group,
                                         instance_.capacity,
                                         instance_.capacity)
        .total_utility;
  }

  void record_leaf(double assigned_value) {
    if (assigned_value <= best_utility_ + 1e-12) return;
    best_utility_ = assigned_value;
    best_.server.assign(instance_.num_threads(), 0);
    best_.alloc.assign(instance_.num_threads(), 0.0);
    for (std::size_t j = 0; j < groups_.size(); ++j) {
      if (groups_[j].empty()) continue;
      const alloc::AllocationResult allocation = alloc::allocate_bisection_soa(
          instance_.threads, groups_[j], instance_.capacity,
          instance_.capacity);
      for (std::size_t k = 0; k < groups_[j].size(); ++k) {
        best_.server[groups_[j][k]] = j;
        best_.alloc[groups_[j][k]] =
            static_cast<double>(allocation.amounts[k]);
      }
    }
  }

  void recurse(std::size_t depth, std::size_t used, double assigned_value) {
    if (nodes_ >= options_.max_nodes) return;
    ++nodes_;
    if (depth == instance_.num_threads()) {
      record_leaf(assigned_value);
      return;
    }
    // Subadditive bound: exact value of the current groups (each with its
    // own full server) + pooled SO of the unplaced suffix. Prune when it
    // cannot beat the incumbent.
    if (assigned_value + suffix_bound_[depth] <= best_utility_ + 1e-9) {
      return;
    }

    const std::size_t thread = order_[depth];
    const std::size_t limit =
        std::min(instance_.num_servers, used + 1);  // Canonical numbering.
    for (std::size_t j = 0; j < limit; ++j) {
      const double old_value = group_value_[j];
      groups_[j].push_back(thread);
      group_value_[j] = group_value(groups_[j]);
      recurse(depth + 1, std::max(used, j + 1),
              assigned_value - old_value + group_value_[j]);
      groups_[j].pop_back();
      group_value_[j] = old_value;
    }
  }

  const Instance& instance_;
  BranchAndBoundOptions options_;
  std::vector<std::size_t> order_;
  std::vector<double> suffix_bound_;
  std::vector<std::vector<std::size_t>> groups_;
  std::vector<double> group_value_;
  Assignment best_;
  double best_utility_ = 0.0;
  std::uint64_t nodes_ = 0;
};

}  // namespace

BranchAndBoundResult solve_branch_and_bound(
    const Instance& instance, const BranchAndBoundOptions& options) {
  instance.validate();
  if (instance.num_threads() > options.max_threads) {
    throw std::invalid_argument(
        "branch and bound: instance exceeds max_threads");
  }
  if (instance.num_threads() == 0) {
    BranchAndBoundResult empty;
    empty.proven_optimal = true;
    empty.nodes_explored = 1;
    return empty;
  }
  return Search(instance, options).run();
}

}  // namespace aa::core
