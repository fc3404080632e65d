#include "aa/exact.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "alloc/allocator.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

namespace {

class PartitionSearch {
 public:
  explicit PartitionSearch(const Instance& instance) : instance_(instance) {
    const std::size_t n = instance.num_threads();
    current_.assign(n, 0);
    best_.server.assign(n, 0);
    best_.alloc.assign(n, 0.0);
  }

  ExactResult run() {
    recurse(0, 0);
    return {std::move(best_), best_utility_, explored_};
  }

 private:
  void recurse(std::size_t thread, std::size_t used_servers) {
    const std::size_t n = instance_.num_threads();
    if (thread == n) {
      evaluate();
      return;
    }
    // Canonical numbering: a thread may join any already-used server or
    // open the next fresh one (if any remain).
    const std::size_t limit =
        std::min(instance_.num_servers, used_servers + 1);
    for (std::size_t j = 0; j < limit; ++j) {
      current_[thread] = j;
      recurse(thread + 1, std::max(used_servers, j + 1));
    }
  }

  void evaluate() {
    ++explored_;
    std::vector<std::vector<std::size_t>> groups(instance_.num_servers);
    for (std::size_t i = 0; i < current_.size(); ++i) {
      groups[current_[i]].push_back(i);
    }
    double total = 0.0;
    std::vector<double> alloc(current_.size(), 0.0);
    for (const auto& group : groups) {
      if (group.empty()) continue;
      const alloc::AllocationResult result = alloc::allocate_bisection_soa(
          instance_.threads, group, instance_.capacity, instance_.capacity);
      total += result.total_utility;
      for (std::size_t k = 0; k < group.size(); ++k) {
        alloc[group[k]] = static_cast<double>(result.amounts[k]);
      }
    }
    if (total > best_utility_) {
      best_utility_ = total;
      best_.server = current_;
      best_.alloc = std::move(alloc);
    }
  }

  const Instance& instance_;
  std::vector<std::size_t> current_;
  Assignment best_;
  double best_utility_ = -1.0;
  std::size_t explored_ = 0;
};

}  // namespace

ExactResult solve_exact(const Instance& instance, std::size_t max_threads) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseExactSolve);
  obs::count(obs::metric::kExactSolves);
  instance.validate();
  if (instance.num_threads() > max_threads) {
    throw std::invalid_argument(
        "solve_exact: instance too large for exhaustive search");
  }
  ExactResult result = PartitionSearch(instance).run();
  obs::count(obs::metric::kExactPartitionsExplored,
             static_cast<std::int64_t>(result.partitions_explored));
  return result;
}

}  // namespace aa::core
