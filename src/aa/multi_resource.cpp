#include "aa/multi_resource.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "alloc/allocator.hpp"
#include "alloc/super_optimal.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

void MultiInstance::validate() const {
  if (num_servers == 0) {
    throw std::invalid_argument("multi instance: need at least one server");
  }
  if (capacities.empty()) {
    throw std::invalid_argument("multi instance: need a resource type");
  }
  for (const Resource c : capacities) {
    if (c < 0) throw std::invalid_argument("multi instance: negative capacity");
  }
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (threads[i].parts.size() != capacities.size()) {
      throw std::invalid_argument("multi instance: thread " +
                                  std::to_string(i) +
                                  " has wrong number of utility parts");
    }
    for (std::size_t r = 0; r < capacities.size(); ++r) {
      if (threads[i].parts[r] == nullptr) {
        throw std::invalid_argument("multi instance: null utility part");
      }
      if (threads[i].parts[r]->capacity() < capacities[r]) {
        throw std::invalid_argument(
            "multi instance: utility domain smaller than capacity");
      }
    }
  }
}

double total_utility(const MultiInstance& instance,
                     const MultiAssignment& assignment) {
  if (assignment.server.size() != instance.num_threads() ||
      assignment.alloc.size() != instance.num_threads()) {
    throw std::invalid_argument("multi utility: assignment size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < instance.num_threads(); ++i) {
    if (assignment.alloc[i].size() != instance.num_types()) {
      throw std::invalid_argument("multi utility: allocation arity mismatch");
    }
    for (std::size_t r = 0; r < instance.num_types(); ++r) {
      total += instance.threads[i].parts[r]->value(assignment.alloc[i][r]);
    }
  }
  return total;
}

std::string check_assignment(const MultiInstance& instance,
                             const MultiAssignment& assignment, double tol) {
  const std::size_t n = instance.num_threads();
  if (assignment.server.size() != n || assignment.alloc.size() != n) {
    return "assignment arrays do not match the thread count";
  }
  std::vector<std::vector<double>> load(
      instance.num_servers, std::vector<double>(instance.num_types(), 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    if (assignment.server[i] >= instance.num_servers) {
      return "thread assigned to nonexistent server";
    }
    if (assignment.alloc[i].size() != instance.num_types()) {
      return "allocation vector arity mismatch";
    }
    for (std::size_t r = 0; r < instance.num_types(); ++r) {
      if (assignment.alloc[i][r] < -tol) return "negative allocation";
      load[assignment.server[i]][r] += assignment.alloc[i][r];
    }
  }
  for (std::size_t j = 0; j < load.size(); ++j) {
    for (std::size_t r = 0; r < instance.num_types(); ++r) {
      if (load[j][r] > static_cast<double>(instance.capacities[r]) + tol) {
        std::ostringstream msg;
        msg << "server " << j << " overloaded on resource " << r;
        return msg.str();
      }
    }
  }
  return {};
}

namespace {

/// Exact per-server, per-type allocation for a fixed placement.
MultiAssignment allocate_within_servers(
    const MultiInstance& instance, const std::vector<std::size_t>& placement) {
  MultiAssignment out;
  out.server = placement;
  out.alloc.assign(instance.num_threads(),
                   std::vector<double>(instance.num_types(), 0.0));
  std::vector<std::vector<std::size_t>> groups(instance.num_servers);
  for (std::size_t i = 0; i < placement.size(); ++i) {
    groups.at(placement[i]).push_back(i);
  }
  for (const auto& group : groups) {
    if (group.empty()) continue;
    for (std::size_t r = 0; r < instance.num_types(); ++r) {
      std::vector<UtilityPtr> parts;
      parts.reserve(group.size());
      for (const std::size_t i : group) {
        parts.push_back(instance.threads[i].parts[r]);
      }
      const alloc::AllocationResult result = alloc::allocate_bisection_soa(
          parts, instance.capacities[r], instance.capacities[r]);
      for (std::size_t k = 0; k < group.size(); ++k) {
        out.alloc[group[k]][r] = static_cast<double>(result.amounts[k]);
      }
    }
  }
  return out;
}

MultiSolveResult finish(const MultiInstance& instance,
                        std::vector<std::size_t> placement,
                        double super_optimal) {
  MultiSolveResult result;
  result.assignment = allocate_within_servers(instance, placement);
  result.utility = total_utility(instance, result.assignment);
  result.super_optimal_utility = super_optimal;
  return result;
}

}  // namespace

MultiSolveResult solve_algorithm2_multi(const MultiInstance& instance) {
  instance.validate();
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;
  const std::size_t types = instance.num_types();

  // Per-type pooled super-optimal allocations (Definition V.1, applied
  // independently per resource thanks to additivity).
  std::vector<std::vector<Resource>> c_hat(n, std::vector<Resource>(types, 0));
  double f_hat = 0.0;
  for (std::size_t r = 0; r < types; ++r) {
    std::vector<UtilityPtr> parts;
    parts.reserve(n);
    for (const MultiUtility& thread : instance.threads) {
      parts.push_back(thread.parts[r]);
    }
    const alloc::SuperOptimalResult so =
        alloc::super_optimal(parts, m, instance.capacities[r]);
    f_hat += so.utility;
    for (std::size_t i = 0; i < n; ++i) c_hat[i][r] = so.c_hat[i];
  }

  // Linearized peak and density summed across types. Density normalizes
  // each type by its capacity so types with different unit scales compare.
  std::vector<double> peak(n, 0.0);
  std::vector<double> density(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double normalized_demand = 0.0;
    for (std::size_t r = 0; r < types; ++r) {
      peak[i] += instance.threads[i].parts[r]->value(
          static_cast<double>(c_hat[i][r]));
      if (instance.capacities[r] > 0) {
        normalized_demand += static_cast<double>(c_hat[i][r]) /
                             static_cast<double>(instance.capacities[r]);
      }
    }
    density[i] = normalized_demand > 0.0 ? peak[i] / normalized_demand : 0.0;
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return peak[a] > peak[b];
                   });
  if (n > m) {
    std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(m),
                     order.end(), [&](std::size_t a, std::size_t b) {
                       return density[a] > density[b];
                     });
  }

  // Placement rule: the multi-type analogue of "a server giving the
  // greatest utility" — maximize the linearized utility the thread can
  // obtain from each server's remaining capacities, breaking ties by total
  // normalized remaining capacity (the heap rule of Algorithm 2).
  std::vector<std::vector<Resource>> remaining(
      m, std::vector<Resource>(types));
  for (auto& server : remaining) server = instance.capacities;
  std::vector<std::vector<util::Linearized>> linearized(n);
  for (std::size_t i = 0; i < n; ++i) {
    linearized[i].resize(types);
    for (std::size_t r = 0; r < types; ++r) {
      linearized[i][r] = util::Linearized{
          .cap = c_hat[i][r],
          .peak = instance.threads[i].parts[r]->value(
              static_cast<double>(c_hat[i][r]))};
    }
  }
  auto normalized_remaining = [&](std::size_t j) {
    double sum = 0.0;
    for (std::size_t r = 0; r < types; ++r) {
      if (instance.capacities[r] > 0) {
        sum += static_cast<double>(remaining[j][r]) /
               static_cast<double>(instance.capacities[r]);
      }
    }
    return sum;
  };

  std::vector<std::size_t> placement(n, 0);
  for (const std::size_t i : order) {
    std::size_t best = 0;
    double best_value = -1.0;
    double best_tiebreak = -1.0;
    for (std::size_t j = 0; j < m; ++j) {
      double value = 0.0;
      for (std::size_t r = 0; r < types; ++r) {
        value += linearized[i][r].value(
            static_cast<double>(std::min(c_hat[i][r], remaining[j][r])));
      }
      const double tiebreak = normalized_remaining(j);
      if (value > best_value + 1e-12 ||
          (value > best_value - 1e-12 && tiebreak > best_tiebreak)) {
        best_value = value;
        best_tiebreak = tiebreak;
        best = j;
      }
    }
    placement[i] = best;
    for (std::size_t r = 0; r < types; ++r) {
      remaining[best][r] -= std::min(c_hat[i][r], remaining[best][r]);
    }
  }

  return finish(instance, std::move(placement), f_hat);
}

MultiSolveResult solve_round_robin_multi(const MultiInstance& instance) {
  instance.validate();
  std::vector<std::size_t> placement(instance.num_threads());
  for (std::size_t i = 0; i < placement.size(); ++i) {
    placement[i] = i % instance.num_servers;
  }
  // The round-robin baseline gets no super-optimal certificate.
  return finish(instance, std::move(placement), 0.0);
}

namespace {

double exact_multi_recurse(const MultiInstance& instance,
                           std::vector<std::size_t>& placement,
                           std::size_t thread, std::size_t used) {
  if (thread == instance.num_threads()) {
    MultiAssignment assignment =
        allocate_within_servers(instance, placement);
    return total_utility(instance, assignment);
  }
  double best = -1.0;
  const std::size_t limit = std::min(instance.num_servers, used + 1);
  for (std::size_t j = 0; j < limit; ++j) {
    placement[thread] = j;
    best = std::max(best, exact_multi_recurse(instance, placement, thread + 1,
                                              std::max(used, j + 1)));
  }
  return best;
}

}  // namespace

double solve_exact_multi(const MultiInstance& instance,
                         std::size_t max_threads) {
  instance.validate();
  if (instance.num_threads() > max_threads) {
    throw std::invalid_argument(
        "solve_exact_multi: instance too large for exhaustive search");
  }
  if (instance.num_threads() == 0) return 0.0;
  std::vector<std::size_t> placement(instance.num_threads(), 0);
  return exact_multi_recurse(instance, placement, 0, 0);
}

}  // namespace aa::core
