#include "aa/heterogeneous.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "aa/algorithm2.hpp"
#include "aa/pipeline.hpp"
#include "alloc/allocator.hpp"
#include "utility/linearized.hpp"

namespace aa::core {

Resource HeteroInstance::max_capacity() const {
  if (capacities.empty()) return 0;
  return *std::max_element(capacities.begin(), capacities.end());
}

Resource HeteroInstance::total_capacity() const {
  return std::accumulate(capacities.begin(), capacities.end(), Resource{0});
}

void HeteroInstance::validate() const {
  if (capacities.empty()) {
    throw std::invalid_argument("hetero instance: need at least one server");
  }
  for (const Resource c : capacities) {
    if (c < 0) {
      throw std::invalid_argument("hetero instance: negative capacity");
    }
  }
  const Resource max_cap = max_capacity();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    if (threads[i] == nullptr) {
      throw std::invalid_argument("hetero instance: null utility for thread " +
                                  std::to_string(i));
    }
    if (threads[i]->capacity() < max_cap) {
      throw std::invalid_argument(
          "hetero instance: thread " + std::to_string(i) +
          " utility domain smaller than the largest server");
    }
  }
}

double total_utility(const HeteroInstance& instance,
                     const Assignment& assignment) {
  if (assignment.server.size() != instance.num_threads() ||
      assignment.alloc.size() != instance.num_threads()) {
    throw std::invalid_argument("total_utility: assignment size mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < instance.num_threads(); ++i) {
    total += instance.threads[i]->value(assignment.alloc[i]);
  }
  return total;
}

std::string check_assignment(const HeteroInstance& instance,
                             const Assignment& assignment, double tol) {
  const std::size_t n = instance.num_threads();
  if (assignment.server.size() != n || assignment.alloc.size() != n) {
    return "assignment arrays do not match the thread count";
  }
  std::vector<double> load(instance.num_servers(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (assignment.server[i] >= instance.num_servers()) {
      return "thread assigned to nonexistent server";
    }
    if (assignment.alloc[i] < -tol) {
      return "negative allocation";
    }
    load[assignment.server[i]] += assignment.alloc[i];
  }
  for (std::size_t j = 0; j < load.size(); ++j) {
    if (load[j] > static_cast<double>(instance.capacities[j]) + tol) {
      std::ostringstream msg;
      msg << "server " << j << " overloaded: " << load[j] << " > "
          << instance.capacities[j];
      return msg.str();
    }
  }
  return {};
}

SolveResult solve_algorithm2_hetero(const HeteroInstance& instance) {
  instance.validate();

  // Pooled super-optimal bound: sum of allocations <= total capacity, each
  // thread bounded by the largest single server it could land on.
  const alloc::AllocationResult so = alloc::allocate_bisection_soa(
      instance.threads, instance.total_capacity(), instance.max_capacity());
  const std::vector<util::Linearized> linearized =
      util::linearize(instance.threads, so.amounts);

  return finish(instance, place_algorithm2(linearized, instance.capacities),
                linearized, so.amounts, so.total_utility);
}

Assignment heuristic_uu_hetero(const HeteroInstance& instance) {
  instance.validate();
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers();
  Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);
  std::vector<std::size_t> counts(m, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.server[i] = i % m;
    ++counts[i % m];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = out.server[i];
    out.alloc[i] = static_cast<double>(instance.capacities[j]) /
                   static_cast<double>(counts[j]);
  }
  return out;
}

namespace {

double exact_hetero_recurse(const HeteroInstance& instance,
                            std::vector<std::size_t>& labels,
                            std::size_t thread) {
  if (thread == instance.num_threads()) {
    double total = 0.0;
    for (std::size_t j = 0; j < instance.num_servers(); ++j) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == j) members.push_back(i);
      }
      if (members.empty()) continue;
      total += alloc::allocate_bisection_soa(instance.threads, members,
                                             instance.capacities[j],
                                             instance.capacities[j])
                   .total_utility;
    }
    return total;
  }
  double best = -1.0;
  for (std::size_t j = 0; j < instance.num_servers(); ++j) {
    labels[thread] = j;
    best = std::max(best, exact_hetero_recurse(instance, labels, thread + 1));
  }
  return best;
}

}  // namespace

double solve_exact_hetero(const HeteroInstance& instance,
                          std::size_t max_threads) {
  instance.validate();
  if (instance.num_threads() > max_threads) {
    throw std::invalid_argument(
        "solve_exact_hetero: instance too large for exhaustive search");
  }
  if (instance.num_threads() == 0) return 0.0;
  std::vector<std::size_t> labels(instance.num_threads(), 0);
  return exact_hetero_recurse(instance, labels, 0);
}

}  // namespace aa::core
