#include "aa/coschedule.hpp"

#include <bit>
#include <stdexcept>
#include <vector>

#include "alloc/allocator.hpp"

namespace aa::core {

namespace {

void check_shape(const Instance& instance) {
  instance.validate();
  if (instance.num_threads() != 2 * instance.num_servers) {
    throw std::invalid_argument(
        "coschedule: need exactly two threads per server");
  }
}

/// Exact allocation for the pair (a, b) on one server.
alloc::AllocationResult solve_pair(const Instance& instance, std::size_t a,
                                   std::size_t b) {
  const std::size_t pair[] = {a, b};
  return alloc::allocate_bisection_soa(instance.threads, pair,
                                       instance.capacity, instance.capacity);
}

/// Precomputed pair values for all (a, b), a < b.
std::vector<std::vector<double>> pair_values(const Instance& instance) {
  const std::size_t n = instance.num_threads();
  std::vector<std::vector<double>> value(n, std::vector<double>(n, 0.0));
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      value[a][b] = value[b][a] =
          solve_pair(instance, a, b).total_utility;
    }
  }
  return value;
}

/// Materializes a pairing (list of (a, b)) into a full Assignment.
CoScheduleResult materialize(const Instance& instance,
                             const std::vector<std::pair<std::size_t,
                                                         std::size_t>>& pairs) {
  CoScheduleResult result;
  result.assignment.server.assign(instance.num_threads(), 0);
  result.assignment.alloc.assign(instance.num_threads(), 0.0);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    const auto [a, b] = pairs[s];
    const alloc::AllocationResult allocation = solve_pair(instance, a, b);
    result.assignment.server[a] = s;
    result.assignment.server[b] = s;
    result.assignment.alloc[a] = static_cast<double>(allocation.amounts[0]);
    result.assignment.alloc[b] = static_cast<double>(allocation.amounts[1]);
  }
  result.utility = total_utility(instance, result.assignment);
  return result;
}

}  // namespace

double pair_value(const Instance& instance, std::size_t a, std::size_t b) {
  return solve_pair(instance, a, b).total_utility;
}

CoScheduleResult coschedule_exact_pairs(const Instance& instance,
                                        std::size_t max_threads) {
  check_shape(instance);
  const std::size_t n = instance.num_threads();
  if (n > max_threads || n > 24) {
    throw std::invalid_argument("coschedule: instance too large for DP");
  }
  if (n == 0) return materialize(instance, {});
  const auto values = pair_values(instance);

  // best[mask]: max total value pairing up exactly the threads in mask.
  const std::size_t full = (std::size_t{1} << n) - 1;
  constexpr double kUnset = -1.0;
  std::vector<double> best(full + 1, kUnset);
  std::vector<std::pair<std::uint8_t, std::uint8_t>> choice(full + 1);
  best[0] = 0.0;
  for (std::size_t mask = 0; mask <= full; ++mask) {
    if (best[mask] == kUnset || mask == full) continue;
    // Pair the lowest unset thread with every other unset thread; fixing
    // the lowest avoids revisiting permutations of the same pairing.
    const auto a = static_cast<std::size_t>(
        std::countr_zero(~mask));
    for (std::size_t b = a + 1; b < n; ++b) {
      if ((mask >> b) & 1u) continue;
      const std::size_t next =
          mask | (std::size_t{1} << a) | (std::size_t{1} << b);
      const double candidate = best[mask] + values[a][b];
      if (candidate > best[next]) {
        best[next] = candidate;
        choice[next] = {static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)};
      }
    }
  }

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::size_t mask = full;
  while (mask != 0) {
    const auto [a, b] = choice[mask];
    pairs.emplace_back(a, b);
    mask &= ~((std::size_t{1} << a) | (std::size_t{1} << b));
  }
  return materialize(instance, pairs);
}

CoScheduleResult coschedule_greedy_pairs(const Instance& instance) {
  check_shape(instance);
  const std::size_t n = instance.num_threads();
  const auto values = pair_values(instance);
  std::vector<bool> paired(n, false);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t round = 0; round < instance.num_servers; ++round) {
    double best_value = -1.0;
    std::size_t best_a = 0;
    std::size_t best_b = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (paired[a]) continue;
      for (std::size_t b = a + 1; b < n; ++b) {
        if (paired[b]) continue;
        if (values[a][b] > best_value) {
          best_value = values[a][b];
          best_a = a;
          best_b = b;
        }
      }
    }
    paired[best_a] = true;
    paired[best_b] = true;
    pairs.emplace_back(best_a, best_b);
  }
  return materialize(instance, pairs);
}

}  // namespace aa::core
