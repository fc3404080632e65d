#include "aa/algorithm2.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>
#include <vector>

#include "aa/certify.hpp"
#include "alloc/super_optimal.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

namespace {

SolveResult package(const Instance& instance, Assignment assignment,
                    std::span<const util::Linearized> linearized,
                    std::vector<Resource> c_hat, double f_hat) {
  SolveResult result;
  result.utility = total_utility(instance, assignment);
  double g_total = 0.0;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    g_total += linearized[i].value(assignment.alloc[i]);
  }
  result.linearized_utility = g_total;
  result.super_optimal_utility = f_hat;
  result.c_hat = std::move(c_hat);
  result.assignment = std::move(assignment);
  return result;
}

}  // namespace

Assignment assign_algorithm2_with_options(
    const Instance& instance, std::span<const util::Linearized> linearized,
    const Algorithm2Options& options) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2Assign);
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;
  if (linearized.size() != n) {
    throw std::invalid_argument("algorithm2: linearization size mismatch");
  }
  obs::count(obs::metric::kAlg2ThreadsAssigned, static_cast<std::int64_t>(n));

  // Line 1: nonincreasing peak order (stable; ties keep thread index order).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options.sort_by_peak) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return linearized[a].peak > linearized[b].peak;
                     });
  }
  // Line 2: re-sort the tail (threads m+1..n) by ramp density.
  if (options.resort_tail_by_density && n > m) {
    const auto tail = order.begin() + static_cast<std::ptrdiff_t>(m);
    if (options.density_nonincreasing) {
      std::stable_sort(tail, order.end(), [&](std::size_t a, std::size_t b) {
        return linearized[a].density() > linearized[b].density();
      });
    } else {
      std::stable_sort(tail, order.end(), [&](std::size_t a, std::size_t b) {
        return linearized[a].density() < linearized[b].density();
      });
    }
  }

  // Lines 3-4: server remaining capacities in a max-heap. Ties prefer the
  // lowest server index for determinism.
  using HeapEntry = std::pair<Resource, std::size_t>;  // (remaining, -index)
  auto cmp = [](const HeapEntry& a, const HeapEntry& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, decltype(cmp)> heap(
      cmp);
  for (std::size_t j = 0; j < m; ++j) {
    heap.push({instance.capacity, j});
  }

  Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);

  // Lines 5-10: fullest server first, allocation min(c_hat_i, C_j).
  for (const std::size_t i : order) {
    const auto [remaining, j] = heap.top();
    heap.pop();
    const Resource granted = std::min(linearized[i].cap, remaining);
    out.server[i] = j;
    out.alloc[i] = static_cast<double>(granted);
    heap.push({remaining - granted, j});
  }
  return out;
}

Assignment assign_algorithm2(const Instance& instance,
                             std::span<const util::Linearized> linearized) {
  return assign_algorithm2_with_options(instance, linearized,
                                        Algorithm2Options{});
}

SolveResult solve_algorithm2(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2Solve);
  obs::count(obs::metric::kAlg2Solves);
  instance.validate();
  alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  std::vector<util::Linearized> linearized;
  {
    const obs::ScopedPhase linearize_phase(obs::metric::kPhaseLinearize);
    linearized = util::linearize(instance.threads, so.c_hat);
  }
  Assignment assignment = assign_algorithm2(instance, linearized);
  SolveResult result = package(instance, std::move(assignment), linearized,
                               std::move(so.c_hat), so.utility);
  certify_and_record(instance, result, "algorithm2");
  return result;
}

}  // namespace aa::core
