#include "aa/algorithm2.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "aa/certify.hpp"
#include "aa/pipeline.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

namespace {

/// std::stable_sort of `order` by key(i), nonincreasing, that sorts only the
/// nonzero keys. Every zero key (+0 or -0) compares equal to every other, so
/// the stable sort leaves them one block, in input order, between the
/// positive and the negative keys.
template <typename Key>
void stable_sort_nonzero(std::span<std::size_t> order, Key key) {
  using Keyed = std::pair<double, std::size_t>;
  std::vector<Keyed> nonzero;
  std::size_t zeros = 0;
  for (const std::size_t i : order) {
    const double k = key(i);
    if (k > 0.0 || k < 0.0) {  // Not tied with 0 under the sort's `>`.
      nonzero.emplace_back(k, i);
    } else {
      order[zeros++] = i;  // Compacts the zero block; never passes the read.
    }
  }
  std::stable_sort(nonzero.begin(), nonzero.end(),
                   [](const Keyed& a, const Keyed& b) {
                     return a.first > b.first;
                   });
  const auto positive = static_cast<std::size_t>(
      std::partition_point(nonzero.begin(), nonzero.end(),
                           [](const Keyed& e) { return e.first > 0.0; }) -
      nonzero.begin());
  if (positive > 0) {  // Shifts the zero block right past the positives.
    std::move_backward(order.begin(), order.begin() + zeros,
                       order.begin() + zeros + positive);
  }
  for (std::size_t p = 0; p < nonzero.size(); ++p) {  // +, then 0s, then -.
    order[p < positive ? p : p + zeros] = nonzero[p].second;
  }
}

}  // namespace

std::vector<std::size_t> peak_order(
    std::span<const util::Linearized> linearized) {
  std::vector<std::size_t> order(linearized.size());
  std::iota(order.begin(), order.end(), 0);
  stable_sort_nonzero(order, [&](std::size_t i) { return linearized[i].peak; });
  return order;
}

Assignment place_algorithm2(std::span<const util::Linearized> linearized,
                            std::span<const Resource> capacities,
                            const Algorithm2Options& options) {
  const std::size_t n = linearized.size();
  const std::size_t m = capacities.size();
  if (n > 0 && m == 0) throw std::invalid_argument("algorithm2: no servers");
  // Line 1: nonincreasing peak order (stable; ties keep thread index order).
  std::vector<std::size_t> order;
  if (options.sort_by_peak) {
    order = peak_order(linearized);
  } else {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0);
  }
  // Line 2: re-sort the tail (threads m+1..n) by ramp density. Ascending is
  // the descending sort of the negated density, which ties exactly alike.
  if (options.resort_tail_by_density && n > m) {
    const double sign = options.density_nonincreasing ? 1.0 : -1.0;
    stable_sort_nonzero(std::span(order).subspan(m), [&](std::size_t i) {
      return sign * linearized[i].density();
    });
  }

  // Lines 3-4: server remaining capacities in a max-heap of (remaining,
  // -index): ties prefer the lowest index, so the top is unique whatever
  // the heap's layout.
  std::vector<std::pair<Resource, std::ptrdiff_t>> heap;
  for (std::size_t j = 0; j < m; ++j) {
    heap.emplace_back(capacities[j], -static_cast<std::ptrdiff_t>(j));
  }
  std::make_heap(heap.begin(), heap.end());

  Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);
  // Lines 5-10: fullest server first, allocation min(c_hat_i, C_j). A thread
  // granted 0 leaves every remaining capacity, hence the heap, as it was.
  for (const std::size_t i : order) {
    const auto [remaining, minus_j] = heap.front();
    const Resource granted = std::min(linearized[i].cap, remaining);
    out.server[i] = static_cast<std::size_t>(-minus_j);
    out.alloc[i] = static_cast<double>(granted);
    if (granted == 0) continue;
    std::pop_heap(heap.begin(), heap.end());
    heap.back().first -= granted;
    std::push_heap(heap.begin(), heap.end());
  }
  return out;
}

Assignment assign_algorithm2(const Instance& instance,
                             std::span<const util::Linearized> linearized,
                             const Algorithm2Options& options) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2Assign);
  if (linearized.size() != instance.num_threads()) {
    throw std::invalid_argument("algorithm2: linearization size mismatch");
  }
  obs::count(obs::metric::kAlg2ThreadsAssigned,
             static_cast<std::int64_t>(linearized.size()));
  const std::vector<Resource> capacities(instance.num_servers,
                                         instance.capacity);
  return place_algorithm2(linearized, capacities, options);
}

SolveResult solve_algorithm2(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg2Solve);
  obs::count(obs::metric::kAlg2Solves);
  Relaxation relaxed = relax(instance);
  SolveResult result =
      finish(instance, assign_algorithm2(instance, relaxed.linearized),
             relaxed.linearized, std::move(relaxed.c_hat), relaxed.f_hat);
  certify_and_record(instance, result, "algorithm2");
  return result;
}

}  // namespace aa::core
