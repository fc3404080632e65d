#include "alloc/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace aa::alloc {

namespace {

using util::Resource;
using util::UtilityPtr;

void check_inputs(std::span<const UtilityPtr> threads, Resource pool) {
  if (pool < 0) throw std::invalid_argument("allocate: negative pool");
  for (const auto& t : threads) {
    if (t == nullptr) throw std::invalid_argument("allocate: null utility");
  }
}

Resource effective_cap(const UtilityPtr& thread, Resource per_thread_cap) {
  return std::min(thread->capacity(), per_thread_cap);
}

double total_of(std::span<const UtilityPtr> threads,
                const std::vector<Resource>& amounts) {
  double total = 0.0;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    total += threads[i]->value(static_cast<double>(amounts[i]));
  }
  return total;
}

}  // namespace

AllocationResult allocate_greedy(std::span<const UtilityPtr> threads,
                                 Resource pool, Resource per_thread_cap) {
  check_inputs(threads, pool);
  const std::size_t n = threads.size();
  std::vector<Resource> amounts(n, 0);

  // Max-heap of the next unit's marginal per thread; ties broken by thread
  // index so results are deterministic.
  struct Entry {
    double marginal;
    std::size_t thread;
    bool operator<(const Entry& other) const noexcept {
      if (marginal != other.marginal) return marginal < other.marginal;
      return thread > other.thread;
    }
  };
  std::priority_queue<Entry> heap;
  for (std::size_t i = 0; i < n; ++i) {
    if (effective_cap(threads[i], per_thread_cap) >= 1) {
      const double m = threads[i]->marginal(1);
      if (m > 0.0) heap.push({m, i});
    }
  }

  Resource remaining = pool;
  while (remaining > 0 && !heap.empty()) {
    const Entry top = heap.top();
    heap.pop();
    const std::size_t i = top.thread;
    ++amounts[i];
    --remaining;
    if (amounts[i] < effective_cap(threads[i], per_thread_cap)) {
      const double m = threads[i]->marginal(amounts[i] + 1);
      if (m > 0.0) heap.push({m, i});
    }
  }
  const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
}

namespace {

/// Largest k in [0, cap] with marginal(k) >= lambda (marginals nonincreasing).
Resource units_at_or_above(const util::UtilityFunction& f, Resource cap,
                           double lambda) {
  if (cap <= 0 || f.marginal(1) < lambda) return 0;
  Resource lo = 1;
  Resource hi = cap;
  while (lo < hi) {
    const Resource mid = lo + (hi - lo + 1) / 2;
    if (f.marginal(mid) >= lambda) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

}  // namespace

AllocationResult allocate_bisection(std::span<const UtilityPtr> threads,
                                    Resource pool, Resource per_thread_cap) {
  check_inputs(threads, pool);
  const std::size_t n = threads.size();
  std::vector<Resource> amounts(n, 0);
  std::vector<Resource> caps(n);
  double max_marginal = 0.0;
  Resource total_cap = 0;
  for (std::size_t i = 0; i < n; ++i) {
    caps[i] = effective_cap(threads[i], per_thread_cap);
    total_cap += caps[i];
    if (caps[i] >= 1) max_marginal = std::max(max_marginal, threads[i]->marginal(1));
  }

  // Everyone saturates, or nothing worth allocating: trivial cases.
  if (total_cap <= pool) {
    for (std::size_t i = 0; i < n; ++i) {
      // Still trim zero-marginal tails so the allocation is parsimonious.
      amounts[i] = units_at_or_above(*threads[i], caps[i],
                                     std::numeric_limits<double>::min());
    }
    const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
  }
  if (max_marginal <= 0.0) {
    const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
  }

  auto count_at = [&](double lambda) {
    Resource count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      count += units_at_or_above(*threads[i], caps[i], lambda);
    }
    return count;
  };

  // Invariant: count(hi) <= pool < count(lo). lo = 0 qualifies because
  // total_cap > pool and every unit has marginal >= 0... except that strictly
  // we count units with marginal >= lambda, and count(0) == total_cap > pool.
  double lo = 0.0;
  double hi = max_marginal * (1.0 + 1e-9) + 1e-300;
  for (int iter = 0; iter < 128 && hi - lo > 1e-15 * (1.0 + hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (count_at(mid) > pool) {
      lo = mid;
    } else {
      hi = mid;
    }
  }

  Resource assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    amounts[i] = units_at_or_above(*threads[i], caps[i], hi);
    assigned += amounts[i];
  }

  // Distribute the residual across the lambda-plateau: all remaining
  // eligible units have marginal within the (converged) [lo, hi] sliver, so
  // any distribution among them is optimal up to that sliver.
  Resource residual = pool - assigned;
  const double plateau = lo * (1.0 - 1e-12);
  for (std::size_t i = 0; i < n && residual > 0; ++i) {
    const Resource upto = units_at_or_above(*threads[i], caps[i], plateau);
    const Resource take = std::min(residual, upto - amounts[i]);
    amounts[i] += take;
    residual -= take;
  }

  // Safety net for pathological floating-point geometry: finish greedily.
  if (residual > 0) {
    struct Entry {
      double marginal;
      std::size_t thread;
      bool operator<(const Entry& other) const noexcept {
        if (marginal != other.marginal) return marginal < other.marginal;
        return thread > other.thread;
      }
    };
    std::priority_queue<Entry> heap;
    for (std::size_t i = 0; i < n; ++i) {
      if (amounts[i] < caps[i]) {
        const double m = threads[i]->marginal(amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
    while (residual > 0 && !heap.empty()) {
      const Entry top = heap.top();
      heap.pop();
      const std::size_t i = top.thread;
      ++amounts[i];
      --residual;
      if (amounts[i] < caps[i]) {
        const double m = threads[i]->marginal(amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
  }

  const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
}

AllocationResult allocate_dp_exact(std::span<const UtilityPtr> threads,
                                   Resource pool, Resource per_thread_cap) {
  check_inputs(threads, pool);
  const std::size_t n = threads.size();
  const auto pool_sz = static_cast<std::size_t>(pool);
  // dp[j]: best utility using exactly <= j units over the prefix of threads.
  std::vector<double> dp(pool_sz + 1, 0.0);
  // choice[i][j]: units given to thread i in the optimum for budget j.
  std::vector<std::vector<Resource>> choice(
      n, std::vector<Resource>(pool_sz + 1, 0));
  for (std::size_t i = 0; i < n; ++i) {
    const Resource cap = effective_cap(threads[i], per_thread_cap);
    std::vector<double> next(pool_sz + 1,
                             -std::numeric_limits<double>::infinity());
    for (std::size_t j = 0; j <= pool_sz; ++j) {
      const Resource max_a = std::min<Resource>(cap, static_cast<Resource>(j));
      for (Resource a = 0; a <= max_a; ++a) {
        const double candidate =
            dp[j - static_cast<std::size_t>(a)] +
            threads[i]->value(static_cast<double>(a));
        if (candidate > next[j]) {
          next[j] = candidate;
          choice[i][j] = a;
        }
      }
    }
    dp = std::move(next);
  }
  std::vector<Resource> amounts(n, 0);
  std::size_t budget = pool_sz;
  for (std::size_t i = n; i-- > 0;) {
    amounts[i] = choice[i][budget];
    budget -= static_cast<std::size_t>(amounts[i]);
  }
  const double total = total_of(threads, amounts);
  return {std::move(amounts), total};
}

}  // namespace aa::alloc
