#include "alloc/allocator.hpp"

// The single-pool allocator (docs/ALGORITHMS.md "Single-pool allocator"):
// a flat-memory threshold bisection on the pool's dual price. Three ideas:
//
//  1. Flat marginal grids, packed bisection state. For TabulatedUtility
//     (the workhorse representation) the marginal is read straight off the
//     raw value grid: grid[k] - grid[k-1] is bit-for-bit what
//     TabulatedUtility::marginal(k) returns (the
//     UtilityFunction::tabulated_grid contract), with no shared_ptr ->
//     vtable -> vector chasing. Everything the inner loop needs per thread
//     (grid pointer, cap, first/last marginal, unit bracket) packs into one
//     64-byte record, so a probe costs one cache line of bookkeeping plus
//     the grid touches — even late in the bisection when the surviving
//     threads are scattered. The tail marginal is read lazily, by the
//     first probe that needs it.
//
//  2. An order-statistic price start. Let lo0 be the (pool+1)-th largest
//     positive first marginal (0 when fewer than pool+1 threads have one).
//     At price lo0 at least pool+1 threads take a unit, so
//     count(lo0) > pool: lo0 is a valid lower end of the price bracket. A
//     thread whose first marginal is below lo0 takes 0 units at every
//     later price, so it never enters a sweep. On a refine server that holds most of the instance this
//     leaves about pool+1 threads active instead of all of them.
//
//  3. Bracket narrowing with active-set pinning. Every lambda the bisection
//     probes lies inside the current [lo, hi] price bracket, so each
//     thread's answer lies inside [units(hi), units(lo)] from the previous
//     probes. `units_at_or_above` is a pure function of (thread, lambda), so
//     searching the narrowed unit bracket returns the identical value at a
//     fraction of the cost. Once a thread's unit bracket collapses to a
//     point its answer is constant for every remaining lambda: the thread
//     is *pinned* — its contribution folds into a constant and later
//     sweeps skip it entirely. Brackets collapse geometrically, so the
//     per-iteration cost decays from O(active) toward O(unresolved).
//
// Apart from the lower start, the lambda schedule is the reference
// bisection's (same upper end, midpoints, stop rule and plateau constant),
// and both runs converge to a sliver around the same threshold marginal, so
// the result is bit-identical to the allocate_bisection oracle
// (alloc/oracle.hpp) — tests/super_optimal_equivalence_test.cpp holds that
// exactly, not approximately.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <vector>

#include "utility/utility_function.hpp"

namespace aa::alloc {

namespace {

using util::Resource;
using util::UtilityPtr;

/// Per-thread bisection state, packed so one sweep step touches one cache
/// line of bookkeeping. 8 x 8 bytes = 64 bytes exactly.
struct Hot {
  const double* grid;  // nullptr => virtual marginal() path via func
  const util::UtilityFunction* func;
  Resource cap;
  double m1;           // marginal(1); 0 when cap < 1
  double mlast;        // marginal(cap) once a probe needed it; NaN before
  Resource units_lo;   // units at price lo; valid iff lo_exact
  Resource units_hi;   // units at price hi; valid iff hi_exact
  Resource units_mid;  // most recent probe, owned by the pending side
};

[[nodiscard]] double marginal_of(const Hot& h, Resource k) {
  if (h.grid != nullptr) {
    const auto idx = static_cast<std::size_t>(k);
    return h.grid[idx] - h.grid[idx - 1];
  }
  return h.func->marginal(k);
}

/// Largest k in [lb, ub] with marginal(k) >= lambda. Requires the
/// unconstrained answer (largest such k in [0, cap], or 0) to lie in
/// [lb, ub]; under that bracket invariant the result equals the reference
/// units_at_or_above regardless of how tight the bracket is. The two
/// endpoint shortcuts resolve the common cases in O(1): lambda above the
/// first marginal means the reference early-out (answer 0, so lb == 0), and
/// lambda at or below the last marginal means every unit clears it
/// (answer cap, so ub == cap, by nonincreasing marginals). The tail
/// marginal is read by the first probe that gets past the first shortcut:
/// a thread that answers 0 at every probe never touches its grid's tail.
[[nodiscard]] Resource probe(Hot& h, double lambda, Resource lb,
                             Resource ub) {
  if (lb == ub) return lb;
  if (lambda > h.m1) return 0;
  if (std::isnan(h.mlast)) h.mlast = marginal_of(h, h.cap);
  if (lambda <= h.mlast) return h.cap;
  Resource lo = lb;
  Resource hi = ub;
  while (lo < hi) {
    const Resource mid = lo + (hi - lo + 1) / 2;  // mid >= 1: never f(0)
    if (marginal_of(h, mid) >= lambda) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

/// Which side of the price bracket the previous iteration's probes belong
/// to. Commits are deferred: instead of a bulk array pass per iteration,
/// each thread folds its own pending commit into the next sweep that visits
/// it (and a single tail pass after the loop handles threads still active).
enum class Side : std::uint8_t { kNone, kLo, kHi };

/// The allocator over n threads, thread k being *at(k). Left-to-right
/// totals and index-order plateau/greedy tie-breaks match the reference.
template <typename At>
AllocationResult run_bisection(std::size_t n, const At& at, Resource pool,
                               Resource per_thread_cap) {
  if (pool < 0) throw std::invalid_argument("allocate: negative pool");
  std::vector<Hot> hot(n);
  double max_marginal = 0.0;
  Resource total_cap = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const util::UtilityFunction* f = at(i);
    if (f == nullptr) throw std::invalid_argument("allocate: null utility");
    Hot& h = hot[i];
    h.func = f;
    h.grid = f->tabulated_grid();
    h.cap = std::min(f->capacity(), per_thread_cap);
    h.mlast = std::numeric_limits<double>::quiet_NaN();
    h.units_lo = 0;
    h.units_hi = 0;
    h.units_mid = 0;
    total_cap += h.cap;
    h.m1 = h.cap >= 1 ? marginal_of(h, 1) : 0.0;
    max_marginal = std::max(max_marginal, h.m1);
  }

  std::vector<Resource> amounts(n, 0);
  const auto finish = [&] {
    // Left to right, exactly like the reference's total_of; a grid entry
    // is value() at that integer point, read without the virtual call.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Hot& h = hot[i];
      total += h.grid != nullptr
                   ? h.grid[static_cast<std::size_t>(amounts[i])]
                   : h.func->value(static_cast<double>(amounts[i]));
    }
    return AllocationResult{std::move(amounts), total};
  };

  // Trivial cases, mirroring the reference: everyone saturates (still
  // trimming zero-marginal tails), or nothing is worth allocating.
  if (total_cap <= pool) {
    for (std::size_t i = 0; i < n; ++i) {
      amounts[i] = probe(hot[i], std::numeric_limits<double>::min(), 0,
                         hot[i].cap);
    }
    return finish();
  }
  if (max_marginal <= 0.0) return finish();

  // Order-statistic start (idea 2). Threads without a positive first
  // marginal contribute 0 units at every probed price (every midpoint is
  // > 0); with lo0 > 0 neither do threads whose first marginal is below it.
  double lo = 0.0;
  {
    std::vector<double> firsts;
    firsts.reserve(n);
    for (const Hot& h : hot) {
      if (h.m1 > 0.0) firsts.push_back(h.m1);
    }
    const auto rank = static_cast<std::size_t>(pool);
    if (firsts.size() > rank) {
      const auto nth = firsts.begin() + static_cast<std::ptrdiff_t>(rank);
      std::nth_element(firsts.begin(), nth, firsts.end(),
                       std::greater<double>());
      lo = *nth;
    }
  }
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < n; ++i) {
    if (hot[i].m1 > 0.0 && hot[i].m1 >= lo) active.push_back(i);
  }

  bool lo_exact = false;
  bool hi_exact = false;
  Resource pinned = 0;
  // One sweep at price `mid`. First folds the previous iteration's deferred
  // commit into this thread's bracket, then either pins the thread (bracket
  // collapsed: its units are constant for every remaining price, including
  // the final lo/hi — the stored bracket endpoints stay exact) or probes the
  // narrowed bracket. Returns the exact integer unit count at `mid`.
  const auto sweep = [&](double mid, Side commit) {
    Resource count = pinned;
    std::size_t keep = 0;
    const std::size_t live = active.size();
    for (std::size_t r = 0; r < live; ++r) {
      const std::size_t i = active[r];
      // Pull the next survivors' records in while this probe's grid reads
      // are in flight; by mid-bisection the active list is sparse and each
      // record is its own cache line.
      if (r + 2 < live) __builtin_prefetch(&hot[active[r + 2]]);
      Hot& h = hot[i];
      if (commit == Side::kLo) {
        h.units_lo = h.units_mid;
      } else if (commit == Side::kHi) {
        h.units_hi = h.units_mid;
      }
      const Resource lb = hi_exact ? h.units_hi : 0;
      const Resource ub = lo_exact ? h.units_lo : h.cap;
      if (lb == ub) {
        pinned += lb;
        count += lb;
        continue;
      }
      const Resource value = probe(h, mid, lb, ub);
      h.units_mid = value;
      count += value;
      active[keep++] = i;
    }
    active.resize(keep);
    return count;
  };

  double hi = max_marginal * (1.0 + 1e-9) + 1e-300;
  std::int64_t iterations = 0;
  Side pending = Side::kNone;
  for (int iter = 0; iter < 128 && hi - lo > 1e-15 * (1.0 + hi); ++iter) {
    const double mid = 0.5 * (lo + hi);
    const Resource count = sweep(mid, pending);
    ++iterations;
    if (count > pool) {
      lo = mid;
      lo_exact = true;
      pending = Side::kLo;
    } else {
      hi = mid;
      hi_exact = true;
      pending = Side::kHi;
    }
  }
  // Threads still active carry one last uncommitted probe; fold it in so the
  // bracket records describe the final [lo, hi] exactly.
  for (const std::size_t i : active) {
    if (pending == Side::kLo) {
      hot[i].units_lo = hot[i].units_mid;
    } else if (pending == Side::kHi) {
      hot[i].units_hi = hot[i].units_mid;
    }
  }

  Resource assigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // units_hi is exactly units(hi) for the final hi — no probes needed.
    // Pinned threads' records froze when their bracket collapsed, which is
    // exact: their unit count is constant over the rest of the schedule.
    // If the loop never committed hi (max_marginal at float-noise scale),
    // evaluate at hi directly.
    Hot& h = hot[i];
    amounts[i] = hi_exact ? h.units_hi
                          : probe(h, hi, 0, lo_exact ? h.units_lo : h.cap);
    assigned += amounts[i];
  }

  // Plateau distribution, identical to the reference: remaining eligible
  // units sit in the converged [lo, hi] sliver, so index order is optimal
  // up to that sliver. units(plateau) >= units(lo) and units_lo was
  // committed at (or below, for pinned threads, where units are constant)
  // the final lo, so units_lo brackets the probe from below.
  Resource residual = pool - assigned;
  const double plateau = lo * (1.0 - 1e-12);
  for (std::size_t i = 0; i < n && residual > 0; ++i) {
    Hot& h = hot[i];
    const Resource lb = lo_exact ? h.units_lo : amounts[i];
    const Resource take =
        std::min(residual, probe(h, plateau, lb, h.cap) - amounts[i]);
    amounts[i] += take;
    residual -= take;
  }

  // Safety net for pathological floating-point geometry: finish greedily,
  // with the reference's exact tie-breaking.
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
      if (amounts[i] < hot[i].cap) {
        const double m = marginal_of(hot[i], amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
    while (residual > 0 && !heap.empty()) {
      const Entry top = heap.top();
      heap.pop();
      const std::size_t i = top.thread;
      ++amounts[i];
      --residual;
      if (amounts[i] < hot[i].cap) {
        const double m = marginal_of(hot[i], amounts[i] + 1);
        if (m > 0.0) heap.push({m, i});
      }
    }
  }

  AllocationResult result = finish();
  result.bisect_iterations = iterations;
  return result;
}

}  // namespace

AllocationResult allocate_bisection_soa(std::span<const UtilityPtr> threads,
                                        Resource pool,
                                        Resource per_thread_cap) {
  return run_bisection(
      threads.size(), [&](std::size_t k) { return threads[k].get(); }, pool,
      per_thread_cap);
}

AllocationResult allocate_bisection_soa(std::span<const UtilityPtr> threads,
                                        std::span<const std::size_t> members,
                                        Resource pool,
                                        Resource per_thread_cap) {
  return run_bisection(
      members.size(),
      [&](std::size_t k) { return threads[members[k]].get(); }, pool,
      per_thread_cap);
}

}  // namespace aa::alloc
