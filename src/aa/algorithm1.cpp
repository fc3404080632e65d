#include "aa/algorithm1.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "aa/certify.hpp"
#include "aa/pipeline.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"

namespace aa::core {

Assignment assign_algorithm1_reference(
    const Instance& instance, std::span<const util::Linearized> linearized) {
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;
  if (linearized.size() != n) {
    throw std::invalid_argument("algorithm1: linearization size mismatch");
  }

  std::vector<Resource> remaining(m, instance.capacity);
  std::vector<bool> assigned(n, false);
  Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);

  for (std::size_t round = 0; round < n; ++round) {
    // Server with the most remaining capacity (used both to test membership
    // in U cheaply and as the "greatest utility" tie-break for full threads).
    const auto max_it = std::max_element(remaining.begin(), remaining.end());
    const auto max_server =
        static_cast<std::size_t>(max_it - remaining.begin());
    const Resource max_remaining = *max_it;

    // Line 6: best full candidate — largest peak among threads whose
    // super-optimal allocation still fits somewhere.
    std::size_t best_full = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (assigned[i] || linearized[i].cap > max_remaining) continue;
      if (best_full == n || linearized[i].peak > linearized[best_full].peak) {
        best_full = i;
      }
    }

    std::size_t chosen = n;
    std::size_t target = max_server;
    if (best_full != n) {
      chosen = best_full;
      // Any server with C_j >= c_hat gives the same (full) utility; the
      // max-remaining server is one of them.
    } else {
      // Line 9: best unfull candidate — maximize g_i(C_j) over pairs.
      double best_value = -1.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        for (std::size_t j = 0; j < m; ++j) {
          const double value =
              linearized[i].value(static_cast<double>(remaining[j]));
          if (value > best_value) {
            best_value = value;
            chosen = i;
            target = j;
          }
        }
      }
    }

    const Resource granted = std::min(linearized[chosen].cap,
                                      remaining[target]);
    out.server[chosen] = target;
    out.alloc[chosen] = static_cast<double>(granted);
    remaining[target] -= granted;
    assigned[chosen] = true;
  }
  return out;
}

// The incremental implementation below returns bit-identical assignments
// (tests/algorithm1_equivalence_test.cpp) by exploiting three invariants of
// the reference scan:
//
//   1. max_remaining never increases, so a thread whose c_hat once exceeded
//      it is "full"-ineligible forever. Walking a (peak desc, index asc)
//      pre-sort with a persistent cursor therefore yields exactly the
//      reference's full pick — ties included — in O(n) total.
//   2. g_i is nondecreasing, and nondecreasing under IEEE rounding too
//      (x/cap and peak*y are monotone per operation), so the best pair for
//      thread i is attained at max_remaining: the reference's line-9 scan of
//      all m*n pairs reduces to one g_i(max_remaining) per unassigned thread
//      — the identical double, since the reference evaluates that very
//      expression at every server holding max_remaining.
//   3. In the unfull branch every unassigned c_hat_i exceeds max_remaining,
//      so a pick with positive value zeroes its server: at most m such
//      rounds exist. Once a scan sees a zero maximum it stays zero (the
//      candidate set only shrinks, g is monotone), and the reference then
//      degenerates to "first unassigned thread onto server 0" — tracked
//      with a pointer instead of a rescan.
//
// Net effect: O(n log n + (n + m) m) instead of O(m n^2) for the
// assignment rounds, with the reference kept above as the differential-
// testing oracle and benchmark baseline (BM_Algorithm1Reference_ScaleN).
Assignment assign_algorithm1(const Instance& instance,
                             std::span<const util::Linearized> linearized) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg1Assign);
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;
  if (linearized.size() != n) {
    throw std::invalid_argument("algorithm1: linearization size mismatch");
  }
  std::int64_t full_picks = 0;
  std::int64_t unfull_picks = 0;
  std::int64_t candidate_evaluations = 0;

  std::vector<Resource> remaining(m, instance.capacity);
  std::vector<bool> assigned(n, false);
  Assignment out;
  out.server.assign(n, 0);
  out.alloc.assign(n, 0.0);

  std::vector<std::size_t> by_peak(n);
  std::iota(by_peak.begin(), by_peak.end(), std::size_t{0});
  std::sort(by_peak.begin(), by_peak.end(),
            [&](std::size_t a, std::size_t b) {
              if (linearized[a].peak > linearized[b].peak) return true;
              if (linearized[a].peak < linearized[b].peak) return false;
              return a < b;
            });

  std::size_t cursor = 0;            // Next full candidate in by_peak.
  std::size_t first_unassigned = 0;  // Smallest unassigned thread index.
  bool zero_mode = false;            // All remaining unfull values are 0.

  for (std::size_t round = 0; round < n; ++round) {
    // First server holding the maximum remaining capacity (max_element
    // tie-break: smallest index).
    std::size_t max_server = 0;
    for (std::size_t j = 1; j < m; ++j) {
      if (remaining[j] > remaining[max_server]) max_server = j;
    }
    const Resource max_remaining = remaining[max_server];

    std::size_t chosen = n;
    std::size_t target = max_server;

    // Line 6: skipped entries are permanently out — assigned, or
    // c_hat > max_remaining with max_remaining nonincreasing (invariant 1).
    while (cursor < n) {
      const std::size_t i = by_peak[cursor];
      if (assigned[i] || linearized[i].cap > max_remaining) {
        ++cursor;
        continue;
      }
      chosen = i;
      break;
    }

    if (chosen != n) {
      ++full_picks;
      ++cursor;
    } else {
      ++unfull_picks;
      while (first_unassigned < n && assigned[first_unassigned]) {
        ++first_unassigned;
      }
      if (zero_mode || max_remaining <= 0) {
        // Every pair value is 0: the reference scan settles on its very
        // first pair, (first unassigned thread, server 0).
        chosen = first_unassigned;
        target = 0;
      } else {
        // Line 9 via invariant 2: one evaluation per unassigned thread at
        // max_remaining, first maximum wins (the reference's strict `>`).
        double best_value = -1.0;
        for (std::size_t i = first_unassigned; i < n; ++i) {
          if (assigned[i]) continue;
          ++candidate_evaluations;
          const double value =
              linearized[i].value(static_cast<double>(max_remaining));
          if (value > best_value) {
            best_value = value;
            chosen = i;
          }
        }
        if (best_value > 0.0) {
          // The reference's pair is (chosen, smallest j attaining the
          // maximum); some server holds max_remaining, so the scan below
          // always terminates with the identical target.
          for (std::size_t j = 0; j < m; ++j) {
            ++candidate_evaluations;
            const double value =
                linearized[chosen].value(static_cast<double>(remaining[j]));
            if (value == best_value) {
              target = j;
              break;
            }
          }
        } else {
          // Invariant 3: zero now means zero for the rest of the run.
          zero_mode = true;
          target = 0;
        }
      }
    }

    const Resource granted = std::min(linearized[chosen].cap,
                                      remaining[target]);
    out.server[chosen] = target;
    out.alloc[chosen] = static_cast<double>(granted);
    remaining[target] -= granted;
    assigned[chosen] = true;
  }
  obs::count(obs::metric::kAlg1FullPicks, full_picks);
  obs::count(obs::metric::kAlg1UnfullPicks, unfull_picks);
  obs::count(obs::metric::kAlg1CandidateEvaluations, candidate_evaluations);
  return out;
}

SolveResult solve_algorithm1(const Instance& instance) {
  const obs::ScopedPhase obs_phase(obs::metric::kPhaseAlg1Solve);
  obs::count(obs::metric::kAlg1Solves);
  Relaxation relaxed = relax(instance);
  SolveResult result =
      finish(instance, assign_algorithm1(instance, relaxed.linearized),
             relaxed.linearized, std::move(relaxed.c_hat), relaxed.f_hat);
  certify_and_record(instance, result, "algorithm1");
  return result;
}

}  // namespace aa::core
