#include "aa/local_search.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "alloc/allocator.hpp"

namespace aa::core {

namespace {

/// Mutable per-server grouping with cached exact allocation values.
class ServerState {
 public:
  ServerState(const Instance& instance, const Assignment& start)
      : instance_(instance),
        members_(instance.num_servers),
        value_(instance.num_servers, 0.0) {
    if (start.server.size() != instance.num_threads()) {
      throw std::invalid_argument("local search: assignment size mismatch");
    }
    for (std::size_t i = 0; i < start.server.size(); ++i) {
      members_.at(start.server[i]).push_back(i);
    }
    for (std::size_t j = 0; j < members_.size(); ++j) {
      value_[j] = evaluate(members_[j]);
    }
  }

  [[nodiscard]] double total() const {
    double sum = 0.0;
    for (const double v : value_) sum += v;
    return sum;
  }

  [[nodiscard]] std::size_t server_of(std::size_t thread) const {
    for (std::size_t j = 0; j < members_.size(); ++j) {
      if (std::find(members_[j].begin(), members_[j].end(), thread) !=
          members_[j].end()) {
        return j;
      }
    }
    throw std::logic_error("local search: thread not placed");
  }

  /// Gain of moving `thread` from its server to `target` (< 0 if harmful).
  [[nodiscard]] double move_gain(std::size_t thread, std::size_t source,
                                 std::size_t target) const {
    if (source == target) return 0.0;
    std::vector<std::size_t> from = members_[source];
    std::erase(from, thread);
    std::vector<std::size_t> to = members_[target];
    to.push_back(thread);
    return evaluate(from) + evaluate(to) - value_[source] - value_[target];
  }

  void apply_move(std::size_t thread, std::size_t source, std::size_t target) {
    std::erase(members_[source], thread);
    members_[target].push_back(thread);
    value_[source] = evaluate(members_[source]);
    value_[target] = evaluate(members_[target]);
  }

  /// Gain of swapping the servers of threads a (on sa) and b (on sb).
  [[nodiscard]] double swap_gain(std::size_t a, std::size_t sa, std::size_t b,
                                 std::size_t sb) const {
    if (sa == sb) return 0.0;
    std::vector<std::size_t> ga = members_[sa];
    std::erase(ga, a);
    ga.push_back(b);
    std::vector<std::size_t> gb = members_[sb];
    std::erase(gb, b);
    gb.push_back(a);
    return evaluate(ga) + evaluate(gb) - value_[sa] - value_[sb];
  }

  void apply_swap(std::size_t a, std::size_t sa, std::size_t b,
                  std::size_t sb) {
    std::erase(members_[sa], a);
    std::erase(members_[sb], b);
    members_[sa].push_back(b);
    members_[sb].push_back(a);
    value_[sa] = evaluate(members_[sa]);
    value_[sb] = evaluate(members_[sb]);
  }

  /// Emits the final assignment with exact per-server allocations.
  [[nodiscard]] Assignment materialize() const {
    Assignment out;
    out.server.assign(instance_.num_threads(), 0);
    out.alloc.assign(instance_.num_threads(), 0.0);
    for (std::size_t j = 0; j < members_.size(); ++j) {
      if (members_[j].empty()) continue;
      const alloc::AllocationResult result = alloc::allocate_bisection_soa(
          instance_.threads, members_[j], instance_.capacity,
          instance_.capacity);
      for (std::size_t k = 0; k < members_[j].size(); ++k) {
        out.server[members_[j][k]] = j;
        out.alloc[members_[j][k]] = static_cast<double>(result.amounts[k]);
      }
    }
    return out;
  }

 private:
  [[nodiscard]] double evaluate(const std::vector<std::size_t>& group) const {
    if (group.empty()) return 0.0;
    return alloc::allocate_bisection_soa(instance_.threads, group,
                                         instance_.capacity,
                                         instance_.capacity)
        .total_utility;
  }

  const Instance& instance_;
  std::vector<std::vector<std::size_t>> members_;
  std::vector<double> value_;
};

}  // namespace

LocalSearchResult improve_local_search(const Instance& instance,
                                       const Assignment& start,
                                       const LocalSearchOptions& options) {
  instance.validate();
  ServerState state(instance, start);
  // Track placements locally to avoid ServerState::server_of scans.
  std::vector<std::size_t> placement = start.server;

  LocalSearchResult result;
  const std::size_t n = instance.num_threads();
  const std::size_t m = instance.num_servers;

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    bool improved = false;

    if (options.enable_moves) {
      for (std::size_t i = 0; i < n; ++i) {
        // First-improvement over targets; re-scan after acceptance.
        double best_gain = options.min_gain;
        std::size_t best_target = m;
        for (std::size_t j = 0; j < m; ++j) {
          if (j == placement[i]) continue;
          const double gain = state.move_gain(i, placement[i], j);
          if (gain > best_gain) {
            best_gain = gain;
            best_target = j;
          }
        }
        if (best_target != m) {
          state.apply_move(i, placement[i], best_target);
          placement[i] = best_target;
          ++result.moves_applied;
          improved = true;
        }
      }
    }

    if (options.enable_swaps) {
      for (std::size_t a = 0; a < n; ++a) {
        for (std::size_t b = a + 1; b < n; ++b) {
          if (placement[a] == placement[b]) continue;
          const double gain =
              state.swap_gain(a, placement[a], b, placement[b]);
          if (gain > options.min_gain) {
            state.apply_swap(a, placement[a], b, placement[b]);
            std::swap(placement[a], placement[b]);
            ++result.swaps_applied;
            improved = true;
          }
        }
      }
    }

    ++result.rounds;
    if (!improved) break;
  }

  result.assignment = state.materialize();
  result.utility = total_utility(instance, result.assignment);
  return result;
}

}  // namespace aa::core
