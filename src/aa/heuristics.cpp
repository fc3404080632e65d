#include "aa/heuristics.hpp"

#include <vector>

#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/distributions.hpp"

namespace aa::core {

namespace {

/// Groups thread indices by the server they were assigned to.
std::vector<std::vector<std::size_t>> group_by_server(
    const Instance& instance, const std::vector<std::size_t>& server) {
  std::vector<std::vector<std::size_t>> groups(instance.num_servers);
  for (std::size_t i = 0; i < server.size(); ++i) {
    groups[server[i]].push_back(i);
  }
  return groups;
}

/// Equal split of C among each server's threads.
Assignment finish_uniform(const Instance& instance,
                          std::vector<std::size_t> server) {
  Assignment out;
  out.alloc.assign(server.size(), 0.0);
  const auto groups = group_by_server(instance, server);
  for (const auto& group : groups) {
    if (group.empty()) continue;
    const double share = static_cast<double>(instance.capacity) /
                         static_cast<double>(group.size());
    for (const std::size_t i : group) out.alloc[i] = share;
  }
  out.server = std::move(server);
  return out;
}

/// Uniform-simplex split of C among each server's threads.
Assignment finish_random(const Instance& instance,
                         std::vector<std::size_t> server, support::Rng& rng) {
  Assignment out;
  out.alloc.assign(server.size(), 0.0);
  const auto groups = group_by_server(instance, server);
  for (const auto& group : groups) {
    if (group.empty()) continue;
    const std::vector<double> parts = support::simplex_spacings(
        group.size(), static_cast<double>(instance.capacity), rng);
    for (std::size_t k = 0; k < group.size(); ++k) {
      out.alloc[group[k]] = parts[k];
    }
  }
  out.server = std::move(server);
  return out;
}

std::vector<std::size_t> round_robin(const Instance& instance) {
  std::vector<std::size_t> server(instance.num_threads());
  for (std::size_t i = 0; i < server.size(); ++i) {
    server[i] = i % instance.num_servers;
  }
  return server;
}

std::vector<std::size_t> random_servers(const Instance& instance,
                                        support::Rng& rng) {
  std::vector<std::size_t> server(instance.num_threads());
  for (auto& s : server) {
    s = static_cast<std::size_t>(rng.uniform_below(instance.num_servers));
  }
  return server;
}

}  // namespace

Assignment heuristic_uu(const Instance& instance) {
  obs::count(obs::metric::kHeuristicsUuSolves);
  instance.validate();
  return finish_uniform(instance, round_robin(instance));
}

Assignment heuristic_ur(const Instance& instance, support::Rng& rng) {
  obs::count(obs::metric::kHeuristicsUrSolves);
  instance.validate();
  return finish_random(instance, round_robin(instance), rng);
}

Assignment heuristic_ru(const Instance& instance, support::Rng& rng) {
  obs::count(obs::metric::kHeuristicsRuSolves);
  instance.validate();
  return finish_uniform(instance, random_servers(instance, rng));
}

Assignment heuristic_rr(const Instance& instance, support::Rng& rng) {
  obs::count(obs::metric::kHeuristicsRrSolves);
  instance.validate();
  return finish_random(instance, random_servers(instance, rng), rng);
}

}  // namespace aa::core
