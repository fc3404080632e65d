#include "utility/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "support/interpolate.hpp"

namespace aa::util {

namespace {

void require_capacity(Resource capacity) {
  if (capacity < 2) {
    throw std::invalid_argument("generate_utility: capacity must be >= 2");
  }
}

/// The PCHIP utility through (0, 0), (C/2, v) and (C, v + w).
UtilityPtr build_utility(Resource capacity, double v, double w) {
  const double c = static_cast<double>(capacity);
  const std::array<double, 3> xs{0.0, c / 2.0, c};
  const std::array<double, 3> ys{0.0, v, v + w};
  const support::PchipInterpolant pchip(xs, ys);
  std::vector<double> samples(static_cast<std::size_t>(capacity) + 1);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    samples[k] = pchip(static_cast<double>(k));
  }
  return std::make_shared<TabulatedUtility>(
      TabulatedUtility::from_samples_with_repair(samples));
}

}  // namespace

UtilityPtr generate_utility(Resource capacity,
                            const support::DistributionParams& dist,
                            support::Rng& rng) {
  require_capacity(capacity);
  const auto [v, w] = support::draw_ordered_pair(dist, rng);
  return build_utility(capacity, v, w);
}

std::vector<UtilityPtr> generate_utilities(
    std::size_t count, Resource capacity,
    const support::DistributionParams& dist, support::Rng& rng) {
  if (count == 0) return {};
  require_capacity(capacity);
  // Every draw first, in generate_utility's rng order, keyed on its bits.
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  std::vector<Key> keys(count);
  for (Key& key : keys) {
    const auto [v, w] = support::draw_ordered_pair(dist, rng);
    key = {std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(w)};
  }
  // The first index of each distinct draw, found before any grid exists, so
  // the grids are allocated back to back.
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return keys[a] < keys[b];
                   });
  std::vector<std::size_t> first(count);
  for (std::size_t j = 0; j < count; ++j) {
    const std::size_t i = order[j];
    first[i] = j > 0 && keys[order[j - 1]] == keys[i] ? first[order[j - 1]]
                                                       : i;
  }
  std::vector<UtilityPtr> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(first[i] == i
                      ? build_utility(capacity,
                                      std::bit_cast<double>(keys[i].first),
                                      std::bit_cast<double>(keys[i].second))
                      : out[first[i]]);
  }
  return out;
}

}  // namespace aa::util
