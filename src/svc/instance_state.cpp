#include "svc/instance_state.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

namespace aa::svc {

InstanceState::InstanceState(std::size_t num_servers, util::Resource capacity)
    : num_servers_(num_servers),
      capacity_(capacity),
      solve_capacity_(capacity) {
  if (num_servers == 0) {
    throw std::invalid_argument("InstanceState: need at least one server");
  }
  if (capacity < 1) {
    throw std::invalid_argument("InstanceState: capacity must be >= 1");
  }
}

void InstanceState::set_solve_capacity(util::Resource solve_capacity) {
  if (solve_capacity < 1) solve_capacity = 1;
  if (solve_capacity > capacity_) solve_capacity = capacity_;
  if (solve_capacity == solve_capacity_) return;
  solve_capacity_ = solve_capacity;
  ++version_;
}

std::optional<std::size_t> InstanceState::index_of(ThreadId id) const {
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i].first == id) return i;
  }
  return std::nullopt;
}

void InstanceState::require_domain(const util::UtilityPtr& utility) const {
  if (utility == nullptr) {
    throw std::invalid_argument("InstanceState: null utility");
  }
  if (utility->capacity() < capacity_) {
    throw std::invalid_argument(
        "InstanceState: utility domain " +
        std::to_string(utility->capacity()) +
        " does not cover the server capacity " + std::to_string(capacity_));
  }
  require_finite(*utility);
}

void InstanceState::require_finite(const util::UtilityFunction& utility) const {
  // Nondecreasing utilities peak at C: a finite f(C) bounds every value.
  if (!std::isfinite(utility.value(static_cast<double>(capacity_)))) {
    throw std::invalid_argument("InstanceState: utility at the capacity " +
                                std::to_string(capacity_) + " is not finite");
  }
}

ThreadId InstanceState::add_thread(util::UtilityPtr utility) {
  require_domain(utility);
  const ThreadId id = next_id_++;
  threads_.emplace_back(id, std::move(utility));
  ++version_;
  return id;
}

bool InstanceState::remove_thread(ThreadId id) {
  const auto index = index_of(id);
  if (!index.has_value()) return false;
  threads_.erase(threads_.begin() +
                 static_cast<std::ptrdiff_t>(*index));
  ++version_;
  return true;
}

bool InstanceState::update_utility(ThreadId id, util::UtilityPtr utility) {
  require_domain(utility);
  const auto index = index_of(id);
  if (!index.has_value()) return false;
  threads_[*index].second = std::move(utility);
  ++version_;
  return true;
}

bool InstanceState::scale_utility(ThreadId id, double factor) {
  if (factor < 0.0) {
    throw std::invalid_argument("InstanceState: factor must be >= 0");
  }
  const auto index = index_of(id);
  if (!index.has_value()) return false;
  util::UtilityPtr base = threads_[*index].second;
  double combined = factor;
  if (const auto* scaled =
          dynamic_cast<const util::ScaledUtility*>(base.get())) {
    combined *= scaled->factor();
    base = scaled->base();
  }
  auto rescaled =
      std::make_shared<util::ScaledUtility>(std::move(base), combined);
  require_finite(*rescaled);
  threads_[*index].second = std::move(rescaled);
  ++version_;
  return true;
}

const util::UtilityPtr* InstanceState::find(ThreadId id) const {
  const auto index = index_of(id);
  return index.has_value() ? &threads_[*index].second : nullptr;
}

core::Instance InstanceState::to_instance(std::vector<ThreadId>* ids) const {
  core::Instance instance;
  instance.num_servers = num_servers_;
  instance.capacity = solve_capacity_;
  instance.threads.reserve(threads_.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(threads_.size());
  }
  for (const auto& [id, utility] : threads_) {
    instance.threads.push_back(utility);
    if (ids != nullptr) ids->push_back(id);
  }
  return instance;
}

}  // namespace aa::svc
