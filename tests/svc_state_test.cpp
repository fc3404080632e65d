// Tests for the service's mutable instance (svc/instance_state.hpp).

#include "svc/instance_state.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "aa/problem.hpp"
#include "utility/utility_function.hpp"

namespace aa::svc {
namespace {

util::UtilityPtr power(double scale, double beta, util::Resource capacity) {
  return std::make_shared<util::PowerUtility>(scale, beta, capacity);
}

TEST(InstanceState, RejectsDegenerateShapes) {
  EXPECT_THROW(InstanceState(0, 64), std::invalid_argument);
  EXPECT_THROW(InstanceState(2, 0), std::invalid_argument);
}

TEST(InstanceState, IdsAreSequentialAndNeverReused) {
  InstanceState state(2, 64);
  const ThreadId first = state.add_thread(power(1.0, 0.5, 64));
  const ThreadId second = state.add_thread(power(2.0, 0.5, 64));
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 2u);
  EXPECT_TRUE(state.remove_thread(second));
  const ThreadId third = state.add_thread(power(3.0, 0.5, 64));
  EXPECT_EQ(third, 3u);  // Id 2 is not recycled.
  EXPECT_EQ(state.num_threads(), 2u);
}

TEST(InstanceState, VersionCountsSuccessfulDeltasOnly) {
  InstanceState state(2, 64);
  EXPECT_EQ(state.version(), 0u);
  const ThreadId id = state.add_thread(power(1.0, 0.5, 64));
  EXPECT_EQ(state.version(), 1u);
  EXPECT_FALSE(state.remove_thread(999));
  EXPECT_FALSE(state.update_utility(999, power(1.0, 0.5, 64)));
  EXPECT_FALSE(state.scale_utility(999, 2.0));
  EXPECT_EQ(state.version(), 1u);  // Failed deltas do not bump.
  EXPECT_TRUE(state.scale_utility(id, 1.5));
  EXPECT_EQ(state.version(), 2u);
  EXPECT_TRUE(state.update_utility(id, power(4.0, 0.5, 64)));
  EXPECT_EQ(state.version(), 3u);
  EXPECT_TRUE(state.remove_thread(id));
  EXPECT_EQ(state.version(), 4u);
}

TEST(InstanceState, RejectsUtilityWithTooSmallDomain) {
  InstanceState state(2, 64);
  EXPECT_THROW((void)state.add_thread(power(1.0, 0.5, 32)),
               std::invalid_argument);
  const ThreadId id = state.add_thread(power(1.0, 0.5, 64));
  EXPECT_THROW((void)state.update_utility(id, power(1.0, 0.5, 16)),
               std::invalid_argument);
  // A larger domain than the capacity is fine.
  EXPECT_TRUE(state.update_utility(id, power(1.0, 0.5, 128)));
}

TEST(InstanceState, RejectsNonFiniteUtilityAndLeavesStateUnchanged) {
  InstanceState state(2, 64);
  // f(64) = 1e308 * 8 overflows to inf.
  EXPECT_THROW((void)state.add_thread(power(1e308, 0.5, 64)),
               std::invalid_argument);
  EXPECT_EQ(state.num_threads(), 0u);
  const ThreadId id = state.add_thread(power(1.0, 0.5, 64));
  EXPECT_THROW((void)state.update_utility(id, power(1e308, 0.5, 64)),
               std::invalid_argument);
  // Each factor is finite; their product with f(C) = 8 is not.
  ASSERT_TRUE(state.scale_utility(id, 1e200));
  const std::uint64_t version = state.version();
  EXPECT_THROW((void)state.scale_utility(id, 1e200), std::invalid_argument);
  EXPECT_EQ(state.version(), version);
  EXPECT_DOUBLE_EQ((*state.find(id))->value(64.0), 8e200);
}

TEST(InstanceState, ScaleMultipliesValuesAndCollapsesNesting) {
  InstanceState state(2, 64);
  const ThreadId id = state.add_thread(power(1.0, 0.5, 64));
  const double base_at_32 = (*state.find(id))->value(32.0);
  ASSERT_TRUE(state.scale_utility(id, 1.5));
  ASSERT_TRUE(state.scale_utility(id, 2.0));
  const util::UtilityPtr* scaled = state.find(id);
  ASSERT_NE(scaled, nullptr);
  EXPECT_NEAR((*scaled)->value(32.0), 3.0 * base_at_32, 1e-12);
  // Nested drift collapses into one wrapper around the original function.
  const auto* wrapper =
      dynamic_cast<const util::ScaledUtility*>(scaled->get());
  ASSERT_NE(wrapper, nullptr);
  EXPECT_EQ(dynamic_cast<const util::ScaledUtility*>(wrapper->base().get()),
            nullptr);
}

TEST(InstanceState, FindAndThreadsReflectInsertionOrder) {
  InstanceState state(2, 64);
  const ThreadId a = state.add_thread(power(1.0, 0.5, 64));
  const ThreadId b = state.add_thread(power(2.0, 0.5, 64));
  const ThreadId c = state.add_thread(power(3.0, 0.5, 64));
  ASSERT_TRUE(state.remove_thread(b));
  EXPECT_EQ(state.find(b), nullptr);
  ASSERT_EQ(state.threads().size(), 2u);
  EXPECT_EQ(state.threads()[0].first, a);
  EXPECT_EQ(state.threads()[1].first, c);
}

TEST(InstanceState, ToInstanceSnapshotsIdsAndThreads) {
  InstanceState state(3, 100);
  const ThreadId a = state.add_thread(power(1.0, 0.5, 100));
  const ThreadId b = state.add_thread(power(2.0, 0.5, 100));
  std::vector<ThreadId> ids;
  const core::Instance instance = state.to_instance(&ids);
  EXPECT_EQ(instance.num_servers, 3u);
  EXPECT_EQ(instance.capacity, 100);
  ASSERT_EQ(instance.num_threads(), 2u);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], a);
  EXPECT_EQ(ids[1], b);
  EXPECT_DOUBLE_EQ(instance.threads[0]->value(25.0),
                   (*state.find(a))->value(25.0));
}

TEST(InstanceState, EmptySnapshotIsValid) {
  InstanceState state(2, 64);
  std::vector<ThreadId> ids;
  const core::Instance instance = state.to_instance(&ids);
  EXPECT_EQ(instance.num_threads(), 0u);
  EXPECT_TRUE(ids.empty());
}

}  // namespace
}  // namespace aa::svc
