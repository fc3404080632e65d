// Focused tests for paths the broader suites exercise only indirectly:
// wrapper utilities inside the allocators, Algorithm 1's unfull branch on a
// crafted instance, degenerate caps, and API misuse errors.

#include <gtest/gtest.h>

#include <memory>

#include "aa/algorithm1.hpp"
#include "aa/multi_resource.hpp"
#include "alloc/oracle.hpp"
#include "alloc/super_optimal.hpp"
#include "support/json.hpp"
#include "utility/linearized.hpp"
#include "utility/utility_function.hpp"

namespace aa {
namespace {

using util::CappedLinearUtility;
using util::PowerUtility;
using util::Resource;
using util::UtilityPtr;

TEST(AllocatorWrappers, ScaledUtilityFlowsThroughGreedyAndBisection) {
  // The ScaledUtility overrides marginal(); both allocators must honour it.
  const auto base = std::make_shared<PowerUtility>(1.0, 0.5, 100);
  std::vector<UtilityPtr> threads{
      std::make_shared<util::ScaledUtility>(base, 3.0),
      base,
  };
  const alloc::AllocationResult g = alloc::allocate_greedy(threads, 50);
  const alloc::AllocationResult b = alloc::allocate_bisection(threads, 50);
  // The scaled thread has 3x the marginals everywhere, so it must receive
  // strictly more resource under both algorithms.
  EXPECT_GT(g.amounts[0], g.amounts[1]);
  EXPECT_GT(b.amounts[0], b.amounts[1]);
  EXPECT_NEAR(g.total_utility, b.total_utility,
              1e-7 * (1.0 + g.total_utility));
}

TEST(AllocatorWrappers, SaturatedUtilityStopsEarning) {
  std::vector<UtilityPtr> threads{
      std::make_shared<util::SaturatedUtility>(
          std::make_shared<CappedLinearUtility>(1.0, 100.0, 100), 5.0),
      std::make_shared<CappedLinearUtility>(0.5, 100.0, 100),
  };
  const alloc::AllocationResult r = alloc::allocate_greedy(threads, 100);
  // Thread 0 earns nothing beyond 5 units (value ceiling 5.0); thread 1
  // takes the rest at slope 0.5.
  EXPECT_EQ(r.amounts[0], 5);
  EXPECT_EQ(r.amounts[1], 95);
  EXPECT_DOUBLE_EQ(r.total_utility, 5.0 + 47.5);
}

TEST(AllocatorEdge, PerThreadCapZeroAllocatesNothing) {
  std::vector<UtilityPtr> threads{
      std::make_shared<PowerUtility>(1.0, 0.5, 100)};
  const alloc::AllocationResult g = alloc::allocate_greedy(threads, 50, 0);
  const alloc::AllocationResult b = alloc::allocate_bisection(threads, 50, 0);
  EXPECT_EQ(g.amounts[0], 0);
  EXPECT_EQ(b.amounts[0], 0);
}

TEST(Algorithm1Unfull, PicksTheBestPayingLeftover) {
  // Crafted so the third thread CANNOT receive its c_hat anywhere and must
  // take leftovers: two servers of 10; threads A and B saturate at 7 with
  // steep slopes (assigned first); thread D wants 10 (c_hat = 10) but only
  // 3 remain on each server -> unfull, takes 3 on either server.
  core::Instance instance;
  instance.num_servers = 2;
  instance.capacity = 10;
  instance.threads = {
      std::make_shared<CappedLinearUtility>(5.0, 7.0, 10),   // A
      std::make_shared<CappedLinearUtility>(5.0, 7.0, 10),   // B
      std::make_shared<CappedLinearUtility>(1.0, 10.0, 10),  // D
  };
  const core::SolveResult result = core::solve_algorithm1(instance);
  ASSERT_EQ(core::check_assignment(instance, result.assignment), "");
  EXPECT_DOUBLE_EQ(result.assignment.alloc[0], 7.0);
  EXPECT_DOUBLE_EQ(result.assignment.alloc[1], 7.0);
  EXPECT_DOUBLE_EQ(result.assignment.alloc[2], 3.0);  // All that remains.
  EXPECT_DOUBLE_EQ(result.utility, 35.0 + 35.0 + 3.0);
}

TEST(LinearizedEdge, DensityOfZeroPeakThread) {
  const util::Linearized flat{.cap = 10, .peak = 0.0};
  EXPECT_DOUBLE_EQ(flat.density(), 0.0);
  EXPECT_DOUBLE_EQ(flat.value(5.0), 0.0);
}

TEST(MultiResourceErrors, TotalUtilityArityMismatch) {
  core::MultiInstance instance;
  instance.num_servers = 1;
  instance.capacities = {10, 10};
  core::MultiUtility bundle;
  bundle.parts = {std::make_shared<PowerUtility>(1.0, 0.5, 10),
                  std::make_shared<PowerUtility>(1.0, 0.5, 10)};
  instance.threads.push_back(bundle);
  core::MultiAssignment wrong;
  wrong.server = {0};
  wrong.alloc = {{1.0}};  // Only one resource type given.
  EXPECT_THROW((void)core::total_utility(instance, wrong),
               std::invalid_argument);
}

TEST(JsonErrors, SetOnNonObjectThrows) {
  support::JsonValue number(3.0);
  EXPECT_THROW(number.set("k", 1), std::runtime_error);
}

TEST(JsonErrors, NonFiniteNumbersRefuseToSerialize) {
  const support::JsonValue inf(std::numeric_limits<double>::infinity());
  EXPECT_THROW((void)inf.dump(), std::runtime_error);
}

TEST(SuperOptimalEdge, MoreServersThanThreads) {
  // Lemma V.3 does NOT apply when n*C < m*C; the pool simply cannot be
  // exhausted and every thread saturates its own domain.
  std::vector<UtilityPtr> threads{
      std::make_shared<PowerUtility>(1.0, 0.5, 40)};
  const alloc::SuperOptimalResult so = alloc::super_optimal(threads, 5, 40);
  EXPECT_EQ(so.c_hat[0], 40);
}

}  // namespace
}  // namespace aa
