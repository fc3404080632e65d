// Tests for the multiple-choice knapsack substrate (alloc/mckp.hpp).

#include "alloc/mckp.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "alloc/oracle.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::alloc {
namespace {

using util::Resource;

TEST(MckpDp, HandComputedOptimum) {
  // Class 0: (w=2,v=3) or (w=4,v=5); class 1: (w=3,v=4). Capacity 5:
  // best is (2,3) + (3,4) = 7.
  const std::vector<MckpClass> classes = {{{2, 3.0}, {4, 5.0}}, {{3, 4.0}}};
  const MckpResult r = mckp_dp_exact(classes, 5);
  EXPECT_DOUBLE_EQ(r.total_value, 7.0);
  EXPECT_EQ(r.total_weight, 5);
  EXPECT_EQ(r.choice[0], 0u);
  EXPECT_EQ(r.choice[1], 0u);
}

TEST(MckpDp, ZeroItemIsAllowed) {
  // Capacity too small for both classes: pick the single best.
  const std::vector<MckpClass> classes = {{{4, 10.0}}, {{4, 3.0}}};
  const MckpResult r = mckp_dp_exact(classes, 4);
  EXPECT_DOUBLE_EQ(r.total_value, 10.0);
  EXPECT_EQ(r.choice[0], 0u);
  EXPECT_EQ(r.choice[1], kZeroChoice);
}

TEST(MckpDp, EmptyInputs) {
  const MckpResult r = mckp_dp_exact({}, 10);
  EXPECT_DOUBLE_EQ(r.total_value, 0.0);
  const std::vector<MckpClass> one_empty = {{}};
  const MckpResult r2 = mckp_dp_exact(one_empty, 10);
  EXPECT_DOUBLE_EQ(r2.total_value, 0.0);
  EXPECT_EQ(r2.choice[0], kZeroChoice);
}

TEST(MckpDp, RejectsNegativeInputs) {
  EXPECT_THROW((void)mckp_dp_exact({}, -1), std::invalid_argument);
  const std::vector<MckpClass> bad = {{{-1, 2.0}}};
  EXPECT_THROW((void)mckp_dp_exact(bad, 5), std::invalid_argument);
}

TEST(MckpDp, ChoiceReconstructionIsConsistent) {
  support::Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<MckpClass> classes(4);
    for (auto& cls : classes) {
      const std::size_t items = 1 + rng.uniform_below(5);
      for (std::size_t j = 0; j < items; ++j) {
        cls.push_back({static_cast<Resource>(1 + rng.uniform_below(10)),
                       rng.uniform(0.5, 10.0)});
      }
    }
    const MckpResult r = mckp_dp_exact(classes, 15);
    double value = 0.0;
    Resource weight = 0;
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (r.choice[i] == kZeroChoice) continue;
      value += classes[i][r.choice[i]].value;
      weight += classes[i][r.choice[i]].weight;
    }
    ASSERT_NEAR(value, r.total_value, 1e-9);
    ASSERT_EQ(weight, r.total_weight);
    ASSERT_LE(weight, 15);
  }
}

TEST(MckpGreedy, ExactOnConcaveClasses) {
  // Concave class increments = the class itself; greedy fills like the
  // water-filling allocators.
  const std::vector<MckpClass> classes = {
      {{1, 4.0}, {2, 7.0}, {3, 9.0}},   // Marginals 4, 3, 2.
      {{1, 5.0}, {2, 8.0}, {3, 10.0}}}; // Marginals 5, 3, 2.
  const MckpResult greedy = mckp_greedy(classes, 4);
  const MckpResult exact = mckp_dp_exact(classes, 4);
  EXPECT_DOUBLE_EQ(greedy.total_value, exact.total_value);
}

TEST(MckpGreedy, HalfApproximationOnAdversarialInput) {
  // Classic greedy trap: one dense small item per class plus a big
  // valuable one. Greedy + best-single must stay >= OPT/2.
  const std::vector<MckpClass> classes = {{{1, 1.1}, {10, 10.0}},
                                          {{1, 1.1}, {10, 10.0}}};
  const MckpResult greedy = mckp_greedy(classes, 11);
  const MckpResult exact = mckp_dp_exact(classes, 11);
  EXPECT_GE(greedy.total_value, 0.5 * exact.total_value);
  EXPECT_LE(greedy.total_value, exact.total_value + 1e-12);
}

TEST(MckpGreedy, BestSingleItemSafeguardKicksIn) {
  // Greedy fills tiny dense items; the single huge item is better.
  const std::vector<MckpClass> classes = {{{1, 1.0}}, {{100, 60.0}}};
  const MckpResult r = mckp_greedy(classes, 100);
  EXPECT_DOUBLE_EQ(r.total_value, 60.0);
  EXPECT_EQ(r.choice[1], 0u);
  EXPECT_EQ(r.choice[0], kZeroChoice);
}

TEST(MckpGreedy, DominatedItemsNeverChosen) {
  // Item (5, 1.0) is dominated by (3, 2.0).
  const std::vector<MckpClass> classes = {{{3, 2.0}, {5, 1.0}}};
  const MckpResult r = mckp_greedy(classes, 10);
  EXPECT_EQ(r.choice[0], 0u);
  EXPECT_DOUBLE_EQ(r.total_value, 2.0);
}

class MckpRandomAgreement : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomAgreement,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST_P(MckpRandomAgreement, GreedyWithinHalfOfDp) {
  support::Rng rng(900 + GetParam());
  std::vector<MckpClass> classes(3 + GetParam() % 3);
  for (auto& cls : classes) {
    const std::size_t items = 1 + rng.uniform_below(6);
    for (std::size_t j = 0; j < items; ++j) {
      cls.push_back({static_cast<Resource>(1 + rng.uniform_below(20)),
                     rng.uniform(0.1, 20.0)});
    }
  }
  const Resource capacity = static_cast<Resource>(10 + rng.uniform_below(40));
  const MckpResult exact = mckp_dp_exact(classes, capacity);
  const MckpResult greedy = mckp_greedy(classes, capacity);
  ASSERT_LE(greedy.total_weight, capacity);
  ASSERT_LE(greedy.total_value, exact.total_value + 1e-9);
  ASSERT_GE(greedy.total_value, 0.5 * exact.total_value - 1e-9);
}

TEST(ClassFromUtility, SamplesLevels) {
  const util::PowerUtility f(1.0, 0.5, 100);
  const std::vector<Resource> levels = {25, 100, 25, 0, 400};
  const MckpClass cls = class_from_utility(f, levels);
  ASSERT_EQ(cls.size(), 2u);  // 25 and 100 (duplicates/0 dropped, 400 clamps to 100).
  EXPECT_EQ(cls[0].weight, 25);
  EXPECT_DOUBLE_EQ(cls[0].value, 5.0);
  EXPECT_EQ(cls[1].weight, 100);
  EXPECT_DOUBLE_EQ(cls[1].value, 10.0);
}

TEST(ClassFromUtilityUniform, CoversCapacity) {
  const util::PowerUtility f(1.0, 0.5, 100);
  const MckpClass cls = class_from_utility_uniform(f, 30);
  ASSERT_EQ(cls.size(), 4u);  // 30, 60, 90, 100.
  EXPECT_EQ(cls.back().weight, 100);
  EXPECT_THROW((void)class_from_utility_uniform(f, 0), std::invalid_argument);
}

TEST(MckpVsConcaveAllocators, AgreeOnConcaveUtilities) {
  // Full-resolution classes from concave utilities: MCKP DP == greedy
  // allocator on a shared pool.
  support::Rng rng(77);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kUniform;
  std::vector<util::UtilityPtr> threads;
  std::vector<MckpClass> classes;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(util::generate_utility(30, dist, rng));
    classes.push_back(class_from_utility_uniform(*threads.back(), 1));
  }
  for (const Resource pool : {10, 25, 60, 120}) {
    const AllocationResult alloc = allocate_greedy(threads, pool, 30);
    const MckpResult mckp = mckp_dp_exact(classes, pool);
    ASSERT_NEAR(alloc.total_utility, mckp.total_value,
                1e-7 * (1.0 + alloc.total_utility))
        << "pool " << pool;
  }
}

TEST(MckpVsConcaveAllocators, DpWinsOnNonConcaveClasses) {
  // A non-concave (S-shaped) utility tabulated as a class: the concave
  // allocators' assumptions break, MCKP DP still finds the optimum. Values
  // 0, 1, 1, 10 over weights 0..3 (big jump at 3).
  const std::vector<MckpClass> classes = {
      {{1, 1.0}, {2, 1.0}, {3, 10.0}},
      {{1, 1.0}, {2, 1.0}, {3, 10.0}}};
  const MckpResult r = mckp_dp_exact(classes, 3);
  EXPECT_DOUBLE_EQ(r.total_value, 10.0);  // All-in on one class.
}

}  // namespace
}  // namespace aa::alloc
