// Golden-value determinism tests: these lock the exact outputs of the
// deterministic stack (PRNG -> distributions -> generator -> solver) so an
// accidental change to any stream (reordering draws, swapping algorithms,
// "harmless" refactors) is caught immediately. If a change here is
// INTENTIONAL, update the constants and call it out in the changelog —
// results published from older seeds stop being reproducible.

#include <gtest/gtest.h>

#include "aa/refine.hpp"
#include "obs/session.hpp"
#include "sim/experiment.hpp"
#include "sim/workload.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa {
namespace {

TEST(Golden, XoshiroSeed42FirstDraws) {
  support::Xoshiro256StarStar gen(42);
  EXPECT_EQ(gen(), 1546998764402558742ULL);
  EXPECT_EQ(gen(), 6990951692964543102ULL);
  EXPECT_EQ(gen(), 12544586762248559009ULL);
}

TEST(Golden, RngChildStream) {
  support::Rng rng = support::Rng::child(2016, 7);
  EXPECT_EQ(rng.next_u64(), 8310888732045790662ULL);
}

TEST(Golden, Uniform01Seed1) {
  support::Rng rng(1);
  EXPECT_NEAR(rng.uniform01(), 0.7029218332, 1e-9);
  EXPECT_NEAR(rng.uniform01(), 0.5204366199, 1e-9);
}

TEST(Golden, GeneratedUtilityKnots) {
  support::Rng rng(123);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kUniform;
  const util::UtilityPtr f = util::generate_utility(100, dist, rng);
  EXPECT_NEAR(f->value(50.0), 0.9695722925, 1e-9);
  EXPECT_NEAR(f->value(100.0), 1.1662666447, 1e-9);
}

TEST(Golden, TrialUtilitiesSeed2016Trial0) {
  sim::WorkloadConfig config;
  config.num_servers = 4;
  config.capacity = 50;
  config.beta = 3.0;
  config.dist.kind = support::DistributionKind::kUniform;
  const sim::TrialUtilities t = sim::run_trial(config, 2016, 0);
  EXPECT_NEAR(t.algorithm2, 6.2823222105, 1e-8);
  EXPECT_NEAR(t.super_optimal, 6.2884762702, 1e-8);
  EXPECT_NEAR(t.uu, 5.6479076586, 1e-8);
}

TEST(Golden, InstrumentationNeverPerturbsSolverResults) {
  // The same fixed instance solved bare and under an obs::Session must give
  // bit-identical utilities: observability reads the solver, never steers it.
  support::Rng rng(123);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kUniform;
  sim::WorkloadConfig config;
  config.num_servers = 4;
  config.capacity = 50;
  config.beta = 3.0;
  config.dist = dist;
  const core::Instance instance = sim::generate_instance(config, rng);

  const core::SolveResult bare = core::solve_algorithm2_refined(instance);
  obs::Session session;
  const core::SolveResult observed = core::solve_algorithm2_refined(instance);
  EXPECT_EQ(observed.utility, bare.utility);
  EXPECT_EQ(observed.linearized_utility, bare.linearized_utility);
  EXPECT_EQ(observed.super_optimal_utility, bare.super_optimal_utility);
  EXPECT_EQ(observed.assignment.server, bare.assignment.server);
  EXPECT_EQ(observed.assignment.alloc, bare.assignment.alloc);
}

TEST(Golden, MetricsCountersSeed2016Trial0) {
  // Pins the full counters blob (values are deterministic; timings are
  // deliberately excluded) for one run_trial at the seed the trial golden
  // above uses: 12 threads on 4 servers, solved by Algorithm 2 + refinement
  // plus the four heuristics. If an instrumentation change is INTENTIONAL,
  // update the string alongside the changelog entry.
  obs::Session session;
  sim::WorkloadConfig config;
  config.num_servers = 4;
  config.capacity = 50;
  config.beta = 3.0;
  config.dist.kind = support::DistributionKind::kUniform;
  (void)sim::run_trial(config, 2016, 0);

  EXPECT_EQ(
      session.metrics().counters_json().dump(),
      "{\"alg2/solves\":1,\"alg2/threads_assigned\":12,"
      "\"certificate/checks\":2,\"experiment/trials\":1,"
      "\"heuristics/rr_solves\":1,\"heuristics/ru_solves\":1,"
      "\"heuristics/ur_solves\":1,\"heuristics/uu_solves\":1,"
      "\"refine/servers_reoptimized\":4,\"refine/solves\":1,"
      "\"super_optimal/bisect_iterations\":46,"
      "\"super_optimal/calls\":1,\"super_optimal/threads\":12}");
  EXPECT_EQ(session.metrics().counter("certificate/failures"), 0);
  ASSERT_EQ(session.certificates().size(), 2u);
  EXPECT_TRUE(session.certificates().back().ok());
}

}  // namespace
}  // namespace aa
