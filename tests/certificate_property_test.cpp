// Randomized property test of the self-checking approximation certificate
// (obs/certificate.hpp + aa/certify.hpp): across all four Section VII
// workload distributions, every solve of Algorithms 1/2 (raw and refined)
// must emit a passing certificate — f(ALG) >= alpha * f(SO_capped), the
// Lemma V.4/V.15 chain, per-server budgets and the concavity precondition —
// and on small instances (n <= 10, m <= 3) the certificate is cross-checked
// against the exhaustive solver: alpha * OPT <= f(ALG) <= OPT <= f_SO.
// A deliberately corrupted result must FAIL certification (the checker
// actually checks).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "aa/algorithm1.hpp"
#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/exact.hpp"
#include "aa/refine.hpp"
#include "alloc/oracle.hpp"
#include "alloc/super_optimal.hpp"
#include "obs/session.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::core {
namespace {

struct Shape {
  std::size_t num_threads;
  std::size_t num_servers;
  Resource capacity;
};

using Param = std::tuple<support::DistributionKind, Shape, std::uint64_t>;

class CertificateProperty : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] Instance make_instance() const {
    const auto& [kind, shape, seed] = GetParam();
    support::Rng rng(seed * 104729 + 7);
    support::DistributionParams dist;
    dist.kind = kind;
    Instance instance;
    instance.num_servers = shape.num_servers;
    instance.capacity = shape.capacity;
    instance.threads = util::generate_utilities(shape.num_threads,
                                                shape.capacity, dist, rng);
    return instance;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, CertificateProperty,
    ::testing::Combine(
        ::testing::Values(support::DistributionKind::kUniform,
                          support::DistributionKind::kNormal,
                          support::DistributionKind::kPowerLaw,
                          support::DistributionKind::kDiscrete),
        ::testing::Values(Shape{10, 3, 18}, Shape{8, 2, 24}, Shape{6, 3, 15},
                          Shape{4, 2, 30}),
        ::testing::Range<std::uint64_t>(0, 4)));

TEST_P(CertificateProperty, EverySolverVariantCertifies) {
  const Instance instance = make_instance();
  const struct {
    const char* name;
    SolveResult result;
  } runs[] = {
      {"algorithm2", solve_algorithm2(instance)},
      {"algorithm2_refined", solve_algorithm2_refined(instance)},
      {"algorithm1", solve_algorithm1(instance)},
      {"algorithm1_refined", solve_algorithm1_refined(instance)},
  };
  for (const auto& run : runs) {
    const obs::Certificate cert = certify(instance, run.result, run.name);
    EXPECT_TRUE(cert.ok()) << run.name << ": " << cert.to_json().dump(2);
    EXPECT_TRUE(cert.input.concavity_checked);
  }
}

TEST_P(CertificateProperty, CertificateAgreesWithExactOptimum) {
  const Instance instance = make_instance();
  const SolveResult approx = solve_algorithm2_refined(instance);
  const obs::Certificate cert = certify(instance, approx, "algorithm2_refined");
  ASSERT_TRUE(cert.ok()) << cert.to_json().dump(2);

  const ExactResult exact = solve_exact(instance);
  const double tol = 1e-7 * (1.0 + exact.utility);
  // The certificate's bound really upper-bounds the true optimum ...
  EXPECT_LE(exact.utility, cert.input.f_super_optimal + tol);
  // ... and the certified solution clears alpha * OPT, not just alpha * SO.
  EXPECT_GE(cert.input.f_alg, kApproximationRatio * exact.utility - tol);
  EXPECT_LE(cert.input.f_alg, exact.utility + tol);
}

TEST_P(CertificateProperty, CorruptedResultFailsCertification) {
  const Instance instance = make_instance();
  SolveResult result = solve_algorithm2(instance);

  // Over-allocate every thread: per-server budgets burst, and the reported
  // utility no longer matches a feasible assignment.
  SolveResult overfull = result;
  for (double& alloc : overfull.assignment.alloc) {
    alloc = static_cast<double>(instance.capacity) + 1.0;
  }
  const obs::Certificate burst = certify(instance, overfull, "corrupted");
  EXPECT_FALSE(burst.ok());
  EXPECT_FALSE(burst.budget_ok && burst.structural_ok);

  // Understate the claimed objective below the guarantee line.
  SolveResult lying = result;
  lying.utility = 0.5 * kApproximationRatio * lying.super_optimal_utility;
  const obs::Certificate lied = certify(instance, lying, "corrupted");
  EXPECT_FALSE(lied.alpha_ok);
  EXPECT_FALSE(lied.ok());
}

TEST_P(CertificateProperty, SuperOptimalIsBitIdenticalToTheOracle) {
  // The super-optimal bound every certificate divides by comes from the
  // production allocator; it must be the literal bisection's, bit for bit.
  const Instance instance = make_instance();
  const alloc::SuperOptimalResult so = alloc::super_optimal(
      instance.threads, instance.num_servers, instance.capacity);
  const alloc::AllocationResult oracle = alloc::allocate_bisection(
      instance.threads,
      static_cast<Resource>(instance.num_servers) * instance.capacity,
      instance.capacity);
  EXPECT_EQ(so.c_hat, oracle.amounts);
  EXPECT_EQ(so.utility, oracle.total_utility);
}

TEST_P(CertificateProperty, RefineMatchesTheOraclesPerServer) {
  // Each refined server holds the exact single-server optimum: the heap
  // greedy's and the dynamic program's utility on the same members.
  const Instance instance = make_instance();
  const SolveResult refined = solve_algorithm2_refined(instance);
  for (std::size_t j = 0; j < instance.num_servers; ++j) {
    std::vector<UtilityPtr> members;
    double refined_value = 0.0;
    for (std::size_t i = 0; i < instance.num_threads(); ++i) {
      if (refined.assignment.server[i] != j) continue;
      members.push_back(instance.threads[i]);
      refined_value += instance.threads[i]->value(refined.assignment.alloc[i]);
    }
    const double greedy =
        alloc::allocate_greedy(members, instance.capacity, instance.capacity)
            .total_utility;
    const double dp =
        alloc::allocate_dp_exact(members, instance.capacity, instance.capacity)
            .total_utility;
    EXPECT_NEAR(refined_value, greedy, 1e-12 * (1.0 + greedy)) << "server " << j;
    EXPECT_NEAR(refined_value, dp, 1e-9 * (1.0 + dp)) << "server " << j;
  }
}

TEST_P(CertificateProperty, SolversRecordCertificatesOnTheSession) {
  const Instance instance = make_instance();
  obs::Session session;
  (void)solve_algorithm2_refined(instance);
  const obs::Metrics metrics = session.metrics();
  // Raw Algorithm 2 plus the refined wrapper each record one certificate.
  EXPECT_EQ(metrics.counter("certificate/checks"), 2);
  EXPECT_EQ(metrics.counter("certificate/failures"), 0);
  const auto certificates = session.certificates();
  ASSERT_EQ(certificates.size(), 2u);
  EXPECT_EQ(certificates[0].input.solver, "algorithm2");
  EXPECT_EQ(certificates[1].input.solver, "algorithm2_refined");
  for (const obs::Certificate& cert : certificates) {
    EXPECT_TRUE(cert.ok()) << cert.to_json().dump(2);
  }
}

}  // namespace
}  // namespace aa::core
