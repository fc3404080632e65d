// Tests for instance/assignment serialization (io/instance_io.hpp).

#include "io/instance_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "aa/heterogeneous.hpp"
#include "aa/refine.hpp"
#include "support/prng.hpp"
#include "utility/generator.hpp"

namespace aa::io {
namespace {

using core::Instance;
using support::json_parse;

Instance analytic_instance() {
  Instance instance;
  instance.num_servers = 3;
  instance.capacity = 50;
  instance.threads = {
      std::make_shared<util::PowerUtility>(2.0, 0.5, 50),
      std::make_shared<util::CappedLinearUtility>(1.5, 20.0, 50),
      std::make_shared<util::LogUtility>(4.0, 0.2, 50),
  };
  return instance;
}

TEST(InstanceIo, AnalyticRoundTripPreservesParameters) {
  const Instance original = analytic_instance();
  const support::JsonValue document = instance_to_json(original);
  const Instance loaded = instance_from_json(document);
  ASSERT_EQ(loaded.num_servers, 3u);
  ASSERT_EQ(loaded.capacity, 50);
  ASSERT_EQ(loaded.num_threads(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const double x : {0.0, 7.5, 20.0, 50.0}) {
      ASSERT_DOUBLE_EQ(loaded.threads[i]->value(x),
                       original.threads[i]->value(x))
          << "thread " << i << " at " << x;
    }
  }
  // Analytic types survive as their compact forms, not tabulations.
  EXPECT_EQ(document.at("threads").as_array()[0].at("type").as_string(),
            "power");
  EXPECT_EQ(document.at("threads").as_array()[1].at("type").as_string(),
            "capped_linear");
  EXPECT_EQ(document.at("threads").as_array()[2].at("type").as_string(),
            "log");
}

TEST(InstanceIo, GeneratedUtilitiesRoundTripViaTabulation) {
  support::Rng rng(5);
  support::DistributionParams dist;
  dist.kind = support::DistributionKind::kPowerLaw;
  Instance original;
  original.num_servers = 2;
  original.capacity = 40;
  original.threads = util::generate_utilities(5, 40, dist, rng);

  const Instance loaded = instance_from_json(instance_to_json(original));
  for (std::size_t i = 0; i < original.num_threads(); ++i) {
    for (util::Resource k = 0; k <= 40; ++k) {
      ASSERT_NEAR(loaded.threads[i]->value(static_cast<double>(k)),
                  original.threads[i]->value(static_cast<double>(k)), 1e-12);
    }
  }
}

TEST(InstanceIo, SolvingLoadedInstanceMatchesOriginal) {
  const Instance original = analytic_instance();
  const Instance loaded = instance_from_json(instance_to_json(original));
  const double original_utility =
      core::solve_algorithm2_refined(original).utility;
  const double loaded_utility =
      core::solve_algorithm2_refined(loaded).utility;
  EXPECT_NEAR(original_utility, loaded_utility, 1e-9);
}

TEST(InstanceIo, ParsesPiecewiseDocuments) {
  const Instance loaded = instance_from_json(json_parse(R"({
    "num_servers": 1,
    "capacity": 20,
    "threads": [
      {"type": "piecewise", "xs": [0, 10, 20], "ys": [0, 8, 12]}
    ]
  })"));
  EXPECT_DOUBLE_EQ(loaded.threads[0]->value(5.0), 4.0);
  EXPECT_DOUBLE_EQ(loaded.threads[0]->value(15.0), 10.0);
}

TEST(InstanceIo, RejectsMalformedDocuments) {
  EXPECT_THROW((void)instance_from_json(json_parse("{}")),
               std::runtime_error);
  EXPECT_THROW((void)instance_from_json(json_parse(
                   R"({"num_servers": 0, "capacity": 5, "threads": []})")),
               std::runtime_error);
  EXPECT_THROW(
      (void)instance_from_json(json_parse(
          R"({"num_servers": 1, "capacity": 5,
              "threads": [{"type": "warp_drive"}]})")),
      std::runtime_error);
  // Utility domain smaller than capacity -> Instance::validate fires.
  EXPECT_THROW(
      (void)instance_from_json(json_parse(
          R"({"num_servers": 1, "capacity": 5,
              "threads": [{"type": "tabulated", "values": [0, 1]}]})")),
      std::invalid_argument);
}

TEST(AssignmentIo, RoundTrip) {
  const Instance instance = analytic_instance();
  const core::SolveResult solved = core::solve_algorithm2_refined(instance);
  const support::JsonValue document =
      assignment_to_json(instance, solved.assignment);
  const core::Assignment loaded = assignment_from_json(document);
  EXPECT_EQ(loaded.server, solved.assignment.server);
  EXPECT_EQ(loaded.alloc, solved.assignment.alloc);
  EXPECT_NEAR(document.at("utility").as_number(), solved.utility, 1e-9);
}

TEST(AssignmentIo, RejectsArityMismatchAndNegatives) {
  EXPECT_THROW((void)assignment_from_json(
                   json_parse(R"({"server": [0, 1], "alloc": [1.0]})")),
               std::runtime_error);
  EXPECT_THROW((void)assignment_from_json(
                   json_parse(R"({"server": [-1], "alloc": [1.0]})")),
               std::runtime_error);
}

TEST(HeteroIo, RoundTripPreservesCapacitiesAndCurves) {
  core::HeteroInstance original;
  original.capacities = {40, 20, 10};
  original.threads = {
      std::make_shared<util::PowerUtility>(2.0, 0.5, 40),
      std::make_shared<util::CappedLinearUtility>(1.0, 30.0, 40),
  };
  const support::JsonValue document = hetero_instance_to_json(original);
  EXPECT_TRUE(is_hetero_document(document));
  const core::HeteroInstance loaded = hetero_instance_from_json(document);
  EXPECT_EQ(loaded.capacities, original.capacities);
  for (std::size_t i = 0; i < original.num_threads(); ++i) {
    for (const double x : {0.0, 15.0, 40.0}) {
      ASSERT_DOUBLE_EQ(loaded.threads[i]->value(x),
                       original.threads[i]->value(x));
    }
  }
  // Solving the loaded instance matches the original.
  EXPECT_NEAR(core::solve_algorithm2_hetero(loaded).utility,
              core::solve_algorithm2_hetero(original).utility, 1e-9);
}

TEST(HeteroIo, HomogeneousDocumentIsNotHetero) {
  EXPECT_FALSE(is_hetero_document(instance_to_json(analytic_instance())));
  EXPECT_FALSE(is_hetero_document(json_parse("[1]")));
}

TEST(HeteroIo, RejectsMalformedCapacities) {
  EXPECT_THROW((void)hetero_instance_from_json(
                   json_parse(R"({"capacities": [], "threads": []})")),
               std::invalid_argument);
  EXPECT_THROW((void)hetero_instance_from_json(json_parse(
                   R"({"capacities": [10, -5], "threads": []})")),
               std::invalid_argument);
}

TEST(FileIo, SaveAndLoadInstance) {
  const std::string path = ::testing::TempDir() +
                           "aa_io_test_SaveAndLoadInstance_" +
                           std::to_string(::getpid()) + ".json";
  const Instance original = analytic_instance();
  save_instance(original, path);
  const Instance loaded = load_instance(path);
  EXPECT_EQ(loaded.num_threads(), original.num_threads());
  EXPECT_EQ(loaded.capacity, original.capacity);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW((void)load_instance("/nonexistent/missing.json"),
               std::runtime_error);
  EXPECT_THROW(write_file("/nonexistent/dir/file.txt", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace aa::io
