// CLI smoke tests: drive the real aa_gen and aa_solve binaries (paths baked
// in by CMake via AA_GEN_BIN / AA_SOLVE_BIN) through the generate -> solve
// round-trip and schema-validate what comes back — the instance document,
// the assignment document, and the --metrics observability blob.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace aa {
namespace {

/// Runs a shell command, captures stdout, and reports the exit status.
struct CommandResult {
  int status = -1;
  std::string output;
};

CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, read);
  }
  result.status = ::pclose(pipe);
  return result;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

constexpr const char* kGen = AA_GEN_BIN;
constexpr const char* kSolve = AA_SOLVE_BIN;

class CliSmoke : public ::testing::Test {
 protected:
  /// A file name of this test's own, removed at TearDown: ctest runs each
  /// case as a separate process, possibly in parallel with the others.
  std::string temp_path(const std::string& name) {
    created_.push_back(
        ::testing::TempDir() + "aa_cli_smoke_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid()) + "_" + name);
    return created_.back();
  }

  void TearDown() override {
    for (const std::string& path : created_) std::remove(path.c_str());
  }

  void SetUp() override {
    instance_path_ = temp_path("instance.json");
    const CommandResult gen = run_command(
        std::string(kGen) + " --threads 12 --servers 3 --capacity 60"
                            " --seed 7 --out " + instance_path_ +
        " 2>/dev/null");
    ASSERT_EQ(gen.status, 0);
  }

  std::string instance_path_;
  std::vector<std::string> created_;
};

TEST_F(CliSmoke, GenEmitsAValidInstanceDocument) {
  const support::JsonValue instance =
      support::json_parse(slurp(instance_path_));
  EXPECT_EQ(instance.at("num_servers").as_int(), 3);
  EXPECT_EQ(instance.at("capacity").as_int(), 60);
  ASSERT_EQ(instance.at("threads").as_array().size(), 12u);
  for (const support::JsonValue& thread : instance.at("threads").as_array()) {
    EXPECT_TRUE(thread.at("type").is_string());
  }
}

TEST_F(CliSmoke, GenRejectsNegativeServerCount) {
  const std::string errors = temp_path("gen.err");
  const CommandResult gen = run_command(
      std::string(kGen) + " --threads 4 --servers -1 2> " + errors);
  EXPECT_NE(gen.status, 0);
  EXPECT_EQ(gen.output, "");
  EXPECT_NE(slurp(errors).find("--servers"), std::string::npos)
      << slurp(errors);
}

TEST_F(CliSmoke, SolveRoundTripsToAValidAssignment) {
  const CommandResult solve =
      run_command(std::string(kSolve) + " " + instance_path_ +
                  " --format json");
  ASSERT_EQ(solve.status, 0);
  const support::JsonValue assignment = support::json_parse(solve.output);
  ASSERT_EQ(assignment.at("server").as_array().size(), 12u);
  ASSERT_EQ(assignment.at("alloc").as_array().size(), 12u);
  EXPECT_EQ(assignment.at("algorithm").as_string(), "alg2");
  EXPECT_GT(assignment.at("utility").as_number(), 0.0);
  EXPECT_GE(assignment.at("super_optimal_utility").as_number(),
            assignment.at("utility").as_number() - 1e-9);
  for (const support::JsonValue& server : assignment.at("server").as_array()) {
    EXPECT_GE(server.as_int(), 0);
    EXPECT_LT(server.as_int(), 3);
  }
}

TEST_F(CliSmoke, MetricsBlobMatchesTheDocumentedSchema) {
  const std::string assignment_path = temp_path("assignment.json");
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ + " --metrics -" +
      " --format json --out " + assignment_path);
  ASSERT_EQ(solve.status, 0);

  // stdout carries exactly one JSON document: the metrics blob.
  const support::JsonValue metrics = support::json_parse(solve.output);
  EXPECT_EQ(metrics.at("solver").as_string(), "algorithm2_refined");
  EXPECT_TRUE(metrics.at("certificate_ok").as_bool());
  EXPECT_GT(metrics.at("f_alg").as_number(), 0.0);
  EXPECT_GE(metrics.at("f_super_optimal").as_number(),
            metrics.at("f_alg").as_number() - 1e-9);
  EXPECT_NEAR(metrics.at("alpha").as_number(), 0.8284271247461901, 1e-12);

  const support::JsonValue& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("alg2/solves").as_int(), 1);
  EXPECT_EQ(counters.at("alg2/threads_assigned").as_int(), 12);
  EXPECT_EQ(counters.at("certificate/checks").as_int(), 2);
  EXPECT_EQ(counters.find("certificate/failures"), nullptr);

  // Phase timings for the documented pipeline phases.
  const support::JsonValue& timers = metrics.at("timers");
  for (const char* phase :
       {"alg2/solve", "super_optimal", "linearize", "alg2/assign",
        "refine/reoptimize"}) {
    ASSERT_NE(timers.find(phase), nullptr) << phase;
    EXPECT_GE(timers.at(phase).at("count").as_int(), 1) << phase;
    EXPECT_GE(timers.at(phase).at("wall_ms_total").as_number(), 0.0) << phase;
  }
  EXPECT_FALSE(metrics.at("trace").as_array().empty());
  ASSERT_EQ(metrics.at("certificates").as_array().size(), 2u);

  // The solution written alongside agrees with the certified utility.
  const support::JsonValue assignment =
      support::json_parse(slurp(assignment_path));
  EXPECT_NEAR(assignment.at("utility").as_number(),
              metrics.at("f_alg").as_number(), 1e-9);
}

TEST_F(CliSmoke, MetricsFileFlagWritesTheBlob) {
  const std::string metrics_path = temp_path("metrics.json");
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ + " --algorithm alg1" +
      " --metrics " + metrics_path + " --out /dev/null");
  ASSERT_EQ(solve.status, 0);
  const support::JsonValue metrics = support::json_parse(slurp(metrics_path));
  EXPECT_EQ(metrics.at("solver").as_string(), "algorithm1_refined");
  EXPECT_TRUE(metrics.at("certificate_ok").as_bool());
  const auto counter = [&](const char* name) -> std::int64_t {
    const support::JsonValue* value = metrics.at("counters").find(name);
    return value == nullptr ? 0 : value->as_int();
  };
  EXPECT_EQ(counter("alg1/solves"), 1);
  EXPECT_EQ(counter("alg1/full_picks") + counter("alg1/unfull_picks"), 12);
}

TEST_F(CliSmoke, UnknownAlgorithmFailsLoudly) {
  const CommandResult solve = run_command(
      std::string(kSolve) + " " + instance_path_ +
      " --algorithm nonsense 2>/dev/null");
  EXPECT_NE(solve.status, 0);
}

}  // namespace
}  // namespace aa
