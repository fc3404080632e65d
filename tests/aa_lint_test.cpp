// Tests for tools/aa_lint (docs/STATIC_ANALYSIS.md): the real source tree
// must be clean, and every fixture under tests/lint_fixtures — one minimal
// bad example per invariant — must produce the expected diagnostic and a
// nonzero exit. The last case drives the header self-containment
// mechanism (the generated per-header compile check) against a
// deliberately non-self-contained fixture header with the same compiler
// the suite was built with.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs a shell command, capturing stdout+stderr.
RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer{};
  std::size_t read = 0;
  while ((read = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), read);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string lint_command(const std::string& root, const std::string& check) {
  std::string command = std::string("'") + AA_LINT_BIN + "' --root '" + root +
                        "'";
  if (!check.empty()) command += " --check " + check;
  return command;
}

RunResult lint_fixture(const std::string& fixture, const std::string& check) {
  const std::string root = std::string(AA_LINT_FIXTURES) + "/" + fixture;
  return run(lint_command(root, check));
}

TEST(AaLint, SourceTreeIsClean) {
  // The gate itself: any violated project invariant in the checked-in tree
  // fails here (and in CI). Run all checks.
  const RunResult result = run(lint_command(AA_LINT_SOURCE_ROOT, ""));
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(AaLint, UnknownCounterLiteralIsFlagged) {
  const RunResult result = lint_fixture("unknown_counter", "metric-literals");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("metric-literals"), std::string::npos);
  EXPECT_NE(result.output.find("typo/name"), std::string::npos);
  EXPECT_NE(result.output.find("src/aa/bad.cpp:3"), std::string::npos)
      << result.output;
}

TEST(AaLint, RegistryDocDriftIsFlaggedBothWays) {
  const RunResult result = lint_fixture("registry_drift", "metric-registry");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("\"foo/bar\" (kFooBar) is registered but not "
                               "documented"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"foo/baz\" is documented in "
                               "docs/OBSERVABILITY.md but not registered"),
            std::string::npos)
      << result.output;
}

TEST(AaLint, LogRegistryDriftAndLiteralsAreFlagged) {
  const RunResult result = lint_fixture("log_registry", "log-registry");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("log event name must come from obs::metric"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("(saw \"log/literal\")"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"log/ghost\" (kLogGhost) is registered but "
                               "not documented"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("\"log/phantom\" is documented under \"### "
                               "Log events\" but not registered"),
            std::string::npos)
      << result.output;
  // The registered-and-documented event is not reported.
  EXPECT_EQ(result.output.find("\"log/good\""), std::string::npos)
      << result.output;
}

TEST(AaLint, UndocumentedErrorCodeIsFlagged) {
  const RunResult result =
      lint_fixture("undocumented_error_code", "error-codes");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("\"ghost\" (kGhost) is declared but missing "
                               "from the docs/SERVICE.md code table"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("never exercised"), std::string::npos)
      << result.output;
  // The documented-and-exercised code is not reported.
  EXPECT_EQ(result.output.find("\"timeout\""), std::string::npos)
      << result.output;
}

TEST(AaLint, UndocumentedTenantCodeIsFlagged) {
  const RunResult result =
      lint_fixture("undocumented_tenant_code", "error-codes");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("\"tenant_ghost\" (kTenantGhost) is declared "
                               "but missing from the docs/SERVICE.md code "
                               "table"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("never exercised"), std::string::npos)
      << result.output;
  // The documented-and-exercised tenant code is not reported.
  EXPECT_EQ(result.output.find("\"bad_tenant\""), std::string::npos)
      << result.output;
}

TEST(AaLint, FloatLiteralEqualityIsFlagged) {
  const RunResult result = lint_fixture("float_eq", "determinism");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("floating-point literal compared"),
            std::string::npos)
      << result.output;
}

TEST(AaLint, RandIsFlagged) {
  const RunResult result = lint_fixture("rand_use", "determinism");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("rand()/srand() is banned"), std::string::npos)
      << result.output;
}

TEST(AaLint, UnorderedContainerIsFlagged) {
  const RunResult result = lint_fixture("unordered", "determinism");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("unordered containers are banned"),
            std::string::npos)
      << result.output;
}

TEST(AaLint, NakedNewIsFlagged) {
  const RunResult result = lint_fixture("naked_new", "determinism");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("naked new is banned"), std::string::npos)
      << result.output;
}

TEST(AaLint, OracleUseInProductionCodeIsFlagged) {
  const RunResult result = lint_fixture("oracle_use", "oracle-use");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("allocate_greedy is a test oracle"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("alloc/oracle.hpp is linked by tests/ and "
                               "bench/ only"),
            std::string::npos)
      << result.output;
}

TEST(AaLint, WaiverCommentSuppressesDiagnostic) {
  const RunResult result = lint_fixture("waiver", "determinism");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(AaLint, IncludeStyleViolationsAreFlagged) {
  const RunResult result = lint_fixture("include_style", "include-style");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("relative include \"../aa/sibling.hpp\""),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("does not resolve under src/"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("does not start with #pragma once"),
            std::string::npos)
      << result.output;
}

TEST(AaLint, OrphanedDocPageIsFlagged) {
  const RunResult result = lint_fixture("doc_links", "doc-links");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // Directly linked and transitively linked pages are fine; only the
  // orphan is reported.
  EXPECT_NE(result.output.find("docs/ORPHAN.md:0: [doc-links]"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("not reachable from README.md"),
            std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("LINKED.md:"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("CHAINED.md:"), std::string::npos)
      << result.output;
}

TEST(AaLint, NakedMutexIsFlagged) {
  const RunResult result = lint_fixture("naked_mutex", "concurrency");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("naked std::mutex"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("naked std::condition_variable"),
            std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("naked std::lock_guard"), std::string::npos)
      << result.output;
  // The waived declaration on line 15 is not reported.
  EXPECT_EQ(result.output.find("bad.cpp:15"), std::string::npos)
      << result.output;
}

TEST(AaLint, MissingLockOrderCommentIsFlagged) {
  const RunResult result = lint_fixture("lock_order_comment", "concurrency");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("src/svc/bad.hpp:13"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("needs a \"Lock order:\" comment"),
            std::string::npos)
      << result.output;
  // Members documented on the same line or in the block above are fine.
  EXPECT_EQ(result.output.find("bad.hpp:16"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("bad.hpp:18"), std::string::npos)
      << result.output;
}

TEST(AaLint, LockedFunctionWithoutRequiresIsFlagged) {
  const RunResult result = lint_fixture("locked_requires", "concurrency");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("src/svc/bad.hpp:14"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("declared without AA_REQUIRES"),
            std::string::npos)
      << result.output;
  // The annotated declaration and the call site are not reported.
  EXPECT_EQ(result.output.find("bad.hpp:15"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("bad.hpp:19"), std::string::npos)
      << result.output;
}

TEST(AaLint, UnknownCheckIsUsageError) {
  const RunResult result = lint_fixture("float_eq", "bogus-check");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("unknown check"), std::string::npos)
      << result.output;
}

TEST(AaLint, MissingRootIsUsageError) {
  const RunResult result = run(std::string("'") + AA_LINT_BIN + "'");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

/// The header-hygiene compile check: a TU that includes only the header
/// must compile. The build enforces this for every header under src/ via
/// the generated aa_header_selfcheck target; this test proves the
/// mechanism rejects a non-self-contained header and accepts the control.
class HeaderSelfContainment : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("aa_lint_hdr_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  RunResult compile_header_tu(const std::string& header) {
    const fs::path tu = dir_ / "check.cpp";
    std::ofstream out(tu);
    out << "#include \"" << header << "\"\n";
    out.close();
    const std::string include_dir =
        std::string(AA_LINT_FIXTURES) + "/self_contained/src";
    return run(std::string("'") + AA_LINT_CXX + "' -std=c++20 -fsyntax-only "
               "-I '" + include_dir + "' '" + tu.string() + "'");
  }

  fs::path dir_;
};

TEST_F(HeaderSelfContainment, NonSelfContainedHeaderFailsToCompile) {
  const RunResult result = compile_header_tu("aa/needs_context.hpp");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_FALSE(result.output.empty());
}

TEST_F(HeaderSelfContainment, SelfContainedHeaderCompiles) {
  const RunResult result = compile_header_tu("aa/standalone.hpp");
  EXPECT_EQ(result.exit_code, 0) << result.output;
}

}  // namespace
