#pragma once

// The benchmark's three workloads (see BENCHMARK.json for why each exists):
//
//   svc_drift_n256      one closed-loop connection to aa_serve, utility
//                       drift with a solve every 8 deltas (warm path).
//   svc_tenants_cached  two pipelined connections over 16 tenants on 2
//                       shards, mostly cached solves, short sessions.
//   solve_n10k          in-process Algorithm 2 + refine + certify at
//                       n = 10^4, rotating over the four Section VII
//                       distributions.
//
// Each run fills a Report: end-to-end metrics (printed with --trace 0),
// per-layer metrics (printed with --trace 1), and informational lines.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  ///< aa_serve to drive.
  std::string work_dir;      ///< Sockets, server logs, span dumps.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< Failed output checks.
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> info;  ///< Extra report lines.

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
  void problem(const std::string& what);
  void note(const std::string& line) { info.push_back(line); }
};

void run_svc_drift(const Options& options, Report& report);
void run_svc_tenants_cached(const Options& options, Report& report);
void run_solve_n10k(const Options& options, Report& report);

}  // namespace perfbench
