// perfbench — runs one workload of the repo benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve AA_SERVE --work-dir DIR [--git-sha SHA]
//
// Prints a human-readable report, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The full
// result, with provenance and every figure, is also written to
// DIR/result-<workload>-<seed>-trace<k>.json. Exits 1 when an output check
// failed. perfbench/run.py builds this binary and aa_serve and calls it.

#include <sched.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

/// Every per-layer metric, with its unit; BENCHMARK.json lists the same.
/// A workload that does not run a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"alloc.super_optimal_ms", "ms"},
    {"alloc.super_optimal.bisect_iterations", "count"},
    {"aa.refine.reoptimize_ms", "ms"},
    {"utility.linearize_ms", "ms"},
    {"aa.algorithm2.assign_ms", "ms"},
    {"aa.certify_ms", "ms"},
    {"svc.instance_state.to_instance_us", "us"},
    {"svc.instance_state.delta_us", "us"},
    {"svc.warm_start.solve_ms.cached", "ms"},
    {"svc.warm_start.solve_ms.warm", "ms"},
    {"svc.warm_start.solve_ms.full", "ms"},
    {"svc.warm_start.path_share.cached", "ratio"},
    {"svc.warm_start.path_share.warm", "ratio"},
    {"svc.warm_start.path_share.full", "ratio"},
    {"svc.warm_start.fresh_candidate_used_ratio", "ratio"},
    {"svc.warm_start.migrations_per_solve", "count"},
    {"svc.protocol.parse_us", "us"},
    {"svc.protocol.request_bytes", "bytes"},
    {"support.json.reply_bytes.solve", "bytes"},
    {"support.json.reply_bytes.delta", "bytes"},
    {"support.json.dump_us.solve", "us"},
    {"support.json.parse_us.solve", "us"},
    {"svc.service.inproc_rtt_us", "us"},
    {"svc.service.server_latency_p50_ms", "ms"},
    {"svc.service.server_latency_p99_ms", "ms"},
    {"svc.service.batches", "count"},
    {"svc.service.batch_size_mean", "count"},
    {"svc.service.solves_coalesced", "count"},
    {"svc.service.queue_peak", "count"},
    {"svc.service.transport_share", "ratio"},
    {"svc.server.connect_ms", "ms"},
    {"svc.server.sessions", "count"},
    {"svc.server.fds_per_session", "count"},
    {"svc.server.open_fds", "count"},
    {"bench.client_verify_us", "us"},
    {"bench.trace_overhead_ratio", "ratio"},
    {"bench.layer_reconcile_error", "ratio"},
    {"share.svc.protocol", "ratio"},
    {"share.svc.instance_state", "ratio"},
    {"share.svc.warm_start", "ratio"},
    {"share.alloc", "ratio"},
    {"share.utility", "ratio"},
    {"share.aa.algorithm2", "ratio"},
    {"share.aa.refine", "ratio"},
    {"share.aa.certify", "ratio"},
};

const std::vector<const char*> kEndToEnd = {
    "setup_s",      "ops_per_s",     "latency_p50_ms",
    "solve_p50_ms", "utility_ratio", "peak_rss_mb"};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + quoted(metric.unit) + "}";
  }
  return out + "}";
}

/// Busy jiffies per CPU from /proc/stat (all but idle and iowait).
std::map<int, long long> busy_jiffies() {
  std::map<int, long long> busy;
  std::ifstream stat("/proc/stat");
  std::string line;
  while (std::getline(stat, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 ||
        !std::isdigit(static_cast<unsigned char>(line[3]))) {
      continue;
    }
    std::istringstream fields(line.substr(3));
    int cpu = 0;
    fields >> cpu;
    long long total = 0;
    long long value = 0;
    for (int k = 0; fields >> value; ++k) {
      if (k != 3 && k != 4) total += value;  // Skip idle and iowait.
    }
    busy[cpu] = total;
  }
  return busy;
}

/// Pins this process, and so the aa_serve it spawns, to the allowed CPU that
/// was least busy over the last 200 ms; returns it, or -1 when unpinned.
/// On a shared VM a thread woken on another vCPU waits for the hypervisor
/// to schedule that vCPU: same-binary runs minutes apart measured the drift
/// workload's p50 round trip at 0.025 ms pinned and 0.05 to 0.17 ms
/// unpinned. Pinned, every handoff between client, reader and worker
/// threads is a context switch on one busy CPU, and the figures measure
/// the program rather than the host's load.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  const std::map<int, long long> before = busy_jiffies();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const std::map<int, long long> after = busy_jiffies();
  int best = -1;
  long long best_busy = 0;
  for (const auto& [cpu, busy] : after) {
    if (cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) continue;
    const auto it = before.find(cpu);
    const long long delta = busy - (it == before.end() ? 0 : it->second);
    if (best < 0 || delta <= best_busy) {
      best = cpu;
      best_busy = delta;
    }
  }
  if (best < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? best : -1;
}

Options parse_args(int argc, char** argv, std::string& git_sha) {
  Options options;
  std::map<std::string, std::string> values;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument " + key);
    }
    values[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::invalid_argument("flag without a value");
  const auto need = [&](const char* key) {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::invalid_argument(std::string("missing --") + key);
    }
    return it->second;
  };
  options.workload = need("workload");
  options.seed = std::stoull(need("seed"));
  options.seconds = std::stod(need("seconds"));
  options.trace = need("trace") != "0";
  options.serve_binary = need("serve");
  options.work_dir = need("work-dir");
  git_sha = values.count("git-sha") ? values["git-sha"] : "unknown";
  if (options.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha;
  try {
    options = parse_args(argc, argv, git_sha);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  const int cpu = pin_to_one_cpu();
  const std::string provenance =
      "workload=" + options.workload + " seed=" + std::to_string(options.seed) +
      " seconds=" + number(options.seconds) +
      " trace=" + (options.trace ? "1" : "0") +
      " nproc=" + std::to_string(nproc) + " cpu=" + std::to_string(cpu) +
      " build=" PERFBENCH_BUILD_TYPE +
      " git=" + git_sha;

  Report report;
  try {
    if (options.workload == "svc_drift_n256") {
      perfbench::run_svc_drift(options, report);
    } else if (options.workload == "svc_tenants_cached") {
      perfbench::run_svc_tenants_cached(options, report);
    } else if (options.workload == "solve_n10k") {
      perfbench::run_solve_n10k(options, report);
    } else {
      std::cerr << "perfbench: unknown workload " << options.workload
                << "\n";
      return 2;
    }
  } catch (const std::exception& error) {
    // A dead server or a broken pipe ends the run but still counts.
    ++report.attempted;
    ++report.failed;
    report.problem(std::string("run aborted: ") + error.what());
  }

  std::map<std::string, Metric> end_to_end;
  for (const char* name : kEndToEnd) {
    const auto it = report.end_to_end.find(name);
    if (it == report.end_to_end.end() || !std::isfinite(it->second.value) ||
        it->second.value <= 0.0) {
      report.problem(std::string("end-to-end metric ") + name +
                     " was not measured");
      end_to_end[name] = {0.0, "missing"};
    } else {
      end_to_end[name] = it->second;
    }
  }
  std::map<std::string, Metric> per_layer;
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = report.per_layer.find(name);
    const double value =
        it == report.per_layer.end() ? 0.0 : it->second.value;
    per_layer[name] = {std::isfinite(value) ? value : 0.0, unit};
  }

  const bool correct = report.problems.empty() && report.failed == 0 &&
                       report.attempted > 0;
  std::cout << "perfbench " << provenance << "\n";
  std::cout << "end-to-end:\n";
  for (const auto& [name, metric] : end_to_end) {
    std::cout << "  " << name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  if (options.trace) {
    std::cout << "per-layer (0 where the workload does not run the layer):\n";
    for (const auto& [name, metric] : per_layer) {
      std::cout << "  " << name << " = " << number(metric.value) << " "
                << metric.unit << "\n";
    }
  }
  for (const std::string& line : report.info) std::cout << line << "\n";
  std::cout << "error_rate: " << report.failed << " / " << report.attempted
            << " = "
            << (report.attempted == 0
                    ? 0.0
                    : static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted))
            << "\n";
  std::cout << "checks: " << (correct ? "pass" : "FAIL") << "\n";
  for (const std::string& problem : report.problems) {
    std::cout << "  problem: " << problem << "\n";
  }

  const std::string result_path =
      options.work_dir + "/result-" + options.workload + "-" +
      std::to_string(options.seed) + "-trace" + (options.trace ? "1" : "0") +
      ".json";
  {
    std::ofstream result(result_path, std::ios::out | std::ios::trunc);
    result << "{\"provenance\": {\"workload\": " << quoted(options.workload)
           << ", \"seed\": " << options.seed
           << ", \"seconds\": " << number(options.seconds)
           << ", \"trace\": " << (options.trace ? 1 : 0)
           << ", \"nproc\": " << nproc << ", \"cpu\": " << cpu
           << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
           << ", \"git_sha\": " << quoted(git_sha) << "},\n"
           << " \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << report.attempted
           << ", \"failed\": " << report.failed << ",\n"
           << " \"end_to_end\": " << metrics_json(end_to_end) << ",\n"
           << " \"per_layer\": " << metrics_json(per_layer) << ",\n"
           << " \"notes\": [";
    for (std::size_t i = 0; i < report.info.size(); ++i) {
      result << (i ? ", " : "") << quoted(report.info[i]);
    }
    result << "],\n \"problems\": [";
    for (std::size_t i = 0; i < report.problems.size(); ++i) {
      result << (i ? ", " : "") << quoted(report.problems[i]);
    }
    result << "]}\n";
  }
  std::cout << "result: " << result_path << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": "
            << metrics_json(options.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
