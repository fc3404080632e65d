#include "workloads.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "aa/algorithm2.hpp"
#include "aa/certify.hpp"
#include "aa/refine.hpp"
#include "alloc/super_optimal.hpp"
#include "io/instance_io.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "sim/workload.hpp"
#include "socket_client.hpp"
#include "spans.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "svc/instance_state.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"
#include "svc/warm_start.hpp"
#include "utility/generator.hpp"
#include "utility/linearized.hpp"

namespace perfbench {

namespace {

using aa::support::JsonValue;

// The paper's Section VII defaults: m = 8 servers of capacity C = 1000.
constexpr std::size_t kServers = 8;
constexpr aa::util::Resource kCapacity = 1000;
// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Throughput windows per run; ops_per_s is their median.
constexpr int kWindows = 10;
// A reply that takes longer than this counts as missing.
constexpr int kReplyTimeoutMs = 10000;
// Solve reply lines kept for the traced JSON parse/dump timings.
constexpr std::size_t kReplySamples = 1000;
// Spans written out per traced run (the aggregate covers all of them).
constexpr std::size_t kSpanDumpLimit = 20000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return aa::support::quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::string fixed(double value, int digits = 4) {
  std::ostringstream out;
  out.precision(digits);
  out << std::fixed << value;
  return out.str();
}

/// The quantile of `samples`, or nullopt when fewer than 10 samples lie
/// beyond it (too few to say anything about that tail).
std::optional<double> supported_quantile(const std::vector<double>& samples,
                                         double q) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (samples.empty() || beyond < 10.0) return std::nullopt;
  return aa::support::quantile(samples, q);
}

/// "<prefix>_p50_ms 1.2 ms, <prefix>_p90_ms ..., <prefix>_p99_ms ... (n=N)",
/// with n/a for a tail that has fewer than 10 samples beyond it.
std::string latency_line(const std::string& prefix,
                         const std::vector<double>& samples) {
  std::string line;
  for (const auto& [name, q] :
       {std::pair<const char*, double>{"p50", 0.5}, {"p90", 0.9},
        {"p99", 0.99}}) {
    line += line.empty() ? "" : ", ";
    line += prefix;
    line += '_';
    line += name;
    line += "_ms ";
    const std::optional<double> value = supported_quantile(samples, q);
    line += value ? fixed(*value) + " ms" : std::string("n/a");
  }
  return line + " (n=" + std::to_string(samples.size()) + ")";
}

aa::support::DistributionParams section_vii_distribution(std::size_t k) {
  aa::support::DistributionParams params;
  switch (k % 4) {
    case 0: params.kind = aa::support::DistributionKind::kUniform; break;
    case 1: params.kind = aa::support::DistributionKind::kNormal; break;
    case 2: params.kind = aa::support::DistributionKind::kPowerLaw; break;
    default: params.kind = aa::support::DistributionKind::kDiscrete; break;
  }
  return params;
}

const char* distribution_name(std::size_t k) {
  static const char* const names[] = {"uniform", "normal", "power_law",
                                      "discrete"};
  return names[k % 4];
}

/// `add_thread` lines whose utilities come from the paper's generator,
/// cycling through the four Section VII distributions.
std::vector<std::string> make_add_lines(std::size_t count,
                                        aa::support::Rng& rng,
                                        const std::string& tenant) {
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const aa::util::UtilityPtr utility = aa::util::generate_utility(
        kCapacity, section_vii_distribution(i), rng);
    JsonValue request;
    request.set("op", "add_thread");
    if (!tenant.empty()) request.set("tenant", tenant);
    request.set("thread", aa::io::utility_to_json(*utility));
    lines.push_back(request.dump());
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Reply checks.

// What a request was, for checking its reply: deltas are remove_thread and
// update_utility, admin is control traffic.
enum class Kind { kAdd, kDelta, kSolve, kAdmin };

struct Sent {
  Kind kind = Kind::kAdmin;
  std::uint64_t expect_id = 0;  ///< add_thread: the id the server must give.
  Clock::time_point at{};
  std::size_t bytes = 0;
};

struct SolveSeen {
  std::string path;
  double utility = 0.0;
  double f_hat = 0.0;
  std::size_t migrations = 0;
  double solve_ms = 0.0;
};

/// Checks one parsed reply. Returns an empty string when it passes, else
/// what is wrong. Solve replies fill `solve`.
std::string check_reply(const JsonValue& reply, const std::string& line,
                        const Sent& sent, SolveSeen& solve) {
  try {
    if (!reply.at("ok").as_bool()) return "error reply: " + line;
    if (sent.kind == Kind::kAdd && sent.expect_id != 0 &&
        static_cast<std::uint64_t>(reply.at("id").as_int()) !=
            sent.expect_id) {
      return "add_thread got an unexpected id: " + line.substr(0, 200);
    }
    if (sent.kind == Kind::kSolve) {
      if (!reply.at("certificate_ok").as_bool()) {
        return "solve without a passing certificate: " + line.substr(0, 300);
      }
      solve.path = reply.at("path").as_string();
      solve.utility = reply.at("utility").as_number();
      solve.f_hat = reply.at("super_optimal_utility").as_number();
      solve.migrations =
          static_cast<std::size_t>(reply.at("migrations").as_int());
      solve.solve_ms = reply.at("solve_ms").as_number();
    }
    return {};
  } catch (const std::exception& error) {
    return std::string("malformed reply (") + error.what() + "): " +
           line.substr(0, 200);
  }
}

/// What the replies of one run said. Every reply goes through record(),
/// after its latency was taken.
struct ReplyTally {
  std::vector<double> latency_ms;
  std::vector<double> solve_latency_ms;
  std::vector<double> verify_us;
  std::map<std::string, std::vector<double>> solve_ms_by_path;
  double utility_ratio_sum = 0.0;
  std::size_t solves = 0;
  std::size_t migrations = 0;
  double request_bytes = 0.0;
  std::size_t requests = 0;
  double solve_reply_bytes = 0.0;
  double delta_reply_bytes = 0.0;
  std::size_t delta_replies = 0;
  std::vector<std::string> solve_samples;
  std::vector<SolveSeen> solve_log;  ///< Every solve, in reply order.

  /// Checks `line`, the reply to `sent`, whose parse began at
  /// `verify_start` (`reply` is null when it did not parse).
  void record(const JsonValue* reply, const std::string& line,
              const Sent& sent, double latency,
              Clock::time_point verify_start, Report& report) {
    SolveSeen solve;
    const std::string problem =
        reply == nullptr ? "unparseable reply: " + line.substr(0, 200)
                         : check_reply(*reply, line, sent, solve);
    verify_us.push_back(ms_between(verify_start, Clock::now()) * 1000.0);
    ++requests;
    request_bytes += static_cast<double>(sent.bytes);
    if (!problem.empty()) {
      ++report.failed;
      report.problem(problem);
      return;
    }
    latency_ms.push_back(latency);
    if (sent.kind == Kind::kSolve) {
      solve_latency_ms.push_back(latency);
      ++solves;
      migrations += solve.migrations;
      utility_ratio_sum += solve.utility / solve.f_hat;
      solve_ms_by_path[solve.path].push_back(solve.solve_ms);
      solve_reply_bytes += static_cast<double>(line.size());
      if (solve_samples.size() < kReplySamples) solve_samples.push_back(line);
      solve_log.push_back(std::move(solve));
    } else if (sent.kind != Kind::kAdmin) {
      delta_reply_bytes += static_cast<double>(line.size());
      ++delta_replies;
    }
  }

  /// Parses and records a reply that needs no lookup by tag.
  void record_line(const std::string& line, const Sent& sent, double latency,
                   Report& report) {
    const Clock::time_point start = Clock::now();
    std::optional<JsonValue> reply;
    try {
      reply = aa::support::json_parse(line);
    } catch (const std::exception&) {
    }
    record(reply ? &*reply : nullptr, line, sent, latency, start, report);
  }
};

/// Splits [start, start + seconds) into kWindows throughput windows.
struct Windows {
  Clock::time_point start;
  double seconds;
  std::vector<double> counts = std::vector<double>(kWindows, 0.0);

  void count(Clock::time_point at) {
    const double offset =
        std::chrono::duration<double>(at - start).count() / seconds;
    const int index = static_cast<int>(offset * kWindows);
    if (index >= 0 && index < kWindows) counts[index] += 1.0;
  }
  [[nodiscard]] double median_rate() const {
    std::vector<double> rates;
    for (const double c : counts) rates.push_back(c / (seconds / kWindows));
    return median(rates);
  }
};

// ---------------------------------------------------------------------------
// The in-process replay: the same request lines through the layers' public
// functions, with spans around each call when a tracer is given.

struct ReplayTenant {
  aa::svc::InstanceState state{kServers, kCapacity};
  aa::svc::WarmStartSolver solver;
  bool solved_before = false;
  std::uint64_t solved_version = 0;
};

using SolveCapacities = std::map<std::string, aa::util::Resource>;

class Replay {
 public:
  /// `solve_capacity`: tenants whose fairness slice is below the capacity.
  explicit Replay(Tracer* tracer, const SolveCapacities& solve_capacity = {})
      : tracer_(tracer) {
    for (const auto& [tenant, capacity] : solve_capacity) {
      tenants_[tenant].state.set_solve_capacity(capacity);
    }
  }

  /// Applies one request line. Solves return what the solver decided.
  std::optional<SolveSeen> apply(const std::string& line) {
    aa::svc::Request request;
    {
      const ScopedSpan span(tracer_, "svc.protocol");
      request = aa::svc::parse_request(line, kCapacity);
    }
    if (request.op == aa::svc::Op::kTenantCreate) {
      (void)tenants_[request.tenant];
      return std::nullopt;
    }
    ReplayTenant& tenant =
        tenants_[request.tenant.empty() ? "default" : request.tenant];
    switch (request.op) {
      case aa::svc::Op::kAddThread: {
        const ScopedSpan span(tracer_, "svc.instance_state");
        (void)tenant.state.add_thread(request.utility);
        return std::nullopt;
      }
      case aa::svc::Op::kRemoveThread: {
        const ScopedSpan span(tracer_, "svc.instance_state");
        (void)tenant.state.remove_thread(*request.id);
        return std::nullopt;
      }
      case aa::svc::Op::kUpdateUtility: {
        const ScopedSpan span(tracer_, "svc.instance_state");
        if (request.factor) {
          (void)tenant.state.scale_utility(*request.id, *request.factor);
        } else {
          (void)tenant.state.update_utility(*request.id, request.utility);
        }
        return std::nullopt;
      }
      case aa::svc::Op::kSolve:
        return solve(tenant, request.full_solve);
      default:
        return std::nullopt;
    }
  }

  std::size_t warm_attempts = 0;
  std::size_t warm_attempts_full = 0;

 private:
  SolveSeen solve(ReplayTenant& tenant, bool force_full) {
    const std::uint64_t version = tenant.state.version();
    const std::size_t n = tenant.state.num_threads();
    // WarmStartSolver's rule for trying the warm path, with the
    // WarmStartConfig defaults aa_serve also runs with.
    const aa::svc::WarmStartConfig config;
    const double limit =
        std::max(static_cast<double>(config.resolve_delta_min),
                 config.resolve_delta_fraction * static_cast<double>(n));
    const bool changed = force_full || !tenant.solved_before ||
                         version != tenant.solved_version;
    const bool warm_attempt =
        changed && !force_full && tenant.solved_before && n > 0 &&
        static_cast<double>(version - tenant.solved_version) <= limit;
    // Probes: the calls WarmStartSolver::solve makes internally but the
    // program does not time, repeated here on the same inputs so their
    // per-call cost is known. They are not part of any layer's self time.
    std::optional<aa::core::Instance> instance;
    if (tracer_ != nullptr && changed && n > 0) {
      const ScopedSpan span(tracer_, "probe:svc.instance_state.to_instance");
      instance = tenant.state.to_instance();
    }
    aa::svc::ServiceSolveResult solved;
    {
      const ScopedSpan span(tracer_, "svc.warm_start");
      solved = tenant.solver.solve(tenant.state, force_full);
    }
    if (instance) {
      {
        const ScopedSpan span(tracer_, "probe:utility.linearize");
        (void)aa::util::linearize(instance->threads, solved.result.c_hat);
      }
      const ScopedSpan span(tracer_, "probe:aa.certify");
      (void)aa::core::certify(*instance, solved.result, "perfbench",
                              aa::core::CertifyOptions{false});
    }
    tenant.solved_before = true;
    tenant.solved_version = version;
    SolveSeen seen;
    seen.path = aa::svc::solve_path_name(solved.path);
    seen.utility = solved.result.utility;
    seen.f_hat = solved.result.super_optimal_utility;
    seen.migrations = solved.migrations;
    if (warm_attempt) {
      ++warm_attempts;
      if (solved.path == aa::svc::SolvePath::kFull) ++warm_attempts_full;
    }
    return seen;
  }

  Tracer* tracer_;
  std::map<std::string, ReplayTenant> tenants_;
};

/// Replays `lines`; with `expected`, checks that every solve matches it bit
/// for bit (path, utility, migrations). Returns the mismatch count.
std::size_t replay_stream(Replay& replay, const std::vector<std::string>& lines,
                          const std::vector<SolveSeen>* expected,
                          Report& report) {
  std::size_t solve_index = 0;
  std::size_t mismatches = 0;
  for (const std::string& line : lines) {
    const std::optional<SolveSeen> seen = replay.apply(line);
    if (!seen || expected == nullptr) continue;
    if (solve_index >= expected->size()) {
      ++mismatches;
      continue;
    }
    const SolveSeen& want = (*expected)[solve_index++];
    if (seen->path != want.path || seen->utility != want.utility ||
        seen->migrations != want.migrations) {
      if (mismatches == 0) {
        report.problem("replay solve " + std::to_string(solve_index) +
                       " differs: server " + want.path + " " +
                       fixed(want.utility, 17) + " migrations " +
                       std::to_string(want.migrations) + ", replay " +
                       seen->path + " " + fixed(seen->utility, 17) + " " +
                       std::to_string(seen->migrations));
      }
      ++mismatches;
    }
  }
  if (expected != nullptr && solve_index != expected->size()) ++mismatches;
  return mismatches;
}

// ---------------------------------------------------------------------------
// Per-layer report.

/// Layers whose self time is shared out, in pipeline order.
const char* const kShareLayers[] = {
    "svc.protocol", "svc.instance_state", "svc.warm_start", "alloc",
    "utility",      "aa.algorithm2",      "aa.refine",      "aa.certify"};

double per_call_us(const std::map<std::string, LayerTotals>& totals,
                   const std::string& layer) {
  const auto it = totals.find(layer);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return it->second.total_us / static_cast<double>(it->second.calls);
}

/// Solver phases the program times itself (obs phase timers) inside a call
/// the benchmark cannot split: booked as children of `parent`.
void add_program_phases(const aa::obs::Session& session, Tracer& tracer,
                        const char* parent) {
  const aa::obs::Metrics metrics = session.metrics();
  const std::pair<std::string_view, const char*> phases[] = {
      {aa::obs::metric::kPhaseSuperOptimal, "alloc"},
      {aa::obs::metric::kPhaseLinearize, "utility"},
      {aa::obs::metric::kPhaseAlg2Assign, "aa.algorithm2"},
      {aa::obs::metric::kPhaseRefineReoptimize, "aa.refine"}};
  for (const auto& [phase, layer] : phases) {
    if (const aa::obs::TimerStat* timer = metrics.timer(phase)) {
      const double count = static_cast<double>(timer->wall_ms.count());
      tracer.add_nested(parent, layer, timer->wall_ms.mean() * count * 1000.0,
                        timer->wall_ms.count());
    }
  }
}

double bisect_iterations_per_call(const aa::obs::Session& session) {
  const aa::obs::Metrics metrics = session.metrics();
  const std::int64_t calls =
      metrics.counter(aa::obs::metric::kSuperOptimalCalls);
  return calls == 0 ? 0.0
                    : static_cast<double>(metrics.counter(
                          aa::obs::metric::kSuperOptimalBisectIterations)) /
                          static_cast<double>(calls);
}

/// Per-call layer times and self-time shares from a traced run.
void report_layers(const Tracer& tracer, Report& report) {
  const std::map<std::string, LayerTotals> totals = tracer.totals();
  const auto probe_or = [&](const char* layer, const char* probe) {
    const double direct = per_call_us(totals, layer);
    return direct > 0.0 && totals.count(probe) == 0
               ? direct
               : per_call_us(totals, probe);
  };
  report.layer("alloc.super_optimal_ms", per_call_us(totals, "alloc") / 1e3,
               "ms");
  report.layer("utility.linearize_ms",
               probe_or("utility", "probe:utility.linearize") / 1e3, "ms");
  report.layer("aa.algorithm2.assign_ms",
               per_call_us(totals, "aa.algorithm2") / 1e3, "ms");
  report.layer("aa.refine.reoptimize_ms",
               per_call_us(totals, "aa.refine") / 1e3, "ms");
  report.layer("aa.certify_ms",
               probe_or("aa.certify", "probe:aa.certify") / 1e3, "ms");
  report.layer("svc.instance_state.to_instance_us",
               per_call_us(totals, "probe:svc.instance_state.to_instance"),
               "us");
  report.layer("svc.instance_state.delta_us",
               per_call_us(totals, "svc.instance_state"), "us");
  report.layer("svc.protocol.parse_us", per_call_us(totals, "svc.protocol"),
               "us");
  report.layer("support.json.parse_us.solve",
               per_call_us(totals, "support.json.parse"), "us");
  report.layer("support.json.dump_us.solve",
               per_call_us(totals, "support.json.dump"), "us");
  report.layer("svc.service.inproc_rtt_us",
               per_call_us(totals, "svc.service.request"), "us");

  double self_total = 0.0;
  for (const char* layer : kShareLayers) {
    const auto it = totals.find(layer);
    if (it != totals.end()) self_total += it->second.self_us;
  }
  report.note("layer self time (traced run; probes excluded):");
  for (const char* layer : kShareLayers) {
    const auto it = totals.find(layer);
    const LayerTotals empty;
    const LayerTotals& t = it == totals.end() ? empty : it->second;
    const double share = self_total > 0.0 ? t.self_us / self_total : 0.0;
    report.layer(std::string("share.") + layer, share, "ratio");
    report.note("  " + std::string(layer) + ": self " +
                fixed(t.self_us / 1e3, 3) + " ms, share " +
                fixed(100.0 * share, 2) + "%, calls " +
                std::to_string(t.calls));
  }
  for (const auto& [name, t] : totals) {
    if (name.rfind("probe:", 0) == 0) {
      report.note("  " + name + ": " + fixed(t.total_us / 1e3, 3) +
                  " ms over " + std::to_string(t.calls) + " calls");
    }
  }
}

/// Writes the spans of a traced run beside the server logs.
void dump_spans(const Tracer& tracer, const Options& options,
                Report& report) {
  const std::string path = options.work_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  tracer.write_jsonl(path, kSpanDumpLimit);
  report.note("spans: " + std::to_string(tracer.size()) + " recorded, " +
              path);
}

/// support.json parse and dump of the run's own solve replies, one span
/// each; the dump must give back the line the server sent.
void trace_json_layer(const ReplyTally& tally, Tracer& tracer,
                      Report& report) {
  for (const std::string& line : tally.solve_samples) {
    JsonValue value;
    {
      const ScopedSpan span(&tracer, "support.json.parse");
      value = aa::support::json_parse(line);
    }
    std::string text;
    {
      const ScopedSpan span(&tracer, "support.json.dump");
      text = value.dump();
    }
    if (text != line) {
      report.problem("support.json does not round-trip a solve reply");
    }
  }
}

// ---------------------------------------------------------------------------
// Driving aa_serve.

struct ServerStats {
  double batches = 0.0;
  double batch_size_mean = 0.0;
  double solves_coalesced = 0.0;
  double queue_peak = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
};

ServerStats parse_stats(const std::string& line, Report& report) {
  ServerStats stats;
  try {
    const JsonValue reply = aa::support::json_parse(line);
    stats.batches = reply.at("batches").as_number();
    stats.batch_size_mean = reply.at("batching").at("mean_size").as_number();
    stats.solves_coalesced = reply.at("solves").at("coalesced").as_number();
    stats.queue_peak = reply.at("queue_peak").as_number();
    const JsonValue& latency = reply.at("request_latency");
    stats.latency_p50_ms = latency.at("p50_ms").as_number();
    stats.latency_p99_ms = latency.at("p99_ms").as_number();
    stats.latency_mean_ms = latency.at("mean_ms").as_number();
  } catch (const std::exception& error) {
    report.problem(std::string("stats reply unreadable: ") + error.what());
  }
  return stats;
}

std::vector<std::string> server_args(const std::string& socket_path,
                                     const std::vector<std::string>& extra) {
  std::vector<std::string> args = {"--socket", socket_path, "--servers",
                                   std::to_string(kServers), "--capacity",
                                   std::to_string(kCapacity)};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

/// Sends one line and waits for its reply, counting the attempt and any
/// failure. Returns the reply text and its latency.
std::optional<std::string> round_trip(Connection& connection,
                                      const std::string& line,
                                      double* latency_ms, Report& report) {
  ++report.attempted;
  const Clock::time_point start = Clock::now();
  Clock::time_point arrived{};
  std::optional<std::string> reply;
  if (connection.send(line)) {
    reply = connection.read_line(kReplyTimeoutMs, &arrived);
  }
  if (!reply) {
    ++report.failed;
    report.problem(connection.eof() ? "server closed the connection"
                                    : "no reply within the timeout");
    return std::nullopt;
  }
  if (latency_ms != nullptr) *latency_ms = ms_between(start, arrived);
  return reply;
}

/// Round trip whose reply must be ok (set-up and control traffic).
std::optional<JsonValue> checked_round_trip(Connection& connection,
                                            const std::string& line,
                                            const Sent& sent,
                                            Report& report) {
  const std::optional<std::string> text =
      round_trip(connection, line, nullptr, report);
  if (!text) return std::nullopt;
  try {
    JsonValue reply = aa::support::json_parse(*text);
    SolveSeen ignored;
    const std::string problem = check_reply(reply, *text, sent, ignored);
    if (problem.empty()) return reply;
    report.problem(problem);
  } catch (const std::exception& error) {
    report.problem(std::string("unparseable reply: ") + error.what());
  }
  ++report.failed;
  return std::nullopt;
}

/// One launched server with its set-up connection.
struct Launched {
  std::unique_ptr<ServerProcess> process;
  std::unique_ptr<Connection> connection;
  std::string socket_path;
  double setup_s = 0.0;
};

/// Launches aa_serve, replays the set-up lines (each must succeed) and
/// times the whole of it.
Launched launch(const Options& options, int index,
                const std::vector<std::string>& extra_args,
                const std::vector<std::pair<std::string, Sent>>& setup,
                Report& report) {
  Launched launched;
  launched.socket_path = options.work_dir + "/aa-" +
                         std::to_string(::getpid()) + "-" +
                         std::to_string(index) + ".sock";
  const Clock::time_point start = Clock::now();
  launched.process = std::make_unique<ServerProcess>(
      options.serve_binary, server_args(launched.socket_path, extra_args),
      options.work_dir + "/aa_serve.log");
  launched.connection =
      std::make_unique<Connection>(launched.socket_path, 10000);
  for (const auto& [line, sent] : setup) {
    if (!checked_round_trip(*launched.connection, line, sent, report)) break;
  }
  launched.setup_s = seconds_since(start);
  return launched;
}

/// Asks the server to shut down and reaps it.
void shut_down(Launched& launched, Report& report) {
  try {
    if (!launched.connection) {
      launched.connection =
          std::make_unique<Connection>(launched.socket_path, 2000);
    }
    (void)checked_round_trip(*launched.connection, R"({"op":"shutdown"})",
                             Sent{}, report);
  } catch (const std::exception& error) {
    ++report.attempted;
    ++report.failed;
    report.problem(std::string("shutdown: ") + error.what());
  }
  launched.connection.reset();
  if (launched.process->wait_exit(20.0) != 0) {
    report.problem("aa_serve did not exit cleanly after shutdown");
  }
}

/// Launches kSetupRepeats servers; keeps the last, reports setup_s.
Launched launch_repeated(const Options& options,
                         const std::vector<std::string>& extra_args,
                         const std::vector<std::pair<std::string, Sent>>& setup,
                         Report& report) {
  std::vector<double> setups;
  Launched kept;
  for (int k = 0; k < kSetupRepeats; ++k) {
    Launched launched = launch(options, k, extra_args, setup, report);
    setups.push_back(launched.setup_s);
    if (k + 1 < kSetupRepeats) {
      shut_down(launched, report);
    } else {
      kept = std::move(launched);
    }
  }
  report.e2e("setup_s", median(setups), "s");
  std::string samples = "setup_s samples:";
  for (const double setup : setups) {
    samples += ' ';
    samples += fixed(setup);
  }
  report.note(samples + " s");
  return kept;
}

/// Reads the server's own figures at run end: the stats verb, memory and
/// descriptors. Fills the end-to-end and per-layer metrics they feed.
void read_server_side(Launched& launched, Connection& connection,
                      const ReplyTally& tally, std::size_t fds_before,
                      std::size_t sessions, Report& report) {
  ServerStats stats;
  if (const std::optional<std::string> line =
          round_trip(connection, R"({"op":"stats"})", nullptr, report)) {
    stats = parse_stats(*line, report);
  }
  const pid_t pid = launched.process->pid();
  const double hwm_mb = proc_status_kb(pid, "VmHWM") / 1024.0;
  const std::size_t fds = proc_open_fds(pid);
  report.e2e("peak_rss_mb", hwm_mb, "MB");
  report.note("open_fds: " + std::to_string(fds) + " (aa_serve at run end)");
  report.layer("svc.server.open_fds", static_cast<double>(fds), "count");
  report.layer("svc.server.sessions", static_cast<double>(sessions), "count");
  report.layer("svc.server.fds_per_session",
               sessions == 0 ? 0.0
                             : (static_cast<double>(fds) -
                                static_cast<double>(fds_before)) /
                                   static_cast<double>(sessions),
               "count");
  report.layer("svc.service.batches", stats.batches, "count");
  report.layer("svc.service.batch_size_mean", stats.batch_size_mean, "count");
  report.layer("svc.service.solves_coalesced", stats.solves_coalesced,
               "count");
  report.layer("svc.service.queue_peak", stats.queue_peak, "count");
  report.layer("svc.service.server_latency_p50_ms", stats.latency_p50_ms,
               "ms");
  report.layer("svc.service.server_latency_p99_ms", stats.latency_p99_ms,
               "ms");
  // Client round trip against the server's own enqueue-to-reply time; the
  // rest is the socket, the reader thread and delivery. Means, because the
  // server's quantiles are log2-bucketed.
  const double client_mean = mean(tally.latency_ms);
  report.layer("svc.service.transport_share",
               client_mean > 0.0
                   ? std::max(0.0, 1.0 - stats.latency_mean_ms / client_mean)
                   : 0.0,
               "ratio");
}

/// End-to-end metrics every socket workload reports from its reply tally,
/// plus the reply-derived layer metrics.
void report_replies(const ReplyTally& tally, const Windows& windows,
                    Report& report) {
  report.e2e("ops_per_s", windows.median_rate(), "1/s");
  std::string rates = "ops_per_s by window:";
  for (const double count : windows.counts) {
    rates += " " + fixed(count / (windows.seconds / kWindows), 1);
  }
  report.note(rates);
  report.e2e("latency_p50_ms", median(tally.latency_ms), "ms");
  report.e2e("solve_p50_ms", median(tally.solve_latency_ms), "ms");
  report.e2e("utility_ratio",
             tally.solves == 0 ? 0.0
                               : tally.utility_ratio_sum /
                                     static_cast<double>(tally.solves),
             "ratio");
  report.note(latency_line("latency", tally.latency_ms));
  report.note(latency_line("solve", tally.solve_latency_ms));
  report.note("migrations_per_solve: " +
              fixed(tally.solves == 0
                        ? 0.0
                        : static_cast<double>(tally.migrations) /
                              static_cast<double>(tally.solves)));
  report.layer("svc.warm_start.migrations_per_solve",
               tally.solves == 0 ? 0.0
                                 : static_cast<double>(tally.migrations) /
                                       static_cast<double>(tally.solves),
               "count");
  for (const char* path : {"cached", "warm", "full"}) {
    const auto it = tally.solve_ms_by_path.find(path);
    const std::size_t count =
        it == tally.solve_ms_by_path.end() ? 0 : it->second.size();
    report.layer(std::string("svc.warm_start.solve_ms.") + path,
                 count == 0 ? 0.0 : median(it->second), "ms");
    report.layer(std::string("svc.warm_start.path_share.") + path,
                 tally.solves == 0 ? 0.0
                                   : static_cast<double>(count) /
                                         static_cast<double>(tally.solves),
                 "ratio");
  }
  report.layer("svc.protocol.request_bytes",
               tally.requests == 0
                   ? 0.0
                   : tally.request_bytes / static_cast<double>(tally.requests),
               "bytes");
  report.layer("support.json.reply_bytes.solve",
               tally.solves == 0 ? 0.0
                                 : tally.solve_reply_bytes /
                                       static_cast<double>(tally.solves),
               "bytes");
  report.layer("support.json.reply_bytes.delta",
               tally.delta_replies == 0
                   ? 0.0
                   : tally.delta_reply_bytes /
                         static_cast<double>(tally.delta_replies),
               "bytes");
  report.layer("bench.client_verify_us", mean(tally.verify_us), "us");
}

/// Service::request over the same lines in-process: set-up untraced, the
/// measured stream one span per request.
void trace_inproc_service(const aa::svc::ServiceConfig& config,
                          const std::vector<std::string>& setup_lines,
                          const std::vector<std::string>& measured_lines,
                          Tracer& tracer) {
  aa::svc::Service service(config);
  service.start();
  for (const std::string& line : setup_lines) (void)service.request(line);
  for (const std::string& line : measured_lines) {
    const ScopedSpan span(&tracer, "svc.service.request");
    (void)service.request(line);
  }
  service.stop();
}

aa::svc::ServiceConfig service_config(std::size_t shards) {
  aa::svc::ServiceConfig config;  // aa_serve's defaults otherwise.
  config.num_servers = kServers;
  config.capacity = kCapacity;
  config.shards = shards;
  return config;
}

std::vector<std::string> first_of(
    const std::vector<std::pair<std::string, Sent>>& pairs) {
  std::vector<std::string> out;
  out.reserve(pairs.size());
  for (const auto& pair : pairs) out.push_back(pair.first);
  return out;
}

/// The traced half of a socket workload: the run's lines replayed with
/// spans (the program's phase timers split WarmStartSolver::solve), the
/// JSON layer on the run's own replies, and Service::request in-process.
/// Only the replay's layers enter the self-time shares; the JSON and
/// Service::request spans are separate passes over the same traffic.
/// `untraced_s` is an untraced replay's time over the same lines.
void report_socket_layers(const Options& options,
                          const std::vector<std::string>& setup_lines,
                          const std::vector<std::string>& measured,
                          const SolveCapacities& solve_capacity,
                          double untraced_s, std::size_t shards,
                          const ReplyTally& tally, Report& report) {
  std::vector<std::string> lines = setup_lines;
  lines.insert(lines.end(), measured.begin(), measured.end());
  Tracer tracer;
  Replay traced(&tracer, solve_capacity);
  {
    aa::obs::Session session;
    const Clock::time_point start = Clock::now();
    (void)replay_stream(traced, lines, nullptr, report);
    report.layer("bench.trace_overhead_ratio",
                 seconds_since(start) / untraced_s, "ratio");
    add_program_phases(session, tracer, "svc.warm_start");
    report.layer("alloc.super_optimal.bisect_iterations",
                 bisect_iterations_per_call(session), "count");
  }
  report.layer("svc.warm_start.fresh_candidate_used_ratio",
               traced.warm_attempts == 0
                   ? 0.0
                   : static_cast<double>(traced.warm_attempts_full) /
                         static_cast<double>(traced.warm_attempts),
               "ratio");
  trace_json_layer(tally, tracer, report);
  trace_inproc_service(service_config(shards), setup_lines, measured, tracer);
  report_layers(tracer, report);
  dump_spans(tracer, options, report);
}

// ---------------------------------------------------------------------------
// svc_drift_n256.

constexpr std::size_t kDriftThreads = 256;
constexpr std::size_t kDriftDeltasPerSolve = 8;
// One delta in 16 starts an add/remove pair (the add now, a remove of a
// random thread as the next delta), so n stays near 256.
constexpr double kDriftChurn = 1.0 / 16.0;

/// The drift request stream. Thread ids are predicted (the server numbers
/// a tenant's threads 1, 2, ... and never reuses one), so the stream does
/// not depend on reply contents.
class DriftStream {
 public:
  explicit DriftStream(std::uint64_t seed)
      : rng_(aa::support::Rng::child(seed, 1)) {
    initial_ = make_add_lines(kDriftThreads, rng_, "");
    add_pool_ = make_add_lines(512, rng_, "");
    for (std::uint64_t id = 1; id <= kDriftThreads; ++id) live_.push_back(id);
    next_id_ = kDriftThreads + 1;
  }

  /// The 256 adds and the first solve.
  [[nodiscard]] std::vector<std::pair<std::string, Sent>> setup() const {
    std::vector<std::pair<std::string, Sent>> out;
    for (std::size_t i = 0; i < initial_.size(); ++i) {
      out.push_back({initial_[i], Sent{Kind::kAdd, i + 1, {}, 0}});
    }
    out.push_back({R"({"op":"solve"})", Sent{Kind::kSolve, 0, {}, 0}});
    return out;
  }

  std::pair<std::string, Sent> next() {
    if (++position_ % (kDriftDeltasPerSolve + 1) == 0) {
      return {R"({"op":"solve"})", Sent{Kind::kSolve, 0, {}, 0}};
    }
    if (pending_remove_) {
      pending_remove_ = false;
      const std::size_t pick = rng_.uniform_below(live_.size());
      const std::uint64_t id = live_[pick];
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(pick));
      JsonValue request;
      request.set("op", "remove_thread");
      request.set("id", static_cast<std::int64_t>(id));
      return {request.dump(), Sent{Kind::kDelta, 0, {}, 0}};
    }
    if (rng_.uniform01() < kDriftChurn) {
      pending_remove_ = true;
      const std::uint64_t id = next_id_++;
      live_.push_back(id);
      const std::string& line = add_pool_[adds_++ % add_pool_.size()];
      return {line, Sent{Kind::kAdd, id, {}, 0}};
    }
    JsonValue request;
    request.set("op", "update_utility");
    request.set("id", static_cast<std::int64_t>(
                          live_[rng_.uniform_below(live_.size())]));
    request.set("factor", 0.8 + 0.45 * rng_.uniform01());
    return {request.dump(), Sent{Kind::kDelta, 0, {}, 0}};
  }

 private:
  aa::support::Rng rng_;
  std::vector<std::string> initial_;
  std::vector<std::string> add_pool_;
  std::vector<std::uint64_t> live_;
  std::uint64_t next_id_ = 1;
  std::uint64_t position_ = 0;
  std::size_t adds_ = 0;
  bool pending_remove_ = false;
};

// ---------------------------------------------------------------------------
// svc_tenants_cached.

constexpr std::size_t kTenants = 16;
constexpr std::size_t kTenantThreads = 64;
constexpr std::size_t kCachedConnections = 2;
constexpr std::size_t kCachedShards = 2;
// Requests each connection keeps in flight.
constexpr std::size_t kWindow = 4;
// Requests per session before the client reconnects.
constexpr std::size_t kSessionRequests = 48;
// One request in 16 is a drift delta; the rest are solves.
constexpr double kCachedDeltaShare = 1.0 / 16.0;

std::string tenant_id(std::size_t index) {
  return "t" + std::to_string(index / 10) + std::to_string(index % 10);
}

/// Zipf(1) over a connection's tenants, by inverse CDF.
class Zipf {
 public:
  explicit Zipf(std::size_t n) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(total);
    }
    for (double& value : cdf_) value /= total;
  }
  std::size_t sample(aa::support::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform01());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct CachedClient {
  std::size_t index = 0;
  aa::support::Rng rng{0};
  std::unique_ptr<Connection> connection;
  std::unordered_map<std::string, Sent> in_flight;
  std::size_t session_sent = 0;
  std::uint64_t sequence = 0;

  /// The tag of the latest request, "c<connection>-<sequence>".
  [[nodiscard]] std::string tag() const {
    std::string out = "c";
    out += std::to_string(index);
    out += '-';
    out += std::to_string(sequence);
    return out;
  }

  std::pair<std::string, Sent> next(const Zipf& zipf) {
    const std::size_t tenant =
        index * (kTenants / kCachedConnections) + zipf.sample(rng);
    ++sequence;
    JsonValue request;
    Sent sent;
    if (rng.uniform01() < kCachedDeltaShare) {
      request.set("op", "update_utility");
      request.set("tenant", tenant_id(tenant));
      request.set("id", static_cast<std::int64_t>(
                            1 + rng.uniform_below(kTenantThreads)));
      request.set("factor", 0.8 + 0.45 * rng.uniform01());
      sent.kind = Kind::kDelta;
    } else {
      request.set("op", "solve");
      request.set("tenant", tenant_id(tenant));
      sent.kind = Kind::kSolve;
    }
    request.set("tag", tag());
    return {request.dump(), sent};
  }
};

}  // namespace

void Report::problem(const std::string& what) {
  if (problems.size() < 20) problems.push_back(what);
}

void run_svc_drift(const Options& options, Report& report) {
  DriftStream stream(options.seed);
  const std::vector<std::pair<std::string, Sent>> setup = stream.setup();
  Launched server = launch_repeated(options, {}, setup, report);
  Connection& connection = *server.connection;
  const std::size_t fds_before = proc_open_fds(server.process->pid());

  ReplyTally tally;
  std::vector<std::string> measured;
  Windows windows{Clock::now(), options.seconds};
  const Clock::time_point end =
      windows.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));
  while (Clock::now() < end) {
    auto [line, sent] = stream.next();
    sent.bytes = line.size() + 1;
    double latency = 0.0;
    const std::optional<std::string> reply =
        round_trip(connection, line, &latency, report);
    measured.push_back(std::move(line));
    if (!reply) break;
    windows.count(Clock::now());
    tally.record_line(*reply, sent, latency, report);
  }
  read_server_side(server, connection, tally, fds_before, 0, report);
  shut_down(server, report);
  report_replies(tally, windows, report);

  // The server's solves again, in-process and untraced: path, utility and
  // migrations must match bit for bit.
  const std::vector<std::string> setup_lines = first_of(setup);
  Replay check(nullptr);
  const Clock::time_point start = Clock::now();
  (void)replay_stream(check, setup_lines, nullptr, report);
  const std::size_t mismatches =
      replay_stream(check, measured, &tally.solve_log, report);
  const double untraced_s = seconds_since(start);
  if (mismatches > 0) {
    report.failed += mismatches;
    report.problem(std::to_string(mismatches) +
                   " solves differ between aa_serve and the replay");
  }
  report.note("replay: " + std::to_string(tally.solve_log.size()) +
              " solves, bit-identical to aa_serve: " +
              (mismatches == 0 ? "yes" : "NO"));
  if (options.trace) {
    report_socket_layers(options, setup_lines, measured, {}, untraced_s, 1,
                         tally, report);
  }
}

void run_svc_tenants_cached(const Options& options, Report& report) {
  aa::support::Rng rng = aa::support::Rng::child(options.seed, 2);
  std::vector<std::pair<std::string, Sent>> setup;
  for (std::size_t t = 0; t < kTenants; ++t) {
    JsonValue request;
    request.set("op", "tenant_create");
    request.set("tenant", tenant_id(t));
    setup.push_back({request.dump(), Sent{}});
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    const std::vector<std::string> adds =
        make_add_lines(kTenantThreads, rng, tenant_id(t));
    for (std::size_t i = 0; i < adds.size(); ++i) {
      setup.push_back({adds[i], Sent{Kind::kAdd, i + 1, {}, 0}});
    }
  }
  for (std::size_t t = 0; t < kTenants; ++t) {
    JsonValue request;
    request.set("op", "solve");
    request.set("tenant", tenant_id(t));
    setup.push_back({request.dump(), Sent{Kind::kSolve, 0, {}, 0}});
  }
  Launched server = launch_repeated(
      options, {"--shards", std::to_string(kCachedShards), "--workers", "2"},
      setup, report);
  // Each tenant's solve capacity (its static-quota slice), for the replay.
  SolveCapacities solve_capacity;
  if (const std::optional<JsonValue> list = checked_round_trip(
          *server.connection, R"({"op":"tenant_list"})", Sent{}, report)) {
    for (const JsonValue& tenant : list->at("tenants").as_array()) {
      solve_capacity[tenant.at("tenant").as_string()] =
          static_cast<aa::util::Resource>(
              tenant.at("solve_capacity").as_int());
    }
  }
  server.connection.reset();
  const std::size_t fds_before = proc_open_fds(server.process->pid());

  const Zipf zipf(kTenants / kCachedConnections);
  std::vector<CachedClient> clients(kCachedConnections);
  for (std::size_t c = 0; c < kCachedConnections; ++c) {
    clients[c].index = c;
    clients[c].rng = aa::support::Rng::child(options.seed, 10 + c);
  }
  ReplyTally tally;
  std::vector<std::string> measured;
  std::vector<double> connect_ms;
  std::size_t sessions = 0;
  Windows windows{Clock::now(), options.seconds};
  const Clock::time_point end =
      windows.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));
  bool broken = false;
  const auto fail_in_flight = [&](CachedClient& client, const char* why) {
    report.failed += client.in_flight.size();
    report.problem(why);
    client.in_flight.clear();
    client.connection.reset();
    broken = true;
  };
  while (!broken) {
    const bool sending = Clock::now() < end;
    for (CachedClient& client : clients) {
      if (!sending) break;
      if (!client.connection) {
        const Clock::time_point start = Clock::now();
        try {
          client.connection =
              std::make_unique<Connection>(server.socket_path, 2000);
        } catch (const std::exception& error) {
          ++report.attempted;
          ++report.failed;
          fail_in_flight(client, error.what());
          break;
        }
        connect_ms.push_back(ms_between(start, Clock::now()));
        ++sessions;
        client.session_sent = 0;
      }
      while (client.in_flight.size() < kWindow &&
             client.session_sent < kSessionRequests) {
        auto [line, sent] = client.next(zipf);
        sent.bytes = line.size() + 1;
        sent.at = Clock::now();
        ++report.attempted;
        ++client.session_sent;
        if (!client.connection->send(line)) {
          ++report.failed;
          fail_in_flight(client, "send failed");
          break;
        }
        client.in_flight.emplace(client.tag(), sent);
        measured.push_back(std::move(line));
      }
    }
    if (broken) break;
    std::vector<pollfd> fds;
    std::vector<CachedClient*> waiting;
    for (CachedClient& client : clients) {
      if (client.connection && !client.in_flight.empty()) {
        fds.push_back({client.connection->fd(), POLLIN, 0});
        waiting.push_back(&client);
      }
    }
    if (fds.empty()) {
      if (!sending) break;
    } else {
      const int ready = ::poll(fds.data(), fds.size(), kReplyTimeoutMs);
      if (ready == 0) {
        for (CachedClient* client : waiting) {
          fail_in_flight(*client, "no reply within the timeout");
        }
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        CachedClient& client = *waiting[i];
        const bool open = client.connection->fill();
        Clock::time_point arrived{};
        while (std::optional<std::string> line =
                   client.connection->pop_line(&arrived)) {
          const Clock::time_point verify_start = Clock::now();
          std::optional<JsonValue> reply;
          std::string tag;
          try {
            reply = aa::support::json_parse(*line);
            tag = reply->at("tag").as_string();
          } catch (const std::exception&) {
          }
          const auto it = client.in_flight.find(tag);
          if (it == client.in_flight.end()) {
            ++report.failed;
            report.problem("reply matches no request: " + line->substr(0, 200));
            continue;
          }
          const Sent sent = it->second;
          client.in_flight.erase(it);
          windows.count(arrived);
          tally.record(reply ? &*reply : nullptr, *line, sent,
                       ms_between(sent.at, arrived), verify_start, report);
        }
        if (!open && !client.in_flight.empty()) {
          fail_in_flight(client, "server closed the connection");
        }
      }
    }
    for (CachedClient& client : clients) {
      if (client.connection && client.in_flight.empty() &&
          client.session_sent >= kSessionRequests) {
        client.connection.reset();
      }
    }
  }
  try {
    server.connection =
        std::make_unique<Connection>(server.socket_path, 2000);
    ++sessions;
    read_server_side(server, *server.connection, tally, fds_before, sessions,
                     report);
  } catch (const std::exception& error) {
    ++report.attempted;
    ++report.failed;
    report.problem(std::string("stats: ") + error.what());
  }
  shut_down(server, report);
  report_replies(tally, windows, report);
  report.layer("svc.server.connect_ms", median(connect_ms), "ms");
  report.note("sessions: " + std::to_string(sessions) + ", connect p50 " +
              fixed(median(connect_ms)) + " ms");
  if (!options.trace) return;

  // The lines in send order through the layers in-process. Batching and
  // coalescing differ from the server's, so this replay feeds the layer
  // split only.
  const std::vector<std::string> setup_lines = first_of(setup);
  Replay untraced(nullptr, solve_capacity);
  const Clock::time_point start = Clock::now();
  (void)replay_stream(untraced, setup_lines, nullptr, report);
  (void)replay_stream(untraced, measured, nullptr, report);
  report_socket_layers(options, setup_lines, measured, solve_capacity,
                       seconds_since(start), kCachedShards, tally, report);
}

// ---------------------------------------------------------------------------
// solve_n10k.

namespace {

constexpr std::size_t kBatchThreads = 10000;
// Relative tolerance for the per-layer self times of a traced solve to add
// up to the untraced solve time.
constexpr double kReconcileTolerance = 0.10;

struct BatchOutcome {
  aa::core::SolveResult result;
  aa::obs::Certificate certificate;
};

// The certificate chain of every solve, without the O(n C) concavity sweep
// of the inputs: like the solvers' own per-solve certificates, it relies on
// the generator's concavity, which each run checks once per instance.
const aa::core::CertifyOptions kChainOnly{/*check_concavity=*/false};

/// The batch caller's operation: solve_algorithm2_refined, then certify.
BatchOutcome solve_and_certify(const aa::core::Instance& instance) {
  BatchOutcome out;
  out.result = aa::core::solve_algorithm2_refined(instance);
  out.certificate = aa::core::certify(instance, out.result,
                                      "algorithm2_refined", kChainOnly);
  return out;
}

/// The same operation call by call, each call in a span; it follows
/// solve_algorithm2 and the refinement step in aa/refine.cpp.
BatchOutcome solve_and_certify_traced(const aa::core::Instance& instance,
                                      Tracer& tracer) {
  const ScopedSpan root(&tracer, "bench.op");
  BatchOutcome out;
  aa::alloc::SuperOptimalResult so;
  {
    const ScopedSpan span(&tracer, "aa.problem");
    instance.validate();
  }
  {
    const ScopedSpan span(&tracer, "alloc");
    so = aa::alloc::super_optimal_routed(instance.threads,
                                         instance.num_servers,
                                         instance.capacity);
  }
  std::vector<aa::util::Linearized> linearized;
  {
    const ScopedSpan span(&tracer, "utility");
    linearized = aa::util::linearize(instance.threads, so.c_hat);
  }
  aa::core::SolveResult& result = out.result;
  {
    const ScopedSpan span(&tracer, "aa.algorithm2");
    result.assignment = aa::core::assign_algorithm2(instance, linearized);
    result.utility = aa::core::total_utility(instance, result.assignment);
    double g_total = 0.0;
    for (std::size_t i = 0; i < result.assignment.size(); ++i) {
      g_total += linearized[i].value(result.assignment.alloc[i]);
    }
    result.linearized_utility = g_total;
    result.super_optimal_utility = so.utility;
    result.c_hat = std::move(so.c_hat);
  }
  {
    const ScopedSpan span(&tracer, "aa.refine");
    aa::core::Assignment better =
        aa::core::reoptimize_allocations(instance, result.assignment);
    const double better_utility = aa::core::total_utility(instance, better);
    if (better_utility >= result.utility) {
      result.assignment = std::move(better);
      result.utility = better_utility;
    }
  }
  {
    const ScopedSpan span(&tracer, "aa.certify");
    out.certificate =
        aa::core::certify(instance, result, "algorithm2_refined", kChainOnly);
  }
  return out;
}

}  // namespace

void run_solve_n10k(const Options& options, Report& report) {
  std::vector<aa::core::Instance> instances;
  std::vector<double> setups;
  for (std::size_t d = 0; d < 4; ++d) {
    aa::sim::WorkloadConfig config;
    config.dist = section_vii_distribution(d);
    config.beta = static_cast<double>(kBatchThreads) /
                  static_cast<double>(config.num_servers);
    aa::support::Rng rng = aa::support::Rng::child(options.seed, 100 + d);
    const Clock::time_point start = Clock::now();
    instances.push_back(aa::sim::generate_instance(config, rng));
    setups.push_back(seconds_since(start));
  }

  // Round robin over the four instances, so slow spells of the host hit
  // every distribution alike and each solve starts with the caches holding
  // another instance, as a batch caller's would.
  std::vector<std::vector<double>> latencies(4);
  std::vector<double> first_utility(4, 0.0);
  std::vector<std::optional<aa::core::SolveResult>> last(4);
  std::vector<std::vector<double>> traced_ms(4);
  std::vector<std::vector<double>> layers_ms(4);
  double ratio_sum = 0.0;
  std::size_t ops = 0;
  Tracer tracer;
  double bisect_iterations = 0.0;
  std::size_t traced_ops = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  while (Clock::now() < end || ops % 4 != 0) {
    const std::size_t d = ops++ % 4;
    const aa::core::Instance& instance = instances[d];
    ++report.attempted;
    const Clock::time_point op_start = Clock::now();
    const BatchOutcome outcome = solve_and_certify(instance);
    latencies[d].push_back(ms_between(op_start, Clock::now()));
    if (!outcome.certificate.ok()) {
      ++report.failed;
      report.problem(std::string("certificate failed on ") +
                     distribution_name(d));
      continue;
    }
    ratio_sum += outcome.result.utility / outcome.result.super_optimal_utility;
    if (first_utility[d] == 0.0) first_utility[d] = outcome.result.utility;
    if (outcome.result.utility != first_utility[d]) {
      ++report.failed;
      report.problem("repeated solves of one instance disagree");
    }
    if (!last[d]) last[d] = outcome.result;
    if (!options.trace) continue;
    // Traced run: every untraced solve is followed by a traced one.
    BatchOutcome traced;
    {
      aa::obs::Session session;
      const std::size_t root = tracer.size();
      const Clock::time_point traced_start = Clock::now();
      traced = solve_and_certify_traced(instance, tracer);
      traced_ms[d].push_back(ms_between(traced_start, Clock::now()));
      layers_ms[d].push_back(tracer.children_us(root) / 1e3);
      bisect_iterations += bisect_iterations_per_call(session);
    }
    ++traced_ops;
    if (traced.result.utility != outcome.result.utility ||
        !traced.certificate.ok()) {
      ++report.failed;
      report.problem("the traced solve differs from solve_algorithm2_refined");
    }
  }
  const double measured_s = seconds_since(start);
  // The full certificate, concavity sweep included, once per instance.
  for (std::size_t d = 0; d < 4; ++d) {
    if (last[d] &&
        !aa::core::certify(instances[d], *last[d], "algorithm2_refined").ok()) {
      ++report.failed;
      report.problem(std::string("full certificate failed on ") +
                     distribution_name(d));
    }
  }

  // The four distributions' solve times form separate clusters, so a
  // pooled median would sit in a gap between two of them and jump with
  // their edges. The median of each, averaged with equal weight, does not.
  double p50 = 0.0;
  for (std::size_t d = 0; d < 4; ++d) {
    p50 += median(latencies[d]) / 4.0;
    const auto [lo, hi] =
        std::minmax_element(latencies[d].begin(), latencies[d].end());
    report.note(std::string("solve+certify ") + distribution_name(d) +
                ": median " + fixed(median(latencies[d])) + " ms, min " +
                fixed(*lo) + ", max " + fixed(*hi) + " (n=" +
                std::to_string(latencies[d].size()) + "), build " +
                fixed(setups[d]) + " s");
  }
  report.e2e("setup_s", median(setups), "s");
  report.e2e("ops_per_s", static_cast<double>(ops) / measured_s, "1/s");
  report.e2e("latency_p50_ms", p50, "ms");
  report.e2e("solve_p50_ms", p50, "ms");
  report.e2e("utility_ratio",
             ops == 0 ? 0.0 : ratio_sum / static_cast<double>(ops), "ratio");
  report.e2e("peak_rss_mb", proc_status_kb(::getpid(), "VmHWM") / 1024.0,
             "MB");
  std::vector<double> all;
  for (const std::vector<double>& l : latencies) {
    all.insert(all.end(), l.begin(), l.end());
  }
  report.note(latency_line("latency", all));
  report.note("migrations_per_solve: n/a (a batch solve has no previous "
              "placement)");
  report.note("open_fds: n/a (no aa_serve)");
  if (!options.trace) return;

  report.layer("alloc.super_optimal.bisect_iterations",
               traced_ops == 0 ? 0.0
                               : bisect_iterations /
                                     static_cast<double>(traced_ops),
               "count");
  report_layers(tracer, report);
  dump_spans(tracer, options, report);
  // Reconciliation: the layers' self times of a traced solve, summed, and
  // the traced solve itself, each reduced like latency_p50_ms (median per
  // distribution, then the mean of the four), against latency_p50_ms.
  double layers_p50 = 0.0;
  double traced_p50 = 0.0;
  for (std::size_t d = 0; d < 4; ++d) {
    layers_p50 += median(layers_ms[d]) / 4.0;
    traced_p50 += median(traced_ms[d]) / 4.0;
  }
  const double error = std::abs(layers_p50 - p50) / p50;
  report.layer("bench.layer_reconcile_error", error, "ratio");
  report.layer("bench.trace_overhead_ratio", traced_p50 / p50, "ratio");
  report.note("reconciliation: layer self times sum to " + fixed(layers_p50) +
              " ms per solve against latency_p50_ms " + fixed(p50) +
              " ms untraced; relative error " + fixed(error) +
              ", tolerance " + fixed(kReconcileTolerance, 2));
  if (error > kReconcileTolerance) {
    report.problem("layer self times do not add up to the untraced solve "
                   "time within the tolerance");
  }
}

}  // namespace perfbench
