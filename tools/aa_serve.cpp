// aa_serve — long-running allocation service (docs/SERVICE.md).
//
//   aa_serve [--socket PATH] [--stdio 1]
//            [--servers M] [--capacity C] [--workers W]
//            [--batch-max B] [--batch-linger-ms L] [--deadline-ms D]
//            [--max-queue Q] [--max-line-bytes N]
//            [--hysteresis H] [--resolve-fraction F] [--resolve-min K]
//            [--shards S] [--fairness static_quota|weighted_max_min|karma]
//            [--karma-credits B]
//            [--metrics FILE|-] [--trace-out FILE]
//            [--log-level off|error|warn|info|debug] [--log-out FILE|-]
//            [--slow-ms MS] [--slo-ms MS] [--slo-objective R]
//            [--slow-trace-out FILE]
//
// Speaks line-delimited JSON (add_thread / remove_thread / update_utility /
// solve / tenant_create / tenant_update / tenant_delete / tenant_list /
// stats / shutdown) over a Unix domain socket at --socket, or over
// stdin/stdout with --stdio 1 (also the default when no socket is given; the
// mode tests and shell pipelines use). The process exits after a `shutdown`
// request — or, in stdio mode, at EOF.
//
// Requests are batched (--batch-max / --batch-linger-ms) so delta bursts
// coalesce into one re-solve; solves take the warm-start incremental path
// with --hysteresis stickiness, falling back to full Algorithm 2 when more
// than max(--resolve-min, --resolve-fraction * n) deltas accumulated. Every
// solve reply carries its 0.828-approximation certificate verdict.
//
// The service is multi-tenant: tenants live on --shards shards (stable hash
// of the tenant id; workers are pinned per shard so tenants on different
// shards never contend), and the global capacity pool (servers * capacity)
// is re-divided across tenants on every tenant_create/update/delete through
// the --fairness policy (docs/SERVICE.md "Cross-tenant fairness").
// --karma-credits sets the opening credit balance minted for tenants
// created without an explicit "credits" field under the karma policy.
//
// --metrics writes the aa::obs blob (counters, phase timings, and the
// per-solve certificates) to FILE, or stdout with "-", at exit, with the
// final `stats` payload under its "service" key. --trace-out writes the
// run's merged trace rings as a Chrome trace_event JSON document at exit —
// load it in chrome://tracing or https://ui.perfetto.dev. Either flag
// installs the obs session. Live scraping without waiting for exit
// goes through the `metrics` protocol verb (Prometheus text; see aa_top).
//
// Observability (docs/OBSERVABILITY.md "Request tracing, structured logs &
// SLOs"): --log-out installs the structured newline-JSON logger (default
// stderr when only --log-level is given); events are rate-limited per call
// site with drops counted under obs/log_dropped. --slow-ms logs every
// request slower than MS with its rid; --slo-ms / --slo-objective set the
// latency objective feeding per-tenant deadline-miss counters and
// multi-window burn rates (the `slo` verb). --slow-trace-out dumps the
// tail-capture ring (slowest + errored requests, with span chains and
// rids) as JSON at exit; the same data is live behind the `trace` verb.

#include <csignal>

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "io/instance_io.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/args.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace aa;

svc::ServiceConfig config_from_args(const support::Args& args) {
  svc::ServiceConfig config;
  config.num_servers = args.get_count("servers", 2);
  config.capacity =
      static_cast<util::Resource>(args.get_int("capacity", 64));
  config.workers = args.get_count("workers", 2);
  config.batch_max = args.get_count("batch-max", 64);
  config.batch_linger_ms = args.get_double("batch-linger-ms", 0.0);
  config.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  config.max_queue = args.get_count("max-queue", 4096);
  config.warm.hysteresis = args.get_double("hysteresis", 0.05);
  config.warm.resolve_delta_fraction =
      args.get_double("resolve-fraction", 0.25);
  config.warm.resolve_delta_min = args.get_count("resolve-min", 8);
  config.shards = args.get_count("shards", 1);
  const std::string fairness = args.get("fairness", "static_quota");
  const std::optional<svc::FairnessPolicyKind> kind =
      svc::fairness_policy_from_name(fairness);
  if (!kind) {
    throw std::invalid_argument(
        "unknown --fairness policy '" + fairness +
        "' (want static_quota | weighted_max_min | karma)");
  }
  config.fairness = *kind;
  config.karma_opening_credits = args.get_double("karma-credits", 0.0);
  config.slow_ms = args.get_double("slow-ms", 0.0);
  config.slo_ms = args.get_double("slo-ms", 0.0);
  config.slo_objective = args.get_double("slo-objective", 0.999);
  if (config.slo_objective <= 0.0 || config.slo_objective >= 1.0) {
    throw std::invalid_argument("--slo-objective must be in (0, 1)");
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(
        argc, argv,
        {"socket", "stdio", "servers", "capacity", "workers", "batch-max",
         "batch-linger-ms", "deadline-ms", "max-queue", "max-line-bytes",
         "hysteresis", "resolve-fraction", "resolve-min", "shards",
         "fairness", "karma-credits",
         "metrics", "trace-out", "log-level", "log-out", "slow-ms",
         "slo-ms", "slo-objective", "slow-trace-out"});
    if (!args.positional().empty()) {
      std::cerr << "usage: aa_serve [--socket PATH] [--stdio 1] "
                   "[--servers M] [--capacity C] [--workers W] "
                   "[--batch-max B] [--batch-linger-ms L] [--deadline-ms D] "
                   "[--max-queue Q] [--max-line-bytes N] [--hysteresis H] "
                   "[--resolve-fraction F] [--resolve-min K] "
                   "[--shards S] "
                   "[--fairness static_quota|weighted_max_min|karma] "
                   "[--karma-credits B] "
                   "[--metrics FILE|-] [--trace-out FILE] "
                   "[--log-level off|error|warn|info|debug] "
                   "[--log-out FILE|-] [--slow-ms MS] [--slo-ms MS] "
                   "[--slo-objective R] [--slow-trace-out FILE]\n";
      return 2;
    }
    // Belt and braces next to MSG_NOSIGNAL: a client vanishing mid-reply
    // must never kill the server.
    std::signal(SIGPIPE, SIG_IGN);

    const std::string socket_path = args.get("socket", "");
    const bool stdio =
        args.get_int("stdio", 0) != 0 || socket_path.empty();
    const std::size_t max_line_bytes =
        args.get_count("max-line-bytes", svc::kDefaultMaxLineBytes);

    const std::string metrics_path = args.get("metrics", "");
    const std::string trace_path = args.get("trace-out", "");
    const std::string slow_trace_path = args.get("slow-trace-out", "");
    std::unique_ptr<obs::Session> session;
    if (!metrics_path.empty() || !trace_path.empty()) {
      session = std::make_unique<obs::Session>();
    }

    // Structured logging: either flag turns the logger on. In stdio mode
    // stdout carries protocol replies, so "-" and the default sink are
    // stderr; a FILE keeps the log out of both streams entirely.
    const std::string level_name = args.get("log-level", "");
    const std::string log_path = args.get("log-out", "");
    obs::LoggerConfig log_config;
    if (!level_name.empty() &&
        !obs::parse_log_level(level_name, log_config.level)) {
      throw std::invalid_argument(
          "unknown --log-level '" + level_name +
          "' (want off | error | warn | info | debug)");
    }
    std::ofstream log_file;
    std::unique_ptr<obs::Logger> logger;
    if (!log_path.empty() || !level_name.empty()) {
      std::ostream* sink = &std::cerr;
      if (!log_path.empty() && log_path != "-") {
        log_file.open(log_path, std::ios::out | std::ios::trunc);
        if (!log_file) {
          throw std::runtime_error("cannot open --log-out " + log_path);
        }
        sink = &log_file;
      }
      logger = std::make_unique<obs::Logger>(*sink, log_config);
    }

    svc::Service service(config_from_args(args));
    service.start();
    {
      support::JsonValue fields;
      fields.set("transport", stdio ? "stdio" : "socket");
      fields.set("shards",
                 static_cast<std::int64_t>(service.config().shards));
      obs::log_event(obs::LogLevel::kInfo, obs::metric::kLogServeStart, 0,
                     {}, std::move(fields));
    }
    if (stdio) {
      svc::serve_stdio(service, std::cin, std::cout, max_line_bytes);
    } else {
      svc::SocketServer server(service, socket_path, max_line_bytes);
      server.run();
    }
    // Read the tail capture before stop(): tail_json() takes shard 0's turn
    // lock and then every other shard's, ascending, the same order the
    // shard-0 worker uses, so it cannot deadlock against a running worker.
    const support::JsonValue tail = service.tail_json();
    service.stop();
    obs::log_event(obs::LogLevel::kInfo, obs::metric::kLogServeStop);
    if (!slow_trace_path.empty()) {
      const std::string blob = tail.dump(2) + "\n";
      if (slow_trace_path == "-") {
        std::cout << blob;
      } else {
        io::write_file(slow_trace_path, blob);
      }
    }

    if (session != nullptr && !metrics_path.empty()) {
      support::JsonValue metrics = session->to_json();
      metrics.set("service", service.stats());
      const std::string blob = metrics.dump(2) + "\n";
      if (metrics_path == "-") {
        std::cout << blob;
      } else {
        io::write_file(metrics_path, blob);
      }
    }
    if (session != nullptr && !trace_path.empty()) {
      io::write_file(trace_path, obs::chrome_trace_json(*session) + "\n");
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "aa_serve: " << error.what() << "\n";
    return 1;
  }
}
