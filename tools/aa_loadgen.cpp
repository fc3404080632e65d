// aa_loadgen — load generator / correctness checker for aa_serve.
//
//   aa_loadgen --socket PATH [--requests N] [--connections K]
//              [--threads-init T] [--solve-every S] [--capacity C]
//              [--seed SEED] [--deadline-ms D] [--script FILE]
//              [--tenants T] [--tenant-skew S] [--tenant-churn 1]
//              [--shutdown 1] [--connect-timeout-ms MS] [--json 1]
//              [--slow-ms MS]
//
// Replays a request stream against a running aa_serve and verifies every
// reply. Default mode is randomized: each of K connections seeds the
// service with T threads (Section VII generator utilities against
// --capacity, which must match the server's), then issues its share of N
// requests — a mix of update_utility (drift factor in [0.8, 1.25]),
// add_thread, remove_thread, with a solve every S requests. --script FILE
// replays the file's lines verbatim on one connection instead.
//
// --tenants T switches to multi-tenant mode: tenants lg0..lg(T-1) are
// created up front and every request addresses one of them, sampled from a
// Zipf(--tenant-skew) popularity distribution (skew 0 = uniform; higher
// skews a few hot tenants, the realistic shape for consolidated hosts).
// --tenant-churn 1 additionally deletes and recreates the sampled tenant
// at a low rate mid-stream; races lost to churn (tenant_not_found /
// tenant_exists / not_found on a thread that died with its tenant) are
// expected there, tolerated, and reported per code rather than failing the
// run — the generator recreates the tenant and carries on, exercising the
// fairness policies' churn paths (Karma credit books included).
//
// Every reply must parse and carry ok=true (or a tolerated churn code),
// and every solve reply must carry certificate_ok=true (the
// 0.828-approximation certificate); anything else counts as a failure and
// the exit status is 1. On success prints throughput and p50/p90/p99/max
// round-trip latency, the solve-path mix observed, failures broken down by
// error code, and the server's own stats line. --json 1 appends one
// machine-readable summary line (a single JSON object with the same
// numbers plus a per-tenant breakdown) as the final stdout line, for CI
// and scripts.
//
// Request tracing (docs/OBSERVABILITY.md): every generated request carries
// a client-side id as its "tag" (c<connection>-r<sequence>), echoed
// verbatim on the reply next to the server-assigned "rid". --slow-ms MS
// prints one client/slow_request JSON line to stderr for every round trip
// slower than MS, joining the client tag to the server rid — grep the same
// rid in the server's structured log, the `trace` verb output, and the
// Perfetto export to follow one slow request end to end. The --json
// summary's per-error-code breakdown samples the rids of failing replies
// for the same reason.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/instance_io.hpp"
#include "obs/registry.hpp"
#include "support/args.hpp"
#include "support/distributions.hpp"
#include "support/json.hpp"
#include "support/prng.hpp"
#include "support/stats.hpp"
#include "support/sync.hpp"
#include "svc/channel.hpp"
#include "utility/generator.hpp"

namespace {

using namespace aa;

struct Options {
  std::string socket_path;
  std::size_t requests = 1000;
  std::size_t connections = 1;
  std::size_t threads_init = 8;
  std::size_t solve_every = 8;
  util::Resource capacity = 64;
  std::uint64_t seed = 1;
  double deadline_ms = 0.0;
  std::string script_path;
  std::size_t tenants = 0;  ///< 0 = single-tenant (no tenant fields).
  double tenant_skew = 1.0;
  bool tenant_churn = false;
  bool send_shutdown = false;
  int connect_timeout_ms = 5000;
  double slow_ms = 0.0;  ///< Log round trips slower than this (0 = off).
};

/// Loadgen tenant ids: lg0..lg(N-1).
std::string tenant_name(std::size_t index) {
  return "lg" + std::to_string(index);
}

struct Tally {
  std::size_t sent = 0;
  std::size_t failures = 0;
  std::size_t tolerated = 0;  ///< Expected churn races, by code below.
  std::size_t solves = 0;
  std::size_t solves_warm = 0;
  std::size_t solves_full = 0;
  std::size_t solves_cached = 0;
  std::vector<double> latency_ms;
  /// Every non-ok reply by its stable error code — failures and tolerated
  /// churn races alike ("" for replies that never parsed).
  std::map<std::string, std::size_t> error_codes;
  /// Sample server rids per error code (first few), so a failing code in
  /// the --json summary can be joined against the server's structured log
  /// and `trace` verb output.
  std::map<std::string, std::vector<std::int64_t>> error_rids;
  /// Requests and hard failures per tenant (multi-tenant mode only).
  std::map<std::string, std::size_t> tenant_requests;
  std::map<std::string, std::size_t> tenant_failures;
  std::vector<std::string> failure_samples;  ///< First few, for stderr.

  void merge(const Tally& other) {
    sent += other.sent;
    failures += other.failures;
    tolerated += other.tolerated;
    solves += other.solves;
    solves_warm += other.solves_warm;
    solves_full += other.solves_full;
    solves_cached += other.solves_cached;
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    for (const auto& [code, count] : other.error_codes) {
      error_codes[code] += count;
    }
    for (const auto& [code, rids] : other.error_rids) {
      std::vector<std::int64_t>& mine = error_rids[code];
      for (const std::int64_t rid : rids) {
        if (mine.size() >= 5) break;
        mine.push_back(rid);
      }
    }
    for (const auto& [tenant, count] : other.tenant_requests) {
      tenant_requests[tenant] += count;
    }
    for (const auto& [tenant, count] : other.tenant_failures) {
      tenant_failures[tenant] += count;
    }
    for (const std::string& sample : other.failure_samples) {
      if (failure_samples.size() >= 5) break;
      failure_samples.push_back(sample);
    }
  }
};

/// Zipf popularity over `n` tenants: weight 1/(rank+1)^skew, sampled by
/// inverse CDF. skew 0 degenerates to uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double skew) {
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_.push_back(total);
    }
    for (double& value : cdf_) value /= total;
  }

  [[nodiscard]] std::size_t sample(support::Rng& rng) const {
    const double u = rng.uniform01();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

void record_failure(Tally& tally, const std::string& context) {
  ++tally.failures;
  if (tally.failure_samples.size() < 5) {
    tally.failure_samples.push_back(context);
  }
}

/// The server-assigned request id on a reply, or 0 when absent.
std::int64_t reply_rid(const support::JsonValue& reply) {
  const support::JsonValue* node = reply.find("rid");
  if (node == nullptr || !node->is_number()) return 0;
  try {
    return node->as_int();
  } catch (const std::exception&) {
    return 0;
  }
}

/// One client/slow_request line on stderr, joining the client-side tag to
/// the server rid. Serialized so concurrent connections never interleave.
void log_slow_request(const std::string& tag, std::int64_t rid, double ms) {
  support::JsonValue line;
  line.set("event", std::string(obs::metric::kLogClientSlowRequest));
  if (!tag.empty()) line.set("tag", tag);
  line.set("rid", rid);
  line.set("ms", ms);
  // Lock order: leaf — serializes stderr slow-request lines.
  static support::Mutex log_mutex;
  const support::MutexLock lock(log_mutex);
  std::cerr << line.dump() << "\n";
}

/// Sends one request line and validates the reply. Returns the parsed
/// reply when it is ok — or a non-ok reply whose code is in `tolerated`
/// (an expected churn race; the caller checks "ok" and reacts). Any other
/// outcome is recorded as a failure and returns nullopt. Every non-ok
/// reply's code lands in tally.error_codes either way (plus a sample of
/// its rid in tally.error_rids). With slow_ms > 0, round trips slower
/// than slow_ms log a client/slow_request line carrying `tag` and the
/// server rid.
std::optional<support::JsonValue> round_trip(
    svc::LineChannel& channel, const std::string& line, Tally& tally,
    const std::set<std::string>* tolerated = nullptr, double slow_ms = 0.0,
    const std::string& tag = std::string()) {
  ++tally.sent;
  const auto start = std::chrono::steady_clock::now();
  if (!channel.write_line(line)) {
    record_failure(tally, "write failed: " + line);
    return std::nullopt;
  }
  const std::optional<std::string> reply = channel.read_line();
  if (!reply.has_value()) {
    record_failure(tally, "connection closed awaiting reply to: " + line);
    return std::nullopt;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double latency_ms =
      std::chrono::duration<double, std::milli>(elapsed).count();
  tally.latency_ms.push_back(latency_ms);
  support::JsonValue parsed;
  try {
    parsed = support::json_parse(*reply);
    if (slow_ms > 0.0 && latency_ms >= slow_ms) {
      log_slow_request(tag, reply_rid(parsed), latency_ms);
    }
    if (!parsed.at("ok").as_bool()) {
      const support::JsonValue* code = parsed.find("code");
      const std::string code_text =
          code != nullptr ? code->as_string() : "";
      ++tally.error_codes[code_text];
      const std::int64_t rid = reply_rid(parsed);
      std::vector<std::int64_t>& rids = tally.error_rids[code_text];
      if (rid != 0 && rids.size() < 5) rids.push_back(rid);
      if (tolerated != nullptr && tolerated->count(code_text) > 0) {
        ++tally.tolerated;
        return parsed;
      }
      record_failure(tally, "error reply: " + *reply);
      return std::nullopt;
    }
  } catch (const std::exception& error) {
    ++tally.error_codes[""];
    record_failure(tally,
                   std::string("unparseable reply (") + error.what() +
                       "): " + *reply);
    return std::nullopt;
  }
  return parsed;
}

bool is_ok(const support::JsonValue& reply) {
  return reply.at("ok").as_bool();
}

void check_solve_reply(const support::JsonValue& reply, Tally& tally) {
  ++tally.solves;
  try {
    if (!reply.at("certificate_ok").as_bool()) {
      record_failure(tally,
                     "solve reply without passing certificate: " +
                         reply.dump());
      return;
    }
    const std::string& path = reply.at("path").as_string();
    if (path == "warm") {
      ++tally.solves_warm;
    } else if (path == "cached") {
      ++tally.solves_cached;
    } else {
      ++tally.solves_full;
    }
  } catch (const std::exception& error) {
    record_failure(tally,
                   std::string("malformed solve reply (") + error.what() +
                       "): " + reply.dump());
  }
}

std::string with_deadline(support::JsonValue request, double deadline_ms) {
  if (deadline_ms > 0.0) request.set("deadline_ms", deadline_ms);
  return request.dump();
}

/// One connection's randomized stream. In multi-tenant mode every request
/// addresses a Zipf-sampled tenant; with churn, tenants may vanish under
/// us (another connection deleted them) — those races are tolerated,
/// repaired by recreating the tenant, and tallied per error code.
Tally run_connection(const Options& options, std::size_t index,
                     std::size_t request_count) {
  Tally tally;
  svc::FdHandle fd =
      svc::connect_unix(options.socket_path, options.connect_timeout_ms);
  svc::LineChannel channel(fd.get(), svc::kDefaultMaxLineBytes);
  support::Rng rng(options.seed + 0x9e3779b9u * (index + 1));
  support::DistributionParams dist;  // Section VII uniform H.
  const bool multi_tenant = options.tenants > 0;
  const ZipfSampler zipf(std::max<std::size_t>(options.tenants, 1),
                         options.tenant_skew);
  // Per-tenant id pools ("" = the default tenant in single-tenant mode).
  std::map<std::string, std::vector<std::int64_t>> ids_by_tenant;
  // Churn races: the codes a request may legitimately come back with.
  const std::set<std::string> churn_codes = {"tenant_not_found",
                                             "tenant_exists", "not_found"};
  const std::set<std::string>* tolerated =
      options.tenant_churn ? &churn_codes : nullptr;

  const auto pick_tenant = [&]() -> std::string {
    return multi_tenant ? tenant_name(zipf.sample(rng)) : std::string();
  };
  // Client-side request ids: c<connection>-r<sequence>, echoed on every
  // reply as "tag" next to the server-assigned "rid".
  std::uint64_t sequence = 0;
  const auto next_tag = [&]() {
    return "c" + std::to_string(index) + "-r" + std::to_string(++sequence);
  };
  const auto tag_tenant = [&](support::JsonValue& request,
                              const std::string& tenant) {
    if (!tenant.empty()) {
      request.set("tenant", tenant);
      ++tally.tenant_requests[tenant];
    }
  };
  /// The sampled tenant lost a churn race: recreate it (another connection
  /// may beat us to that too) and forget its dead threads.
  const auto repair_tenant = [&](const std::string& tenant) {
    ids_by_tenant[tenant].clear();
    support::JsonValue request;
    request.set("op", "tenant_create");
    request.set("tenant", tenant);
    request.set("tag", next_tag());
    ++tally.tenant_requests[tenant];
    (void)round_trip(channel, request.dump(), tally, tolerated,
                     options.slow_ms);
  };
  /// Runs one request against `tenant`, reacting to tolerated races.
  const auto send = [&](support::JsonValue request,
                        const std::string& tenant) {
    tag_tenant(request, tenant);
    const std::string tag = next_tag();
    request.set("tag", tag);
    const auto reply = round_trip(
        channel, with_deadline(std::move(request), options.deadline_ms),
        tally, tolerated, options.slow_ms, tag);
    if (!reply.has_value()) {
      if (!tenant.empty()) ++tally.tenant_failures[tenant];
      return reply;
    }
    if (!is_ok(*reply)) {
      if (reply->at("code").as_string() == "tenant_not_found") {
        repair_tenant(tenant);
      } else if (reply->at("code").as_string() == "not_found") {
        // A thread that died with its deleted tenant; drop our stale id.
        ids_by_tenant[tenant].clear();
      }
      return decltype(reply)(std::nullopt);
    }
    return reply;
  };

  const auto send_add = [&](const std::string& tenant) {
    const util::UtilityPtr utility =
        util::generate_utility(options.capacity, dist, rng);
    support::JsonValue request;
    request.set("op", "add_thread");
    request.set("thread", io::utility_to_json(*utility));
    const auto reply = send(std::move(request), tenant);
    if (reply.has_value()) {
      ids_by_tenant[tenant].push_back(reply->at("id").as_int());
    }
  };

  for (std::size_t i = 0; i < options.threads_init; ++i) {
    send_add(pick_tenant());
  }

  for (std::size_t i = 0; i < request_count; ++i) {
    const std::string tenant = pick_tenant();
    std::vector<std::int64_t>& ids = ids_by_tenant[tenant];
    if (options.solve_every > 0 && (i + 1) % options.solve_every == 0) {
      support::JsonValue request;
      request.set("op", "solve");
      const auto reply = send(std::move(request), tenant);
      if (reply.has_value()) check_solve_reply(*reply, tally);
      continue;
    }
    const double dice = rng.uniform01();
    if (options.tenant_churn && multi_tenant && dice < 0.01) {
      // Drop and recreate the sampled tenant: a full fairness re-division
      // (and, under karma, credit retirement + re-minting) under load.
      support::JsonValue request;
      request.set("op", "tenant_delete");
      request.set("tenant", tenant);
      request.set("tag", next_tag());
      ++tally.tenant_requests[tenant];
      (void)round_trip(channel, request.dump(), tally, tolerated,
                       options.slow_ms);
      ids.clear();
      repair_tenant(tenant);
    } else if (ids.empty() || dice < 0.15) {
      send_add(tenant);
    } else if (dice < 0.25) {
      const std::size_t pick = rng.uniform_below(ids.size());
      support::JsonValue request;
      request.set("op", "remove_thread");
      request.set("id", ids[pick]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
      (void)send(std::move(request), tenant);
    } else {
      const std::size_t pick = rng.uniform_below(ids.size());
      support::JsonValue request;
      request.set("op", "update_utility");
      request.set("id", ids[pick]);
      request.set("factor", 0.8 + 0.45 * rng.uniform01());
      (void)send(std::move(request), tenant);
    }
  }
  return tally;
}

/// Creates the loadgen tenants up front on a dedicated connection
/// (tolerating tenant_exists so reruns against a live server work).
void create_tenants(const Options& options, Tally& tally) {
  svc::FdHandle fd =
      svc::connect_unix(options.socket_path, options.connect_timeout_ms);
  svc::LineChannel channel(fd.get(), svc::kDefaultMaxLineBytes);
  const std::set<std::string> tolerated = {"tenant_exists"};
  for (std::size_t t = 0; t < options.tenants; ++t) {
    support::JsonValue request;
    request.set("op", "tenant_create");
    request.set("tenant", tenant_name(t));
    (void)round_trip(channel, request.dump(), tally, &tolerated);
  }
}

Tally run_script(const Options& options) {
  Tally tally;
  std::ifstream script(options.script_path);
  if (!script) {
    throw std::runtime_error("cannot open script " + options.script_path);
  }
  svc::FdHandle fd =
      svc::connect_unix(options.socket_path, options.connect_timeout_ms);
  svc::LineChannel channel(fd.get(), svc::kDefaultMaxLineBytes);
  std::string line;
  while (std::getline(script, line)) {
    if (line.empty()) continue;
    const auto reply = round_trip(channel, line, tally);
    if (reply.has_value() && reply->find("certificate_ok") != nullptr) {
      check_solve_reply(*reply, tally);
    }
  }
  return tally;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(
        argc, argv,
        {"socket", "requests", "connections", "threads-init", "solve-every",
         "capacity", "seed", "deadline-ms", "script", "tenants",
         "tenant-skew", "tenant-churn", "shutdown", "connect-timeout-ms",
         "json", "slow-ms"});
    Options options;
    options.socket_path = args.get("socket", "");
    if (options.socket_path.empty() || !args.positional().empty()) {
      std::cerr << "usage: aa_loadgen --socket PATH [--requests N] "
                   "[--connections K] [--threads-init T] [--solve-every S] "
                   "[--capacity C] [--seed SEED] [--deadline-ms D] "
                   "[--script FILE] [--tenants T] [--tenant-skew S] "
                   "[--tenant-churn 1] [--shutdown 1] [--connect-timeout-ms "
                   "MS] [--json 1] [--slow-ms MS]\n";
      return 2;
    }
    options.requests = args.get_count("requests", 1000);
    options.connections = args.get_count("connections", 1);
    if (options.connections == 0) options.connections = 1;
    options.threads_init = args.get_count("threads-init", 8);
    options.solve_every = args.get_count("solve-every", 8);
    options.capacity = static_cast<util::Resource>(args.get_int("capacity", 64));
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.deadline_ms = args.get_double("deadline-ms", 0.0);
    options.script_path = args.get("script", "");
    options.tenants = args.get_count("tenants", 0);
    options.tenant_skew = args.get_double("tenant-skew", 1.0);
    options.tenant_churn = args.get_int("tenant-churn", 0) != 0;
    options.send_shutdown = args.get_int("shutdown", 0) != 0;
    options.connect_timeout_ms =
        static_cast<int>(args.get_int("connect-timeout-ms", 5000));
    options.slow_ms = args.get_double("slow-ms", 0.0);
    const bool json_summary = args.get_int("json", 0) != 0;

    Tally total;
    const auto start = std::chrono::steady_clock::now();
    if (!options.script_path.empty()) {
      total = run_script(options);
    } else {
      if (options.tenants > 0) create_tenants(options, total);
      // Lock order: leaf — serializes per-connection tally merges.
      support::Mutex merge_mutex;
      std::vector<std::thread> workers;
      const std::size_t per_connection =
          options.requests / options.connections;
      const std::size_t remainder = options.requests % options.connections;
      for (std::size_t k = 0; k < options.connections; ++k) {
        const std::size_t share = per_connection + (k < remainder ? 1 : 0);
        workers.emplace_back([&, k, share] {
          Tally tally;
          try {
            tally = run_connection(options, k, share);
          } catch (const std::exception& error) {
            record_failure(tally, std::string("connection ") +
                                      std::to_string(k) + ": " +
                                      error.what());
          }
          const support::MutexLock lock(merge_mutex);
          total.merge(tally);
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    const double elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Server-side view (and optional shutdown) on a fresh connection.
    std::string server_stats;
    try {
      svc::FdHandle fd =
          svc::connect_unix(options.socket_path, options.connect_timeout_ms);
      svc::LineChannel channel(fd.get(), svc::kDefaultMaxLineBytes);
      const auto stats = round_trip(channel, "{\"op\": \"stats\"}", total);
      if (stats.has_value()) server_stats = stats->dump();
      if (options.send_shutdown) {
        (void)round_trip(channel, "{\"op\": \"shutdown\"}", total);
      }
    } catch (const std::exception& error) {
      record_failure(total, std::string("stats connection: ") + error.what());
    }

    std::cout << "requests: " << total.sent << "  failures: "
              << total.failures;
    if (total.tolerated > 0) {
      std::cout << "  tolerated churn races: " << total.tolerated;
    }
    std::cout << "\n";
    if (!total.error_codes.empty()) {
      std::cout << "errors by code:";
      for (const auto& [code, count] : total.error_codes) {
        std::cout << "  " << (code.empty() ? "(unparseable)" : code) << "="
                  << count;
      }
      std::cout << "\n";
    }
    if (elapsed_s > 0.0) {
      std::cout << "elapsed: " << elapsed_s << " s  throughput: "
                << static_cast<double>(total.sent) / elapsed_s << " req/s\n";
    }
    if (!total.latency_ms.empty()) {
      const double qs[] = {0.5, 0.9, 0.99, 1.0};
      const std::vector<double> quantiles =
          support::quantiles(total.latency_ms, qs);
      std::cout << "latency ms: p50 " << quantiles[0] << "  p90 "
                << quantiles[1] << "  p99 " << quantiles[2] << "  max "
                << quantiles[3] << "\n";
    }
    std::cout << "solves: " << total.solves << " (warm " << total.solves_warm
              << ", full " << total.solves_full << ", cached "
              << total.solves_cached << "), all certified >= 0.828\n";
    if (!server_stats.empty()) {
      std::cout << "server stats: " << server_stats << "\n";
    }
    if (json_summary) {
      support::JsonValue summary;
      summary.set("requests", total.sent);
      summary.set("failures", total.failures);
      summary.set("elapsed_s", elapsed_s);
      summary.set("throughput_rps",
                  elapsed_s > 0.0
                      ? static_cast<double>(total.sent) / elapsed_s
                      : 0.0);
      if (!total.latency_ms.empty()) {
        const double qs[] = {0.5, 0.9, 0.99, 1.0};
        const std::vector<double> quantiles =
            support::quantiles(total.latency_ms, qs);
        support::JsonValue latency;
        latency.set("p50_ms", quantiles[0]);
        latency.set("p90_ms", quantiles[1]);
        latency.set("p99_ms", quantiles[2]);
        latency.set("max_ms", quantiles[3]);
        summary.set("latency", std::move(latency));
      }
      support::JsonValue solves;
      solves.set("total", total.solves);
      solves.set("warm", total.solves_warm);
      solves.set("full", total.solves_full);
      solves.set("cached", total.solves_cached);
      summary.set("solves", std::move(solves));
      summary.set("tolerated", total.tolerated);
      if (!total.error_codes.empty()) {
        support::JsonValue errors;
        for (const auto& [code, count] : total.error_codes) {
          support::JsonValue entry;
          entry.set("count", count);
          const auto rids = total.error_rids.find(code);
          if (rids != total.error_rids.end() && !rids->second.empty()) {
            support::JsonValue::Array sample;
            sample.reserve(rids->second.size());
            for (const std::int64_t rid : rids->second) {
              sample.push_back(support::JsonValue(rid));
            }
            entry.set("rids", support::JsonValue(std::move(sample)));
          }
          errors.set(code.empty() ? "unparseable" : code, std::move(entry));
        }
        summary.set("errors", std::move(errors));
      }
      if (!total.tenant_requests.empty()) {
        support::JsonValue tenants;
        for (const auto& [tenant, count] : total.tenant_requests) {
          support::JsonValue entry;
          entry.set("requests", count);
          const auto failed = total.tenant_failures.find(tenant);
          entry.set("failures", failed == total.tenant_failures.end()
                                    ? std::size_t{0}
                                    : failed->second);
          tenants.set(tenant, std::move(entry));
        }
        summary.set("tenants", std::move(tenants));
      }
      std::cout << summary.dump() << "\n";
    }
    for (const std::string& sample : total.failure_samples) {
      std::cerr << "aa_loadgen: failure: " << sample << "\n";
    }
    return total.failures == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "aa_loadgen: " << error.what() << "\n";
    return 1;
  }
}
