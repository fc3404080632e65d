// Tests for the transport-independent service core (svc/service.hpp):
// batching/coalescing, deadlines, error replies, shutdown semantics, and
// concurrent clients.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/json.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

constexpr const char* kAddPower =
    R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})";

JsonValue ask(Service& service, const std::string& line) {
  return json_parse(service.request(line));
}

/// Submits `line` without waiting; the reply lands in the returned future.
std::future<std::string> submit(Service& service, const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  service.submit_line(
      line, [done](const std::string& text) { done->set_value(text); });
  return done->get_future();
}

TEST(Service, BasicRoundTrip) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue added = ask(service, kAddPower);
  EXPECT_TRUE(added.at("ok").as_bool());
  EXPECT_EQ(added.at("id").as_int(), 1);
  EXPECT_EQ(added.at("threads").as_int(), 1);

  const JsonValue solved = ask(service, R"({"op": "solve", "tag": "s1"})");
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_EQ(solved.at("tag").as_string(), "s1");
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  EXPECT_EQ(solved.at("path").as_string(), "full");
  ASSERT_EQ(solved.at("assignment").as_array().size(), 1u);
  EXPECT_EQ(solved.at("assignment").as_array()[0].at("id").as_int(), 1);

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("threads").as_int(), 1);
  EXPECT_EQ(stats.at("servers").as_int(), 2);
  EXPECT_EQ(stats.at("capacity").as_int(), 64);
  service.stop();
}

TEST(Service, SolveOnEmptyInstance) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue solved = ask(service, R"({"op": "solve"})");
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  EXPECT_DOUBLE_EQ(solved.at("utility").as_number(), 0.0);
  EXPECT_TRUE(solved.at("assignment").as_array().empty());
  service.stop();
}

// Requests submitted before start() form one deterministic batch: the
// three solves coalesce into a single re-solve of the final state.
TEST(Service, PreStartBatchCoalescesSolves) {
  ServiceConfig config;
  config.workers = 1;
  config.batch_max = 64;
  Service service(config);

  std::vector<std::future<std::string>> replies;
  const auto submit = [&](const std::string& line) {
    auto done = std::make_shared<std::promise<std::string>>();
    replies.push_back(done->get_future());
    service.submit_line(
        line, [done](const std::string& text) { done->set_value(text); });
  };
  submit(kAddPower);
  submit(R"({"op": "solve", "tag": "a"})");
  submit(kAddPower);
  submit(R"({"op": "solve", "tag": "b"})");
  submit(R"({"op": "solve", "tag": "c"})");

  service.start();
  std::vector<JsonValue> parsed;
  for (auto& reply : replies) parsed.push_back(json_parse(reply.get()));

  // All solve replies describe the same (final) state: both threads placed.
  for (const std::size_t solve_index : {1u, 3u, 4u}) {
    const JsonValue& solved = parsed[solve_index];
    EXPECT_TRUE(solved.at("ok").as_bool());
    EXPECT_TRUE(solved.at("certificate_ok").as_bool());
    EXPECT_EQ(solved.at("threads").as_int(), 2);
    EXPECT_DOUBLE_EQ(solved.at("utility").as_number(),
                     parsed[1].at("utility").as_number());
  }
  EXPECT_EQ(parsed[1].at("tag").as_string(), "a");
  EXPECT_EQ(parsed[4].at("tag").as_string(), "c");

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  const JsonValue& solves = stats.at("solves");
  EXPECT_EQ(solves.at("coalesced").as_int(), 2);
  EXPECT_EQ(solves.at("full").as_int() + solves.at("warm").as_int() +
                solves.at("cached").as_int(),
            1);
  EXPECT_GE(stats.at("batching").at("max_size").as_number(), 5.0);
  service.stop();
}

TEST(Service, ExpiredDeadlineGetsTimeoutReply) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  // Enqueue before start() so the deadline is long gone when a worker
  // finally picks the request up.
  auto done = std::make_shared<std::promise<std::string>>();
  service.submit_line(
      R"({"op": "solve", "deadline_ms": 1.0, "tag": "late"})",
      [done](const std::string& text) { done->set_value(text); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();
  const JsonValue reply = json_parse(done->get_future().get());
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "timeout");
  EXPECT_EQ(reply.at("tag").as_string(), "late");

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_EQ(stats.at("timeouts").as_int(), 1);
  service.stop();
}

TEST(Service, UnknownIdsGetNotFound) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue removed =
      ask(service, R"({"op": "remove_thread", "id": 42})");
  EXPECT_FALSE(removed.at("ok").as_bool());
  EXPECT_EQ(removed.at("code").as_string(), "not_found");
  const JsonValue updated =
      ask(service, R"({"op": "update_utility", "id": 42, "factor": 1.1})");
  EXPECT_EQ(updated.at("code").as_string(), "not_found");
  service.stop();
}

TEST(Service, ParseErrorsGetStructuredReplies) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue reply = ask(service, "this is not json");
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "parse_error");
  const JsonValue unknown = ask(service, R"({"op": "sideways"})");
  EXPECT_EQ(unknown.at("code").as_string(), "unknown_op");
  service.stop();
}

TEST(Service, ErrorRepliesKeepRequestOrder) {
  // A protocol error must flow through the queue with everything else: its
  // reply may not overtake replies to earlier valid requests.
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  std::mutex order_mutex;
  std::vector<std::string> codes;
  const auto record = [&order_mutex, &codes](const std::string& text) {
    const JsonValue reply = json_parse(text);
    const JsonValue* code = reply.find("code");
    std::lock_guard lock(order_mutex);
    codes.push_back(code != nullptr ? code->as_string() : "ok");
  };
  // Enqueued before start() so all four land in one deterministic batch.
  service.submit_line(kAddPower, record);
  service.submit_line(R"({"op": "solve"})", record);
  service.submit_line(R"({"op": "bogus"})", record);
  service.submit_line(R"({"op": "stats"})", record);
  service.start();
  const JsonValue last = ask(service, R"({"op": "stats"})");
  EXPECT_TRUE(last.at("ok").as_bool());
  {
    std::lock_guard lock(order_mutex);
    ASSERT_EQ(codes.size(), 4u);
    EXPECT_EQ(codes[0], "ok");
    EXPECT_EQ(codes[1], "ok");
    EXPECT_EQ(codes[2], "unknown_op");
    EXPECT_EQ(codes[3], "ok");
  }
  service.stop();
}

TEST(Service, QueueOverflowIsAnsweredInline) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 1;
  Service service(config);
  auto first = std::make_shared<std::promise<std::string>>();
  service.submit_line(kAddPower, [first](const std::string& text) {
    first->set_value(text);
  });
  const JsonValue overflow = ask(service, R"({"op": "solve"})");
  EXPECT_FALSE(overflow.at("ok").as_bool());
  EXPECT_EQ(overflow.at("code").as_string(), "overflow");
  service.start();
  EXPECT_TRUE(json_parse(first->get_future().get()).at("ok").as_bool());
  service.stop();
}

TEST(Service, ShutdownStopsAcceptingRequests) {
  Service service(ServiceConfig{});
  service.start();
  EXPECT_FALSE(service.shutdown_requested());
  const JsonValue reply = ask(service, R"({"op": "shutdown"})");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_TRUE(service.shutdown_requested());
  const JsonValue refused = ask(service, R"({"op": "stats"})");
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_EQ(refused.at("code").as_string(), "shutting_down");
  service.stop();
}

TEST(Service, StopIsIdempotentAndSafeWithoutStart) {
  Service service(ServiceConfig{});
  service.stop();
  service.stop();
}

// Several client threads hammer one service; every reply must arrive, be
// well-formed, and every solve must certify. Exercises the worker pool,
// the batching turn, and the ordered delivery under real contention (the
// TSan CI job runs this binary).
TEST(Service, ConcurrentClients) {
  ServiceConfig config;
  config.workers = 4;
  config.batch_max = 16;
  config.batch_linger_ms = 0.1;
  Service service(config);
  service.start();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> solve_failures{0};
  std::atomic<int> reply_failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::int64_t> ids;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        JsonValue reply;
        if (i % 5 == 4) {
          reply = ask(service, R"({"op": "solve"})");
          if (!reply.at("ok").as_bool() ||
              !reply.at("certificate_ok").as_bool()) {
            ++solve_failures;
          }
          continue;
        }
        if (ids.size() < 3 || i % 3 == 0) {
          reply = ask(service, kAddPower);
          if (reply.at("ok").as_bool()) {
            ids.push_back(reply.at("id").as_int());
          } else {
            ++reply_failures;
          }
        } else {
          const std::int64_t id =
              ids[static_cast<std::size_t>(c + i) % ids.size()];
          reply = ask(service,
                      R"({"op": "update_utility", "id": )" +
                          std::to_string(id) + R"(, "factor": 1.01})");
          if (!reply.at("ok").as_bool()) ++reply_failures;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(solve_failures.load(), 0);
  EXPECT_EQ(reply_failures.load(), 0);

  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_GE(stats.at("requests_total").as_int(),
            kClients * kRequestsPerClient);
  EXPECT_EQ(stats.at("errors_total").as_int(), 0);
  service.stop();
}

/// The value of one exposition sample line (`series value`), or "" when
/// the series is absent.
std::string sample_value(const std::string& body, const std::string& series) {
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.size() > series.size() && line.starts_with(series) &&
        line[series.size()] == ' ') {
      return line.substr(series.size() + 1);
    }
  }
  return "";
}

// A solve that times out in the queue is a request and an error of its
// tenant, in the exposition as in the `slo` verb.
TEST(Service, TimedOutSolveCountsTowardItsTenant) {
  ServiceConfig config;
  config.workers = 1;
  Service service(config);
  std::future<std::string> late =
      submit(service, R"({"op": "solve", "deadline_ms": 1.0})");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();
  EXPECT_EQ(json_parse(late.get()).at("code").as_string(), "timeout");

  const std::string body =
      ask(service, R"({"op": "metrics"})").at("body").as_string();
  EXPECT_EQ(
      sample_value(body, R"(aa_svc_tenant_requests_total{tenant="default"})"),
      "1")
      << body;
  EXPECT_EQ(
      sample_value(body, R"(aa_svc_tenant_errors_total{tenant="default"})"),
      "1")
      << body;
  const JsonValue slo = ask(service, R"({"op": "slo"})");
  ASSERT_EQ(slo.at("tenants").as_array().size(), 1u);
  const JsonValue& entry = slo.at("tenants").as_array()[0];
  EXPECT_EQ(entry.at("requests").as_int(), 1);
  EXPECT_EQ(entry.at("deadline_misses").as_int(), 1);
  service.stop();
}

// Service::stats() is the `stats` payload read from outside the request
// path (aa_serve dumps it into the --metrics blob): with tenants on both
// shards it sees every shard's figures, the same as the verb.
TEST(Service, PublicStatsMatchesTheStatsVerb) {
  ServiceConfig config;
  config.shards = 2;
  config.workers = 2;
  Service service(config);
  service.start();
  ASSERT_EQ(shard_of("alpha", 2), 1u);
  EXPECT_TRUE(
      ask(service, R"({"op": "tenant_create", "tenant": "alpha"})")
          .at("ok")
          .as_bool());
  EXPECT_TRUE(ask(service, kAddPower).at("ok").as_bool());
  EXPECT_TRUE(
      ask(service,
          R"({"op": "add_thread", "tenant": "alpha", "thread": {"type": "power", "scale": 2.0, "beta": 0.5}})")
          .at("ok")
          .as_bool());
  EXPECT_TRUE(ask(service, R"({"op": "solve"})").at("ok").as_bool());
  EXPECT_TRUE(
      ask(service, R"({"op": "solve", "tenant": "alpha"})").at("ok").as_bool());

  const JsonValue verb = ask(service, R"({"op": "stats"})");
  const JsonValue direct = service.stats();
  EXPECT_EQ(direct.find("ok"), nullptr);
  EXPECT_EQ(direct.at("requests_total").as_int(), 6);
  EXPECT_EQ(direct.at("threads").as_int(), 2);
  EXPECT_EQ(direct.at("solves").at("full").as_int(), 2);
  // The stats request itself finishes after its reply is built, so only
  // its own latency sample separates the two reads.
  for (const char* key : {"requests_total", "requests", "threads", "version",
                          "tenants", "batches", "solves", "migrations",
                          "tenant_ops", "solve_latency"}) {
    EXPECT_EQ(direct.at(key).dump(), verb.at(key).dump()) << key;
  }
  service.stop();
}

// Pinned counters. One fixed script over the default tenant, "east" (shard
// 0 of 2, with the default tenant) and "alpha" (shard 1 of 2), run with
// synchronous round trips so every figure is deterministic. Every number
// in the `stats` reply and every sample of the `metrics` exposition is
// asserted, except wall-clock values: latency buckets, sums and
// quantiles, uptime, burn rates and the process-wide rid.
struct Scrape {
  std::vector<std::string> stats;       ///< "path value", in key order.
  std::vector<std::string> exposition;  ///< Lines, in emission order.
};

bool wall_clock(std::string_view line) {
  const bool latency = line.find("latency") != std::string_view::npos;
  return line.starts_with("aa_uptime_seconds ") ||
         line.starts_with("aa_svc_slo_burn_rate{") ||
         (latency && (line.find("_bucket") != std::string_view::npos ||
                      line.find("_sum ") != std::string_view::npos ||
                      line.find("quantile=") != std::string_view::npos));
}

void flatten(const JsonValue& node, const std::string& path,
             std::vector<std::string>& out) {
  if (node.is_object()) {
    for (const auto& [key, value] : node.as_object()) {
      flatten(value, path.empty() ? key : path + "." + key, out);
    }
    return;
  }
  const bool latency = path.starts_with("request_latency.") ||
                       path.starts_with("solve_latency.");
  if (!node.is_number() || path == "rid" ||
      (latency && !path.ends_with(".count"))) {
    return;
  }
  out.push_back(path + " " + node.dump());
}

Scrape run_pinned_scenario(std::size_t shards) {
  ServiceConfig config;
  config.shards = shards;
  config.workers = 2;
  Service service(config);

  // Before start(): one batch on the default tenant's shard, with three
  // coalesced solves and a solve whose deadline expires in the queue.
  std::vector<std::future<std::string>> early;
  for (const char* line :
       {kAddPower, R"({"op": "solve"})", kAddPower, R"({"op": "solve"})",
        R"({"op": "solve"})", R"({"op": "solve", "deadline_ms": 1.0})"}) {
    early.push_back(submit(service, line));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.start();
  std::vector<std::string> early_codes;
  for (auto& reply : early) {
    const JsonValue parsed = json_parse(reply.get());
    const JsonValue* code = parsed.find("code");
    early_codes.push_back(code != nullptr ? code->as_string() : "ok");
  }
  EXPECT_EQ(early_codes, (std::vector<std::string>{"ok", "ok", "ok", "ok",
                                                   "ok", "timeout"}));

  struct Step {
    const char* line;
    const char* code;  ///< "ok" or the expected error code.
  };
  const Step script[] = {
      {R"({"op": "tenant_create", "tenant": "east", "weight": 2})", "ok"},
      {R"({"op": "tenant_create", "tenant": "alpha", "max_threads": 1})",
       "ok"},
      {R"({"op": "tenant_create", "tenant": "east"})", "tenant_exists"},
      {R"({"op": "add_thread", "tenant": "east", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})",
       "ok"},
      {R"({"op": "add_thread", "tenant": "east", "thread": {"type": "power", "scale": 2.0, "beta": 0.4}})",
       "ok"},
      {R"({"op": "add_thread", "tenant": "alpha", "thread": {"type": "power", "scale": 1.0, "beta": 0.6}})",
       "ok"},
      {R"({"op": "add_thread", "tenant": "alpha", "thread": {"type": "power", "scale": 1.0, "beta": 0.6}})",
       "quota_exceeded"},
      {R"({"op": "update_utility", "tenant": "east", "id": 1, "factor": 1.5})",
       "ok"},
      {R"({"op": "update_utility", "tenant": "east", "id": 9, "factor": 1.5})",
       "not_found"},
      {R"({"op": "remove_thread", "tenant": "east", "id": 2})", "ok"},
      {R"({"op": "remove_thread", "tenant": "alpha", "id": 7})",
       "not_found"},
      {R"({"op": "add_thread", "tenant": "east", "thread": {"type": "power", "scale": 3.0, "beta": 0.5}})",
       "ok"},
      {R"({"op": "solve", "tenant": "east"})", "ok"},
      {R"({"op": "solve", "tenant": "east"})", "ok"},
      {R"({"op": "update_utility", "tenant": "east", "id": 1, "factor": 1.1})",
       "ok"},
      {R"({"op": "solve", "tenant": "east"})", "ok"},
      {R"({"op": "solve", "tenant": "alpha"})", "ok"},
      {R"({"op": "solve", "tenant": "ghost"})", "tenant_not_found"},
      {"this is not json", "parse_error"},
      {R"({"op": "sideways"})", "unknown_op"},
      {R"({"op": "tenant_update", "tenant": "east", "weight": 3})", "ok"},
      {R"({"op": "tenant_update", "tenant": "ghost", "weight": 3})",
       "tenant_not_found"},
      {R"({"op": "tenant_create", "tenant": "west"})", "ok"},
      {R"({"op": "tenant_delete", "tenant": "west"})", "ok"},
      {R"({"op": "tenant_delete", "tenant": "default"})", "bad_tenant"},
      {R"({"op": "tenant_list"})", "ok"},
      {R"({"op": "slo"})", "ok"},
      {R"({"op": "trace"})", "ok"},
  };
  for (const Step& step : script) {
    const JsonValue reply = ask(service, step.line);
    const JsonValue* code = reply.find("code");
    EXPECT_EQ(code != nullptr ? code->as_string() : "ok", step.code)
        << step.line;
  }

  Scrape scrape;
  const JsonValue stats = ask(service, R"({"op": "stats"})");
  for (const auto& [key, value] : stats.as_object()) {
    flatten(value, key, scrape.stats);
  }
  std::istringstream body(
      ask(service, R"({"op": "metrics"})").at("body").as_string());
  for (std::string line; std::getline(body, line);) {
    if (!wall_clock(line)) scrape.exposition.push_back(line);
  }
  service.stop();
  return scrape;
}

// The expected scrape with one shard, line for line. The default tenant's
// requests (6) and errors (1) include its timed-out solve.
constexpr const char* kPinnedStats = R"(threads 5
servers 2
capacity 64
version 23
tenants 3
shards 1
pool_units 128
queue_depth 0
queue_peak 6
requests_total 35
requests.add_thread 7
requests.remove_thread 2
requests.update_utility 3
requests.solve 9
requests.stats 1
requests.metrics 0
requests.trace 1
requests.slo 1
requests.shutdown 0
requests.tenant_create 4
requests.tenant_update 2
requests.tenant_delete 2
requests.tenant_list 1
errors_total 10
timeouts 1
deadline_misses 1
batches 30
batching.mean_size 1.1666666666666667
batching.max_size 6
solves.full 3
solves.warm 1
solves.cached 1
solves.coalesced 2
migrations 0
tenant_ops.creates 3
tenant_ops.updates 1
tenant_ops.deletes 1
tenant_ops.redivides 6
request_latency.count 34
solve_latency.count 5)";

constexpr const char* kPinnedExposition = R"(# TYPE aa_uptime_seconds gauge
# TYPE aa_svc_tenants gauge
aa_svc_tenants 3
# TYPE aa_svc_shards gauge
aa_svc_shards 1
# TYPE aa_svc_tenant_requests_total counter
aa_svc_tenant_requests_total{tenant="alpha"} 4
aa_svc_tenant_requests_total{tenant="default"} 6
aa_svc_tenant_requests_total{tenant="east"} 10
# TYPE aa_svc_tenant_errors_total counter
aa_svc_tenant_errors_total{tenant="alpha"} 2
aa_svc_tenant_errors_total{tenant="default"} 1
aa_svc_tenant_errors_total{tenant="east"} 1
# TYPE aa_svc_tenant_solves_total counter
aa_svc_tenant_solves_total{tenant="alpha",path="full"} 1
aa_svc_tenant_solves_total{tenant="alpha",path="warm"} 0
aa_svc_tenant_solves_total{tenant="alpha",path="cached"} 0
aa_svc_tenant_solves_total{tenant="default",path="full"} 1
aa_svc_tenant_solves_total{tenant="default",path="warm"} 0
aa_svc_tenant_solves_total{tenant="default",path="cached"} 0
aa_svc_tenant_solves_total{tenant="east",path="full"} 1
aa_svc_tenant_solves_total{tenant="east",path="warm"} 1
aa_svc_tenant_solves_total{tenant="east",path="cached"} 1
# TYPE aa_svc_tenant_threads gauge
aa_svc_tenant_threads{tenant="alpha"} 1
aa_svc_tenant_threads{tenant="default"} 2
aa_svc_tenant_threads{tenant="east"} 2
# TYPE aa_svc_tenant_slice_units gauge
aa_svc_tenant_slice_units{tenant="alpha"} 25.6
aa_svc_tenant_slice_units{tenant="default"} 25.6
aa_svc_tenant_slice_units{tenant="east"} 76.8
# TYPE aa_svc_tenant_demand_units gauge
aa_svc_tenant_demand_units{tenant="alpha"} 64
aa_svc_tenant_demand_units{tenant="default"} 128
aa_svc_tenant_demand_units{tenant="east"} 128
# TYPE aa_svc_tenant_credits gauge
aa_svc_tenant_credits{tenant="alpha"} 0
aa_svc_tenant_credits{tenant="default"} 0
aa_svc_tenant_credits{tenant="east"} 0
# TYPE aa_svc_tenant_deadline_miss_total counter
aa_svc_tenant_deadline_miss_total{tenant="alpha"} 0
aa_svc_tenant_deadline_miss_total{tenant="default"} 1
aa_svc_tenant_deadline_miss_total{tenant="east"} 0
# TYPE aa_svc_slo_budget_ratio gauge
aa_svc_slo_budget_ratio{tenant="alpha"} 499.99999999999955
aa_svc_slo_budget_ratio{tenant="default"} 166.66666666666652
aa_svc_slo_budget_ratio{tenant="east"} 99.99999999999991
# TYPE aa_svc_slo_burn_rate gauge
# TYPE aa_svc_requests_total counter
aa_svc_requests_total 36
# TYPE aa_svc_requests_by_op_total counter
aa_svc_requests_by_op_total{op="add_thread"} 7
aa_svc_requests_by_op_total{op="remove_thread"} 2
aa_svc_requests_by_op_total{op="update_utility"} 3
aa_svc_requests_by_op_total{op="solve"} 9
aa_svc_requests_by_op_total{op="stats"} 1
aa_svc_requests_by_op_total{op="metrics"} 1
aa_svc_requests_by_op_total{op="trace"} 1
aa_svc_requests_by_op_total{op="slo"} 1
aa_svc_requests_by_op_total{op="shutdown"} 0
aa_svc_requests_by_op_total{op="tenant_create"} 4
aa_svc_requests_by_op_total{op="tenant_update"} 2
aa_svc_requests_by_op_total{op="tenant_delete"} 2
aa_svc_requests_by_op_total{op="tenant_list"} 1
# TYPE aa_svc_errors_total counter
aa_svc_errors_total 10
# TYPE aa_svc_timeouts_total counter
aa_svc_timeouts_total 1
# TYPE aa_svc_deadline_miss_total counter
aa_svc_deadline_miss_total 1
# TYPE aa_svc_batches_total counter
aa_svc_batches_total 31
# TYPE aa_svc_solves_coalesced_total counter
aa_svc_solves_coalesced_total 2
# TYPE aa_svc_solves_total counter
aa_svc_solves_total{path="full"} 3
aa_svc_solves_total{path="warm"} 1
aa_svc_solves_total{path="cached"} 1
# TYPE aa_svc_migrations_total counter
aa_svc_migrations_total 0
# TYPE aa_svc_certificates_total counter
aa_svc_certificates_total{verdict="pass"} 5
aa_svc_certificates_total{verdict="fail"} 0
# TYPE aa_svc_tenant_creates_total counter
aa_svc_tenant_creates_total 3
# TYPE aa_svc_tenant_updates_total counter
aa_svc_tenant_updates_total 1
# TYPE aa_svc_tenant_deletes_total counter
aa_svc_tenant_deletes_total 1
# TYPE aa_svc_pool_redivides_total counter
aa_svc_pool_redivides_total 6
# TYPE aa_svc_queue_depth gauge
aa_svc_queue_depth 0
# TYPE aa_svc_queue_peak gauge
aa_svc_queue_peak 6
# TYPE aa_svc_threads gauge
aa_svc_threads 5
# TYPE aa_svc_state_version gauge
aa_svc_state_version 23
# TYPE aa_svc_request_latency_ms histogram
aa_svc_request_latency_ms_count 35
# TYPE aa_svc_request_latency_quantiles_ms summary
aa_svc_request_latency_quantiles_ms_count 35
# TYPE aa_svc_solve_latency_ms histogram
aa_svc_solve_latency_ms_count 5
# TYPE aa_svc_solve_latency_quantiles_ms summary
aa_svc_solve_latency_quantiles_ms_count 5
# TYPE aa_svc_batch_size histogram
aa_svc_batch_size_bucket{le="1"} 30
aa_svc_batch_size_bucket{le="8"} 31
aa_svc_batch_size_bucket{le="+Inf"} 31
aa_svc_batch_size_sum 36
aa_svc_batch_size_count 31
# TYPE aa_svc_queue_depth_samples histogram
aa_svc_queue_depth_samples_bucket{le="1"} 31
aa_svc_queue_depth_samples_bucket{le="2"} 32
aa_svc_queue_depth_samples_bucket{le="4"} 34
aa_svc_queue_depth_samples_bucket{le="8"} 36
aa_svc_queue_depth_samples_bucket{le="+Inf"} 36
aa_svc_queue_depth_samples_sum 51
aa_svc_queue_depth_samples_count 36)";

std::vector<std::string> lines_of(std::string_view text) {
  std::vector<std::string> lines;
  std::istringstream stream{std::string(text)};
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  return lines;
}

TEST(ServicePinned, OneShardScrapeIsPinnedLineForLine) {
  const Scrape scrape = run_pinned_scenario(1);
  EXPECT_EQ(scrape.stats, lines_of(kPinnedStats));
  EXPECT_EQ(scrape.exposition, lines_of(kPinnedExposition));
}

// Two shards merge to the same figures: only the shard count and the
// order of the per-tenant rows (shard by shard) differ.
TEST(ServicePinned, TwoShardScrapeMergesToTheSameCounts) {
  ASSERT_EQ(shard_of(kDefaultTenant, 2), 0u);
  ASSERT_EQ(shard_of("east", 2), 0u);
  ASSERT_EQ(shard_of("alpha", 2), 1u);
  const Scrape scrape = run_pinned_scenario(2);
  std::vector<std::string> stats = lines_of(kPinnedStats);
  std::replace(stats.begin(), stats.end(), std::string("shards 1"),
               std::string("shards 2"));
  EXPECT_EQ(scrape.stats, stats);

  std::vector<std::string> expected = lines_of(kPinnedExposition);
  std::replace(expected.begin(), expected.end(),
               std::string("aa_svc_shards 1"), std::string("aa_svc_shards 2"));
  std::vector<std::string> actual = scrape.exposition;
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace aa::svc
