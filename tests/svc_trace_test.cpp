// End-to-end request tracing and SLO accounting on the in-process service
// (svc/service.hpp): request-id assignment and propagation into replies,
// the `trace` verb's tail capture, the `slo` verb's per-tenant accounting,
// the structured slow/error log events, and the acceptance-criteria chain
// — one slow request followable by rid from the reply through the server
// log, the `trace` verb, and the Perfetto export.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
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

std::vector<JsonValue> parse_lines(const std::string& text) {
  std::vector<JsonValue> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) {
      lines.push_back(json_parse(text.substr(start, end - start)));
    }
    start = end + 1;
  }
  return lines;
}

/// The first log line for `event`, or null if none was emitted.
const JsonValue* find_event(const std::vector<JsonValue>& lines,
                            std::string_view event) {
  for (const JsonValue& line : lines) {
    if (line.at("event").as_string() == event) return &line;
  }
  return nullptr;
}

TEST(SvcTrace, RepliesCarryIncreasingProcessUniqueRids) {
  Service service(ServiceConfig{});
  service.start();
  std::vector<std::int64_t> rids;
  for (const char* line :
       {kAddPower, R"({"op": "solve"})", R"({"op": "stats"})",
        R"({"op": "tenant_list"})"}) {
    const JsonValue reply = ask(service, line);
    EXPECT_TRUE(reply.at("ok").as_bool());
    rids.push_back(reply.at("rid").as_int());
  }
  for (std::size_t i = 0; i < rids.size(); ++i) {
    EXPECT_GT(rids[i], 0) << i;
    // Assigned at parse time from one process-wide counter, and these
    // round trips are sequential: strictly increasing.
    if (i > 0) {
      EXPECT_GT(rids[i], rids[i - 1]) << i;
    }
  }
  service.stop();
}

TEST(SvcTrace, ErrorRepliesCarryRidsToo) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue parse_error = ask(service, "this is not json");
  EXPECT_FALSE(parse_error.at("ok").as_bool());
  EXPECT_GT(parse_error.at("rid").as_int(), 0);
  const JsonValue unknown = ask(service, R"({"op": "sideways"})");
  EXPECT_GT(unknown.at("rid").as_int(), 0);
  EXPECT_NE(parse_error.at("rid").as_int(), unknown.at("rid").as_int());
  service.stop();
}

TEST(SvcTrace, TraceVerbReturnsRidStampedTailCapture) {
  Service service(ServiceConfig{});
  service.start();
  const JsonValue added = ask(service, kAddPower);
  const JsonValue solved = ask(service, R"({"op": "solve", "tag": "s"})");
  const JsonValue failed = ask(service, R"({"op": "bogus"})");

  const JsonValue tail = ask(service, R"({"op": "trace"})");
  EXPECT_TRUE(tail.at("ok").as_bool());
  EXPECT_EQ(tail.at("op").as_string(), "trace");
  EXPECT_EQ(tail.at("capacity").as_int(), 32);

  const auto& slowest = tail.at("slowest").as_array();
  ASSERT_EQ(slowest.size(), 3u);  // Everything before the trace request.
  std::set<std::int64_t> rids;
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    const JsonValue& entry = slowest[i];
    EXPECT_GT(entry.at("rid").as_int(), 0);
    rids.insert(entry.at("rid").as_int());
    // Slowest-first ordering.
    if (i > 0) {
      EXPECT_LE(entry.at("total_ms").as_number(),
                slowest[i - 1].at("total_ms").as_number());
    }
    // Each entry carries a span chain: queue wait then batch processing.
    const auto& spans = entry.at("spans").as_array();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].at("name").as_string(),
              obs::metric::kEventSvcQueueWait);
    EXPECT_EQ(spans[1].at("name").as_string(), obs::metric::kPhaseSvcBatch);
    EXPECT_GE(spans[0].at("ms").as_number(), 0.0);
    EXPECT_GE(spans[1].at("ms").as_number(), 0.0);
  }
  EXPECT_EQ(rids.count(added.at("rid").as_int()), 1u);
  EXPECT_EQ(rids.count(solved.at("rid").as_int()), 1u);
  EXPECT_EQ(rids.count(failed.at("rid").as_int()), 1u);

  // The errored ring holds exactly the failed request, same rid as its
  // reply, with the error code attached.
  const auto& errors = tail.at("errors").as_array();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].at("rid").as_int(), failed.at("rid").as_int());
  EXPECT_EQ(errors[0].at("code").as_string(), "unknown_op");
  EXPECT_FALSE(errors[0].at("ok").as_bool());
  service.stop();
}

TEST(SvcTrace, SloVerbChargesMissesAgainstTheBudget) {
  ServiceConfig config;
  config.slo_ms = 1e-6;  // Unmeetable: every request misses.
  config.slo_objective = 0.99;
  Service service(config);
  service.start();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ask(service, kAddPower).at("ok").as_bool());
  }
  ASSERT_TRUE(ask(service, R"({"op": "solve"})").at("ok").as_bool());

  const JsonValue slo = ask(service, R"({"op": "slo"})");
  EXPECT_TRUE(slo.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(slo.at("objective").as_number(), 0.99);
  EXPECT_DOUBLE_EQ(slo.at("slo_ms").as_number(), 1e-6);
  const auto& tenants = slo.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 1u);  // Only the built-in default tenant.
  const JsonValue& entry = tenants[0];
  EXPECT_EQ(entry.at("tenant").as_string(), "default");
  EXPECT_EQ(entry.at("requests").as_int(), 4);
  EXPECT_EQ(entry.at("deadline_misses").as_int(), 4);
  EXPECT_EQ(entry.at("good").as_int(), 0);
  // Lifetime miss ratio 1.0 against a 0.01 budget: fully consumed, and
  // the short windows burn at the same 100x rate.
  EXPECT_NEAR(entry.at("budget_consumed").as_number(), 100.0, 1e-9);
  EXPECT_NEAR(entry.at("burn_1m").as_number(), 100.0, 1e-9);
  EXPECT_NEAR(entry.at("burn_5m").as_number(), 100.0, 1e-9);
  EXPECT_NEAR(entry.at("burn_30m").as_number(), 100.0, 1e-9);

  // The aggregate miss counter reaches stats and the metrics exposition.
  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_GE(stats.at("deadline_misses").as_int(), 4);
  const JsonValue metrics = ask(service, R"({"op": "metrics"})");
  const std::string body = metrics.at("body").as_string();
  EXPECT_NE(body.find("aa_svc_deadline_miss_total"), std::string::npos);
  EXPECT_NE(
      body.find("aa_svc_tenant_deadline_miss_total{tenant=\"default\"} 4"),
      std::string::npos)
      << body;
  EXPECT_NE(body.find("aa_svc_slo_budget_ratio{tenant=\"default\"}"),
            std::string::npos);
  EXPECT_NE(body.find(
                "aa_svc_slo_burn_rate{tenant=\"default\",window=\"1m\"}"),
            std::string::npos)
      << body;
  service.stop();
}

TEST(SvcTrace, GenerousSloLeavesTheBudgetUntouched) {
  ServiceConfig config;
  config.slo_ms = 1e9;
  Service service(config);
  service.start();
  ASSERT_TRUE(ask(service, kAddPower).at("ok").as_bool());
  ASSERT_TRUE(ask(service, R"({"op": "solve"})").at("ok").as_bool());
  const JsonValue slo = ask(service, R"({"op": "slo"})");
  const auto& tenants = slo.at("tenants").as_array();
  ASSERT_EQ(tenants.size(), 1u);
  const JsonValue& entry = tenants[0];
  EXPECT_EQ(entry.at("requests").as_int(), 2);
  EXPECT_EQ(entry.at("good").as_int(), 2);
  EXPECT_EQ(entry.at("deadline_misses").as_int(), 0);
  EXPECT_DOUBLE_EQ(entry.at("budget_consumed").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(entry.at("burn_1m").as_number(), 0.0);
  service.stop();
}

TEST(SvcTrace, SlowAndErrorLogEventsCarryTheReplyRid) {
  std::ostringstream log_out;
  obs::LoggerConfig log_config;
  log_config.events_per_sec = 0.0;  // No limiting: assert exact lines.
  obs::Logger logger(log_out, log_config);

  ServiceConfig config;
  config.slow_ms = 1e-6;  // Every successful request is "slow".
  Service service(config);
  service.start();
  const JsonValue added = ask(service, kAddPower);
  const JsonValue failed = ask(service, R"({"op": "bogus"})");
  service.stop();  // Joins the workers: all log lines are flushed.

  const std::vector<JsonValue> lines = parse_lines(log_out.str());
  const JsonValue* slow =
      find_event(lines, obs::metric::kLogSvcSlowRequest);
  ASSERT_NE(slow, nullptr) << log_out.str();
  EXPECT_EQ(slow->at("rid").as_int(), added.at("rid").as_int());
  EXPECT_EQ(slow->at("level").as_string(), "warn");
  EXPECT_EQ(slow->at("tenant").as_string(), "default");
  EXPECT_EQ(slow->at("op").as_string(), "add_thread");
  EXPECT_GE(slow->at("total_ms").as_number(), 0.0);
  EXPECT_GE(slow->at("queue_wait_ms").as_number(), 0.0);

  const JsonValue* error =
      find_event(lines, obs::metric::kLogSvcRequestError);
  ASSERT_NE(error, nullptr) << log_out.str();
  EXPECT_EQ(error->at("rid").as_int(), failed.at("rid").as_int());
  EXPECT_EQ(error->at("code").as_string(), "unknown_op");
}

// The acceptance chain: one slow request, followed by rid from its reply
// to the structured server log, the `trace` verb tail, and the Perfetto
// export's span args — the in-process half of the story the binary test
// (svc_server_test.cpp) drives over a real socket.
TEST(SvcTrace, SlowRequestIsFollowableByRidAcrossAllSurfaces) {
  obs::Session session;  // Collects the per-thread trace rings.
  std::ostringstream log_out;
  obs::LoggerConfig log_config;
  log_config.events_per_sec = 0.0;
  obs::Logger logger(log_out, log_config);

  ServiceConfig config;
  config.slow_ms = 1e-6;
  Service service(config);
  service.start();
  ASSERT_TRUE(ask(service, kAddPower).at("ok").as_bool());
  const JsonValue solved = ask(service, R"({"op": "solve", "tag": "e2e"})");
  ASSERT_TRUE(solved.at("ok").as_bool());
  const std::int64_t rid = solved.at("rid").as_int();
  ASSERT_GT(rid, 0);

  // Surface 2 (the reply itself is surface 1): the trace verb's tail.
  const JsonValue tail = ask(service, R"({"op": "trace"})");
  bool in_tail = false;
  for (const JsonValue& entry : tail.at("slowest").as_array()) {
    if (entry.at("rid").as_int() != rid) continue;
    in_tail = true;
    EXPECT_EQ(entry.at("tag").as_string(), "e2e");
    EXPECT_EQ(entry.at("op").as_string(), "solve");
  }
  EXPECT_TRUE(in_tail) << tail.dump(2);
  service.stop();

  // Surface 3: the structured server log.
  const std::vector<JsonValue> lines = parse_lines(log_out.str());
  bool in_log = false;
  for (const JsonValue& line : lines) {
    if (line.at("event").as_string() == obs::metric::kLogSvcSlowRequest &&
        line.at("rid").as_int() == rid) {
      in_log = true;
    }
  }
  EXPECT_TRUE(in_log) << log_out.str();

  // Surface 4: the Perfetto export stamps the request's spans with the
  // rid in args, so the trace UI can filter one request's timeline.
  const JsonValue trace = obs::export_chrome_trace(session);
  bool in_perfetto = false;
  for (const JsonValue& event : trace.at("traceEvents").as_array()) {
    const JsonValue* args = event.find("args");
    if (args == nullptr) continue;
    const JsonValue* arg_rid = args->find("rid");
    if (arg_rid != nullptr && arg_rid->as_int() == rid) in_perfetto = true;
  }
  EXPECT_TRUE(in_perfetto);
}

// The `trace` verb merges the per-shard tails: errors are the last 32 by
// finish time across both shards, slowest the top 32 of both.
TEST(SvcTrace, TailMergesAcrossShards) {
  ServiceConfig config;
  config.shards = 2;
  config.workers = 2;
  Service service(config);
  service.start();
  // "east" hashes to shard 0 and "alpha" to shard 1 of 2.
  ASSERT_EQ(shard_of("east", 2), 0u);
  ASSERT_EQ(shard_of("alpha", 2), 1u);
  for (const char* tenant : {"east", "alpha"}) {
    std::string create = R"({"op": "tenant_create", "tenant": ")";
    create += tenant;
    create += R"("})";
    ASSERT_TRUE(ask(service, create).at("ok").as_bool());
  }
  std::vector<std::int64_t> sent;
  std::set<std::int64_t> on_shard[2];
  for (int i = 0; i < 40; ++i) {
    const char* tenant = i % 2 == 0 ? "east" : "alpha";
    std::string line = R"({"op": "remove_thread", "id": 999, "tenant": ")";
    line += tenant;
    line += R"("})";
    const JsonValue reply = ask(service, line);
    ASSERT_EQ(reply.at("code").as_string(), "not_found");
    sent.push_back(reply.at("rid").as_int());
    on_shard[i % 2].insert(sent.back());
  }

  const JsonValue tail = ask(service, R"({"op": "trace"})");
  std::vector<std::int64_t> errors;
  for (const JsonValue& entry : tail.at("errors").as_array()) {
    errors.push_back(entry.at("rid").as_int());
  }
  EXPECT_EQ(errors, std::vector<std::int64_t>(sent.end() - 32, sent.end()));

  const auto& slowest = tail.at("slowest").as_array();
  EXPECT_LE(slowest.size(), 32u);
  bool seen[2] = {false, false};
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    const std::int64_t rid = slowest[i].at("rid").as_int();
    for (int s = 0; s < 2; ++s) seen[s] = seen[s] || on_shard[s].count(rid);
    if (i > 0) {
      EXPECT_LE(slowest[i].at("total_ms").as_number(),
                slowest[i - 1].at("total_ms").as_number());
    }
  }
  EXPECT_TRUE(seen[0]);
  EXPECT_TRUE(seen[1]);
  service.stop();
}

// Multi-tenant soak at the default log level and rate limits: routine
// traffic must not lose a single log line (obs/log_dropped == 0) — the
// limiter exists for pathological floods, not steady state.
TEST(SvcTrace, MultiTenantSoakDropsNoLogLines) {
  obs::Session session;
  std::ostringstream log_out;
  obs::Logger logger(log_out, obs::LoggerConfig{});

  ServiceConfig config;
  config.shards = 2;
  config.workers = 2;
  Service service(config);
  service.start();
  constexpr int kTenants = 4;
  for (int t = 0; t < kTenants; ++t) {
    std::string create = R"({"op": "tenant_create", "tenant": "t)";
    create += std::to_string(t);
    create += R"("})";
    ASSERT_TRUE(ask(service, create).at("ok").as_bool());
  }
  for (int i = 0; i < 200; ++i) {
    std::string tenant = "t";  // Not `"t" + to_string`: GCC 12 -Wrestrict
    tenant += std::to_string(i % kTenants);  // false-positives on that.
    std::string line;
    if (i % 10 == 9) {
      line = R"({"op": "solve", "tenant": ")";
      line += tenant;
      line += R"("})";
    } else {
      line = R"({"op": "add_thread", "tenant": ")";
      line += tenant;
      line += R"(", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})";
    }
    const JsonValue reply = ask(service, line);
    ASSERT_TRUE(reply.at("ok").as_bool()) << reply.dump(2);
  }
  const JsonValue stats = ask(service, R"({"op": "stats"})");
  EXPECT_EQ(stats.at("errors_total").as_int(), 0);
  service.stop();

  EXPECT_EQ(logger.dropped(), 0) << log_out.str();
  EXPECT_EQ(
      session.metrics().counter(std::string(obs::metric::kObsLogDropped)),
      0);
}

}  // namespace
}  // namespace aa::svc
