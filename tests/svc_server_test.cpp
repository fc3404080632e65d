// Transport tests for the allocation service: in-process Unix-domain
// socket round trips (svc/server.hpp + svc/channel.hpp) plus end-to-end
// runs of the real aa_serve / aa_loadgen binaries (paths baked in via
// AA_SERVE_BIN / AA_LOADGEN_BIN).

#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "support/json.hpp"
#include "svc/channel.hpp"
#include "svc/service.hpp"

namespace aa::svc {
namespace {

using support::JsonValue;
using support::json_parse;

constexpr const char* kAddPower =
    R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})";

std::string socket_path(const std::string& name) {
  // Keep it short: sun_path caps at ~108 bytes.
  return "/tmp/aa_svc_test_" + name + "_" + std::to_string(::getpid()) +
         ".sock";
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

/// Service + SocketServer wired up on a fresh socket, server loop running
/// on a background thread until shutdown.
class SocketFixture : public ::testing::Test {
 protected:
  void SetUp() override { start(ServiceConfig{}, kDefaultMaxLineBytes); }

  void start(ServiceConfig config, std::size_t max_line_bytes) {
    path_ = socket_path(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    service_ = std::make_unique<Service>(config);
    service_->start();
    server_ = std::make_unique<SocketServer>(*service_, path_,
                                             max_line_bytes);
    server_thread_ = std::thread([this] { server_->run(); });
  }

  void TearDown() override {
    if (!shut_down_) {
      // Drive the normal path: a shutdown request ends the accept loop.
      FdHandle fd = connect_unix(path_, 2000);
      LineChannel channel(fd.get(), kDefaultMaxLineBytes);
      ASSERT_TRUE(channel.write_line(R"({"op": "shutdown"})"));
      (void)channel.read_line();
    }
    server_thread_.join();
    server_.reset();
    service_->stop();
  }

  JsonValue round_trip(LineChannel& channel, const std::string& line) {
    EXPECT_TRUE(channel.write_line(line));
    const std::optional<std::string> reply = channel.read_line();
    EXPECT_TRUE(reply.has_value());
    return json_parse(reply.value_or("null"));
  }

  std::string path_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<SocketServer> server_;
  std::thread server_thread_;
  bool shut_down_ = false;
};

TEST_F(SocketFixture, RoundTripOverSocket) {
  FdHandle fd = connect_unix(path_, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  const JsonValue added = round_trip(channel, kAddPower);
  EXPECT_TRUE(added.at("ok").as_bool());
  const JsonValue solved = round_trip(channel, R"({"op": "solve"})");
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  const JsonValue bad = round_trip(channel, "garbage");
  EXPECT_EQ(bad.at("code").as_string(), "parse_error");
}

TEST_F(SocketFixture, ShutdownRequestStopsTheServer) {
  FdHandle fd = connect_unix(path_, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  const JsonValue reply = round_trip(channel, R"({"op": "shutdown"})");
  EXPECT_TRUE(reply.at("ok").as_bool());
  shut_down_ = true;  // TearDown only joins.
}

TEST_F(SocketFixture, TwoConnectionsInterleaved) {
  FdHandle fd_a = connect_unix(path_, 2000);
  FdHandle fd_b = connect_unix(path_, 2000);
  LineChannel a(fd_a.get(), kDefaultMaxLineBytes);
  LineChannel b(fd_b.get(), kDefaultMaxLineBytes);
  const JsonValue add_a = round_trip(a, kAddPower);
  const JsonValue add_b = round_trip(b, kAddPower);
  EXPECT_NE(add_a.at("id").as_int(), add_b.at("id").as_int());
  // Tags come back on the connection that sent them.
  EXPECT_EQ(round_trip(a, R"({"op": "stats", "tag": "A"})")
                .at("tag")
                .as_string(),
            "A");
  EXPECT_EQ(round_trip(b, R"({"op": "stats", "tag": "B"})")
                .at("tag")
                .as_string(),
            "B");
}

TEST_F(SocketFixture, MetricsVerbReturnsPrometheusText) {
  FdHandle fd = connect_unix(path_, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  ASSERT_TRUE(round_trip(channel, kAddPower).at("ok").as_bool());
  ASSERT_TRUE(round_trip(channel, R"({"op": "solve"})").at("ok").as_bool());
  const JsonValue reply = round_trip(channel, R"({"op": "metrics"})");
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string body = reply.at("body").as_string();
  EXPECT_NE(body.find("# TYPE aa_svc_requests_total counter\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("aa_svc_threads 1\n"), std::string::npos) << body;
  EXPECT_NE(body.find("_bucket{le=\"+Inf\"}"), std::string::npos) << body;
  // Every line is a comment or `name[{labels}] value`: the metric name
  // stays inside the Prometheus charset and a value token follows.
  constexpr std::string_view kNameChars =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:";
  for (const std::string& line : lines_of(body)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_not_of(kNameChars);
    ASSERT_NE(name_end, std::string::npos) << line;
    ASSERT_GT(name_end, 0u) << line;
    EXPECT_TRUE(line[name_end] == '{' || line[name_end] == ' ') << line;
    EXPECT_NE(line.rfind(' '), line.size() - 1) << line;
  }
}

TEST_F(SocketFixture, RepliesCarryRidsOverTheSocket) {
  // The trace context survives the socket transport: every reply — ok or
  // error — reports the server-assigned request id, and ids stay unique
  // across connections (one process-wide counter).
  FdHandle fd_a = connect_unix(path_, 2000);
  FdHandle fd_b = connect_unix(path_, 2000);
  LineChannel a(fd_a.get(), kDefaultMaxLineBytes);
  LineChannel b(fd_b.get(), kDefaultMaxLineBytes);
  std::set<std::int64_t> rids;
  for (const std::string& line :
       {std::string(kAddPower), std::string(R"({"op": "solve"})"),
        std::string(R"({"op": "bogus"})")}) {
    for (LineChannel* channel : {&a, &b}) {
      const JsonValue reply = round_trip(*channel, line);
      const std::int64_t rid = reply.at("rid").as_int();
      EXPECT_GT(rid, 0) << line;
      rids.insert(rid);
    }
  }
  EXPECT_EQ(rids.size(), 6u);  // No rid reused, even on error replies.
}

TEST_F(SocketFixture, MidStreamEofIsACleanDisconnect) {
  {
    FdHandle fd = connect_unix(path_, 2000);
    // Half a request, no newline, then hang up.
    ASSERT_GT(::send(fd.get(), "{\"op\": \"so", 10, 0), 0);
  }  // fd closes here.
  // The server survives and keeps serving new connections.
  FdHandle fd = connect_unix(path_, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  EXPECT_TRUE(round_trip(channel, R"({"op": "stats"})").at("ok").as_bool());
}

class SmallLineFixture : public SocketFixture {
 protected:
  void SetUp() override { start(ServiceConfig{}, /*max_line_bytes=*/128); }
};

TEST_F(SmallLineFixture, OversizedLineGetsTooLargeThenDisconnect) {
  FdHandle fd = connect_unix(path_, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  const std::string oversized =
      R"({"op": "solve", "tag": ")" + std::string(500, 'x') + R"("})";
  const JsonValue reply = round_trip(channel, oversized);
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("code").as_string(), "too_large");
  // The stream cannot be resynchronized: the server closes it.
  EXPECT_FALSE(channel.write_line(R"({"op": "stats"})") &&
               channel.read_line().has_value());
  // A fresh connection with a small request still works.
  FdHandle fresh = connect_unix(path_, 2000);
  LineChannel fresh_channel(fresh.get(), kDefaultMaxLineBytes);
  EXPECT_TRUE(
      round_trip(fresh_channel, R"({"op": "stats"})").at("ok").as_bool());
}

// --- Binary-driven tests -------------------------------------------------

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

constexpr const char* kServe = AA_SERVE_BIN;
constexpr const char* kLoadgen = AA_LOADGEN_BIN;
constexpr const char* kTop = AA_TOP_BIN;

TEST(ServeBinary, StdioSession) {
  const std::string script =
      R"({"op": "add_thread", "thread": {"type": "log", "scale": 2.0, "rate": 0.1}})"
      "\\n"
      R"({"op": "solve"})"
      "\\n"
      R"({"op": "bogus"})"
      "\\n"
      R"({"op": "shutdown"})";
  const CommandResult run = run_command("printf '" + script + "\\n' | " +
                                        kServe + " --capacity 32");
  ASSERT_EQ(run.status, 0) << run.output;
  const std::vector<std::string> replies = lines_of(run.output);
  ASSERT_EQ(replies.size(), 4u) << run.output;
  EXPECT_TRUE(json_parse(replies[0]).at("ok").as_bool());
  const JsonValue solved = json_parse(replies[1]);
  EXPECT_TRUE(solved.at("ok").as_bool());
  EXPECT_TRUE(solved.at("certificate_ok").as_bool());
  EXPECT_EQ(json_parse(replies[2]).at("code").as_string(), "unknown_op");
  EXPECT_TRUE(json_parse(replies[3]).at("ok").as_bool());
}

TEST(ServeBinary, MetricsVerbRoundTripsOverStdio) {
  const std::string script =
      R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})"
      "\\n"
      R"({"op": "solve"})"
      "\\n"
      R"({"op": "metrics"})"
      "\\n"
      R"({"op": "shutdown"})";
  // --batch-max 1 keeps the metrics request in a later batch than the
  // solve, so the scrape observes the committed solve counters.
  const CommandResult run = run_command("printf '" + script + "\\n' | " +
                                        kServe + " --batch-max 1");
  ASSERT_EQ(run.status, 0) << run.output;
  const std::vector<std::string> replies = lines_of(run.output);
  ASSERT_EQ(replies.size(), 4u) << run.output;
  const JsonValue reply = json_parse(replies[2]);
  EXPECT_TRUE(reply.at("ok").as_bool());
  EXPECT_EQ(reply.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string body = reply.at("body").as_string();
  EXPECT_NE(body.find("# TYPE aa_svc_request_latency_ms histogram\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("aa_svc_solves_total{path=\"full\"} 1\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("aa_svc_certificates_total{verdict=\"pass\"} 1\n"),
            std::string::npos)
      << body;
}

TEST(ServeBinary, TopScrapesLiveServerAndTraceOutIsLoadable) {
  const std::string sock = socket_path("top");
  const std::string trace_file = sock + ".trace.json";
  // Server with --trace-out, a 1000-request soak in the background, and
  // aa_top scraping the metrics verb while the soak is in flight. aa_top
  // exits non-zero if the exposition fails its validator, so it doubles
  // as the format checker.
  const std::string command =
      std::string("sh -c '") + kServe + " --socket " + sock +
      " --trace-out " + trace_file + " & server=$!; " + kLoadgen +
      " --socket " + sock +
      " --requests 1000 --connections 4 --seed 11 & load=$!; " + kTop +
      " --socket " + sock + " --once 1 --raw 1; rc=$?; "
      "wait $load || rc=1; " + kLoadgen + " --socket " + sock +
      " --requests 0 --threads-init 0 --shutdown 1 > /dev/null; "
      "wait $server || rc=1; exit $rc'";
  const CommandResult run = run_command(command);
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("aa_svc_requests_total"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("_bucket{le=\"+Inf\"}"), std::string::npos)
      << run.output;

  // The shutdown trace must be a loadable trace_event document.
  std::ifstream in(trace_file);
  ASSERT_TRUE(in.good()) << trace_file;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonValue trace = json_parse(buffer.str());
  EXPECT_FALSE(trace.at("traceEvents").as_array().empty());
  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
  std::remove(trace_file.c_str());
}

TEST(ServeBinary, StdioRepliesCarryIncreasingRids) {
  const std::string script =
      R"({"op": "add_thread", "thread": {"type": "power", "scale": 1.0, "beta": 0.5}})"
      "\\n"
      R"({"op": "bogus"})"
      "\\n"
      R"({"op": "shutdown"})";
  const CommandResult run =
      run_command("printf '" + script + "\\n' | " + kServe);
  ASSERT_EQ(run.status, 0) << run.output;
  const std::vector<std::string> replies = lines_of(run.output);
  ASSERT_EQ(replies.size(), 3u) << run.output;
  std::int64_t previous = 0;
  for (const std::string& text : replies) {
    const std::int64_t rid = json_parse(text).at("rid").as_int();
    EXPECT_GT(rid, previous) << text;
    previous = rid;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The service's figures live in its stats blocks, not in the obs session:
// the --metrics blob carries them as the final `stats` payload under
// "service", and none of them is mirrored into the session's counters.
TEST(ServeBinary, MetricsBlobCarriesTheServiceStats) {
  const std::string blob_file = socket_path("blob") + ".metrics.json";
  const std::string script =
      R"({"op": "tenant_create", "tenant": "east"})"
      "\\n" + std::string(kAddPower) + "\\n" + kAddPower + "\\n"
      R"({"op": "solve"})"
      "\\n"
      R"({"op": "solve"})"
      "\\n"
      R"({"op": "stats"})";
  // --batch-max 1: one batch per request, so the batch count is exact.
  const CommandResult run =
      run_command("printf '" + script + "\\n' | " + kServe +
                  " --stdio 1 --batch-max 1 --metrics " + blob_file);
  ASSERT_EQ(run.status, 0) << run.output;
  const std::vector<std::string> replies = lines_of(run.output);
  ASSERT_EQ(replies.size(), 6u) << run.output;
  const JsonValue in_band = json_parse(replies[5]);
  ASSERT_TRUE(in_band.at("ok").as_bool()) << replies[5];

  const JsonValue blob = json_parse(read_file(blob_file));
  std::remove(blob_file.c_str());
  const JsonValue& service = blob.at("service");
  EXPECT_EQ(service.at("requests_total").as_int(), 6);
  EXPECT_EQ(service.at("batches").as_int(), 6);
  const JsonValue& solves = service.at("solves");
  EXPECT_EQ(solves.at("full").as_int(), 1);
  EXPECT_EQ(solves.at("cached").as_int(), 1);
  EXPECT_EQ(solves.at("warm").as_int(), 0);
  EXPECT_EQ(solves.at("coalesced").as_int(), 0);
  EXPECT_EQ(service.at("tenant_ops").at("creates").as_int(), 1);
  // Nothing was submitted after the stats line, so the in-band reply
  // already saw the final figures.
  for (const char* key : {"requests_total", "batches", "migrations"}) {
    EXPECT_EQ(service.at(key).as_int(), in_band.at(key).as_int()) << key;
  }
  for (const char* path : {"full", "warm", "cached", "coalesced"}) {
    EXPECT_EQ(solves.at(path).as_int(),
              in_band.at("solves").at(path).as_int())
        << path;
  }
  EXPECT_EQ(service.at("tenant_ops").dump(), in_band.at("tenant_ops").dump());

  const JsonValue& counters = blob.at("counters");
  for (const char* name :
       {"svc/requests", "svc/timeouts", "svc/deadline_misses",
        "svc/batches", "svc/solve_cached", "svc/solve_warm",
        "svc/solve_full", "svc/migrations", "svc/tenant_creates",
        "svc/tenant_updates", "svc/tenant_deletes",
        "svc/tenant_redivides"}) {
    EXPECT_EQ(counters.find(name), nullptr) << name;
  }
  EXPECT_EQ(blob.find("histograms"), nullptr);
}

// The acceptance chain across real processes: aa_loadgen's client-side
// slow-request log joins on `rid` with the server's structured log, the
// shutdown slow-trace tail dump, and the Perfetto trace — one request id
// followable across all four surfaces.
TEST(ServeBinary, SlowRequestIsFollowableByRidAcrossProcesses) {
  const std::string sock = socket_path("rid");
  const std::string server_log = sock + ".log.jsonl";
  const std::string client_log = sock + ".client.jsonl";
  const std::string tail_file = sock + ".tail.json";
  const std::string trace_file = sock + ".trace.json";
  // A tiny --slow-ms marks every request slow on both sides; the request
  // count stays under the tail capacity (32) and the log burst (20) so
  // nothing is evicted or rate-limited away.
  const std::string command =
      std::string("sh -c '") + kServe + " --socket " + sock +
      " --log-level info --log-out " + server_log +
      " --slow-ms 0.0001 --slow-trace-out " + tail_file + " --trace-out " +
      trace_file + " & server=$!; " + kLoadgen + " --socket " + sock +
      " --requests 10 --connections 1 --threads-init 3 --seed 5"
      " --slow-ms 0.0001 --shutdown 1 2> " + client_log +
      "; rc=$?; wait $server || rc=1; exit $rc'";
  const CommandResult run = run_command(command);
  ASSERT_EQ(run.status, 0) << run.output << read_file(client_log);

  // Server structured log: lifecycle events plus per-request slow events.
  std::set<std::int64_t> server_rids;
  bool saw_start = false;
  bool saw_stop = false;
  for (const std::string& line : lines_of(read_file(server_log))) {
    if (line.empty()) continue;
    const JsonValue event = json_parse(line);
    const std::string name = event.at("event").as_string();
    if (name == "serve/start") saw_start = true;
    if (name == "serve/stop") saw_stop = true;
    if (name == "svc/slow_request") {
      server_rids.insert(event.at("rid").as_int());
    }
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_stop);
  ASSERT_FALSE(server_rids.empty()) << read_file(server_log);

  // Client log: every reply over the threshold, keyed by the echoed rid.
  std::set<std::int64_t> client_rids;
  for (const std::string& line : lines_of(read_file(client_log))) {
    if (line.empty() || line[0] != '{') continue;
    const JsonValue event = json_parse(line);
    if (event.at("event").as_string() == "client/slow_request") {
      client_rids.insert(event.at("rid").as_int());
    }
  }
  // Pick a request id both sides logged and follow it.
  std::int64_t rid = 0;
  for (const std::int64_t candidate : server_rids) {
    if (client_rids.count(candidate) != 0) {
      rid = candidate;
      break;
    }
  }
  ASSERT_GT(rid, 0) << read_file(client_log);

  // Slow-trace tail dump: the rid is in the slowest ring with its spans.
  const JsonValue tail = json_parse(read_file(tail_file));
  bool in_tail = false;
  for (const JsonValue& entry : tail.at("slowest").as_array()) {
    if (entry.at("rid").as_int() != rid) continue;
    in_tail = true;
    EXPECT_FALSE(entry.at("spans").as_array().empty());
  }
  EXPECT_TRUE(in_tail) << tail.dump(2);

  // Perfetto trace: the request's spans carry the rid in args.
  const JsonValue trace = json_parse(read_file(trace_file));
  bool in_perfetto = false;
  for (const JsonValue& event : trace.at("traceEvents").as_array()) {
    const JsonValue* args = event.find("args");
    if (args == nullptr) continue;
    const JsonValue* arg_rid = args->find("rid");
    if (arg_rid != nullptr && arg_rid->as_int() == rid) in_perfetto = true;
  }
  EXPECT_TRUE(in_perfetto);

  for (const std::string& path :
       {server_log, client_log, tail_file, trace_file}) {
    std::remove(path.c_str());
  }
}

// A negative count is an input error, not a wrap to SIZE_MAX servers: the
// process exits 1 naming the flag before it answers any request.
TEST(ServeBinary, NegativeCountFlagIsRejected) {
  const std::string error_file = socket_path("negative") + ".err";
  const CommandResult run = run_command(
      std::string(R"(printf '{"op": "solve"}\n' | )") + kServe +
      " --stdio 1 --servers -1 2> " + error_file);
  const std::string errors = read_file(error_file);
  std::remove(error_file.c_str());
  ASSERT_TRUE(WIFEXITED(run.status)) << run.status;
  EXPECT_EQ(WEXITSTATUS(run.status), 1) << run.output;
  EXPECT_NE(errors.find("--servers"), std::string::npos) << errors;
  EXPECT_EQ(run.output, "");
}

// --max-line-bytes is read in main(), apart from the service config, and
// gets the same check.
TEST(ServeBinary, NegativeLineLimitIsRejected) {
  const std::string error_file = socket_path("negative_line") + ".err";
  const CommandResult run = run_command(
      std::string(R"(printf '{"op": "solve"}\n' | )") + kServe +
      " --stdio 1 --max-line-bytes -1 2> " + error_file);
  const std::string errors = read_file(error_file);
  std::remove(error_file.c_str());
  ASSERT_TRUE(WIFEXITED(run.status)) << run.status;
  EXPECT_EQ(WEXITSTATUS(run.status), 1) << run.output;
  EXPECT_NE(errors.find("--max-line-bytes"), std::string::npos) << errors;
  EXPECT_EQ(run.output, "");
}

// aa_loadgen rejects a negative count before it connects to anything.
TEST(ServeBinary, LoadgenRejectsNegativeCount) {
  const std::string error_file = socket_path("negative_loadgen") + ".err";
  const CommandResult run =
      run_command(std::string(kLoadgen) + " --socket " +
                  socket_path("negative_loadgen") + " --requests -1 2> " +
                  error_file);
  const std::string errors = read_file(error_file);
  std::remove(error_file.c_str());
  ASSERT_TRUE(WIFEXITED(run.status)) << run.status;
  EXPECT_EQ(WEXITSTATUS(run.status), 1) << run.output;
  EXPECT_NE(errors.find("--requests"), std::string::npos) << errors;
}

// The start event reports the shard count the service runs with, which
// rounds --shards 0 up to 1, not the raw flag.
TEST(ServeBinary, StartEventLogsTheServiceShardCount) {
  const std::string log_file = socket_path("start_event") + ".log";
  const CommandResult run = run_command(
      std::string(R"(printf '{"op": "shutdown"}\n' | )") + kServe +
      " --stdio 1 --shards 0 --log-level info --log-out " + log_file);
  const std::string log = read_file(log_file);
  std::remove(log_file.c_str());
  ASSERT_EQ(run.status, 0) << run.output;
  bool found = false;
  for (const std::string& line : lines_of(log)) {
    const JsonValue event = json_parse(line);
    if (event.at("event").as_string() != "serve/start") continue;
    found = true;
    EXPECT_EQ(event.at("shards").as_int(), 1) << line;
  }
  EXPECT_TRUE(found) << log;
}

TEST(ServeBinary, LoadgenSoakEndsWithZeroFailures) {
  const std::string sock = socket_path("soak");
  // One shell: server in the background, loadgen drives it (including the
  // final shutdown), then the server's own exit status is checked too.
  const std::string command =
      std::string("sh -c '") + kServe + " --socket " + sock +
      " --batch-linger-ms 0.2 & server=$!; " + kLoadgen + " --socket " +
      sock + " --requests 300 --connections 3 --seed 9 --shutdown 1; "
      "rc=$?; wait $server || rc=1; exit $rc'";
  const CommandResult run = run_command(command);
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("failures: 0"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("latency ms: p50 "), std::string::npos)
      << run.output;
}

/// Descriptors the process `pid` has open.
std::size_t open_fds(pid_t pid) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

/// Kills and reaps the child unless the test already waited for it.
struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
  }
};

// A closed session gives back its descriptor and reader thread: 2000
// sequential connect/request/close cycles leave the server's descriptor
// count where it started, under a descriptor limit far below 2000.
TEST(ServeBinary, SequentialSessionsKeepTheFdCountFlat) {
  const std::string sock = socket_path("reap");
  ChildGuard child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    const rlimit limit{64, 64};
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
    ::execl(kServe, kServe, "--socket", sock.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!std::filesystem::exists(sock) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(sock));
  const std::size_t before = open_fds(child.pid);

  constexpr int kSessions = 2000;
  int completed = 0;
  try {
    for (; completed < kSessions; ++completed) {
      FdHandle fd = connect_unix(sock, 2000);
      LineChannel channel(fd.get(), kDefaultMaxLineBytes);
      ASSERT_TRUE(channel.write_line(R"({"op": "solve"})"));
      const std::optional<std::string> reply = channel.read_line();
      ASSERT_TRUE(reply.has_value()) << "session " << completed;
    }
  } catch (const std::exception& error) {
    FAIL() << "session " << completed << ": " << error.what();
  }

  // The accept loop reaps finished readers at least every 100 ms.
  std::size_t after = open_fds(child.pid);
  for (int wait = 0; wait < 100 && after > before + 2; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = open_fds(child.pid);
  }
  EXPECT_LE(after, before + 2) << "fds before " << before;

  FdHandle fd = connect_unix(sock, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  ASSERT_TRUE(channel.write_line(R"({"op": "shutdown"})"));
  (void)channel.read_line();
  int status = -1;
  ASSERT_EQ(::waitpid(child.pid, &status, 0), child.pid);
  child.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

// Running out of descriptors pauses accepting instead of ending the
// server: 80 clients held open at once under a 64-descriptor limit wait in
// the listen backlog, and once they leave a new client is served.
TEST(ServeBinary, ConcurrentClientsPastTheFdLimitLeaveTheServerUp) {
  const std::string sock = socket_path("emfile");
  ChildGuard child;
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    const rlimit limit{64, 64};
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
    ::execl(kServe, kServe, "--socket", sock.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!std::filesystem::exists(sock) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(std::filesystem::exists(sock));

  constexpr int kClients = 80;
  {
    std::vector<FdHandle> clients;
    try {
      while (static_cast<int>(clients.size()) < kClients) {
        clients.push_back(connect_unix(sock, 2000));
      }
    } catch (const std::exception& error) {
      FAIL() << "client " << clients.size() << ": " << error.what();
    }
    // Give the accept loop time to run into the limit while all are open.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  // A reaped child must not be signalled again by the guard.
  const auto still_running = [&child] {
    if (::waitpid(child.pid, nullptr, WNOHANG) == 0) return true;
    child.pid = -1;
    return false;
  };
  ASSERT_TRUE(still_running())
      << "aa_serve exited while its clients were connected";

  try {
    FdHandle fd = connect_unix(sock, 2000);
    LineChannel channel(fd.get(), kDefaultMaxLineBytes);
    ASSERT_TRUE(channel.write_line(R"({"op": "solve"})"));
    const std::optional<std::string> reply = channel.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_TRUE(json_parse(*reply).at("ok").as_bool()) << *reply;
  } catch (const std::exception& error) {
    FAIL() << "client after the burst: " << error.what();
  }
  ASSERT_TRUE(still_running());

  FdHandle fd = connect_unix(sock, 2000);
  LineChannel channel(fd.get(), kDefaultMaxLineBytes);
  ASSERT_TRUE(channel.write_line(R"({"op": "shutdown"})"));
  (void)channel.read_line();
  int status = -1;
  ASSERT_EQ(::waitpid(child.pid, &status, 0), child.pid);
  child.pid = -1;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
}

}  // namespace
}  // namespace aa::svc
