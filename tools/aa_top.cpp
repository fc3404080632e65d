// aa_top — live terminal dashboard for a running aa_serve.
//
//   aa_top --socket PATH [--interval-ms MS] [--iterations N]
//          [--once 1] [--raw 1] [--connect-timeout-ms MS]
//
// Polls the service's `metrics` protocol verb (docs/SERVICE.md), validates
// the returned Prometheus text exposition, and renders a one-screen
// summary: request/error rates (computed between polls), queue depth,
// solve-path mix, certificate verdicts, latency quantiles, telemetry
// drop counters (trace, per-ring, and structured-log drops),
// deadline misses, and — when the server reports more than one tenant —
// the top tenants by request rate (per-tenant requests/errors/threads/
// slice plus the 1-minute SLO burn rate and lifetime error-budget
// consumption, from the aa_svc_tenant_* / aa_svc_slo_* labeled families
// in docs/OBSERVABILITY.md).
// Plain ANSI escapes only — no curses dependency — so it runs anywhere a
// terminal does.
//
//   --once 1        take a single snapshot and exit (no screen clearing);
//                   CI uses this as a scrape-and-validate step.
//   --raw 1         print the raw exposition body instead of the dashboard
//                   (still validated; combine with --once for checkers).
//   --iterations N  stop after N polls (0 = run until interrupted).
//
// Exit status is 0 only if every scrape parsed and validated: TYPE-declared
// families, well-formed sample lines, label bodies that follow the
// exposition grammar (valid label names, quoted values with only \\ \" \n
// escapes, no duplicate keys), cumulative histogram buckets whose +Inf
// count equals _count. A malformed exposition prints the violations to
// stderr and exits 1, so wiring `aa_top --once 1` into a pipeline doubles
// as a format regression test.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "support/args.hpp"
#include "support/json.hpp"
#include "svc/channel.hpp"

namespace {

using namespace aa;

struct Sample {
  std::string name;
  std::string labels;  ///< Raw label body without braces; empty when none.
  std::map<std::string, std::string> label_map;  ///< Parsed, unescaped.
  double value = 0.0;
};

struct Exposition {
  std::map<std::string, std::string> types;  ///< family -> TYPE.
  std::vector<Sample> samples;
};

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  const auto ok = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    return alpha || c == '_' || c == ':' || (digit && !first);
  };
  if (!ok(name.front(), true)) return false;
  for (const char c : name.substr(1)) {
    if (!ok(c, false)) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  const auto ok = [](char c, bool first) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    return alpha || c == '_' || (digit && !first);
  };
  if (!ok(name.front(), true)) return false;
  for (const char c : name.substr(1)) {
    if (!ok(c, false)) return false;
  }
  return true;
}

/// Parses a label body (the text between the braces) against the
/// exposition grammar: `name="value"` pairs separated by commas, values
/// quoted with only \\ \" \n escapes, no duplicate keys. Violations are
/// appended to `errors` tagged with `context`; the parsed (unescaped)
/// pairs are returned either way.
std::map<std::string, std::string> parse_labels(
    std::string_view body, std::vector<std::string>& errors,
    const std::string& context) {
  std::map<std::string, std::string> labels;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eq = body.find('=', pos);
    if (eq == std::string_view::npos) {
      errors.push_back("label without '=': " + context);
      return labels;
    }
    const std::string name(body.substr(pos, eq - pos));
    if (!valid_label_name(name)) {
      errors.push_back("invalid label name '" + name + "': " + context);
    }
    if (eq + 1 >= body.size() || body[eq + 1] != '"') {
      errors.push_back("unquoted label value: " + context);
      return labels;
    }
    std::string value;
    std::size_t i = eq + 2;
    bool closed = false;
    for (; i < body.size(); ++i) {
      const char c = body[i];
      if (c == '\\') {
        if (i + 1 >= body.size()) break;
        const char escaped = body[++i];
        if (escaped == '\\' || escaped == '"') {
          value.push_back(escaped);
        } else if (escaped == 'n') {
          value.push_back('\n');
        } else {
          errors.push_back(std::string("bad label escape '\\") + escaped +
                           "': " + context);
        }
      } else if (c == '"') {
        closed = true;
        ++i;
        break;
      } else {
        value.push_back(c);
      }
    }
    if (!closed) {
      errors.push_back("unterminated label value: " + context);
      return labels;
    }
    if (!labels.emplace(name, value).second) {
      errors.push_back("duplicate label '" + name + "': " + context);
    }
    if (i < body.size()) {
      if (body[i] != ',') {
        errors.push_back("expected ',' between labels: " + context);
        return labels;
      }
      ++i;
      if (i >= body.size()) {
        errors.push_back("trailing ',' in labels: " + context);
      }
    }
    pos = i;
  }
  return labels;
}

std::optional<double> parse_value(const std::string& text) {
  if (text == "+Inf") return std::numeric_limits<double>::infinity();
  if (text == "-Inf") return -std::numeric_limits<double>::infinity();
  if (text == "NaN") return std::nan("");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == text.c_str()) {
    return std::nullopt;
  }
  return value;
}

/// Parses one exposition body, appending any format violations to
/// `errors`. Parsing is strict about what aa_serve emits but tolerant of
/// standard extras (comments, HELP lines).
Exposition parse_exposition(const std::string& body,
                            std::vector<std::string>& errors) {
  Exposition exposition;
  std::size_t start = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos) {
        errors.push_back("malformed TYPE line: " + line);
        continue;
      }
      const std::string family = rest.substr(0, space);
      const std::string type = rest.substr(space + 1);
      if (!valid_name(family)) {
        errors.push_back("invalid family name: " + line);
      }
      if (type != "counter" && type != "gauge" && type != "histogram" &&
          type != "summary" && type != "untyped") {
        errors.push_back("unknown TYPE: " + line);
      }
      if (!exposition.types.emplace(family, type).second) {
        errors.push_back("duplicate TYPE for family: " + family);
      }
      continue;
    }
    if (line.front() == '#') continue;  // HELP or comment.
    Sample sample;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      errors.push_back("malformed sample line: " + line);
      continue;
    }
    sample.name = line.substr(0, name_end);
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t brace = line.find('}', name_end);
      if (brace == std::string::npos || brace + 1 >= line.size() ||
          line[brace + 1] != ' ') {
        errors.push_back("malformed labels: " + line);
        continue;
      }
      sample.labels = line.substr(name_end + 1, brace - name_end - 1);
      sample.label_map = parse_labels(sample.labels, errors, line);
      value_start = brace + 1;
    }
    const std::optional<double> value =
        parse_value(line.substr(value_start + 1));
    if (!valid_name(sample.name)) {
      errors.push_back("invalid metric name: " + line);
      continue;
    }
    if (!value.has_value()) {
      errors.push_back("unparseable value: " + line);
      continue;
    }
    sample.value = *value;
    exposition.samples.push_back(std::move(sample));
  }
  return exposition;
}

/// The TYPE-declared family a sample belongs to, resolving the histogram /
/// summary child suffixes (_bucket/_sum/_count); empty when undeclared.
std::string family_of(const Exposition& exposition, const std::string& name) {
  if (exposition.types.count(name) != 0) return name;
  for (const std::string_view suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const std::string base = name.substr(0, name.size() - suffix.size());
      if (exposition.types.count(base) != 0) return base;
    }
  }
  return {};
}

void validate(const Exposition& exposition,
              std::vector<std::string>& errors) {
  for (const Sample& sample : exposition.samples) {
    if (family_of(exposition, sample.name).empty()) {
      errors.push_back("sample without TYPE declaration: " + sample.name);
    }
  }
  for (const auto& [family, type] : exposition.types) {
    if (type != "histogram") continue;
    double previous = -1.0;
    double inf_count = -1.0;
    double total = -1.0;
    for (const Sample& sample : exposition.samples) {
      if (sample.name == family + "_bucket") {
        if (sample.value < previous) {
          errors.push_back("non-cumulative buckets in " + family);
        }
        previous = sample.value;
        if (sample.labels.find("le=\"+Inf\"") != std::string::npos) {
          inf_count = sample.value;
        }
      } else if (sample.name == family + "_count") {
        total = sample.value;
      }
    }
    if (inf_count < 0.0) {
      errors.push_back("histogram missing +Inf bucket: " + family);
    } else if (total >= 0.0 && inf_count != total) {
      errors.push_back("histogram +Inf bucket != _count: " + family);
    }
  }
}

/// First sample of `name` whose labels contain `label_part` (empty = any).
std::optional<double> find_value(const Exposition& exposition,
                                 std::string_view name,
                                 std::string_view label_part = {}) {
  for (const Sample& sample : exposition.samples) {
    if (sample.name != name) continue;
    if (!label_part.empty() &&
        sample.labels.find(label_part) == std::string::npos) {
      continue;
    }
    return sample.value;
  }
  return std::nullopt;
}

double value_or_zero(const Exposition& exposition, std::string_view name,
                     std::string_view label_part = {}) {
  return find_value(exposition, name, label_part).value_or(0.0);
}

/// Per-tenant values of family `name`, keyed by the tenant label; samples
/// without a tenant label are skipped, multiple samples per tenant (e.g.
/// the per-path solve counters) are summed.
std::map<std::string, double> by_tenant(const Exposition& exposition,
                                        std::string_view name) {
  std::map<std::string, double> out;
  for (const Sample& sample : exposition.samples) {
    if (sample.name != name) continue;
    const auto tenant = sample.label_map.find("tenant");
    if (tenant == sample.label_map.end()) continue;
    out[tenant->second] += sample.value;
  }
  return out;
}

/// Top tenants by request rate (requests_total when no rate yet), one row
/// each. Only rendered in multi-tenant deployments — a lone default
/// tenant adds nothing over the global rows.
void render_tenants(const Exposition& exposition,
                    const std::map<std::string, double>& tenant_rates) {
  constexpr std::size_t kTopTenants = 5;
  const std::map<std::string, double> requests =
      by_tenant(exposition, "aa_svc_tenant_requests_total");
  if (requests.size() < 2) return;
  const std::map<std::string, double> errors =
      by_tenant(exposition, "aa_svc_tenant_errors_total");
  const std::map<std::string, double> threads =
      by_tenant(exposition, "aa_svc_tenant_threads");
  const std::map<std::string, double> slices =
      by_tenant(exposition, "aa_svc_tenant_slice_units");
  const std::map<std::string, double> budget =
      by_tenant(exposition, "aa_svc_slo_budget_ratio");
  // Short-window SLO burn (window="1m" samples only; by_tenant would sum
  // all three windows).
  std::map<std::string, double> burn;
  for (const Sample& sample : exposition.samples) {
    if (sample.name != "aa_svc_slo_burn_rate") continue;
    const auto tenant = sample.label_map.find("tenant");
    const auto window = sample.label_map.find("window");
    if (tenant == sample.label_map.end() ||
        window == sample.label_map.end() || window->second != "1m") {
      continue;
    }
    burn[tenant->second] = sample.value;
  }
  const auto rate_of = [&](const std::string& tenant) {
    const auto it = tenant_rates.find(tenant);
    return it == tenant_rates.end() ? 0.0 : it->second;
  };
  std::vector<std::pair<std::string, double>> order(requests.begin(),
                                                    requests.end());
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    const double ra = rate_of(a.first);
    const double rb = rate_of(b.first);
    if (ra != rb) return ra > rb;
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // Deterministic tie-break.
  });
  std::cout << "tenants   " << requests.size() << " total, top "
            << std::min(kTopTenants, order.size()) << " by req/s:\n";
  for (std::size_t i = 0; i < order.size() && i < kTopTenants; ++i) {
    const std::string& tenant = order[i].first;
    const auto value = [&](const std::map<std::string, double>& table) {
      const auto it = table.find(tenant);
      return it == table.end() ? 0.0 : it->second;
    };
    std::cout << "  " << tenant << "  req " << order[i].second << " ("
              << rate_of(tenant) << "/s)  err " << value(errors)
              << "  threads " << value(threads) << "  slice "
              << value(slices) << "  burn1m " << value(burn) << "  budget "
              << value(budget) << "\n";
  }
}

void render_dashboard(const Exposition& exposition,
                      const std::string& socket_path,
                      std::optional<double> request_rate,
                      const std::map<std::string, double>& tenant_rates) {
  const auto line_quantiles = [&](const char* label,
                                  const std::string& family) {
    std::cout << label << "p50 "
              << value_or_zero(exposition, family, "quantile=\"0.5\"")
              << "  p90 "
              << value_or_zero(exposition, family, "quantile=\"0.9\"")
              << "  p99 "
              << value_or_zero(exposition, family, "quantile=\"0.99\"")
              << "  p99.9 "
              << value_or_zero(exposition, family, "quantile=\"0.999\"")
              << "  (n=" << value_or_zero(exposition, family + "_count")
              << ")\n";
  };

  std::cout << "aa_top — " << socket_path << "   uptime "
            << value_or_zero(exposition, "aa_uptime_seconds") << " s\n";
  std::cout << "requests  total "
            << value_or_zero(exposition, "aa_svc_requests_total");
  if (request_rate.has_value()) {
    std::cout << "  rate " << *request_rate << "/s";
  }
  std::cout << "  errors " << value_or_zero(exposition, "aa_svc_errors_total")
            << "  timeouts "
            << value_or_zero(exposition, "aa_svc_timeouts_total") << "\n";
  std::cout << "state     threads "
            << value_or_zero(exposition, "aa_svc_threads") << "  version "
            << value_or_zero(exposition, "aa_svc_state_version")
            << "  queue depth "
            << value_or_zero(exposition, "aa_svc_queue_depth") << " (peak "
            << value_or_zero(exposition, "aa_svc_queue_peak") << ")\n";
  std::cout << "batches   "
            << value_or_zero(exposition, "aa_svc_batches_total")
            << "  mean size "
            << (value_or_zero(exposition, "aa_svc_batch_size_count") > 0.0
                    ? value_or_zero(exposition, "aa_svc_batch_size_sum") /
                          value_or_zero(exposition, "aa_svc_batch_size_count")
                    : 0.0)
            << "\n";
  std::cout << "solves    full "
            << value_or_zero(exposition, "aa_svc_solves_total",
                             "path=\"full\"")
            << "  warm "
            << value_or_zero(exposition, "aa_svc_solves_total",
                             "path=\"warm\"")
            << "  cached "
            << value_or_zero(exposition, "aa_svc_solves_total",
                             "path=\"cached\"")
            << "  coalesced "
            << value_or_zero(exposition, "aa_svc_solves_coalesced_total")
            << "  migrations "
            << value_or_zero(exposition, "aa_svc_migrations_total") << "\n";
  std::cout << "certs     pass "
            << value_or_zero(exposition, "aa_svc_certificates_total",
                             "verdict=\"pass\"")
            << "  fail "
            << value_or_zero(exposition, "aa_svc_certificates_total",
                             "verdict=\"fail\"")
            << "\n";
  line_quantiles("req ms    ", "aa_svc_request_latency_quantiles_ms");
  line_quantiles("solve ms  ", "aa_svc_solve_latency_quantiles_ms");
  // aa_obs_trace_ring_dropped_total is per-ring (one sample per recording
  // thread); the dashboard shows the sum.
  double ring_drops = 0.0;
  for (const Sample& sample : exposition.samples) {
    if (sample.name == "aa_obs_trace_ring_dropped_total") {
      ring_drops += sample.value;
    }
  }
  std::cout << "drops     trace "
            << value_or_zero(exposition, "aa_obs_trace_dropped_total")
            << "  ring " << ring_drops << "  log "
            << value_or_zero(exposition, "aa_obs_log_dropped_total")
            << "\n";
  std::cout << "slo       misses "
            << value_or_zero(exposition, "aa_svc_deadline_miss_total")
            << "\n";
  render_tenants(exposition, tenant_rates);
  std::cout.flush();
}

/// One metrics round trip; returns the exposition body.
std::string scrape(const std::string& socket_path, int connect_timeout_ms) {
  svc::FdHandle fd = svc::connect_unix(socket_path, connect_timeout_ms);
  svc::LineChannel channel(fd.get(), svc::kDefaultMaxLineBytes);
  if (!channel.write_line("{\"op\": \"metrics\"}")) {
    throw std::runtime_error("write failed");
  }
  const std::optional<std::string> reply = channel.read_line();
  if (!reply.has_value()) {
    throw std::runtime_error("connection closed awaiting metrics reply");
  }
  const support::JsonValue parsed = support::json_parse(*reply);
  if (!parsed.at("ok").as_bool()) {
    throw std::runtime_error("metrics error reply: " + *reply);
  }
  return parsed.at("body").as_string();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(argc, argv,
                             {"socket", "interval-ms", "iterations", "once",
                              "raw", "connect-timeout-ms"});
    const std::string socket_path = args.get("socket", "");
    if (socket_path.empty() || !args.positional().empty()) {
      std::cerr << "usage: aa_top --socket PATH [--interval-ms MS] "
                   "[--iterations N] [--once 1] [--raw 1] "
                   "[--connect-timeout-ms MS]\n";
      return 2;
    }
    const bool once = args.get_int("once", 0) != 0;
    const bool raw = args.get_int("raw", 0) != 0;
    const double interval_ms = args.get_double("interval-ms", 1000.0);
    const long long iterations =
        once ? 1 : args.get_int("iterations", 0);
    const int connect_timeout_ms =
        static_cast<int>(args.get_int("connect-timeout-ms", 5000));

    bool all_valid = true;
    std::optional<double> previous_requests;
    std::map<std::string, double> previous_tenant_requests;
    auto previous_time = std::chrono::steady_clock::now();
    for (long long i = 0; iterations == 0 || i < iterations; ++i) {
      if (i > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(interval_ms));
      }
      const std::string body = scrape(socket_path, connect_timeout_ms);
      std::vector<std::string> errors;
      const Exposition exposition = parse_exposition(body, errors);
      validate(exposition, errors);
      for (const std::string& error : errors) {
        std::cerr << "aa_top: invalid exposition: " << error << "\n";
        all_valid = false;
      }
      const auto now = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now - previous_time).count();
      std::optional<double> rate;
      const std::optional<double> requests =
          find_value(exposition, "aa_svc_requests_total");
      if (previous_requests.has_value() && requests.has_value() &&
          dt > 0.0) {
        rate = (*requests - *previous_requests) / dt;
      }
      const std::map<std::string, double> tenant_requests =
          by_tenant(exposition, "aa_svc_tenant_requests_total");
      std::map<std::string, double> tenant_rates;
      if (!previous_tenant_requests.empty() && dt > 0.0) {
        for (const auto& [tenant, count] : tenant_requests) {
          const auto it = previous_tenant_requests.find(tenant);
          if (it != previous_tenant_requests.end()) {
            tenant_rates[tenant] = (count - it->second) / dt;
          }
        }
      }
      previous_requests = requests;
      previous_tenant_requests = tenant_requests;
      previous_time = now;
      if (raw) {
        std::cout << body;
        std::cout.flush();
      } else {
        if (!once && iterations != 1) {
          std::cout << "\x1b[H\x1b[2J";  // Home + clear, plain ANSI.
        }
        render_dashboard(exposition, socket_path, rate, tenant_rates);
      }
    }
    return all_valid ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "aa_top: " << error.what() << "\n";
    return 1;
  }
}
