#include "obs/prometheus.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <utility>

namespace aa::obs {

std::string prometheus_value(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  if (std::isnan(value)) return "NaN";
  std::array<char, 64> buffer{};
  const auto [end, ec] =
      std::to_chars(buffer.data(), buffer.data() + buffer.size(), value);
  if (ec != std::errc{}) return "0";
  return std::string(buffer.data(), end);
}

void prometheus_header(std::string& out, std::string_view name,
                       std::string_view type) {
  out.append("# TYPE ");
  out.append(name);
  out.push_back(' ');
  out.append(type);
  out.push_back('\n');
}

void prometheus_sample(std::string& out, std::string_view name,
                       std::string_view labels, double value) {
  out.append(name);
  if (!labels.empty()) {
    out.push_back('{');
    out.append(labels);
    out.push_back('}');
  }
  out.push_back(' ');
  out.append(prometheus_value(value));
  out.push_back('\n');
}

void prometheus_sample(std::string& out, std::string_view name,
                       std::string_view labels, std::int64_t value) {
  out.append(name);
  if (!labels.empty()) {
    out.push_back('{');
    out.append(labels);
    out.push_back('}');
  }
  out.push_back(' ');
  out.append(std::to_string(value));
  out.push_back('\n');
}

void prometheus_counter(std::string& out, std::string_view name,
                        std::int64_t value) {
  prometheus_header(out, name, "counter");
  prometheus_sample(out, name, {}, value);
}

void prometheus_gauge(std::string& out, std::string_view name, double value) {
  prometheus_header(out, name, "gauge");
  prometheus_sample(out, name, {}, value);
}

void prometheus_histogram(std::string& out, std::string_view name,
                          const Histogram& histogram) {
  prometheus_header(out, name, "histogram");
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    if (histogram.bucket_count(b) == 0) continue;
    cumulative += histogram.bucket_count(b);
    const std::string labels =
        "le=\"" + prometheus_value(Histogram::bucket_upper(b)) + "\"";
    prometheus_sample(out, bucket_name, labels,
                      static_cast<std::int64_t>(cumulative));
  }
  prometheus_sample(out, bucket_name, "le=\"+Inf\"",
                    static_cast<std::int64_t>(histogram.count()));
  prometheus_sample(out, std::string(name) + "_sum", {}, histogram.sum());
  prometheus_sample(out, std::string(name) + "_count", {},
                    static_cast<std::int64_t>(histogram.count()));
}

void prometheus_summary(std::string& out, std::string_view name,
                        const Histogram& histogram) {
  prometheus_header(out, name, "summary");
  constexpr std::array<std::pair<const char*, double>, 4> kQuantiles{{
      {"0.5", 0.50},
      {"0.9", 0.90},
      {"0.99", 0.99},
      {"0.999", 0.999},
  }};
  for (const auto& [label, q] : kQuantiles) {
    const std::string labels = std::string("quantile=\"") + label + "\"";
    prometheus_sample(out, name, labels, histogram.quantile(q));
  }
  prometheus_sample(out, std::string(name) + "_sum", {}, histogram.sum());
  prometheus_sample(out, std::string(name) + "_count", {},
                    static_cast<std::int64_t>(histogram.count()));
}

}  // namespace aa::obs
