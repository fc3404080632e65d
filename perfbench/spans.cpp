#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

double us_between(Tracer::Clock::time_point a, Tracer::Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

std::size_t Tracer::begin(const char* layer) {
  const std::size_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back({layer, parent, Clock::now(), {}});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t index) {
  spans_[index].end = Clock::now();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
}

void Tracer::add_nested(const char* parent, const char* layer,
                        double total_us, std::size_t calls) {
  nested_.push_back({parent, layer, total_us, calls});
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  std::map<std::string, LayerTotals> out;
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_us[span.parent] += us_between(span.start, span.end);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double duration = us_between(spans_[i].start, spans_[i].end);
    LayerTotals& layer = out[spans_[i].layer];
    layer.total_us += duration;
    layer.self_us += duration - child_us[i];
    ++layer.calls;
  }
  for (const Nested& nested : nested_) {
    LayerTotals& layer = out[nested.layer];
    layer.total_us += nested.total_us;
    layer.self_us += nested.total_us;
    layer.calls += nested.calls;
    out[nested.parent].self_us -= nested.total_us;
  }
  return out;
}

double Tracer::children_us(std::size_t index) const {
  double total = 0.0;
  for (std::size_t i = index + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == index) {
      total += us_between(spans_[i].start, spans_[i].end);
    }
  }
  return total;
}

void Tracer::write_jsonl(const std::string& path, std::size_t limit) const {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out || spans_.empty()) return;
  const Clock::time_point origin = spans_.front().start;
  const std::size_t kept = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < kept; ++i) {
    const Span& span = spans_[i];
    out << "{\"name\":\"" << span.layer << "\",\"id\":" << i
        << ",\"parent\":"
        << (span.parent == kNoParent ? std::string("null")
                                     : std::to_string(span.parent))
        << ",\"start_us\":" << us_between(origin, span.start)
        << ",\"end_us\":" << us_between(origin, span.end) << "}\n";
  }
  if (kept < spans_.size()) {
    out << "{\"dropped\":" << spans_.size() - kept << "}\n";
  }
}

}  // namespace perfbench
