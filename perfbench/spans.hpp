#pragma once

// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps each call it makes into a layer's public function in
// a Span. Spans nest by call order on the one recording thread; a layer's
// self time is its spans' duration minus the part covered by their direct
// children. Nothing is written while the workload runs: the spans stay in
// a vector and write_jsonl() dumps them at the end.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LayerTotals {
  double total_us = 0.0;  ///< Sum of span durations.
  double self_us = 0.0;   ///< total_us minus direct children.
  std::size_t calls = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span for `layer` (a string literal) under the innermost open
  /// span; returns its index for end().
  std::size_t begin(const char* layer);
  void end(std::size_t index);

  /// Time attributed to `layer` from a source other than the benchmark's
  /// own spans (the program's phase timers inside a call the benchmark
  /// cannot split). It counts as a child of `parent`: the parent's self
  /// time shrinks by `total_us`.
  void add_nested(const char* parent, const char* layer, double total_us,
                  std::size_t calls);

  [[nodiscard]] std::map<std::string, LayerTotals> totals() const;
  /// Summed duration of the closed span `index`'s direct children.
  [[nodiscard]] double children_us(std::size_t index) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// One JSON object per span (name, id, parent, start/end in us from the
  /// first span); at most `limit` spans, the rest are counted in a final
  /// {"dropped": N} line.
  void write_jsonl(const std::string& path, std::size_t limit) const;

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Span {
    const char* layer;
    std::size_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Nested {
    const char* parent;
    const char* layer;
    double total_us;
    std::size_t calls;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::vector<Nested> nested_;
};

/// RAII span; a null tracer makes it a no-op, so the same code path serves
/// the untraced and the traced run.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer)
      : tracer_(tracer), index_(tracer ? tracer->begin(layer) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

}  // namespace perfbench
