// Microbenchmarks of the observability layer's instrumentation cost on
// both sides of the enable switch. Expected shape: the no-session paths
// (one relaxed atomic load + branch — the contract tests/obs_test.cpp
// pins) in the low single-digit nanoseconds; with a session installed,
// a counter costs a mutex acquire plus a map lookup, ScopedPhase adds two
// clock reads and two ring pushes, and the trace-ring push stays flat as
// threads multiply (per-thread rings, no shared tail).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <ostream>
#include <streambuf>

#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/session.hpp"

namespace {

/// Discards everything: isolates the logger's format + limiter cost from
/// any real sink.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int ch) override { return ch; }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

void BM_CountNoSession(benchmark::State& state) {
  for (auto _ : state) {
    aa::obs::count("bench/counter", 1);
  }
}
BENCHMARK(BM_CountNoSession);

void BM_CountWithSession(benchmark::State& state) {
  aa::obs::Session session;
  for (auto _ : state) {
    aa::obs::count("bench/counter", 1);
  }
  benchmark::DoNotOptimize(session.metrics());
}
BENCHMARK(BM_CountWithSession);

void BM_ScopedPhaseNoSession(benchmark::State& state) {
  for (auto _ : state) {
    const aa::obs::ScopedPhase phase("bench/phase");
  }
}
BENCHMARK(BM_ScopedPhaseNoSession);

void BM_ScopedPhaseWithSession(benchmark::State& state) {
  aa::obs::Session session;
  for (auto _ : state) {
    const aa::obs::ScopedPhase phase("bench/phase");
  }
  benchmark::DoNotOptimize(session.metrics());
}
BENCHMARK(BM_ScopedPhaseWithSession);

void BM_InstantWithSession(benchmark::State& state) {
  aa::obs::Session session;
  for (auto _ : state) {
    aa::obs::instant("bench/event");
  }
}
BENCHMARK(BM_InstantWithSession);

// The raw histogram update behind the service's per-shard latency,
// batch-size and queue-depth distributions.
void BM_HistogramSample(benchmark::State& state) {
  aa::obs::Histogram histogram;
  double value = 0.0;
  for (auto _ : state) {
    value += 0.001;
    benchmark::DoNotOptimize(histogram.sample(value));
  }
}
BENCHMARK(BM_HistogramSample);

// The structured logger's three cost tiers (obs/log.hpp). Uninstalled:
// one relaxed load + branch, same class as the no-session counters.
// Installed and emitting: JSON format + mutex + stream write. Installed
// but rate-limited: format + bucket check, no write — the flood path.
void BM_LogEventNoLogger(benchmark::State& state) {
  for (auto _ : state) {
    aa::obs::log_event(aa::obs::LogLevel::kInfo, "bench/log_event", 7);
  }
}
BENCHMARK(BM_LogEventNoLogger);

void BM_LogEventEmitting(benchmark::State& state) {
  NullBuffer buffer;
  std::ostream sink(&buffer);
  aa::obs::LoggerConfig config;
  config.events_per_sec = 0.0;  // Never limited: every call formats+writes.
  aa::obs::Logger logger(sink, config);
  for (auto _ : state) {
    aa::obs::log_event(aa::obs::LogLevel::kInfo, "bench/log_event", 7);
  }
}
BENCHMARK(BM_LogEventEmitting);

void BM_LogEventRateLimited(benchmark::State& state) {
  NullBuffer buffer;
  std::ostream sink(&buffer);
  aa::obs::LoggerConfig config;
  config.events_per_sec = 1.0;  // The burst drains instantly; all drop.
  config.burst = 1.0;
  aa::obs::Logger logger(sink, config);
  for (auto _ : state) {
    aa::obs::log_event(aa::obs::LogLevel::kInfo, "bench/log_event", 7);
  }
  benchmark::DoNotOptimize(logger.dropped());
}
BENCHMARK(BM_LogEventRateLimited);

// The trace-context scope on the request hot path: two thread_local
// stores (set + restore), no atomics, no locks.
void BM_TraceRidScope(benchmark::State& state) {
  std::uint64_t rid = 0;
  for (auto _ : state) {
    const aa::obs::TraceRidScope scope(++rid);
    benchmark::DoNotOptimize(aa::obs::current_trace_rid());
  }
}
BENCHMARK(BM_TraceRidScope);

// Trace-ring throughput as recording threads multiply. Per-thread rings
// mean no cross-thread cacheline ping-pong: time per push should stay
// flat from 1 to N threads (the old single-mutex trace degraded here).
void BM_TraceRingPushThreaded(benchmark::State& state) {
  // Magic static: installed once on first call, torn down at process
  // exit — safe for every thread-count variant, and this is the last
  // benchmark in the file so nothing after it observes the session.
  static aa::obs::Session session;
  for (auto _ : state) {
    const aa::obs::ScopedPhase phase("bench/threaded");
  }
}
BENCHMARK(BM_TraceRingPushThreaded)->ThreadRange(1, 8);

}  // namespace

BENCHMARK_MAIN();
