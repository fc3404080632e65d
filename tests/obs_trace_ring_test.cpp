// Tests for per-thread trace rings (src/obs/trace_ring.hpp), the session's
// ring registry and merged-trace snapshot, the Chrome trace_event exporter
// (src/obs/chrome_trace.hpp), and the Prometheus text-exposition helpers
// (src/obs/prometheus.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/prometheus.hpp"
#include "obs/session.hpp"
#include "obs/trace_ring.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace aa::obs {
namespace {

TEST(TraceRing, StampsTidAndCountsDropsWhenFull) {
  TraceRing ring(7, 3);
  for (int i = 0; i < 5; ++i) {
    ring.push({TraceEvent::Kind::kInstant, "e", 0, static_cast<double>(i)});
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2);
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (const TraceEvent& event : events) EXPECT_EQ(event.tid, 7);
  // Drop-newest: the front of the trace is preserved.
  EXPECT_DOUBLE_EQ(events.front().at_ms, 0.0);
  EXPECT_DOUBLE_EQ(events.back().at_ms, 2.0);
}

TEST(Session, EachRecordingThreadGetsItsOwnRing) {
  Session session;
  support::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  support::parallel_for(pool, 0, kTasks, [&](std::size_t) {
    const ScopedPhase phase("work");
  });
  const std::vector<TraceRingInfo> rings = session.trace_rings();
  // The pool has 4 workers; each recording thread registered exactly one
  // ring (the main thread recorded nothing, so at most 4 appear).
  ASSERT_GE(rings.size(), 1u);
  ASSERT_LE(rings.size(), 4u);
  std::set<int> tids;
  std::size_t recorded = 0;
  for (const TraceRingInfo& info : rings) {
    tids.insert(info.tid);
    recorded += info.recorded;
    EXPECT_EQ(info.dropped, 0);
  }
  EXPECT_EQ(tids.size(), rings.size());  // Ring ordinals are distinct.
  EXPECT_EQ(recorded, 2 * kTasks);       // One enter + one exit per task.

  // The merged trace interleaves all rings in timestamp order.
  const std::vector<TraceEvent> trace = session.trace();
  ASSERT_EQ(trace.size(), 2 * kTasks);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].at_ms, trace[i].at_ms) << "unsorted at " << i;
  }
}

TEST(Session, RingDropsAggregateIntoTraceDroppedCounter) {
  Session session;
  const std::size_t overflow = Session::kMaxTraceEvents + 25;
  for (std::size_t i = 0; i < overflow; ++i) {
    session.add_trace({TraceEvent::Kind::kInstant, "e", 0, 0.0});
  }
  const std::vector<TraceRingInfo> rings = session.trace_rings();
  ASSERT_EQ(rings.size(), 1u);
  EXPECT_EQ(rings[0].recorded, Session::kMaxTraceEvents);
  EXPECT_EQ(rings[0].dropped, 25);
  EXPECT_EQ(session.metrics().counter("obs/trace_dropped"), 25);
}

TEST(Session, CleanRunsDoNotMaterializeTheDropCounter) {
  // determinism_golden_test pins the counters blob for clean runs; a zero
  // obs/trace_dropped entry must therefore never appear.
  Session session;
  session.add_trace({TraceEvent::Kind::kInstant, "e", 0, 0.0});
  const Metrics metrics = session.metrics();
  EXPECT_EQ(metrics.counters_json().find("obs/trace_dropped"), nullptr);
}

TEST(Session, InstantAndSpanEndingNowRecord) {
  // Note the merged trace is sorted by *start* time, so a span whose
  // backdated start clamps to the session epoch can sort ahead of events
  // recorded before it; assert contents, not positions.
  Session session;
  instant("svc/path_warm");
  span_ending_now("svc/queue_wait", 1.5);
  span_ending_now("svc/queue_wait", -3.0);  // Clamped to zero duration.
  const std::vector<TraceEvent> trace = session.trace();
  ASSERT_EQ(trace.size(), 3u);
  std::size_t instants = 0;
  std::vector<double> spans;
  for (const TraceEvent& event : trace) {
    EXPECT_GE(event.at_ms, 0.0);  // Starts never precede the session.
    if (event.kind == TraceEvent::Kind::kInstant) {
      ++instants;
      EXPECT_EQ(event.name, "svc/path_warm");
    } else {
      EXPECT_EQ(event.kind, TraceEvent::Kind::kComplete);
      EXPECT_EQ(event.name, "svc/queue_wait");
      spans.push_back(event.wall_ms);
    }
  }
  EXPECT_EQ(instants, 1u);
  std::sort(spans.begin(), spans.end());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_DOUBLE_EQ(spans[0], 0.0);  // The negative duration clamped.
  EXPECT_DOUBLE_EQ(spans[1], 1.5);
}

TEST(ChromeTrace, ExportsLoadableTraceEventDocument) {
  Session session;
  {
    const ScopedPhase outer("solve");
    instant("svc/path_full");
    span_ending_now("svc/queue_wait", 0.25);
  }
  const support::JsonValue doc = support::json_parse(
      chrome_trace_json(session));
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  // thread_name metadata + B/E for the phase + i + X.
  ASSERT_EQ(events.size(), 5u);

  std::size_t metadata = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t instants = 0;
  std::size_t completes = 0;
  double last_ts = -1.0;
  for (const auto& event : events) {
    const std::string ph = event.at("ph").as_string();
    EXPECT_EQ(event.at("pid").as_int(), 1);
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.at("name").as_string(), "thread_name");
      EXPECT_EQ(event.at("args").at("name").as_string(), "ring-0");
      continue;
    }
    const double ts = event.at("ts").as_number();
    EXPECT_GE(ts, last_ts);  // Non-metadata events stay in timestamp order.
    last_ts = ts;
    if (ph == "B") ++begins;
    if (ph == "E") ++ends;
    if (ph == "i") {
      ++instants;
      EXPECT_EQ(event.at("s").as_string(), "t");
    }
    if (ph == "X") {
      ++completes;
      // ts/dur are microseconds: 0.25 ms span -> 250 us.
      EXPECT_NEAR(event.at("dur").as_number(), 250.0, 1e-6);
    }
  }
  EXPECT_EQ(metadata, 1u);
  EXPECT_EQ(begins, 1u);
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(completes, 1u);
}

TEST(Prometheus, ValueRendersRoundTripDecimalAndInf) {
  EXPECT_EQ(prometheus_value(1.0), "1");
  EXPECT_EQ(prometheus_value(0.25), "0.25");
  EXPECT_EQ(prometheus_value(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(prometheus_value(-std::numeric_limits<double>::infinity()),
            "-Inf");
}

TEST(Prometheus, HistogramFamilyIsCumulativeWithInfBucket) {
  Histogram h;
  h.sample(1.0);
  h.sample(1.0);
  h.sample(100.0);
  std::string out;
  prometheus_histogram(out, "aa_lat_ms", h);
  EXPECT_NE(out.find("# TYPE aa_lat_ms histogram\n"), std::string::npos);
  EXPECT_NE(out.find("aa_lat_ms_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("aa_lat_ms_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("aa_lat_ms_sum 102\n"), std::string::npos);
  EXPECT_NE(out.find("aa_lat_ms_count 3\n"), std::string::npos);

  // Bucket counts must be non-decreasing in boundary order and the +Inf
  // bucket must equal _count (what aa_top's validator enforces too).
  std::int64_t previous = -1;
  std::size_t pos = 0;
  while ((pos = out.find("_bucket{le=", pos)) != std::string::npos) {
    const std::size_t space = out.find("} ", pos);
    const std::size_t eol = out.find('\n', space);
    const std::int64_t cumulative =
        std::stoll(out.substr(space + 2, eol - space - 2));
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    pos = eol;
  }
  EXPECT_EQ(previous, 3);
}

TEST(Prometheus, SummaryFamilyEmitsQuantileLabels) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.sample(2.0);
  std::string out;
  prometheus_summary(out, "aa_lat_quantiles_ms", h);
  EXPECT_NE(out.find("# TYPE aa_lat_quantiles_ms summary\n"),
            std::string::npos);
  for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
    const std::string line =
        std::string("aa_lat_quantiles_ms{quantile=\"") + q + "\"} 2\n";
    EXPECT_NE(out.find(line), std::string::npos) << line;
  }
  EXPECT_NE(out.find("aa_lat_quantiles_ms_count 100\n"), std::string::npos);
}

}  // namespace
}  // namespace aa::obs
