// Tests for the observability layer (src/obs): Metrics merge semantics
// (Chan-style parity with RunningStats across ThreadPool workers), Session
// counter atomicity under concurrency, trace-event nesting, the
// no-session/no-op fast path, session stacking, and JSON export.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "obs/certificate.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace aa::obs {
namespace {

TEST(Metrics, CountersAccumulateAndMerge) {
  Metrics a;
  a.count("x", 3);
  a.count("x");
  a.count("y", 10);
  Metrics b;
  b.count("x", 5);
  b.count("z", -2);
  a.merge(b);
  EXPECT_EQ(a.counter("x"), 9);
  EXPECT_EQ(a.counter("y"), 10);
  EXPECT_EQ(a.counter("z"), -2);
  EXPECT_EQ(a.counter("never_touched"), 0);
}

TEST(Metrics, TimerMergeMatchesSequentialRunningStats) {
  // Chan-parity: per-worker Metrics merged pairwise must agree with one
  // RunningStats fed every sample in order — same rule RunningStats itself
  // guarantees, extended over the named-timer map.
  support::ThreadPool pool(4);
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kValuesPerWorker = 257;
  std::vector<Metrics> shards(kWorkers);
  support::parallel_for(pool, 0, kWorkers, [&](std::size_t w) {
    for (std::size_t s = 0; s < kValuesPerWorker; ++s) {
      const auto sample =
          static_cast<double>(w * kValuesPerWorker + s);
      shards[w].time("solve", 1.5 * sample + 0.25, 0.5 * sample);
      shards[w].count("samples");
    }
  });

  Metrics merged;
  for (const Metrics& shard : shards) merged.merge(shard);

  support::RunningStats wall_reference;
  support::RunningStats cpu_reference;
  for (std::size_t i = 0; i < kWorkers * kValuesPerWorker; ++i) {
    const auto sample = static_cast<double>(i);
    wall_reference.add(1.5 * sample + 0.25);
    cpu_reference.add(0.5 * sample);
  }

  const TimerStat* stat = merged.timer("solve");
  ASSERT_NE(stat, nullptr);
  EXPECT_EQ(stat->wall_ms.count(), wall_reference.count());
  EXPECT_NEAR(stat->wall_ms.mean(), wall_reference.mean(), 1e-9);
  EXPECT_NEAR(stat->wall_ms.variance(), wall_reference.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(stat->wall_ms.min(), wall_reference.min());
  EXPECT_DOUBLE_EQ(stat->wall_ms.max(), wall_reference.max());
  EXPECT_NEAR(stat->cpu_ms.mean(), cpu_reference.mean(), 1e-9);
  EXPECT_EQ(merged.counter("samples"),
            static_cast<std::int64_t>(kWorkers * kValuesPerWorker));
}

TEST(Metrics, MergeOrderDoesNotChangeTimerMoments) {
  Metrics forward;
  Metrics backward;
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) {
    forward.time("t", static_cast<double>(i), 0.0);
    backward.time("t", static_cast<double>(kN - 1 - i), 0.0);
  }
  Metrics merged_fb = forward;
  merged_fb.merge(backward);
  Metrics merged_bf = backward;
  merged_bf.merge(forward);
  EXPECT_NEAR(merged_fb.timer("t")->wall_ms.mean(),
              merged_bf.timer("t")->wall_ms.mean(), 1e-12);
  EXPECT_NEAR(merged_fb.timer("t")->wall_ms.variance(),
              merged_bf.timer("t")->wall_ms.variance(), 1e-9);
}

TEST(Session, ConcurrentCountsFromPoolWorkersAreExact) {
  Session session;
  support::ThreadPool pool(4);
  constexpr std::size_t kIncrements = 2000;
  support::parallel_for(pool, 0, kIncrements, [&](std::size_t i) {
    count("shared", 1);
    count(i % 2 == 0 ? "even" : "odd", 1);
  });
  const Metrics metrics = session.metrics();
  EXPECT_EQ(metrics.counter("shared"),
            static_cast<std::int64_t>(kIncrements));
  EXPECT_EQ(metrics.counter("even") + metrics.counter("odd"),
            static_cast<std::int64_t>(kIncrements));
}

TEST(Session, TraceEventsNest) {
  Session session;
  {
    const ScopedPhase outer("outer");
    {
      const ScopedPhase inner("inner");
    }
    {
      const ScopedPhase sibling("sibling");
    }
  }
  const std::vector<TraceEvent> trace = session.trace();
  ASSERT_EQ(trace.size(), 6u);  // enter/exit for outer, inner, sibling.
  EXPECT_EQ(trace[0].name, "outer");
  EXPECT_EQ(trace[0].kind, TraceEvent::Kind::kEnter);
  EXPECT_EQ(trace[0].depth, 0);
  EXPECT_EQ(trace[1].name, "inner");
  EXPECT_EQ(trace[1].depth, 1);
  EXPECT_EQ(trace[2].name, "inner");
  EXPECT_EQ(trace[2].kind, TraceEvent::Kind::kExit);
  EXPECT_EQ(trace[3].name, "sibling");
  EXPECT_EQ(trace[3].depth, 1);
  EXPECT_EQ(trace[5].name, "outer");
  EXPECT_EQ(trace[5].kind, TraceEvent::Kind::kExit);
  EXPECT_EQ(trace[5].depth, 0);

  // Each phase recorded one timer sample; the parent's wall time covers its
  // children (monotonic clock, strictly nested scopes).
  const Metrics metrics = session.metrics();
  ASSERT_NE(metrics.timer("outer"), nullptr);
  ASSERT_NE(metrics.timer("inner"), nullptr);
  EXPECT_EQ(metrics.timer("outer")->wall_ms.count(), 1u);
  EXPECT_GE(metrics.timer("outer")->wall_ms.max(),
            metrics.timer("inner")->wall_ms.max());
}

TEST(Session, NoSessionMeansNoOp) {
  ASSERT_EQ(Session::current(), nullptr);
  // None of these may crash or leak state into a later session.
  count("ghost", 42);
  instant("ghost_instant");
  span_ending_now("ghost_span", 0.5);
  {
    const ScopedPhase phase("ghost_phase");
  }
  Session session;
  EXPECT_TRUE(session.metrics().empty());
  EXPECT_TRUE(session.trace().empty());
  EXPECT_TRUE(session.trace_rings().empty());
}

TEST(Session, DisabledPathIsOneRelaxedLoadAndBranch) {
  // The instrumentation contract: with no session installed, every entry
  // point reduces to one atomic load plus a branch. Pin the structural
  // half (the session pointer must be a lock-free atomic — a lock would
  // turn the "off" path into a syscall-capable operation) ...
  static_assert(std::atomic<Session*>::is_always_lock_free,
                "no-session fast path must not take a lock");
  ASSERT_EQ(Session::current(), nullptr);

  // ... and the behavioural half with a deliberately loose wall-time
  // bound: 1M disabled calls must average far under a microsecond each.
  // The ceiling is ~100x the expected cost so CI noise cannot trip it,
  // while an accidental allocation, lock, or string copy on the off path
  // (each tens of ns to us) still would.
  constexpr int kCalls = 1'000'000;
  const auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < kCalls; ++i) {
    count("off", 1);
    instant("off");
    const ScopedPhase phase("off");
  }
  const double elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - started)
          .count();
  EXPECT_LT(elapsed_us / kCalls, 2.0)
      << "disabled-path instrumentation cost regressed";
}

TEST(Session, NestedSessionsRestoreThePreviousOne) {
  Session outer;
  EXPECT_EQ(Session::current(), &outer);
  {
    Session inner;
    EXPECT_EQ(Session::current(), &inner);
    count("where", 1);
    EXPECT_EQ(inner.metrics().counter("where"), 1);
  }
  EXPECT_EQ(Session::current(), &outer);
  EXPECT_EQ(outer.metrics().counter("where"), 0);
}

TEST(Session, TraceIsCappedWithDropCounter) {
  Session session;
  for (std::size_t i = 0; i < Session::kMaxTraceEvents + 10; ++i) {
    session.add_trace({TraceEvent::Kind::kEnter, "e", 0, 0.0, 0.0, 0.0});
  }
  EXPECT_EQ(session.trace().size(), Session::kMaxTraceEvents);
  EXPECT_EQ(session.metrics().counter("obs/trace_dropped"), 10);
}

TEST(Session, JsonExportRoundTrips) {
  Session session;
  count("alg2/solves", 2);
  {
    const ScopedPhase phase("solve");
  }
  const std::string dumped = session.to_json().dump(2);
  const support::JsonValue parsed = support::json_parse(dumped);
  EXPECT_EQ(parsed.at("counters").at("alg2/solves").as_int(), 2);
  EXPECT_EQ(parsed.at("timers").at("solve").at("count").as_int(), 1);
  EXPECT_EQ(parsed.at("trace").as_array().size(), 2u);
  // Deterministic export omits wall-clock-dependent sections.
  const support::JsonValue counters_only =
      support::json_parse(session.to_json(/*include_timings=*/false).dump());
  EXPECT_EQ(counters_only.find("timers"), nullptr);
  EXPECT_EQ(counters_only.find("trace"), nullptr);
}

TEST(Certificate, CleanInputPasses) {
  CertificateInput input;
  input.solver = "synthetic";
  input.alpha = 0.8284271247461901;
  input.f_alg = 10.0;
  input.f_linearized = 9.0;
  input.f_super_optimal = 10.5;
  input.capacity = 100.0;
  input.server_loads = {100.0, 80.0};
  input.c_hat_total = 150.0;
  input.pooled_capacity = 200.0;
  input.concavity_checked = true;
  const Certificate cert = check_certificate(input);
  EXPECT_TRUE(cert.ok()) << cert.to_json().dump(2);
  EXPECT_NEAR(cert.achieved_ratio, 10.0 / 10.5, 1e-12);
}

TEST(Certificate, EachBrokenLinkIsFlagged) {
  CertificateInput base;
  base.alpha = 0.8284271247461901;
  base.f_alg = 10.0;
  base.f_linearized = 9.0;
  base.f_super_optimal = 10.5;
  base.capacity = 100.0;
  base.server_loads = {100.0};
  base.c_hat_total = 90.0;
  base.pooled_capacity = 100.0;

  {
    CertificateInput input = base;
    input.f_alg = 0.5 * input.alpha * input.f_super_optimal;
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.alpha_ok);
    EXPECT_FALSE(cert.ok());
  }
  {
    CertificateInput input = base;
    input.server_loads = {101.0};
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.budget_ok);
    EXPECT_NEAR(cert.max_overload, 1.0, 1e-12);
    EXPECT_FALSE(cert.ok());
  }
  {
    CertificateInput input = base;
    input.f_alg = input.f_super_optimal + 1.0;  // "better than the bound"
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.upper_bound_ok);
  }
  {
    CertificateInput input = base;
    input.structural_error = "thread 3 on server 9";
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.structural_ok);
  }
  {
    CertificateInput input = base;
    input.concavity_checked = true;
    input.utilities_concave = false;
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.concavity_ok);
  }
  {
    CertificateInput input = base;
    input.c_hat_total = input.pooled_capacity + 1.0;
    const Certificate cert = check_certificate(input);
    EXPECT_FALSE(cert.pooled_ok);
  }
}

TEST(Certificate, RecordingBumpsSessionCounters) {
  Session session;
  CertificateInput good;
  good.alpha = 0.5;
  good.f_alg = 1.0;
  good.f_linearized = 1.0;
  good.f_super_optimal = 1.0;
  good.capacity = 10.0;
  good.server_loads = {1.0};
  good.pooled_capacity = 10.0;
  record_certificate(good);
  CertificateInput bad = good;
  bad.server_loads = {99.0};
  record_certificate(bad);

  const Metrics metrics = session.metrics();
  EXPECT_EQ(metrics.counter("certificate/checks"), 2);
  EXPECT_EQ(metrics.counter("certificate/failures"), 1);
  ASSERT_EQ(session.certificates().size(), 2u);
  EXPECT_TRUE(session.certificates()[0].ok());
  EXPECT_FALSE(session.certificates()[1].ok());
  // The flattened top level reflects the most recent certificate.
  const support::JsonValue blob =
      support::json_parse(session.to_json().dump());
  EXPECT_FALSE(blob.at("certificate_ok").as_bool());
}

}  // namespace
}  // namespace aa::obs
