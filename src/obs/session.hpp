#pragma once

// Observability session: the thread-safe collector behind aa::obs.
//
// Instrumentation in the solver libraries is written against the free
// functions below (obs::count, obs::instant, obs::span_ending_now) and the
// RAII ScopedPhase. All resolve the *installed* session at call time:
//
//   - no session installed  -> every call is a cheap no-op (one relaxed
//     atomic load), so an unobserved run pays nothing for instrumentation;
//   - a Session object alive -> counters, timer stats, trace events and
//     approximation certificates accumulate on it, so ThreadPool workers
//     may record concurrently.
//
// Counters and timers live in one Metrics bag behind a mutex. Trace
// events do NOT go through that mutex: each recording thread gets its
// own fixed-capacity TraceRing (trace_ring.hpp), registered with the
// session on the thread's first event and drained only at snapshot /
// teardown time, so phase tracing never contends with the metrics hot
// path or with other tracing threads. trace() merges the rings by
// timestamp; export_chrome_trace (chrome_trace.hpp) turns the merged
// stream into a Perfetto-loadable Chrome trace_event JSON document.
//
// Sessions nest: constructing a Session installs it and remembers the
// previous one; destruction restores it. Install/uninstall must happen on
// one thread while no instrumented work is in flight (the usual pattern:
// create the Session in main() around the whole run). A Session must
// outlive any ScopedPhase that started under it.
//
// Unbounded collections are capped (kMaxTraceEvents per ring /
// kMaxCertificates): beyond the cap, events and certificates are dropped
// but *counted* — per ring and aggregated under obs/trace_dropped, and
// under obs/certificates_dropped — so truncation is never silent.
// Counters and timers aggregate and never grow with run length.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/certificate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_ring.hpp"
#include "support/json.hpp"
#include "support/sync.hpp"

namespace aa::obs {

class Session {
 public:
  /// Per-ring trace capacity (one ring per recording thread).
  static constexpr std::size_t kMaxTraceEvents = 4096;
  static constexpr std::size_t kMaxCertificates = 256;

  /// Installs this session as current (stacking on any previous one).
  Session();
  /// Restores the previously installed session.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The installed session, or nullptr. Lock-free.
  [[nodiscard]] static Session* current() noexcept;

  void count(std::string_view name, std::int64_t delta = 1);
  void time(std::string_view name, double wall_ms, double cpu_ms);
  /// Appends to the calling thread's trace ring (registering one on first
  /// use); ring-full drops are counted per ring and surface aggregated
  /// under obs/trace_dropped in metrics().
  void add_trace(TraceEvent event);
  void add_certificate(Certificate certificate);

  /// Milliseconds since the session was constructed.
  [[nodiscard]] double elapsed_ms() const noexcept;

  /// Counter/timer snapshot. Trace-ring drops (if any) are folded into
  /// the obs/trace_dropped counter of the returned copy.
  [[nodiscard]] Metrics metrics() const;
  /// All rings merged, ordered by at_ms (stable within a ring).
  [[nodiscard]] std::vector<TraceEvent> trace() const;
  /// Per-ring occupancy and drop counts, in registration (tid) order.
  [[nodiscard]] std::vector<TraceRingInfo> trace_rings() const;
  [[nodiscard]] std::vector<Certificate> certificates() const;

  /// Full export: counters, (optionally) timers + trace, the certificate
  /// list, and — when at least one certificate was recorded —
  /// the last certificate's fields flattened at top level (f_alg,
  /// f_super_optimal, f_linearized, alpha, achieved_ratio,
  /// certificate_ok), which is the blob `aa_solve --metrics` and the
  /// benches emit.
  [[nodiscard]] support::JsonValue to_json(bool include_timings = true) const;

 private:
  /// The calling thread's ring under this session, registering one (and
  /// assigning the next tid ordinal) on first use.
  [[nodiscard]] TraceRing* thread_ring();

  // Lock order: leaf. Never held together with rings_mutex_ (the trace
  // path and the metrics path are independent); nothing is acquired
  // under it.
  mutable support::Mutex mutex_;
  Metrics metrics_ AA_GUARDED_BY(mutex_);
  std::vector<Certificate> certificates_ AA_GUARDED_BY(mutex_);

  // Lock order: leaf. Guards ring registration/enumeration only — each
  // TraceRing then has its own leaf mutex for its contents.
  mutable support::Mutex rings_mutex_;
  std::vector<std::unique_ptr<TraceRing>> rings_ AA_GUARDED_BY(rings_mutex_);

  Session* previous_ = nullptr;
  std::uint64_t id_ = 0;  ///< Process-unique, for thread-local ring lookup.
  std::chrono::steady_clock::time_point start_;
};

/// Thread-CPU time of the calling thread, in milliseconds (falls back to
/// process CPU time on platforms without CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_ms() noexcept;

/// Adds to a named counter on the installed session; no-op without one.
inline void count(std::string_view name, std::int64_t delta = 1) {
  if (Session* session = Session::current()) session->count(name, delta);
}

/// The request id currently in scope on the calling thread (0 = none).
/// Every trace event recorded while a TraceRidScope is alive carries it,
/// which is how per-request spans (queue wait, batch, solver phases) are
/// joined back to the request without threading a context object through
/// every solver signature.
[[nodiscard]] std::uint64_t current_trace_rid() noexcept;

/// RAII request-id scope: trace events recorded on this thread while the
/// scope is alive are stamped with `rid`. Scopes nest (the previous rid is
/// restored on destruction); rid 0 means "no request".
class TraceRidScope {
 public:
  explicit TraceRidScope(std::uint64_t rid) noexcept;
  ~TraceRidScope();

  TraceRidScope(const TraceRidScope&) = delete;
  TraceRidScope& operator=(const TraceRidScope&) = delete;

 private:
  std::uint64_t previous_ = 0;
};

/// Marks a point event (e.g. a warm-start path decision) on the calling
/// thread's trace ring. No-op without a session.
void instant(std::string_view name);

/// Records a span that ends now and started `wall_ms` ago on the calling
/// thread's trace ring (e.g. a queue wait measured across threads).
/// No-op without a session.
void span_ending_now(std::string_view name, double wall_ms);

/// RAII phase marker: records an enter/exit trace-event pair and one sample
/// of the timer named after the phase. Copying is disabled; phases must be
/// strictly nested per thread (scopes guarantee this).
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name);
  ~ScopedPhase();

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Session* session_;  ///< Captured at entry; nullptr = disabled.
  std::string name_;
  int depth_ = 0;
  std::uint64_t rid_ = 0;  ///< Request id captured at entry.
  std::chrono::steady_clock::time_point wall_start_;
  double cpu_start_ms_ = 0.0;
};

}  // namespace aa::obs
