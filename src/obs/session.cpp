#include "obs/session.hpp"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <utility>

#include "obs/registry.hpp"

namespace aa::obs {

namespace {

std::atomic<Session*> g_current{nullptr};

/// Session ids are process-unique and never reused, so a thread-local ring
/// pointer tagged with the id it was issued under can never dangle into a
/// *different* session that happens to occupy the same address.
std::atomic<std::uint64_t> g_next_session_id{1};

/// Per-thread phase nesting depth. Each worker starts at 0; strictly nested
/// ScopedPhase scopes keep it balanced.
thread_local int g_depth = 0;

/// Per-thread request id in scope (0 = none); maintained by TraceRidScope
/// and stamped onto every trace event recorded on this thread.
thread_local std::uint64_t g_trace_rid = 0;

/// The calling thread's ring cache: valid only while the installed session's
/// id matches. A stale id (session destroyed, or a nested one installed)
/// simply re-registers on the next event.
struct RingCache {
  std::uint64_t session_id = 0;
  TraceRing* ring = nullptr;
};
thread_local RingCache g_ring_cache;

double wall_ms_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) noexcept {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

double thread_cpu_ms() noexcept {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
  }
#endif
  return 1e3 * static_cast<double>(std::clock()) /
         static_cast<double>(CLOCKS_PER_SEC);
}

Session::Session()
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed)),
      start_(std::chrono::steady_clock::now()) {
  previous_ = g_current.exchange(this, std::memory_order_acq_rel);
}

Session::~Session() {
  g_current.store(previous_, std::memory_order_release);
}

Session* Session::current() noexcept {
  return g_current.load(std::memory_order_acquire);
}

void Session::count(std::string_view name, std::int64_t delta) {
  const support::MutexLock lock(mutex_);
  metrics_.count(name, delta);
}

void Session::time(std::string_view name, double wall_ms, double cpu_ms) {
  const support::MutexLock lock(mutex_);
  metrics_.time(name, wall_ms, cpu_ms);
}

TraceRing* Session::thread_ring() {
  if (g_ring_cache.session_id != id_) {
    const support::MutexLock lock(rings_mutex_);
    const int tid = static_cast<int>(rings_.size());
    rings_.push_back(std::make_unique<TraceRing>(tid, kMaxTraceEvents));
    g_ring_cache.ring = rings_.back().get();
    g_ring_cache.session_id = id_;
  }
  return g_ring_cache.ring;
}

void Session::add_trace(TraceEvent event) {
  thread_ring()->push(std::move(event));
}

void Session::add_certificate(Certificate certificate) {
  const support::MutexLock lock(mutex_);
  if (certificates_.size() >= kMaxCertificates) {
    metrics_.count(metric::kObsCertificatesDropped, 1);
    // The *last* certificate is what to_json flattens, so keep it fresh:
    // overwrite the final slot instead of dropping the newest.
    certificates_.back() = std::move(certificate);
    return;
  }
  certificates_.push_back(std::move(certificate));
}

double Session::elapsed_ms() const noexcept {
  return wall_ms_between(start_, std::chrono::steady_clock::now());
}

Metrics Session::metrics() const {
  Metrics snapshot;
  {
    const support::MutexLock lock(mutex_);
    snapshot = metrics_;
  }
  std::int64_t trace_dropped = 0;
  for (const TraceRingInfo& info : trace_rings()) {
    trace_dropped += info.dropped;
  }
  // Only materialize the counter when something actually dropped, so the
  // deterministic counter blob stays byte-stable for clean runs.
  if (trace_dropped > 0) {
    snapshot.count(metric::kObsTraceDropped, trace_dropped);
  }
  return snapshot;
}

std::vector<TraceEvent> Session::trace() const {
  std::vector<const TraceRing*> rings;
  {
    const support::MutexLock lock(rings_mutex_);
    rings.reserve(rings_.size());
    for (const auto& ring : rings_) rings.push_back(ring.get());
  }
  std::vector<TraceEvent> merged;
  for (const TraceRing* ring : rings) {
    std::vector<TraceEvent> events = ring->snapshot();
    merged.insert(merged.end(), std::make_move_iterator(events.begin()),
                  std::make_move_iterator(events.end()));
  }
  // Per-ring order is already chronological; a stable sort across rings
  // preserves each thread's enter/exit nesting for equal timestamps.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  return merged;
}

std::vector<TraceRingInfo> Session::trace_rings() const {
  std::vector<const TraceRing*> rings;
  {
    const support::MutexLock lock(rings_mutex_);
    rings.reserve(rings_.size());
    for (const auto& ring : rings_) rings.push_back(ring.get());
  }
  std::vector<TraceRingInfo> infos;
  infos.reserve(rings.size());
  for (const TraceRing* ring : rings) {
    infos.push_back(TraceRingInfo{ring->tid(), ring->size(), ring->dropped()});
  }
  return infos;
}

std::vector<Certificate> Session::certificates() const {
  const support::MutexLock lock(mutex_);
  return certificates_;
}

namespace {

const char* kind_name(TraceEvent::Kind kind) noexcept {
  switch (kind) {
    case TraceEvent::Kind::kEnter:
      return "enter";
    case TraceEvent::Kind::kExit:
      return "exit";
    case TraceEvent::Kind::kInstant:
      return "instant";
    case TraceEvent::Kind::kComplete:
      return "complete";
  }
  return "enter";
}

}  // namespace

support::JsonValue Session::to_json(bool include_timings) const {
  const Metrics metrics_snapshot = metrics();
  const std::vector<Certificate> certificates_snapshot = certificates();
  support::JsonValue out{support::JsonValue::Object{}};
  if (!certificates_snapshot.empty()) {
    const Certificate& last = certificates_snapshot.back();
    out.set("solver", last.input.solver);
    out.set("f_alg", last.input.f_alg);
    out.set("f_linearized", last.input.f_linearized);
    out.set("f_super_optimal", last.input.f_super_optimal);
    out.set("alpha", last.input.alpha);
    out.set("achieved_ratio", last.achieved_ratio);
    out.set("certificate_ok", last.ok());
  }
  out.set("counters", metrics_snapshot.counters_json());
  if (include_timings) {
    out.set("timers", metrics_snapshot.timers_json());
    support::JsonValue::Array trace;
    const std::vector<TraceEvent> events = this->trace();
    trace.reserve(events.size());
    for (const TraceEvent& event : events) {
      support::JsonValue entry{support::JsonValue::Object{}};
      entry.set("kind", kind_name(event.kind));
      entry.set("name", event.name);
      entry.set("tid", event.tid);
      entry.set("depth", event.depth);
      entry.set("at_ms", event.at_ms);
      if (event.rid != 0) {
        entry.set("rid", static_cast<std::int64_t>(event.rid));
      }
      if (event.kind == TraceEvent::Kind::kExit ||
          event.kind == TraceEvent::Kind::kComplete) {
        entry.set("wall_ms", event.wall_ms);
      }
      if (event.kind == TraceEvent::Kind::kExit) {
        entry.set("cpu_ms", event.cpu_ms);
      }
      trace.push_back(std::move(entry));
    }
    out.set("trace", support::JsonValue(std::move(trace)));
  }
  if (!certificates_snapshot.empty()) {
    support::JsonValue::Array list;
    list.reserve(certificates_snapshot.size());
    for (const Certificate& certificate : certificates_snapshot) {
      list.push_back(certificate.to_json());
    }
    out.set("certificates", support::JsonValue(std::move(list)));
  }
  return out;
}

std::uint64_t current_trace_rid() noexcept { return g_trace_rid; }

TraceRidScope::TraceRidScope(std::uint64_t rid) noexcept
    : previous_(g_trace_rid) {
  g_trace_rid = rid;
}

TraceRidScope::~TraceRidScope() { g_trace_rid = previous_; }

void instant(std::string_view name) {
  if (Session* session = Session::current()) {
    session->add_trace({TraceEvent::Kind::kInstant, std::string(name), g_depth,
                        session->elapsed_ms(), 0.0, 0.0, 0, g_trace_rid});
  }
}

void span_ending_now(std::string_view name, double wall_ms) {
  if (Session* session = Session::current()) {
    const double duration = std::max(wall_ms, 0.0);
    const double start = std::max(session->elapsed_ms() - duration, 0.0);
    session->add_trace({TraceEvent::Kind::kComplete, std::string(name),
                        g_depth, start, duration, 0.0, 0, g_trace_rid});
  }
}

ScopedPhase::ScopedPhase(std::string_view name)
    : session_(Session::current()) {
  if (session_ == nullptr) return;
  name_ = std::string(name);
  depth_ = g_depth++;
  rid_ = g_trace_rid;
  wall_start_ = std::chrono::steady_clock::now();
  cpu_start_ms_ = thread_cpu_ms();
  session_->add_trace({TraceEvent::Kind::kEnter, name_, depth_,
                       session_->elapsed_ms(), 0.0, 0.0, 0, rid_});
}

ScopedPhase::~ScopedPhase() {
  if (session_ == nullptr) return;
  --g_depth;
  const double wall =
      wall_ms_between(wall_start_, std::chrono::steady_clock::now());
  const double cpu = thread_cpu_ms() - cpu_start_ms_;
  session_->time(name_, wall, cpu);
  session_->add_trace({TraceEvent::Kind::kExit, name_, depth_,
                       session_->elapsed_ms(), wall, cpu, 0, rid_});
}

}  // namespace aa::obs
