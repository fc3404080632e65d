#pragma once

// Transport-independent core of the allocation service.
//
// Connections (Unix socket, stdio, or tests) feed raw request lines into
// submit_line(); replies come back through a per-request callback. The
// service is multi-tenant and sharded: tenants (svc/tenant.hpp) are
// distributed over `shards` shards by a stable hash of the tenant id, and
// each shard owns a bounded FIFO request queue, its tenants' state, and a
// reply sequencer of its own:
//
//   - Every drain worker is pinned to exactly one shard (worker i drains
//     shard i mod shards), and a shard's state and stats are only ever
//     touched under that shard's own locks — so steady-state traffic for
//     tenants on different shards never contends on any service lock
//     (the acceptance property behind the TSan soak in CI; an installed
//     obs session keeps its own).
//   - Within a shard, workers take strict turns draining: one worker pops
//     a *batch* of up to `batch_max` requests (lingering `batch_linger_ms`
//     after the first so bursts coalesce), applies every delta in arrival
//     order, and answers all solve requests in the batch — per tenant —
//     with ONE re-solve of that tenant's final state (coalescing). Reply
//     *rendering* happens outside the turn, so JSON serialization
//     overlaps the next batch's solve; a per-shard sequencer delivers
//     batches in order, preserving FIFO per shard (and therefore per
//     tenant; requests for different shards may be answered out of
//     submission order).
//   - Tenant-less control requests (stats, metrics, shutdown, and the
//     tenant_* admin verbs) are routed to shard 0; the ones that must see
//     every shard briefly acquire the other shards' turn locks in
//     ascending order — only the shard-0 worker (and stats() and
//     tail_json(), which take shard 0's first) ever holds more than one
//     turn lock, so the ordering is deadlock-free. Tenant churn
//     (create/update/delete) re-divides the global capacity pool across
//     tenants through the configured FairnessPolicy (svc/fairness.hpp)
//     and publishes each tenant's slice as its InstanceState solve
//     capacity, feeding the existing warm-start cached/warm/full paths.
//   - Requests carry optional deadlines (request `deadline_ms` overriding
//     the config default); a request picked up past its deadline gets a
//     structured `timeout` error instead of being executed.
//   - Solves go through the tenant's WarmStartSolver: cached / warm
//     (placement pinned, zero migrations) / full Algorithm 2, every reply
//     carrying the 0.828-approximation certificate verdict for that
//     tenant's sliced instance.
//
// Each shard counts its own figures under a lock its writer already holds
// (Shard::queue_stats under queue_mutex, Shard::stats under turn_mutex;
// log2-bucketed obs/histogram.hpp distributions merge exactly), and every
// per-request figure is recorded once, by finish_request, from the built
// reply. These blocks and the tenant-admin counters are the only record
// of the service's figures: the `stats` op (stats(), quantiles), the
// `metrics` op (metrics_text, a Prometheus exposition with per-tenant
// labeled families) and the `trace` op merge the shards under every turn
// lock, and `aa_serve --metrics` writes stats() into its blob. The
// installed aa::obs session gets only what no stats field holds: a few
// error counters, the svc/batch + svc/solve phase timers, queue-wait
// spans and warm-start path instants on the trace rings (for
// `--trace-out`), and the reply certificates.
//
// Lock hierarchy (machine-checked through the support/sync.hpp
// annotations under Clang -Werror=thread-safety; the table in
// docs/ARCHITECTURE.md mirrors this comment):
//
//   shard.turn_mutex       shard 0's first, then the others ascending
//     -> shard.queue_mutex (AllShardsTurnLock; only the shard-0 worker,
//                          stats() and tail_json() ever hold more than
//                          one turn lock)
//   shard.deliver_mutex    independent: held alone while replies drain
//
// queue_mutex is also taken on its own by submit_line (producers never
// touch a turn lock), so a request takes only its own shard's locks. The
// inexpressible "every shard's turn lock" set is named by the all_turns_
// phantom capability: AllShardsTurnLock really locks the other shards'
// turns and acquires the phantom, and the cross-shard *_locked()/control
// helpers declare AA_REQUIRES(all_turns_).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "support/json.hpp"
#include "support/sync.hpp"
#include "support/thread_pool.hpp"
#include "svc/fairness.hpp"
#include "svc/instance_state.hpp"
#include "svc/protocol.hpp"
#include "svc/tenant.hpp"
#include "svc/warm_start.hpp"

namespace aa::svc {

struct ServiceConfig {
  std::size_t num_servers = 2;
  util::Resource capacity = 64;
  /// Drain workers; each is pinned to shard (index mod shards). Raised to
  /// `shards` when smaller so every shard has at least one worker.
  std::size_t workers = 2;
  /// Requests coalesced into one drain turn.
  std::size_t batch_max = 64;
  /// After the first pop, wait this long for stragglers to join the batch.
  double batch_linger_ms = 0.0;
  /// Applied when a request has no deadline_ms of its own; <= 0 disables.
  double default_deadline_ms = 0.0;
  /// Enqueue beyond this depth (per shard) is answered with `overflow`.
  std::size_t max_queue = 4096;
  WarmStartConfig warm;
  /// Tenant shards; 1 keeps the single-lock behavior of old.
  std::size_t shards = 1;
  /// How the global pool (num_servers * capacity units) is divided across
  /// tenants on churn (svc/fairness.hpp).
  FairnessPolicyKind fairness = FairnessPolicyKind::kStaticQuota;
  /// Karma opening balance for tenants created without "credits".
  double karma_opening_credits = 0.0;
  /// Requests slower than this (enqueue -> reply built, ms) emit a
  /// svc/slow_request structured-log event; <= 0 disables slow logging
  /// (the tail capture of the slowest requests is always on).
  double slow_ms = 0.0;
  /// Per-request latency objective for SLO accounting: a finished request
  /// is a deadline miss when it errored with `timeout` or took longer
  /// than this; <= 0 means only timeouts count as misses.
  double slo_ms = 0.0;
  /// Target good-request fraction; the error budget is 1 - slo_objective
  /// and burn rates are miss ratios divided by that budget.
  double slo_objective = 0.999;
};

class Service {
 public:
  using ReplyFn = std::function<void(const std::string&)>;

  explicit Service(ServiceConfig config);
  /// stop()s if still running.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Spawns the drain workers. Requests submitted before start() queue up
  /// and are processed once workers run (tests use this for deterministic
  /// batching).
  void start();

  /// Stops accepting requests, drains the queues, and joins the workers.
  /// Safe to call repeatedly; never call from a worker callback.
  void stop();

  /// True once a shutdown request was processed (or stop() was called);
  /// transports use this to leave their accept/read loops.
  [[nodiscard]] bool shutdown_requested() const noexcept;

  /// Parses and enqueues one request line. Exactly one reply line (no
  /// trailing newline) is delivered through `reply`. Protocol errors are
  /// enqueued like any other request so replies keep request order; only
  /// queue overflow and post-shutdown submissions are answered inline
  /// (they cannot join the queue by definition). Thread-safe.
  void submit_line(const std::string& line, ReplyFn reply);

  /// Synchronous round trip (submit_line + wait); used by tests.
  [[nodiscard]] std::string request(const std::string& line);

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

  /// The `stats` reply payload: every shard's figures merged, plus the
  /// tenant-admin counters. Dumped into aa_serve's --metrics blob at
  /// shutdown; takes the locks like tail_json(). Thread-safe; never call
  /// from a reply callback.
  [[nodiscard]] support::JsonValue stats() AA_EXCLUDES(all_turns_);

  /// Tail-based capture snapshot: the K slowest and the K most recent
  /// errored requests with their rid, tenant, outcome, and span chain.
  /// Dumped by aa_serve --slow-trace-out at shutdown; takes every turn
  /// lock, shard 0's first, like the shard-0 worker. Thread-safe; never
  /// call from a reply callback.
  [[nodiscard]] support::JsonValue tail_json() AA_EXCLUDES(all_turns_);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Request request;
    ReplyFn reply;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< Clock::time_point::max() when none.
    /// Process-unique request id, assigned at parse time; carried on the
    /// reply as "rid" and stamped onto every trace span recorded while
    /// the request is being processed (obs::TraceRidScope).
    std::uint64_t rid = 0;
    /// Set when the line failed to parse: the request carries its error
    /// reply through the queue so delivery stays in request order.
    std::optional<support::JsonValue> error_reply;
  };

  /// One tail-captured request (the K slowest / K last errored), with
  /// everything needed to reconstruct its span chain for the `trace` verb.
  struct CapturedRequest {
    std::uint64_t rid = 0;
    std::string op;
    std::string tenant;
    std::string tag;
    std::string code;  ///< Error code; empty when the request succeeded.
    std::string path;  ///< Solve path when the reply carried one.
    double enqueued_at_ms = 0.0;  ///< Offset from service start.
    double queue_wait_ms = 0.0;
    double total_ms = 0.0;
    bool ok = true;
  };

  /// What one shard's submit path counts, under its queue_mutex.
  struct QueueStats {
    std::int64_t requests = 0;
    std::int64_t by_op[kNumOps] = {};
    /// Overflow and shutdown rejects, answered inline by submit_line.
    std::int64_t rejected = 0;
    std::size_t peak = 0;
    obs::Histogram depth;

    void merge(const QueueStats& other);
  };

  static constexpr std::size_t kTailCapacity = 32;

  /// What one shard's drain turn counts, under its turn_mutex.
  struct TurnStats {
    std::int64_t errors = 0;
    std::int64_t timeouts = 0;
    std::int64_t deadline_misses = 0;
    std::int64_t batches = 0;
    std::int64_t solves_by_path[3] = {};  ///< Indexed by SolvePath.
    std::int64_t coalesced = 0;
    std::int64_t migrations = 0;
    std::int64_t certificates_pass = 0;
    std::int64_t certificates_fail = 0;
    obs::Histogram batch_size;
    obs::Histogram request_latency_ms;
    obs::Histogram solve_latency_ms;
    /// Tail capture (docs/SERVICE.md `trace` verb): the shard's K slowest
    /// requests (slowest-first) and its K most recent errored ones.
    std::vector<CapturedRequest> slowest;
    std::deque<CapturedRequest> errored;

    /// Adds the counters and histograms; the tails are merged by
    /// tail_json_locked().
    void merge(const TurnStats& other);
  };

  /// One tenant's row of a Snapshot.
  struct TenantRow {
    const Tenant* tenant = nullptr;
    double credits = 0.0;
    double budget_consumed = 0.0;
    double burn[3] = {};  ///< Over the 1m / 5m / 30m windows.
  };

  /// Every shard's figures merged, plus one walk over the tenants.
  struct Snapshot {
    QueueStats queue;
    TurnStats turn;
    std::size_t queue_depth = 0;
    std::size_t threads = 0;
    std::uint64_t version = 0;
    std::vector<TenantRow> tenants;
  };

  /// Rendered-later reply: the JSON tree plus its destination.
  struct Outgoing {
    ReplyFn reply;
    support::JsonValue value;
  };

  /// One tenant shard: its own queue, turn lock, tenants, and sequencer.
  struct Shard {
    // Drain turn: one batch at a time per shard, in pop order. Held
    // across pop + tenant mutation + solve; rendering happens outside.
    // Guards `tenants` — cross-shard readers (stats/metrics/tenant_list)
    // and tenant churn take every shard's turn lock in ascending order
    // (AllShardsTurnLock + the all_turns_ phantom).
    // Lock order: root — taken before queue_mutex.
    support::Mutex turn_mutex;
    std::uint64_t next_batch_seq AA_GUARDED_BY(turn_mutex) = 0;
    TurnStats stats AA_GUARDED_BY(turn_mutex);
    // Ordered by tenant id: iteration feeds the fairness division and the
    // exposition, both of which must be deterministic. The map is guarded
    // by turn_mutex; the Tenant objects behind the unique_ptrs are too
    // (the analysis cannot see through the map — svc/tenant.hpp).
    std::map<std::string, std::unique_ptr<Tenant>, std::less<>> tenants
        AA_GUARDED_BY(turn_mutex);

    // Lock order: after this shard's turn_mutex (pop_batch pops under a
    // drain turn; submit_line takes it alone).
    support::Mutex queue_mutex AA_ACQUIRED_AFTER(turn_mutex);
    support::CondVar queue_cv;
    std::deque<Pending> queue AA_GUARDED_BY(queue_mutex);
    bool stopping AA_GUARDED_BY(queue_mutex) = false;
    QueueStats queue_stats AA_GUARDED_BY(queue_mutex);

    // Ordered delivery of rendered batches.
    // Lock order: independent — held alone (replies drain outside every
    // other lock).
    support::Mutex deliver_mutex;
    support::CondVar deliver_cv;
    std::uint64_t delivered_seq AA_GUARDED_BY(deliver_mutex) = 0;
  };

  /// True for ops that address one tenant's state (routed by tenant id);
  /// everything else is a control op routed to shard 0.
  [[nodiscard]] static bool tenant_scoped(Op op) noexcept;
  /// The tenant a request addresses (kDefaultTenant when unspecified).
  [[nodiscard]] static std::string_view tenant_name(
      const Request& request) noexcept;

  void worker_loop(std::size_t shard_index);
  /// Non-blocking pop of the next batch (plus bounded linger). Caller
  /// holds the shard's turn lock and has already observed work; an empty
  /// result means a same-shard peer raced us to the queue.
  [[nodiscard]] std::vector<Pending> pop_batch(Shard& shard)
      AA_REQUIRES(shard.turn_mutex);
  /// Applies one batch to the shard's tenants and builds the reply trees.
  [[nodiscard]] std::vector<Outgoing> process_batch(
      Shard& shard, std::vector<Pending> batch)
      AA_REQUIRES(shard.turn_mutex);
  void deliver_in_order(Shard& shard, std::uint64_t seq,
                        std::vector<Outgoing> outgoing)
      AA_EXCLUDES(shard.deliver_mutex);

  /// Scoped "every shard's turn lock" acquisition: locks every shard's
  /// turn but shard 0's, ascending, and acquires the all_turns_ phantom
  /// that names the full set. Only constructed while the caller (the
  /// shard-0 worker, stats() or tail_json()) holds shard 0's turn lock,
  /// so the global lock order is strictly ascending and deadlock-free.
  class AA_SCOPED_CAPABILITY AllShardsTurnLock {
   public:
    explicit AllShardsTurnLock(Service& service)
        AA_ACQUIRE(service.all_turns_);
    ~AllShardsTurnLock() AA_RELEASE();

    AllShardsTurnLock(const AllShardsTurnLock&) = delete;
    AllShardsTurnLock& operator=(const AllShardsTurnLock&) = delete;

   private:
    Service& service_;
  };

  /// Re-introduces a dynamically-acquired turn lock to the analysis:
  /// inside a cross-shard loop running under all_turns_, each shard's
  /// turn really is held (by AllShardsTurnLock, or by the shard-0 worker
  /// for its own shard), but only as an element of the phantom set.
  void assert_turn_held([[maybe_unused]] const Shard& shard) const
      AA_ASSERT_CAPABILITY(shard.turn_mutex) {}

  [[nodiscard]] Tenant* find_tenant(std::string_view name)
      AA_REQUIRES(all_turns_);

  /// Re-divides the global pool across all tenants through the fairness
  /// policy and publishes the slices as per-tenant solve capacities.
  void redivide_pool_locked() AA_REQUIRES(all_turns_);

  /// Handles one tenant_* admin request.
  [[nodiscard]] support::JsonValue tenant_admin(const Request& request)
      AA_REQUIRES(all_turns_);
  [[nodiscard]] support::JsonValue tenant_list_json()
      AA_REQUIRES(all_turns_);

  /// Merges every shard's stats blocks and walks the tenants once.
  [[nodiscard]] Snapshot snapshot() AA_REQUIRES(all_turns_);
  [[nodiscard]] support::JsonValue stats_json() AA_REQUIRES(all_turns_);
  /// Per-tenant SLO accounting: deadline misses, lifetime error-budget
  /// consumption, and 1m/5m/30m burn rates. Served by the `slo` verb.
  [[nodiscard]] support::JsonValue slo_json() AA_REQUIRES(all_turns_);
  /// Prometheus text-format exposition of the service counters, latency
  /// histograms (+ quantile summaries), certificate verdicts, per-tenant
  /// labeled families, uptime, and — when an obs session is installed —
  /// its drop counters. Served by the `metrics` op.
  [[nodiscard]] std::string metrics_text() AA_REQUIRES(all_turns_);
  /// tail_json() for callers already holding every turn lock: the top K
  /// of the shards' slowest, and the last K errored by finish time.
  [[nodiscard]] support::JsonValue tail_json_locked()
      AA_REQUIRES(all_turns_);
  [[nodiscard]] support::JsonValue solve_payload(
      const ServiceSolveResult& solved, double solve_ms) const;
  /// The one place each per-request figure is counted, from the built
  /// (not yet rendered) reply tree: the error, timeout and deadline miss,
  /// the request latency, the tenant's requests, errors and SLO windows,
  /// the tail capture, and the slow-request / error structured log events.
  void finish_request(Shard& shard, const Pending& pending,
                      const support::JsonValue& reply,
                      Clock::time_point started, Clock::time_point finished)
      AA_REQUIRES(shard.turn_mutex);
  [[nodiscard]] double pool_units() const noexcept;

  ServiceConfig config_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Names the "every shard's turn lock" set, which the analysis cannot
  /// express over a dynamic shard vector. Really acquired/released by
  /// AllShardsTurnLock (and briefly by the single-threaded constructor).
  // Lock order: stands for the ascending turn-lock sweep — after shard
  // 0's turn_mutex.
  support::PhantomMutex all_turns_;
  /// Cross-tenant division policy; its credit books are only touched
  /// under all turn locks (tenant churn), never on the request fast path.
  std::unique_ptr<FairnessPolicy> policy_ AA_PT_GUARDED_BY(all_turns_);

  // Tenant admin counters; every writer already holds all_turns_.
  std::int64_t tenant_creates_ AA_GUARDED_BY(all_turns_) = 0;
  std::int64_t tenant_updates_ AA_GUARDED_BY(all_turns_) = 0;
  std::int64_t tenant_deletes_ AA_GUARDED_BY(all_turns_) = 0;
  std::int64_t pool_redivides_ AA_GUARDED_BY(all_turns_) = 0;
  const Clock::time_point started_ = Clock::now();

  std::atomic<bool> shutdown_requested_{false};
  std::unique_ptr<support::ThreadPool> pool_;
  std::vector<std::future<void>> workers_;
};

}  // namespace aa::svc
