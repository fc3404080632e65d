#include "svc/service.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <type_traits>
#include <utility>

#include "obs/log.hpp"
#include "obs/prometheus.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "support/sync.hpp"

namespace aa::svc {

namespace {

using support::JsonValue;

/// Request ids are process-unique (not per-Service) so rids stay unique in
/// tests and tools that run several services in one process.
std::atomic<std::uint64_t> g_next_rid{1};

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Moves every member of `payload` onto `reply`.
void merge_into(JsonValue& reply, JsonValue&& payload) {
  for (auto& [key, value] : payload.as_object()) {
    reply.set(std::move(key), std::move(value));
  }
}

/// The SLO burn-rate windows, labeled as in `slo` and the exposition.
struct BurnWindow {
  std::string_view label;
  std::size_t buckets;
};
constexpr BurnWindow kBurnWindows[] = {
    {"1m", SloWindows::kBuckets1m},
    {"5m", SloWindows::kBuckets5m},
    {"30m", SloWindows::kBuckets30m},
};

/// Stable merge of the sorted `from` into the sorted `into`.
template <typename T, typename Range, typename Before>
void merge_sorted(std::vector<T>& into, const Range& from,
                  const Before& before) {
  std::vector<T> merged;
  merged.reserve(into.size() + from.size());
  std::merge(into.begin(), into.end(), from.begin(), from.end(),
             std::back_inserter(merged), before);
  into = std::move(merged);
}

/// Solve paths in the order `stats` and the exposition list them.
constexpr SolvePath kSolvePaths[] = {SolvePath::kFull, SolvePath::kWarm,
                                     SolvePath::kCached};

}  // namespace

bool Service::tenant_scoped(Op op) noexcept {
  switch (op) {
    case Op::kAddThread:
    case Op::kRemoveThread:
    case Op::kUpdateUtility:
    case Op::kSolve:
      return true;
    case Op::kStats:
    case Op::kMetrics:
    case Op::kTrace:
    case Op::kSlo:
    case Op::kShutdown:
    case Op::kTenantCreate:
    case Op::kTenantUpdate:
    case Op::kTenantDelete:
    case Op::kTenantList:
      return false;
  }
  return false;
}

std::string_view Service::tenant_name(const Request& request) noexcept {
  return request.tenant.empty() ? kDefaultTenant
                                : std::string_view(request.tenant);
}

double Service::pool_units() const noexcept {
  return static_cast<double>(config_.num_servers) *
         static_cast<double>(config_.capacity);
}

Service::Service(ServiceConfig config) : config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.batch_max == 0) config_.batch_max = 1;
  if (config_.shards == 0) config_.shards = 1;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  policy_ = FairnessPolicy::create(config_.fairness);

  // The default tenant exists from the start (single-tenant clients never
  // name a tenant) and owns the whole pool until others are created.
  // Single-threaded here (no workers yet), so the locks below are
  // uncontended; they are taken anyway to satisfy the declared contracts.
  const std::string name(kDefaultTenant);
  Shard& home = *shards_[shard_of(name, config_.shards)];
  const support::MutexLock home_turn(home.turn_mutex);
  home.tenants.emplace(
      name, std::make_unique<Tenant>(name, TenantQuota{},
                                     config_.num_servers, config_.capacity,
                                     config_.warm));
  all_turns_.acquire();
  policy_->on_tenant_created(name, config_.karma_opening_credits);
  redivide_pool_locked();
  all_turns_.release();
}

Service::~Service() { stop(); }

void Service::start() {
  if (pool_ != nullptr) return;
  // Every shard needs at least one pinned worker.
  const std::size_t total = std::max(config_.workers, config_.shards);
  pool_ = std::make_unique<support::ThreadPool>(total);
  workers_.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t shard_index = i % config_.shards;
    workers_.push_back(
        pool_->submit([this, shard_index] { worker_loop(shard_index); }));
  }
}

void Service::stop() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    {
      const support::MutexLock lock(shard->queue_mutex);
      shard->stopping = true;
    }
    shard->queue_cv.notify_all();
  }
  for (std::future<void>& worker : workers_) worker.get();
  workers_.clear();
  pool_.reset();
  shutdown_requested_.store(true, std::memory_order_release);
}

bool Service::shutdown_requested() const noexcept {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void Service::submit_line(const std::string& line, ReplyFn reply) {
  const Clock::time_point now = Clock::now();
  obs::count(obs::metric::kSvcRequests);

  Pending pending;
  pending.reply = std::move(reply);
  pending.enqueued = now;
  pending.deadline = Clock::time_point::max();
  pending.rid = g_next_rid.fetch_add(1, std::memory_order_relaxed);
  std::optional<Op> op;
  try {
    pending.request = parse_request(line, config_.capacity);
    op = pending.request.op;
    const double deadline_ms =
        pending.request.deadline_ms.value_or(config_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      pending.deadline =
          now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
    }
  } catch (const ProtocolError& error) {
    // Queued, not answered inline: the error reply must not overtake
    // replies to requests submitted before this line.
    obs::count(obs::metric::kSvcErrors);
    pending.error_reply = make_error_reply(error.code(), error.what());
    pending.error_reply->set("rid",
                             static_cast<std::int64_t>(pending.rid));
  }

  // Tenant-scoped requests go to their tenant's shard; control requests
  // (and unparseable lines, which name no tenant) go to shard 0.
  const std::size_t shard_index =
      (op.has_value() && tenant_scoped(*op))
          ? shard_of(tenant_name(pending.request), config_.shards)
          : 0;
  Shard& shard = *shards_[shard_index];

  std::size_t depth = 0;
  {
    const support::MutexLock lock(shard.queue_mutex);
    QueueStats& stats = shard.queue_stats;
    ++stats.requests;
    const bool stopping = shard.stopping || shutdown_requested();
    if (stopping || shard.queue.size() >= config_.max_queue) {
      ++stats.rejected;
      JsonValue inline_reply =
          pending.error_reply
              ? std::move(*pending.error_reply)
              : make_error_reply(
                    stopping ? error_code::kShuttingDown
                             : error_code::kOverflow,
                    stopping ? "service is shutting down"
                             : "request queue is full",
                    op_name(pending.request.op), pending.request.tag);
      inline_reply.set("rid", static_cast<std::int64_t>(pending.rid));
      pending.reply(inline_reply.dump());
      return;
    }
    if (op) ++stats.by_op[static_cast<std::size_t>(*op)];
    shard.queue.push_back(std::move(pending));
    depth = shard.queue.size();
    stats.peak = std::max(stats.peak, depth);
    stats.depth.sample(static_cast<double>(depth));
  }
  shard.queue_cv.notify_one();
  obs::sample(obs::metric::kSampleSvcQueueDepth, static_cast<double>(depth));
}

std::string Service::request(const std::string& line) {
  auto done = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = done->get_future();
  submit_line(line,
              [done](const std::string& text) { done->set_value(text); });
  return future.get();
}

std::vector<Service::Pending> Service::pop_batch(Shard& shard) {
  // Never blocks indefinitely: the caller already saw work (or stop) and
  // holds the shard's turn lock — an unbounded wait here would hold that
  // lock against cross-shard control ops (tenant churn, stats). A peer
  // worker may have raced us to the queue, in which case return empty.
  const support::MutexLock lock(shard.queue_mutex);
  if (shard.queue.empty()) return {};

  if (config_.batch_linger_ms > 0.0 &&
      shard.queue.size() < config_.batch_max) {
    const auto linger_until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               config_.batch_linger_ms));
    // Manual predicate loop (not a lambda) so the guarded reads stay in
    // this function's analysis context — support/sync.hpp.
    while (!shard.stopping && shard.queue.size() < config_.batch_max) {
      if (shard.queue_cv.wait_until(shard.queue_mutex, linger_until) ==
          std::cv_status::timeout) {
        break;
      }
    }
  }

  std::vector<Pending> batch;
  const std::size_t take = std::min(shard.queue.size(), config_.batch_max);
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(shard.queue.front()));
    shard.queue.pop_front();
  }
  return batch;
}

void Service::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    // Wait for work WITHOUT the turn lock: an idle shard's turn must stay
    // available to the shard-0 worker's cross-shard ops (AllShardsTurnLock
    // would otherwise deadlock against a parked worker).
    {
      const support::MutexLock lock(shard.queue_mutex);
      while (!shard.stopping && shard.queue.empty()) {
        shard.queue_cv.wait(shard.queue_mutex);
      }
      if (shard.queue.empty()) return;  // Stopping and drained.
    }
    std::vector<Pending> batch;
    std::vector<Outgoing> outgoing;
    std::uint64_t seq = 0;
    {
      const support::MutexLock turn(shard.turn_mutex);
      batch = pop_batch(shard);
      if (batch.empty()) continue;  // A peer on this shard raced us to it.
      seq = shard.next_batch_seq++;
      outgoing = process_batch(shard, std::move(batch));
    }
    deliver_in_order(shard, seq, std::move(outgoing));
  }
}

void Service::deliver_in_order(Shard& shard, std::uint64_t seq,
                               std::vector<Outgoing> outgoing) {
  // Render outside both the turn and the delivery lock: serialization of
  // batch k overlaps the processing of batch k+1.
  std::vector<std::pair<ReplyFn, std::string>> rendered;
  rendered.reserve(outgoing.size());
  for (Outgoing& out : outgoing) {
    rendered.emplace_back(std::move(out.reply), out.value.dump());
  }

  support::MutexLock lock(shard.deliver_mutex);
  while (shard.delivered_seq != seq) shard.deliver_cv.wait(shard.deliver_mutex);
  for (auto& [reply, text] : rendered) {
    try {
      reply(text);
    } catch (...) {
      // A dead connection must not take the service down.
      obs::count(obs::metric::kSvcReplyFailures);
    }
  }
  shard.delivered_seq = seq + 1;
  lock.unlock();
  shard.deliver_cv.notify_all();
}

void Service::finish_request(Shard& shard, const Pending& pending,
                             const JsonValue& reply,
                             Clock::time_point started,
                             Clock::time_point finished) {
  const auto text = [&reply](std::string_view key) {
    const JsonValue* node = reply.find(key);
    return node != nullptr && node->is_string()
               ? std::string_view(node->as_string())
               : std::string_view();
  };
  const double total_ms = ms_between(pending.enqueued, finished);
  const JsonValue* ok_node = reply.find("ok");
  const bool ok =
      ok_node != nullptr && ok_node->is_bool() && ok_node->as_bool();
  const std::string_view code = text("code");
  const bool timeout = code == error_code::kTimeout;
  // A miss is a timeout error or a reply that blew the latency objective.
  const bool miss =
      timeout || (config_.slo_ms > 0.0 && total_ms > config_.slo_ms);
  const bool good = ok && !miss;

  TurnStats& stats = shard.stats;
  if (!ok) ++stats.errors;
  if (timeout) ++stats.timeouts;
  if (miss) {
    ++stats.deadline_misses;
    obs::count(obs::metric::kSvcDeadlineMisses);
  }
  stats.request_latency_ms.sample(total_ms);
  obs::sample(obs::metric::kSampleSvcRequest, total_ms);

  const bool scoped =
      !pending.error_reply && tenant_scoped(pending.request.op);
  const std::string_view tenant_id =
      scoped ? tenant_name(pending.request) : std::string_view();
  if (scoped) {
    const auto it = shard.tenants.find(tenant_id);
    if (it != shard.tenants.end()) {
      Tenant& tenant = *it->second;
      ++tenant.slo_total;
      if (!ok) ++tenant.errors;
      if (good) ++tenant.slo_good;
      if (miss) ++tenant.deadline_misses;
      tenant.slo_windows.record(ms_between(started_, finished), good);
    }
  }

  std::string_view op = text("op");
  if (op.empty() && !pending.error_reply) op = op_name(pending.request.op);
  const std::string_view path = text("path");
  const double queue_wait_ms = ms_between(pending.enqueued, started);
  const bool in_slowest = stats.slowest.size() < kTailCapacity ||
                          total_ms > stats.slowest.back().total_ms;
  if (in_slowest || !ok) {
    CapturedRequest captured{
        .rid = pending.rid,
        .op = std::string(op),
        .tenant = std::string(tenant_id),
        .tag = pending.request.tag,
        .code = std::string(code),
        .path = std::string(path),
        .enqueued_at_ms = ms_between(started_, pending.enqueued),
        .queue_wait_ms = queue_wait_ms,
        .total_ms = total_ms,
        .ok = ok,
    };
    if (in_slowest) {
      const auto pos = std::upper_bound(
          stats.slowest.begin(), stats.slowest.end(), total_ms,
          [](double value, const CapturedRequest& entry) {
            return value > entry.total_ms;
          });
      stats.slowest.insert(pos, captured);
      if (stats.slowest.size() > kTailCapacity) stats.slowest.pop_back();
    }
    if (!ok) {
      stats.errored.push_back(std::move(captured));
      if (stats.errored.size() > kTailCapacity) stats.errored.pop_front();
    }
  }

  // Structured log events; no-ops without an installed Logger.
  if (!ok) {
    JsonValue fields;
    fields.set("op", std::string(op));
    fields.set("code", std::string(code));
    fields.set("total_ms", total_ms);
    obs::log_event(obs::LogLevel::kWarn, obs::metric::kLogSvcRequestError,
                   pending.rid, tenant_id, std::move(fields));
  } else if (config_.slow_ms > 0.0 && total_ms >= config_.slow_ms) {
    JsonValue fields;
    fields.set("op", std::string(op));
    fields.set("total_ms", total_ms);
    fields.set("queue_wait_ms", queue_wait_ms);
    if (!path.empty()) fields.set("path", std::string(path));
    obs::log_event(obs::LogLevel::kWarn, obs::metric::kLogSvcSlowRequest,
                   pending.rid, tenant_id, std::move(fields));
  }
}

JsonValue Service::tail_json() {
  const support::MutexLock first_turn(shards_.front()->turn_mutex);
  const AllShardsTurnLock guards(*this);
  return tail_json_locked();
}

JsonValue Service::tail_json_locked() {
  // Each shard's rings are already in order, and a stable merge keeps one
  // shard's entries exactly as it recorded them.
  std::vector<CapturedRequest> slowest;
  std::vector<CapturedRequest> errored;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    assert_turn_held(shard);
    merge_sorted(slowest, shard.stats.slowest,
                 [](const CapturedRequest& a, const CapturedRequest& b) {
                   return a.total_ms > b.total_ms;
                 });
    // By finish time, ties broken by rid.
    merge_sorted(errored, shard.stats.errored,
                 [](const CapturedRequest& a, const CapturedRequest& b) {
                   const double a_end = a.enqueued_at_ms + a.total_ms;
                   const double b_end = b.enqueued_at_ms + b.total_ms;
                   return a_end < b_end || (a_end == b_end && a.rid < b.rid);
                 });
  }
  if (slowest.size() > kTailCapacity) slowest.resize(kTailCapacity);
  if (errored.size() > kTailCapacity) {
    errored.erase(errored.begin(), errored.end() - kTailCapacity);
  }

  const auto entry_json = [](const CapturedRequest& entry) {
    JsonValue node;
    node.set("rid", static_cast<std::int64_t>(entry.rid));
    if (!entry.op.empty()) node.set("op", entry.op);
    if (!entry.tenant.empty()) node.set("tenant", entry.tenant);
    if (!entry.tag.empty()) node.set("tag", entry.tag);
    node.set("ok", entry.ok);
    if (!entry.code.empty()) node.set("code", entry.code);
    if (!entry.path.empty()) node.set("path", entry.path);
    node.set("enqueued_at_ms", entry.enqueued_at_ms);
    node.set("total_ms", entry.total_ms);
    JsonValue::Array spans;
    JsonValue wait;
    wait.set("name", std::string(obs::metric::kEventSvcQueueWait));
    wait.set("at_ms", entry.enqueued_at_ms);
    wait.set("ms", entry.queue_wait_ms);
    spans.push_back(std::move(wait));
    JsonValue process;
    process.set("name", std::string(obs::metric::kPhaseSvcBatch));
    process.set("at_ms", entry.enqueued_at_ms + entry.queue_wait_ms);
    process.set("ms", std::max(entry.total_ms - entry.queue_wait_ms, 0.0));
    spans.push_back(std::move(process));
    node.set("spans", JsonValue(std::move(spans)));
    return node;
  };
  const auto ring_json = [&entry_json](
                             const std::vector<CapturedRequest>& ring) {
    JsonValue::Array entries;
    entries.reserve(ring.size());
    for (const CapturedRequest& entry : ring) {
      entries.push_back(entry_json(entry));
    }
    return JsonValue(std::move(entries));
  };
  JsonValue payload;
  payload.set("slowest", ring_json(slowest));
  payload.set("errors", ring_json(errored));
  payload.set("capacity", kTailCapacity);
  return payload;
}

JsonValue Service::slo_json() {
  const Snapshot snap = snapshot();
  JsonValue payload;
  payload.set("objective", config_.slo_objective);
  payload.set("slo_ms", config_.slo_ms);
  JsonValue::Array tenants;
  for (const TenantRow& row : snap.tenants) {
    JsonValue entry;
    entry.set("tenant", row.tenant->name);
    entry.set("requests", row.tenant->slo_total);
    entry.set("good", row.tenant->slo_good);
    entry.set("deadline_misses", row.tenant->deadline_misses);
    entry.set("budget_consumed", row.budget_consumed);
    for (std::size_t w = 0; w < std::size(kBurnWindows); ++w) {
      entry.set("burn_" + std::string(kBurnWindows[w].label), row.burn[w]);
    }
    tenants.push_back(std::move(entry));
  }
  payload.set("tenants", JsonValue(std::move(tenants)));
  return payload;
}

// The constituent turn locks live behind a dynamic vector the analysis
// cannot enumerate, so the bodies are unanalyzed; the attributes on the
// declarations (acquire/release of the all_turns_ phantom) carry the
// contract to callers.
Service::AllShardsTurnLock::AllShardsTurnLock(Service& service)
    AA_NO_THREAD_SAFETY_ANALYSIS : service_(service) {
  for (std::size_t i = 1; i < service_.shards_.size(); ++i) {
    service_.shards_[i]->turn_mutex.lock();
  }
  service_.all_turns_.acquire();
}

Service::AllShardsTurnLock::~AllShardsTurnLock()
    AA_NO_THREAD_SAFETY_ANALYSIS {
  service_.all_turns_.release();
  // Descending, mirroring acquisition.
  for (std::size_t i = service_.shards_.size(); i-- > 1;) {
    service_.shards_[i]->turn_mutex.unlock();
  }
}

Tenant* Service::find_tenant(std::string_view name) {
  Shard& shard = *shards_[shard_of(name, config_.shards)];
  assert_turn_held(shard);
  const auto it = shard.tenants.find(name);
  return it == shard.tenants.end() ? nullptr : it->second.get();
}

void Service::redivide_pool_locked() {
  std::vector<TenantDemand> demands;
  std::vector<Tenant*> order;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    assert_turn_held(shard);
    for (const auto& [name, tenant] : shard.tenants) {
      TenantDemand demand;
      demand.id = name;
      demand.weight = tenant->quota.weight;
      demand.quota = tenant->quota.quota_units;
      demand.demand = tenant_demand_units(tenant->state);
      demands.push_back(std::move(demand));
      order.push_back(tenant.get());
    }
  }
  const std::vector<double> slices = policy_->divide(pool_units(), demands);
  for (std::size_t i = 0; i < order.size(); ++i) {
    Tenant& tenant = *order[i];
    tenant.slice_units = slices[i];
    tenant.demand_units = demands[i].demand;
    const auto per_server = static_cast<util::Resource>(
        std::floor(slices[i] / static_cast<double>(config_.num_servers)));
    tenant.state.set_solve_capacity(std::max<util::Resource>(1, per_server));
  }
  obs::count(obs::metric::kSvcTenantRedivides);
  ++pool_redivides_;
}

JsonValue Service::tenant_admin(const Request& request) {
  const std::string name = request.tenant;
  Shard& home = *shards_[shard_of(name, config_.shards)];
  assert_turn_held(home);
  switch (request.op) {
    case Op::kTenantCreate: {
      if (home.tenants.find(name) != home.tenants.end()) {
        return make_error_reply(error_code::kTenantExists,
                                "tenant '" + name + "' already exists",
                                op_name(request.op), request.tag);
      }
      TenantQuota quota;
      quota.weight = request.weight.value_or(1.0);
      quota.quota_units = request.quota.value_or(0.0);
      quota.max_threads = request.max_threads.value_or(0);
      auto tenant = std::make_unique<Tenant>(name, quota,
                                             config_.num_servers,
                                             config_.capacity, config_.warm);
      Tenant* created = tenant.get();
      home.tenants.emplace(name, std::move(tenant));
      policy_->on_tenant_created(
          name, request.credits.value_or(config_.karma_opening_credits));
      obs::count(obs::metric::kSvcTenantCreates);
      ++tenant_creates_;
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("shard", shard_of(name, config_.shards));
      reply.set("weight", created->quota.weight);
      reply.set("quota_units", created->quota.quota_units);
      reply.set("max_threads", created->quota.max_threads);
      reply.set("slice_units", created->slice_units);
      return reply;
    }
    case Op::kTenantUpdate: {
      Tenant* tenant = find_tenant(name);
      if (tenant == nullptr) {
        return make_error_reply(error_code::kTenantNotFound,
                                "no tenant '" + name + "'",
                                op_name(request.op), request.tag);
      }
      if (request.weight) tenant->quota.weight = *request.weight;
      if (request.quota) tenant->quota.quota_units = *request.quota;
      if (request.max_threads) tenant->quota.max_threads = *request.max_threads;
      obs::count(obs::metric::kSvcTenantUpdates);
      ++tenant_updates_;
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("weight", tenant->quota.weight);
      reply.set("quota_units", tenant->quota.quota_units);
      reply.set("max_threads", tenant->quota.max_threads);
      reply.set("slice_units", tenant->slice_units);
      return reply;
    }
    case Op::kTenantDelete: {
      if (name == kDefaultTenant) {
        return make_error_reply(error_code::kBadTenant,
                                "the default tenant cannot be deleted",
                                op_name(request.op), request.tag);
      }
      const auto it = home.tenants.find(name);
      if (it == home.tenants.end()) {
        return make_error_reply(error_code::kTenantNotFound,
                                "no tenant '" + name + "'",
                                op_name(request.op), request.tag);
      }
      const std::size_t threads_removed = it->second->state.num_threads();
      home.tenants.erase(it);
      policy_->on_tenant_deleted(name);
      obs::count(obs::metric::kSvcTenantDeletes);
      ++tenant_deletes_;
      redivide_pool_locked();
      JsonValue reply = make_ok_reply(request.op, request.tag);
      reply.set("tenant", name);
      reply.set("threads_removed", threads_removed);
      return reply;
    }
    default:
      return make_error_reply(error_code::kInternal,
                              "not a tenant admin op",
                              op_name(request.op), request.tag);
  }
}

JsonValue Service::tenant_list_json() {
  JsonValue::Array tenants;
  std::size_t count = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    assert_turn_held(shard);
    for (const auto& [name, tenant] : shard.tenants) {
      JsonValue entry;
      entry.set("tenant", name);
      entry.set("shard", s);
      entry.set("weight", tenant->quota.weight);
      entry.set("quota_units", tenant->quota.quota_units);
      entry.set("max_threads", tenant->quota.max_threads);
      entry.set("threads", tenant->state.num_threads());
      entry.set("slice_units", tenant->slice_units);
      entry.set("demand_units", tenant->demand_units);
      entry.set("solve_capacity", tenant->state.solve_capacity());
      entry.set("credits", policy_->credits(name));
      tenants.push_back(std::move(entry));
      ++count;
    }
  }
  JsonValue payload;
  payload.set("policy", fairness_policy_name(policy_->kind()));
  payload.set("pool_units", pool_units());
  payload.set("tenants", JsonValue(std::move(tenants)));
  payload.set("tenant_count", count);
  return payload;
}

std::vector<Service::Outgoing> Service::process_batch(
    Shard& shard, std::vector<Pending> batch) {
  const obs::ScopedPhase phase(obs::metric::kPhaseSvcBatch);
  obs::count(obs::metric::kSvcBatches);
  obs::sample(obs::metric::kSampleSvcBatchSize,
              static_cast<double>(batch.size()));
  ++shard.stats.batches;
  shard.stats.batch_size.sample(static_cast<double>(batch.size()));

  std::vector<Outgoing> out;
  out.reserve(batch.size());
  /// Per-tenant deferred solves: every solve in the batch for one tenant
  /// shares one re-solve of that tenant's final state.
  struct SolveGroup {
    std::vector<std::size_t> slots;
    bool force_full = false;
  };
  std::map<std::string, SolveGroup, std::less<>> solve_groups;

  const Clock::time_point started = Clock::now();
  for (Pending& pending : batch) {
    const Request& request = pending.request;
    // Every span recorded while this request is handled (queue wait, any
    // in-switch work) carries its rid.
    const obs::TraceRidScope rid_scope(pending.rid);
    obs::span_ending_now(obs::metric::kEventSvcQueueWait,
                         ms_between(pending.enqueued, started));
    JsonValue reply;
    try {
      if (pending.error_reply) {
        // Pre-failed at parse time.
        reply = std::move(*pending.error_reply);
      } else if (shutdown_requested()) {
        reply = make_error_reply(error_code::kShuttingDown,
                                 "service is shutting down",
                                 op_name(request.op), request.tag);
      } else if (started > pending.deadline) {
        reply = make_error_reply(error_code::kTimeout,
                                 "deadline expired before processing",
                                 op_name(request.op), request.tag);
        obs::count(obs::metric::kSvcTimeouts);
      } else if (tenant_scoped(request.op)) {
        const std::string_view name = tenant_name(request);
        const auto it = shard.tenants.find(name);
        Tenant* tenant =
            it == shard.tenants.end() ? nullptr : it->second.get();
        if (tenant == nullptr) {
          reply = make_error_reply(
              error_code::kTenantNotFound,
              "no tenant '" + std::string(name) + "'",
              op_name(request.op), request.tag);
        } else {
          switch (request.op) {
            case Op::kAddThread: {
              if (tenant->quota.max_threads > 0 &&
                  static_cast<std::int64_t>(tenant->state.num_threads()) >=
                      tenant->quota.max_threads) {
                reply = make_error_reply(
                    error_code::kQuotaExceeded,
                    "tenant '" + std::string(name) + "' is at its " +
                        std::to_string(tenant->quota.max_threads) +
                        "-thread quota",
                    op_name(request.op), request.tag);
                break;
              }
              const ThreadId id = tenant->state.add_thread(request.utility);
              reply = make_ok_reply(request.op, request.tag);
              reply.set("id", id);
              reply.set("threads", tenant->state.num_threads());
              if (!request.tenant.empty()) {
                reply.set("tenant", request.tenant);
              }
              break;
            }
            case Op::kRemoveThread: {
              if (tenant->state.remove_thread(*request.id)) {
                reply = make_ok_reply(request.op, request.tag);
                reply.set("id", *request.id);
                reply.set("threads", tenant->state.num_threads());
                if (!request.tenant.empty()) {
                  reply.set("tenant", request.tenant);
                }
              } else {
                reply = make_error_reply(
                    error_code::kNotFound,
                    "no thread with id " + std::to_string(*request.id),
                    op_name(request.op), request.tag);
              }
              break;
            }
            case Op::kUpdateUtility: {
              const bool found =
                  request.utility != nullptr
                      ? tenant->state.update_utility(*request.id,
                                                     request.utility)
                      : tenant->state.scale_utility(*request.id,
                                                    *request.factor);
              if (found) {
                reply = make_ok_reply(request.op, request.tag);
                reply.set("id", *request.id);
                if (!request.tenant.empty()) {
                  reply.set("tenant", request.tenant);
                }
              } else {
                reply = make_error_reply(
                    error_code::kNotFound,
                    "no thread with id " + std::to_string(*request.id),
                    op_name(request.op), request.tag);
              }
              break;
            }
            case Op::kSolve: {
              // Deferred: all solves for this tenant in the batch share
              // one re-solve of its final state below.
              SolveGroup& group = solve_groups[std::string(name)];
              group.slots.push_back(out.size());
              group.force_full = group.force_full || request.full_solve;
              break;
            }
            default:
              break;
          }
        }
      } else {
        switch (request.op) {
          case Op::kStats: {
            const AllShardsTurnLock guards(*this);
            reply = make_ok_reply(request.op, request.tag);
            merge_into(reply, stats_json());
            break;
          }
          case Op::kMetrics: {
            const AllShardsTurnLock guards(*this);
            reply = make_ok_reply(request.op, request.tag);
            reply.set("content_type", "text/plain; version=0.0.4");
            reply.set("body", metrics_text());
            break;
          }
          case Op::kTrace: {
            const AllShardsTurnLock guards(*this);
            reply = make_ok_reply(request.op, request.tag);
            merge_into(reply, tail_json_locked());
            break;
          }
          case Op::kSlo: {
            const AllShardsTurnLock guards(*this);
            reply = make_ok_reply(request.op, request.tag);
            merge_into(reply, slo_json());
            break;
          }
          case Op::kShutdown: {
            shutdown_requested_.store(true, std::memory_order_release);
            for (const std::unique_ptr<Shard>& other : shards_) {
              {
                const support::MutexLock lock(other->queue_mutex);
                other->stopping = true;
              }
              other->queue_cv.notify_all();
            }
            obs::count(obs::metric::kSvcShutdowns);
            reply = make_ok_reply(request.op, request.tag);
            break;
          }
          case Op::kTenantCreate:
          case Op::kTenantUpdate:
          case Op::kTenantDelete: {
            const AllShardsTurnLock guards(*this);
            reply = tenant_admin(request);
            break;
          }
          case Op::kTenantList: {
            const AllShardsTurnLock guards(*this);
            reply = make_ok_reply(request.op, request.tag);
            merge_into(reply, tenant_list_json());
            break;
          }
          default:
            break;
        }
      }
    } catch (const std::exception& error) {
      reply = make_error_reply(error_code::kInternal, error.what(),
                               op_name(request.op), request.tag);
      obs::count(obs::metric::kSvcInternalErrors);
    }
    reply.set("rid", static_cast<std::int64_t>(pending.rid));
    out.push_back(Outgoing{pending.reply, std::move(reply)});
  }

  for (auto& [name, group] : solve_groups) {
    const auto it = shard.tenants.find(name);
    Tenant* tenant = it == shard.tenants.end() ? nullptr : it->second.get();
    if (tenant == nullptr) {
      // Deleted by an admin op later in this very batch.
      for (const std::size_t slot : group.slots) {
        out[slot].value = make_error_reply(
            error_code::kTenantNotFound, "no tenant '" + name + "'",
            op_name(Op::kSolve), batch[slot].request.tag);
        out[slot].value.set(
            "rid", static_cast<std::int64_t>(batch[slot].rid));
      }
      continue;
    }
    // The coalesced solve serves every slot in the group; its solver
    // phase spans and path instants are stamped with the first slot's rid
    // (the request whose arrival triggered the work).
    const obs::TraceRidScope rid_scope(batch[group.slots.front()].rid);
    try {
      const Clock::time_point solve_start = Clock::now();
      const ServiceSolveResult& solved =
          tenant->solver.solve(tenant->state, group.force_full);
      const double solve_ms = ms_between(solve_start, Clock::now());
      switch (solved.path) {
        case SolvePath::kCached:
          obs::instant(obs::metric::kEventSvcPathCached);
          break;
        case SolvePath::kWarm:
          obs::instant(obs::metric::kEventSvcPathWarm);
          break;
        case SolvePath::kFull:
          obs::instant(obs::metric::kEventSvcPathFull);
          break;
      }
      ++tenant->solves_by_path[static_cast<std::size_t>(solved.path)];
      TurnStats& stats = shard.stats;
      ++stats.solves_by_path[static_cast<std::size_t>(solved.path)];
      stats.coalesced += static_cast<std::int64_t>(group.slots.size()) - 1;
      stats.migrations += static_cast<std::int64_t>(solved.migrations);
      ++(solved.certificate.ok() ? stats.certificates_pass
                                 : stats.certificates_fail);
      stats.solve_latency_ms.sample(solve_ms);
      JsonValue payload = solve_payload(solved, solve_ms);
      for (const std::size_t slot : group.slots) {
        JsonValue reply = make_ok_reply(Op::kSolve, batch[slot].request.tag);
        // The last slot (usually the only one) takes the payload itself.
        merge_into(reply, slot == group.slots.back() ? std::move(payload)
                                                     : JsonValue(payload));
        if (!batch[slot].request.tenant.empty()) {
          reply.set("tenant", batch[slot].request.tenant);
        }
        reply.set("rid", static_cast<std::int64_t>(batch[slot].rid));
        out[slot].value = std::move(reply);
      }
    } catch (const std::exception& error) {
      obs::count(obs::metric::kSvcInternalErrors);
      for (const std::size_t slot : group.slots) {
        out[slot].value =
            make_error_reply(error_code::kInternal, error.what(),
                             op_name(Op::kSolve), batch[slot].request.tag);
        out[slot].value.set(
            "rid", static_cast<std::int64_t>(batch[slot].rid));
      }
    }
  }

  const Clock::time_point finished = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    finish_request(shard, batch[i], out[i].value, started, finished);
  }
  return out;
}

JsonValue Service::solve_payload(const ServiceSolveResult& solved,
                                 double solve_ms) const {
  const obs::Certificate& certificate = solved.certificate;
  JsonValue payload;
  payload.set("path", solve_path_name(solved.path));
  payload.set("threads", solved.ids.size());
  payload.set("utility", solved.result.utility);
  payload.set("super_optimal_utility", solved.result.super_optimal_utility);
  payload.set("linearized_utility", solved.result.linearized_utility);
  payload.set("alpha", certificate.input.alpha);
  payload.set("achieved_ratio", certificate.achieved_ratio);
  payload.set("certificate_ok", certificate.ok());
  if (!certificate.ok()) {
    JsonValue::Array violations;
    for (const std::string& violation : certificate.violations) {
      violations.emplace_back(violation);
    }
    payload.set("violations", JsonValue(std::move(violations)));
  }
  payload.set("migrations", solved.migrations);
  payload.set("solve_ms", solve_ms);
  JsonValue::Array assignment;
  assignment.reserve(solved.ids.size());
  for (std::size_t i = 0; i < solved.ids.size(); ++i) {
    JsonValue::Object entry;
    entry.reserve(3);
    entry.emplace_back("id", solved.ids[i]);
    entry.emplace_back("server", solved.result.assignment.server[i]);
    entry.emplace_back("alloc", solved.result.assignment.alloc[i]);
    assignment.emplace_back(std::move(entry));
  }
  payload.set("assignment", JsonValue(std::move(assignment)));
  return payload;
}

void Service::QueueStats::merge(const QueueStats& other) {
  requests += other.requests;
  for (std::size_t i = 0; i < kNumOps; ++i) by_op[i] += other.by_op[i];
  rejected += other.rejected;
  peak = std::max(peak, other.peak);
  depth.merge(other.depth);
}

void Service::TurnStats::merge(const TurnStats& other) {
  errors += other.errors;
  timeouts += other.timeouts;
  deadline_misses += other.deadline_misses;
  batches += other.batches;
  for (std::size_t i = 0; i < std::size(solves_by_path); ++i) {
    solves_by_path[i] += other.solves_by_path[i];
  }
  coalesced += other.coalesced;
  migrations += other.migrations;
  certificates_pass += other.certificates_pass;
  certificates_fail += other.certificates_fail;
  batch_size.merge(other.batch_size);
  request_latency_ms.merge(other.request_latency_ms);
  solve_latency_ms.merge(other.solve_latency_ms);
}

Service::Snapshot Service::snapshot() {
  const double now_ms = ms_between(started_, Clock::now());
  // Error budget (1 - slo_objective), floored so burn rates stay finite.
  const double budget = std::max(1.0 - config_.slo_objective, 1e-6);
  static_assert(std::size(kBurnWindows) ==
                std::extent_v<decltype(TenantRow::burn)>);
  Snapshot snap;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    assert_turn_held(shard);
    snap.turn.merge(shard.stats);
    {
      const support::MutexLock lock(shard.queue_mutex);
      snap.queue.merge(shard.queue_stats);
      snap.queue_depth += shard.queue.size();
    }
    for (const auto& [name, tenant] : shard.tenants) {
      snap.threads += tenant->state.num_threads();
      snap.version += tenant->state.version();
      TenantRow row;
      row.tenant = tenant.get();
      row.credits = policy_->credits(name);
      const double lifetime_miss =
          tenant->slo_total == 0
              ? 0.0
              : static_cast<double>(tenant->slo_total - tenant->slo_good) /
                    static_cast<double>(tenant->slo_total);
      row.budget_consumed = lifetime_miss / budget;
      for (std::size_t w = 0; w < std::size(kBurnWindows); ++w) {
        row.burn[w] =
            tenant->slo_windows.miss_ratio(now_ms, kBurnWindows[w].buckets) /
            budget;
      }
      snap.tenants.push_back(row);
    }
  }
  return snap;
}

JsonValue Service::stats_json() {
  const Snapshot snap = snapshot();
  const QueueStats& queue = snap.queue;
  const TurnStats& turn = snap.turn;
  const auto latency_json = [](const obs::Histogram& histogram) {
    JsonValue node;
    node.set("count", histogram.count());
    if (!histogram.empty()) {
      node.set("p50_ms", histogram.quantile(0.50));
      node.set("p90_ms", histogram.quantile(0.90));
      node.set("p99_ms", histogram.quantile(0.99));
      node.set("p999_ms", histogram.quantile(0.999));
      node.set("mean_ms", histogram.mean());
      node.set("max_ms", histogram.max());
    }
    return node;
  };

  JsonValue payload;
  payload.set("threads", snap.threads);
  payload.set("servers", config_.num_servers);
  payload.set("capacity", config_.capacity);
  payload.set("version", snap.version);
  payload.set("tenants", snap.tenants.size());
  payload.set("shards", shards_.size());
  payload.set("policy", fairness_policy_name(policy_->kind()));
  payload.set("pool_units", pool_units());
  payload.set("queue_depth", snap.queue_depth);
  payload.set("queue_peak", queue.peak);
  payload.set("requests_total", queue.requests);
  JsonValue ops;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    ops.set(std::string(op_name(static_cast<Op>(i))), queue.by_op[i]);
  }
  payload.set("requests", std::move(ops));
  payload.set("errors_total", queue.rejected + turn.errors);
  payload.set("timeouts", turn.timeouts);
  payload.set("deadline_misses", turn.deadline_misses);
  payload.set("batches", turn.batches);
  JsonValue batching;
  batching.set("mean_size", turn.batch_size.mean());
  batching.set("max_size", turn.batch_size.max());
  payload.set("batching", std::move(batching));
  JsonValue solves;
  for (const SolvePath path : kSolvePaths) {
    solves.set(solve_path_name(path),
               turn.solves_by_path[static_cast<std::size_t>(path)]);
  }
  solves.set("coalesced", turn.coalesced);
  payload.set("solves", std::move(solves));
  payload.set("migrations", turn.migrations);
  JsonValue tenant_ops;
  tenant_ops.set("creates", tenant_creates_);
  tenant_ops.set("updates", tenant_updates_);
  tenant_ops.set("deletes", tenant_deletes_);
  tenant_ops.set("redivides", pool_redivides_);
  payload.set("tenant_ops", std::move(tenant_ops));
  payload.set("request_latency", latency_json(turn.request_latency_ms));
  payload.set("solve_latency", latency_json(turn.solve_latency_ms));
  return payload;
}

std::string Service::metrics_text() {
  const Snapshot snap = snapshot();
  const QueueStats& queue = snap.queue;
  const TurnStats& turn = snap.turn;

  std::string out;
  out.reserve(8192);
  obs::prometheus_gauge(out, "aa_uptime_seconds",
                        ms_between(started_, Clock::now()) / 1e3);

  // Per-tenant labeled families first (tenant ids are [A-Za-z0-9_.-], so
  // label values never need escaping). Cardinality is bounded by the live
  // tenant count — docs/OBSERVABILITY.md "Per-tenant labels". The SLO
  // families close the block (docs/OBSERVABILITY.md "Request tracing,
  // structured logs & SLOs"): deadline misses, lifetime error-budget
  // consumption, and multi-window burn rates.
  obs::prometheus_gauge(out, "aa_svc_tenants",
                        static_cast<double>(snap.tenants.size()));
  obs::prometheus_gauge(out, "aa_svc_shards",
                        static_cast<double>(shards_.size()));
  const auto tenant_label = [](const TenantRow& row) {
    return "tenant=\"" + row.tenant->name + "\"";
  };
  const auto per_tenant = [&](std::string_view family, std::string_view type,
                              const auto& read) {
    obs::prometheus_header(out, family, type);
    for (const TenantRow& row : snap.tenants) {
      obs::prometheus_sample(out, family, tenant_label(row), read(row));
    }
  };
  per_tenant("aa_svc_tenant_requests_total", "counter",
             [](const TenantRow& row) { return row.tenant->slo_total; });
  per_tenant("aa_svc_tenant_errors_total", "counter",
             [](const TenantRow& row) { return row.tenant->errors; });
  obs::prometheus_header(out, "aa_svc_tenant_solves_total", "counter");
  for (const TenantRow& row : snap.tenants) {
    for (const SolvePath path : kSolvePaths) {
      obs::prometheus_sample(
          out, "aa_svc_tenant_solves_total",
          tenant_label(row) + ",path=\"" + solve_path_name(path) + "\"",
          row.tenant->solves_by_path[static_cast<std::size_t>(path)]);
    }
  }
  per_tenant("aa_svc_tenant_threads", "gauge", [](const TenantRow& row) {
    return static_cast<double>(row.tenant->state.num_threads());
  });
  per_tenant("aa_svc_tenant_slice_units", "gauge",
             [](const TenantRow& row) { return row.tenant->slice_units; });
  per_tenant("aa_svc_tenant_demand_units", "gauge",
             [](const TenantRow& row) { return row.tenant->demand_units; });
  per_tenant("aa_svc_tenant_credits", "gauge",
             [](const TenantRow& row) { return row.credits; });
  per_tenant("aa_svc_tenant_deadline_miss_total", "counter",
             [](const TenantRow& row) { return row.tenant->deadline_misses; });
  per_tenant("aa_svc_slo_budget_ratio", "gauge",
             [](const TenantRow& row) { return row.budget_consumed; });
  obs::prometheus_header(out, "aa_svc_slo_burn_rate", "gauge");
  for (const TenantRow& row : snap.tenants) {
    for (std::size_t w = 0; w < std::size(kBurnWindows); ++w) {
      obs::prometheus_sample(out, "aa_svc_slo_burn_rate",
                             tenant_label(row) + ",window=\"" +
                                 std::string(kBurnWindows[w].label) + "\"",
                             row.burn[w]);
    }
  }

  obs::prometheus_counter(out, "aa_svc_requests_total", queue.requests);
  obs::prometheus_header(out, "aa_svc_requests_by_op_total", "counter");
  for (std::size_t i = 0; i < kNumOps; ++i) {
    obs::prometheus_sample(
        out, "aa_svc_requests_by_op_total",
        "op=\"" + std::string(op_name(static_cast<Op>(i))) + "\"",
        queue.by_op[i]);
  }
  obs::prometheus_counter(out, "aa_svc_errors_total",
                          queue.rejected + turn.errors);
  obs::prometheus_counter(out, "aa_svc_timeouts_total", turn.timeouts);
  obs::prometheus_counter(out, "aa_svc_deadline_miss_total",
                          turn.deadline_misses);
  obs::prometheus_counter(out, "aa_svc_batches_total", turn.batches);
  obs::prometheus_counter(out, "aa_svc_solves_coalesced_total",
                          turn.coalesced);
  obs::prometheus_header(out, "aa_svc_solves_total", "counter");
  for (const SolvePath path : kSolvePaths) {
    obs::prometheus_sample(
        out, "aa_svc_solves_total",
        "path=\"" + std::string(solve_path_name(path)) + "\"",
        turn.solves_by_path[static_cast<std::size_t>(path)]);
  }
  obs::prometheus_counter(out, "aa_svc_migrations_total", turn.migrations);
  obs::prometheus_header(out, "aa_svc_certificates_total", "counter");
  obs::prometheus_sample(out, "aa_svc_certificates_total",
                         "verdict=\"pass\"", turn.certificates_pass);
  obs::prometheus_sample(out, "aa_svc_certificates_total",
                         "verdict=\"fail\"", turn.certificates_fail);
  obs::prometheus_counter(out, "aa_svc_tenant_creates_total",
                          tenant_creates_);
  obs::prometheus_counter(out, "aa_svc_tenant_updates_total",
                          tenant_updates_);
  obs::prometheus_counter(out, "aa_svc_tenant_deletes_total",
                          tenant_deletes_);
  obs::prometheus_counter(out, "aa_svc_pool_redivides_total",
                          pool_redivides_);
  obs::prometheus_gauge(out, "aa_svc_queue_depth",
                        static_cast<double>(snap.queue_depth));
  obs::prometheus_gauge(out, "aa_svc_queue_peak",
                        static_cast<double>(queue.peak));
  obs::prometheus_gauge(out, "aa_svc_threads",
                        static_cast<double>(snap.threads));
  obs::prometheus_gauge(out, "aa_svc_state_version",
                        static_cast<double>(snap.version));
  obs::prometheus_histogram(out, "aa_svc_request_latency_ms",
                            turn.request_latency_ms);
  obs::prometheus_summary(out, "aa_svc_request_latency_quantiles_ms",
                          turn.request_latency_ms);
  obs::prometheus_histogram(out, "aa_svc_solve_latency_ms",
                            turn.solve_latency_ms);
  obs::prometheus_summary(out, "aa_svc_solve_latency_quantiles_ms",
                          turn.solve_latency_ms);
  obs::prometheus_histogram(out, "aa_svc_batch_size", turn.batch_size);
  obs::prometheus_histogram(out, "aa_svc_queue_depth_samples", queue.depth);

  // Session-side drop accounting, so truncated telemetry is visible from
  // the same scrape that would be misled by it.
  if (const obs::Session* session = obs::Session::current()) {
    const obs::Metrics session_metrics = session->metrics();
    obs::prometheus_counter(
        out, "aa_obs_trace_dropped_total",
        session_metrics.counter(obs::metric::kObsTraceDropped));
    obs::prometheus_counter(
        out, "aa_obs_histogram_dropped_total",
        session_metrics.counter(obs::metric::kObsHistogramDropped));
    obs::prometheus_counter(
        out, "aa_obs_certificates_dropped_total",
        session_metrics.counter(obs::metric::kObsCertificatesDropped));
    obs::prometheus_counter(
        out, "aa_obs_log_dropped_total",
        session_metrics.counter(obs::metric::kObsLogDropped));
    obs::prometheus_header(out, "aa_obs_trace_ring_dropped_total", "counter");
    for (const obs::TraceRingInfo& ring : session->trace_rings()) {
      const std::string labels =
          "ring=\"" + std::to_string(ring.tid) + "\"";
      obs::prometheus_sample(out, "aa_obs_trace_ring_dropped_total", labels,
                             ring.dropped);
    }
  }
  return out;
}

}  // namespace aa::svc
