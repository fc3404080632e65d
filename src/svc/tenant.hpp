#pragma once

// Per-tenant sharded state for the multi-tenant allocation service.
//
// The service shards tenants by id (stable FNV-1a hash mod shard count):
// each shard owns its tenants' mutable state behind the shard's own
// processing lock (turn_mutex, the root of the lock hierarchy declared
// in service.hpp with support/sync.hpp annotations), and every drain
// worker is pinned to exactly one shard, so steady-state traffic for
// tenants on different shards never contends on a lock. A Tenant
// bundles everything a single-tenant
// service used to own once: its InstanceState (thread set + version), its
// WarmStartSolver (cached/warm/full paths and certificates warm-start per
// tenant), its quota knobs, the pool slice the fairness layer last granted
// it, and its per-tenant counters for the stats/metrics exposition.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "svc/instance_state.hpp"
#include "svc/warm_start.hpp"

namespace aa::svc {

/// The tenant addressed by requests that spell no "tenant" field. Exists
/// from service start and cannot be deleted, so single-tenant clients keep
/// working unchanged.
inline constexpr std::string_view kDefaultTenant = "default";

/// Stable shard router (FNV-1a over the id, mod `shards`). Hash-based so
/// tenant placement never depends on creation order.
[[nodiscard]] std::size_t shard_of(std::string_view tenant,
                                   std::size_t shards) noexcept;

/// Admin-settable knobs (tenant_create / tenant_update).
struct TenantQuota {
  double weight = 1.0;          ///< > 0; share of the pool.
  double quota_units = 0.0;     ///< Capacity units; 0 = auto (weight share).
  std::int64_t max_threads = 0; ///< add_thread cap; 0 = unlimited.
};

/// Ring-bucketed sliding windows of good/bad request counts for
/// multi-window SLO burn rates: 10-second buckets spanning 30 minutes, so
/// the 1m / 5m / 30m windows read off the same ring. A bucket is lazily
/// reset when its epoch (bucket-width-quantized timestamp) is revisited
/// after wrapping, which keeps record() and miss_ratio() O(1) / O(window)
/// with no timers. Timestamps are milliseconds on any fixed monotonic
/// origin (the service passes its uptime clock).
class SloWindows {
 public:
  static constexpr double kBucketMs = 10'000.0;
  static constexpr std::size_t kBucketCount = 180;  ///< 30 minutes.
  static constexpr std::size_t kBuckets1m = 6;
  static constexpr std::size_t kBuckets5m = 30;
  static constexpr std::size_t kBuckets30m = kBucketCount;

  void record(double now_ms, bool good) {
    Bucket& bucket = at(epoch_of(now_ms));
    ++bucket.total;
    if (!good) ++bucket.bad;
  }

  /// Fraction of requests in the trailing `buckets * kBucketMs` window
  /// that missed the objective; 0 when the window saw no requests.
  [[nodiscard]] double miss_ratio(double now_ms, std::size_t buckets) const {
    const std::int64_t now_epoch = epoch_of(now_ms);
    std::int64_t bad = 0;
    std::int64_t total = 0;
    for (std::size_t i = 0; i < buckets && i < kBucketCount; ++i) {
      const std::int64_t epoch = now_epoch - static_cast<std::int64_t>(i);
      if (epoch < 0) break;
      const Bucket& bucket =
          buckets_[static_cast<std::size_t>(epoch) % kBucketCount];
      if (bucket.epoch != epoch) continue;  // Stale slot from a prior lap.
      bad += bucket.bad;
      total += bucket.total;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(bad) / static_cast<double>(total);
  }

 private:
  struct Bucket {
    std::int64_t epoch = -1;
    std::int64_t bad = 0;
    std::int64_t total = 0;
  };

  [[nodiscard]] static std::int64_t epoch_of(double now_ms) noexcept {
    return now_ms <= 0.0 ? 0 : static_cast<std::int64_t>(now_ms / kBucketMs);
  }

  Bucket& at(std::int64_t epoch) {
    Bucket& bucket = buckets_[static_cast<std::size_t>(epoch) % kBucketCount];
    if (bucket.epoch != epoch) {
      bucket = Bucket{};
      bucket.epoch = epoch;
    }
    return bucket;
  }

  std::array<Bucket, kBucketCount> buckets_{};
};

struct Tenant {
  Tenant(std::string tenant_name, TenantQuota tenant_quota,
         std::size_t num_servers, util::Resource capacity,
         const WarmStartConfig& warm)
      : name(std::move(tenant_name)),
        quota(tenant_quota),
        state(num_servers, capacity),
        solver(warm) {}

  std::string name;
  TenantQuota quota;
  InstanceState state;
  WarmStartSolver solver;

  /// Units of the global pool last granted by the fairness layer; the
  /// state's solve capacity is floor(slice_units / num_servers),
  /// floored at 1 so an empty slice still solves.
  double slice_units = 0.0;
  /// Full-capacity super-optimal value at the last division round.
  double demand_units = 0.0;

  // Per-tenant stats. Like every Tenant member, guarded by the owning
  // shard's turn lock: Shard::tenants is AA_GUARDED_BY(turn_mutex) in
  // service.hpp, and the analysis stops at the map boundary, so the
  // fields themselves carry no annotations. Every reply to a request
  // addressed to the tenant counts once, when it is built: slo_total
  // (its requests), errors, and the SLO accounting (docs/OBSERVABILITY.md
  // "Request tracing, structured logs & SLOs") — a deadline miss is a
  // `timeout` error or a reply slower than the configured slo_ms, and
  // good/total feed the lifetime error-budget ratio and the multi-window
  // burn rates.
  std::int64_t slo_total = 0;
  std::int64_t errors = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t slo_good = 0;
  SloWindows slo_windows;
  std::int64_t solves_by_path[3] = {};  ///< Indexed by SolvePath.
};

/// The demand curve a tenant presents to the fairness layer: the total
/// super-optimal allocation sum(c_hat_i) of its current thread set at the
/// *full* per-server capacity — what the tenant could productively use if
/// it owned the whole pool (ISSUE: "demand read off its super-optimal
/// value"). 0 for an empty tenant.
[[nodiscard]] double tenant_demand_units(const InstanceState& state);

}  // namespace aa::svc
