#pragma once

// Cross-tenant fairness policies for the multi-tenant allocation service.
//
// Each tenant solves its own AA instance (per-tenant InstanceState +
// WarmStartSolver, see svc/tenant.hpp); the fairness layer sits above
// those solves and decides how the *global* capacity pool
// (num_servers * capacity resource units) is divided into per-tenant
// slices. A tenant's slice becomes its InstanceState solve capacity
// (slice / num_servers per server, floored), so the whole solver zoo —
// warm-start paths, certificates, the single-pool allocator — runs
// unchanged inside the slice and the conservation invariant
// sum(slices) <= pool holds by construction.
//
// Three policies (docs/SERVICE.md "Cross-tenant fairness"):
//
//   static_quota     — every tenant gets its configured quota (or its
//                      weight-proportional share when the quota is 0 =
//                      auto), scaled down proportionally when the quotas
//                      oversubscribe the pool. No demand adaptivity: the
//                      single-tenant service is the degenerate case
//                      (one tenant, quota = pool).
//   weighted_max_min — classic water-filling (PAPERS.md: Restricted
//                      Max-Min Fair Allocation): find the level lambda
//                      with sum_t min(demand_t, weight_t * lambda) = pool
//                      and give each tenant min(demand_t, weight_t *
//                      lambda); when total demand is below the pool every
//                      demand is met and the leftover is spread by
//                      weight so tenants keep headroom to grow. Demands
//                      are read off each tenant's full-capacity
//                      super-optimal value (svc/tenant.hpp).
//   karma            — credit scheme in the spirit of the Karma allocator
//                      (NSDI'23; ROADMAP.md related-repo notes): tenants
//                      own a weight-proportional fair share; a tenant
//                      demanding less *donates* its surplus, a tenant
//                      demanding more *borrows* from the donated supply,
//                      richest-credits-first, paying one credit per
//                      borrowed unit to the donors (split pro rata by
//                      donated surplus). Credits only move between
//                      tenants — divide() conserves their total exactly —
//                      so the books stay balanced under tenant churn:
//                      tenant_create mints the opening balance,
//                      tenant_delete retires whatever the tenant held.
//
// Policies are deterministic: ties are broken by tenant id, never by
// iteration order of a hash map.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aa::svc {

enum class FairnessPolicyKind { kStaticQuota, kWeightedMaxMin, kKarma };

/// Wire/flag spelling: "static_quota" | "weighted_max_min" | "karma".
[[nodiscard]] const char* fairness_policy_name(
    FairnessPolicyKind kind) noexcept;
[[nodiscard]] std::optional<FairnessPolicyKind> fairness_policy_from_name(
    std::string_view name) noexcept;

/// One tenant's inputs to a division round.
struct TenantDemand {
  std::string id;
  double weight = 1.0;  ///< > 0; relative share of the pool.
  double quota = 0.0;   ///< Units; 0 = auto (weight-proportional share).
  double demand = 0.0;  ///< Units the tenant can productively use now.
};

class FairnessPolicy {
 public:
  virtual ~FairnessPolicy() = default;

  [[nodiscard]] virtual FairnessPolicyKind kind() const noexcept = 0;

  /// Divides `pool` units among `tenants`; returns one slice per tenant in
  /// the same order, with sum(slices) <= pool (up to rounding) for any
  /// input. Karma additionally moves credits between tenants here.
  [[nodiscard]] virtual std::vector<double> divide(
      double pool, const std::vector<TenantDemand>& tenants) = 0;

  /// Churn notifications. Only Karma keeps per-tenant state (credits);
  /// the defaults ignore them.
  virtual void on_tenant_created(const std::string& id,
                                 double opening_credits);
  virtual void on_tenant_deleted(const std::string& id);

  /// Current credit balance (0 for credit-less policies).
  [[nodiscard]] virtual double credits(const std::string& id) const;

  [[nodiscard]] static std::unique_ptr<FairnessPolicy> create(
      FairnessPolicyKind kind);
};

/// The water-filling level lambda with
/// sum_t min(demand_t, weight_t * lambda) = pool, for pool <= total
/// demand (exposed for the pinned tests in tests/svc_fairness_test.cpp).
[[nodiscard]] double water_fill_level(
    double pool, const std::vector<TenantDemand>& tenants);

}  // namespace aa::svc
