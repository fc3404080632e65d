#pragma once

// Utility-function model (paper Section III).
//
// Each thread t_i carries a utility function f_i : [0, C] -> R>=0 that is
// nonnegative, nondecreasing and concave, giving its throughput as a function
// of the resource it receives. Resources are measured in integer units
// (0..C), matching the paper's complexity bounds in log(mC); functions are
// nevertheless defined on the real interval so heuristics may hand out
// fractional allocations.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace aa::util {

/// Integer amount of resource units.
using Resource = std::int64_t;

/// Abstract concave utility function on [0, capacity].
///
/// Implementations must be immutable after construction and safe to share
/// across threads (the experiment harness evaluates instances in parallel).
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// f(x). Arguments outside [0, capacity()] are clamped.
  [[nodiscard]] virtual double value(double x) const = 0;

  /// Domain end C: the largest meaningful allocation.
  [[nodiscard]] virtual Resource capacity() const = 0;

  /// Marginal gain of the k-th unit: f(k) - f(k-1), for k in [1, capacity()].
  /// Nonincreasing in k for concave functions (the allocators rely on this).
  [[nodiscard]] virtual double marginal(Resource k) const;

  /// Raw value grid f(0..capacity()) when the representation stores one
  /// (TabulatedUtility), else nullptr. The allocator (alloc/bisection_soa.cpp)
  /// reads values and marginals straight off the grid — grid[k] must equal
  /// value(k) (up to the sign of a zero) and grid[k] - grid[k-1] must equal
  /// marginal(k), bit-for-bit — so a non-null return is a strict promise,
  /// not a hint.
  [[nodiscard]] virtual const double* tabulated_grid() const noexcept {
    return nullptr;
  }
};

/// Shared, immutable handle used throughout the library.
using UtilityPtr = std::shared_ptr<const UtilityFunction>;

/// Checks nonnegativity, monotonicity and concavity of marginals on the
/// integer grid, with tolerance for floating-point noise.
[[nodiscard]] bool is_valid_on_grid(const UtilityFunction& f,
                                    double tol = 1e-9);

// ---------------------------------------------------------------------------
// Analytic families
// ---------------------------------------------------------------------------

/// f(x) = slope * min(x, cap): the family used by the NP-hardness reduction
/// (Section IV) and the tightness example (Theorem V.17).
class CappedLinearUtility final : public UtilityFunction {
 public:
  CappedLinearUtility(double slope, double cap, Resource capacity);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override { return capacity_; }
  [[nodiscard]] double slope() const noexcept { return slope_; }
  [[nodiscard]] double cap() const noexcept { return cap_; }

 private:
  double slope_;
  double cap_;
  Resource capacity_;
};

/// f(x) = scale * x^beta with beta in (0, 1]: the motivating example from the
/// paper's introduction.
class PowerUtility final : public UtilityFunction {
 public:
  PowerUtility(double scale, double beta, Resource capacity);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override { return capacity_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double beta() const noexcept { return beta_; }

 private:
  double scale_;
  double beta_;
  Resource capacity_;
};

/// f(x) = scale * log(1 + rate * x): classic diminishing-returns model used
/// by the cloud-provider example (willingness to pay).
class LogUtility final : public UtilityFunction {
 public:
  LogUtility(double scale, double rate, Resource capacity);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override { return capacity_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }
  [[nodiscard]] double rate() const noexcept { return rate_; }

 private:
  double scale_;
  double rate_;
  Resource capacity_;
};

/// f(x) = factor * base(x): preserves monotonicity and concavity for
/// factor >= 0. Used by the online extension to model utility drift without
/// re-tabulating curves.
class ScaledUtility final : public UtilityFunction {
 public:
  ScaledUtility(UtilityPtr base, double factor);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override {
    return base_->capacity();
  }
  [[nodiscard]] double marginal(Resource k) const override;
  [[nodiscard]] double factor() const noexcept { return factor_; }
  /// The wrapped function; lets repeated re-scaling (e.g. long drift
  /// streams in the allocation service) collapse to a single wrapper
  /// instead of growing an evaluation chain.
  [[nodiscard]] const UtilityPtr& base() const noexcept { return base_; }

 private:
  UtilityPtr base_;
  double factor_;
};

/// f(x) = min(base(x), ceiling): pointwise saturation, preserving
/// monotonicity and concavity for ceiling >= 0. The canonical use is
/// goodput modeling in the hosting simulator: a service's *useful*
/// throughput is min(arrival rate, service rate), so AA should maximize the
/// saturated utility, not the raw rate (see hostsim/simulator.hpp).
class SaturatedUtility final : public UtilityFunction {
 public:
  SaturatedUtility(UtilityPtr base, double ceiling);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override {
    return base_->capacity();
  }
  [[nodiscard]] double ceiling() const noexcept { return ceiling_; }

 private:
  UtilityPtr base_;
  double ceiling_;
};

// ---------------------------------------------------------------------------
// Data-backed families
// ---------------------------------------------------------------------------

/// Concave piecewise-linear function through validated breakpoints.
class PiecewiseLinearUtility final : public UtilityFunction {
 public:
  /// Breakpoints must start at x = 0, be strictly increasing in x,
  /// nondecreasing in y, with nonincreasing segment slopes, y >= 0.
  /// The last breakpoint defines capacity() (its x must be integral).
  PiecewiseLinearUtility(std::vector<double> xs, std::vector<double> ys);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override { return capacity_; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  Resource capacity_;
};

/// Function tabulated on the full integer grid 0..C; linear between grid
/// points. The workhorse representation for generated (PCHIP) utilities and
/// for cache miss-rate curves.
class TabulatedUtility final : public UtilityFunction {
 public:
  /// `values[k]` is f(k) for k = 0..C (so values.size() == C + 1). Values
  /// must be nonnegative, nondecreasing, with nonincreasing marginals
  /// (within `tol`); small violations are *rejected*, not repaired — use
  /// `from_samples_with_repair` for raw data.
  explicit TabulatedUtility(std::vector<double> values, double tol = 1e-9);

  /// Projects raw grid samples onto the concave nondecreasing cone: clamps
  /// negatives, applies pool-adjacent-violators to the marginal sequence,
  /// and rebuilds the values. The result matches the input exactly when the
  /// input is already concave and nondecreasing.
  [[nodiscard]] static TabulatedUtility from_samples_with_repair(
      std::span<const double> samples);

  [[nodiscard]] double value(double x) const override;
  [[nodiscard]] Resource capacity() const override {
    return static_cast<Resource>(values_.size()) - 1;
  }
  [[nodiscard]] double marginal(Resource k) const override;
  [[nodiscard]] std::span<const double> grid() const noexcept {
    return values_;
  }
  [[nodiscard]] const double* tabulated_grid() const noexcept override {
    return values_.data();
  }

 private:
  struct RepairTag {};
  TabulatedUtility(RepairTag, std::vector<double> values);

  std::vector<double> values_;
};

}  // namespace aa::util
