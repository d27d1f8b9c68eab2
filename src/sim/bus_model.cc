#include "sim/bus_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace bbsched::sim {

namespace {

// Newton passes before the probes, and the relative step that ends them.
constexpr int kNewtonSteps = 8;
constexpr double kNewtonTolerance = 0x1p-25;

// Aggregate granted rate under stretch X. Every saturation decision of the
// solver is a comparison of this sum against capacity, so keep it op-for-op
// as it is: the error bound beside solve_saturated() counts its roundings.
double granted_sum(std::span<const double> demands,
                   std::span<const double> alphas,
                   std::span<const double> inv_w, double x) {
  double sum = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    sum += demands[i] / (1.0 + alphas[i] * (x - 1.0) * inv_w[i]);
  }
  return sum;
}

// An estimate of granted_sum(x) together with its slope |d/dx|, in one
// pass. Only steers the root search; it certifies nothing.
double granted_sum_slope(std::span<const double> demands,
                         std::span<const double> alphas,
                         std::span<const double> inv_w, double x,
                         double& slope) {
  const double t = x - 1.0;
  double sum = 0.0;
  slope = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const double c = alphas[i] * inv_w[i];
    const double r = 1.0 / (1.0 + c * t);
    const double q = demands[i] * r;
    sum += q;
    slope += q * c * r;
  }
  return sum;
}

// The saturated root: returns exactly what 64 steps of plain bisection on
// [lo, hi] give,
//
//     mid = 0.5 * (lo + hi);
//     if (granted_sum(mid) > cap) lo = mid; else hi = mid;
//     ... x = 0.5 * (lo + hi);
//
// given that granted_sum(lo) > cap and granted_sum(hi) <= cap, but it only
// evaluates granted_sum where an error bound cannot decide a comparison.
//
// Why it is exact. Let G(x) be the sum computed in exact arithmetic from
// the same double inputs; G is non-increasing in x because every
// alpha_i * inv_w_i >= 0 and x - 1 >= 0 (x >= x_light >= 1). Each term of granted_sum takes at
// most 5 roundings (x - 1, two products, the add to 1, the division) and
// every term is >= 0, so the n-1 further roundings of the running sum give
// the standard bound |fl(g(x)) - G(x)| <= gamma * G(x), with
// gamma = k*u / (1 - k*u), k = n + 4, u = 2^-53. A compiler that contracts
// a product and the add to 1 into an FMA only removes roundings, so the
// bound holds for any such build. Then, with rel = 2.5 * (k + 1) * u:
//  * if fl(g(A)) > cap * (1 + rel), every mid <= A has
//    fl(g(mid)) >= (1 - gamma) G(A) >= (1 - gamma) / (1 + gamma) *
//    fl(g(A)) > cap, so it compares "greater";
//  * if fl(g(B)) <= cap * (1 - rel), every mid >= B compares "not greater"
//    by the mirror argument.
// (rel exceeds the 2 * gamma these need by about (k / 2 + 2.5) u, which
// covers the roundings of cap * (1 +- rel) and the second-order terms; an
// underflowing term would add at most 2^-1074 absolute per agent, far
// below that slack at any positive capacity the model sees.)
//
// The probes A and B come from a Newton root estimate of 1/g - 1/cap
// (exact in one step when all agents share one alpha * inv_w), started at
// `start`, then r -/+ delta with delta a few widths of the uncertain band.
// The replay then runs in two phases:
//  1. while mid lies outside (A, B), the comparison is known: a
//     branch-free step moves lo or hi;
//  2. then granted_sum is evaluated for every mid inside (A, B). The loop
//     stops once mid equals lo or hi: granted_sum(lo) > cap and
//     granted_sum(hi) <= cap are invariants, so every later step would
//     leave lo and hi as they are. (An evaluation that clears the band
//     would certify nothing new: it moves lo or hi onto that mid, and every
//     later mid lies strictly inside (lo, hi).)
// Kept out of line so that the unsaturated path through resolve() compiles
// as compactly as it would without this solver.
// bbsched:hot saturated branch of the per-tick bus resolve
[[gnu::noinline]] double solve_saturated(std::span<const double> demands,
                                         std::span<const double> alphas,
                                         std::span<const double> inv_w,
                                         double cap, double lo, double hi,
                                         double start) {
  const double rel =
      2.5 * static_cast<double>(demands.size() + 5) * 0x1p-53;
  const double cap_above = cap * (1.0 + rel);
  const double cap_below = cap * (1.0 - rel);

  // Certified bounds: mid <= a compares "greater", mid >= b "not greater".
  // Probes certify only inside (lo, hi); without one, the replay below is
  // plain bisection with the fixed-point stop.
  double a = -std::numeric_limits<double>::infinity();
  double b = std::numeric_limits<double>::infinity();
  // Newton on 1/g - 1/cap: step g (g - cap) / (cap |g'|), kept inside the
  // bracket its own estimates establish.
  double x = start;
  double bl = lo;
  double bh = hi;
  double slope = 0.0;
  for (int k = 0; k < kNewtonSteps; ++k) {
    const double g = granted_sum_slope(demands, alphas, inv_w, x, slope);
    if (g > cap) {
      bl = x;
    } else {
      bh = x;
    }
    if (!(slope > 0.0)) break;
    double next = x + g * (g - cap) / (cap * slope);
    if (!(next >= bl && next <= bh)) next = 0.5 * (bl + bh);
    const bool converged = std::abs(next - x) <= kNewtonTolerance * x;
    x = next;
    if (converged) break;
  }
  if (slope > 0.0) {
    const double delta = 4.0 * rel * cap / slope + x * 0x1p-51;
    const double pa = x - delta;
    if (pa > lo && pa < hi &&
        granted_sum(demands, alphas, inv_w, pa) > cap_above) {
      a = pa;
    }
    const double pb = x + delta;
    if (pb > lo && pb < hi &&
        granted_sum(demands, alphas, inv_w, pb) <= cap_below) {
      b = pb;
    }
  }

  int iter = 0;
  // Phase 1. (mid - a) * (b - mid) > 0 is "a < mid < b" without the
  // data-dependent branch that gcc makes of the two-compare form.
  for (; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if ((mid - a) * (b - mid) > 0.0) break;
    const bool above = mid <= a;
    lo = above ? mid : lo;
    hi = above ? hi : mid;
  }
  // Phase 2.
  for (; iter < 64; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    const bool above =
        mid <= a ||
        (mid < b && granted_sum(demands, alphas, inv_w, mid) > cap);
    if (above) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double BusModel::alpha(double demand_tps) const {
  if (demand_tps <= 0.0) return 0.0;
  const double ratio =
      std::min(1.0, demand_tps / cfg_.per_thread_peak_tps);
  // Linear alpha needs no pow(); this is the hot shape for configs that set
  // alpha_exponent = 1.0 (and pow(x, 1.0) costs a libm call per agent per
  // tick otherwise).
  if (cfg_.alpha_exponent == 1.0) return ratio;
  return std::pow(ratio, cfg_.alpha_exponent);
}

double BusModel::effective_capacity(int demanding_agents) const {
  const double k = std::max(0, demanding_agents - 1);
  const double eff =
      std::max(cfg_.arbitration_floor, 1.0 - cfg_.arbitration_loss * k);
  return cfg_.capacity_tps * eff;
}

BusResolution BusModel::resolve(std::span<const double> demands,
                                std::span<const double> weights) const {
  BusWorkspace ws;
  resolve(demands, weights, ws);
  return std::move(ws.result);
}

// bbsched:hot workspace overload used by the per-tick path
const BusResolution& BusModel::resolve(std::span<const double> demands,
                                       std::span<const double> weights,
                                       BusWorkspace& ws) const {
  BusResolution& out = ws.result;
  const std::size_t n = demands.size();
  assert(weights.empty() || weights.size() == n);
  // bbsched:allow(hotpath): ws.result buffers are reused and size-stable
  out.slowdown.resize(n);
  // bbsched:allow(hotpath): ws.result buffers are reused and size-stable
  out.granted.resize(n);
  out.offered_rho = 0.0;
  out.saturated = false;
  out.total_granted = 0.0;

  std::vector<double>& alphas = ws.alphas;
  std::vector<double>& inv_w = ws.inv_w;
  // bbsched:allow(hotpath): workspace scratch, reused and size-stable
  alphas.resize(n);
  // bbsched:allow(hotpath): workspace scratch, reused and size-stable
  inv_w.resize(n);

  // Single fused gather: one pass writes every per-agent array (the neutral
  // slowdown/granted values double as the idle-bus result) instead of the
  // former assign() pre-fills that re-touched each array before the loop.
  double total_demand = 0.0;
  int demanding = 0;
  for (std::size_t i = 0; i < n; ++i) {
    assert(demands[i] >= 0.0 && "bus demand must be non-negative");
    total_demand += demands[i];
    alphas[i] = alpha(demands[i]);
    if (!weights.empty()) {
      assert(weights[i] >= 1.0 && "arbitration weight must be >= 1");
      inv_w[i] = 1.0 / weights[i];
    } else {
      inv_w[i] = 1.0;
    }
    out.slowdown[i] = 1.0;
    out.granted[i] = 0.0;
    if (demands[i] > cfg_.demanding_threshold_tps) ++demanding;
  }

  out.effective_capacity = effective_capacity(demanding);
  if (total_demand <= 0.0) {
    out.stretch = 1.0;
    return out;
  }
  out.offered_rho = total_demand / out.effective_capacity;

  // Sub-saturation queueing inflation, clamped so the light regime never
  // exceeds the saturation solution's starting point.
  const double rho_for_light = std::min(out.offered_rho, 1.0);
  const double x_light = 1.0 + cfg_.queueing_kappa * rho_for_light * rho_for_light;

  double x = x_light;
  const double cap = out.effective_capacity;
  if (granted_sum(demands, alphas, inv_w, x_light) > cap) {
    out.saturated = true;
    const double hi = cfg_.max_stretch;
    if (granted_sum(demands, alphas, inv_w, hi) > cap) {
      // Pathological: even max stretch cannot push demand below capacity
      // (can only happen with thousands of near-zero-alpha threads). Fall
      // through with X = hi; a final proportional clamp below enforces the
      // capacity invariant.
      x = hi;
    } else {
      // granted_sum is strictly decreasing in X whenever some demanding
      // thread has alpha > 0, which holds since alpha(d)>0 for d>0. The
      // previous solve's root (still in out.stretch) warm-starts the
      // search; the result does not depend on it.
      const double prev = out.stretch;
      const bool warm = prev > x_light && prev < hi;
      x = solve_saturated(demands, alphas, inv_w, cap, x_light, hi,
                          warm ? prev : x_light);
    }
  }

  out.stretch = x;
  out.total_granted = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out.slowdown[i] = 1.0 + alphas[i] * (x - 1.0) * inv_w[i];
    out.granted[i] = demands[i] / out.slowdown[i];
    out.total_granted += out.granted[i];
  }

  // Hard physical limit: proportional clamp in the pathological case where
  // the stretch cap was hit.
  if (out.total_granted > out.effective_capacity) {
    const double scale = out.effective_capacity / out.total_granted;
    out.total_granted = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      out.granted[i] *= scale;
      if (out.granted[i] > 0.0) {
        out.slowdown[i] = demands[i] / out.granted[i];
      }
      out.total_granted += out.granted[i];
    }
  }
  return out;
}

}  // namespace bbsched::sim
