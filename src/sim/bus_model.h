// Analytic model of a shared front-side bus under contention.
//
// Given the *uncontended* bus-transaction demand of every running thread,
// the model answers: how much does each thread actually get, and how much
// does each thread slow down? The paper's Fig. 1 measurements pin down the
// qualitative requirements:
//
//  * a saturated bus slows memory-intensive codes 2–3x, but codes with
//    moderate demand only 2–55% — degradation must scale with each thread's
//    memory-boundedness, not be uniform;
//  * contention begins to cost before nominal saturation ("contention and
//    arbitration contribute to bandwidth consumption") — a mild queueing
//    term below saturation and an arbitration-efficiency loss per extra
//    demanding agent capture this;
//  * aggregate granted traffic can never exceed the sustained capacity.
//
// Mechanically, every thread i has demand d_i and memory-boundedness
// alpha_i = min(1, d_i/D_max)^p. A scalar memory-stretch factor X >= 1
// stretches only the memory-bound part of execution:
//
//     slowdown_i(X) = 1 + alpha_i * (X - 1)
//     granted_i(X)  = d_i / slowdown_i(X)
//
// Sum(granted_i(X)) is strictly decreasing in X (for Sum(d_i) > 0), so the
// saturation equation Sum(granted_i(X)) = C_eff has a unique root. Its value
// is defined as the result of 64 steps of plain bisection on the computed
// sum, and resolve() returns exactly that result by a certified replay: a
// rounding-error bound on the computed sum (each term >= 0, at most n + 4
// roundings deep) lets two probes around a Newton estimate of the root
// decide most bisection comparisons without evaluating the sum; only the
// steps inside the uncertain band evaluate it, and the replay stops once
// the bracket cannot move. bus_model.cc states the bound and the proof.
// Below saturation X is the mild queueing inflation X_light(rho). The same
// X for all threads models a fair (FIFO-arbitrated) bus where every
// transaction experiences the same queueing delay; the per-thread impact
// differs through alpha_i. This is the asymmetry the paper measures.
//
// Arbitration weights: back-to-back streaming writers (the BBMA
// microbenchmark) are burst-friendly — posted writes and open-page locality
// let them lose less per transaction than latency-bound readers when the
// bus saturates. A per-thread weight w_i >= 1 scales down the stretch that
// thread experiences:
//
//     slowdown_i(X) = 1 + alpha_i * (X - 1) / w_i
//
// so at the fixed point a heavy streamer retains more of its rate, pushing
// more of the saturation cost onto the ordinary applications. This is what
// lets one application + two BBMA reach the paper's 2-3x slowdowns while
// two identical application instances stay in the 41-61% band.
#pragma once

#include <span>
#include <vector>

#include "sim/config.h"

namespace bbsched::sim {

/// Result of resolving one tick of bus contention.
struct BusResolution {
  /// Common memory-stretch factor applied to all threads (>= 1).
  double stretch = 1.0;
  /// Effective capacity after arbitration losses (transactions/µs).
  double effective_capacity = 0.0;
  /// Offered load: sum of demands / effective capacity.
  double offered_rho = 0.0;
  /// True when the saturation equation was active (demand exceeded supply).
  bool saturated = false;
  /// Per-thread execution-time multiplier (>= 1), same order as demands.
  std::vector<double> slowdown;
  /// Per-thread granted transaction rate (transactions/µs), <= demand.
  std::vector<double> granted;
  /// Sum of granted rates (<= effective_capacity + tiny numerical slack).
  double total_granted = 0.0;
};

/// Reusable scratch state for resolve(). A caller that resolves every tick
/// (the engine) keeps one workspace alive so the per-agent vectors — and
/// the result's slowdown/granted arrays — are allocated once and reused,
/// making the steady-state tick path allocation-free.
struct BusWorkspace {
  /// Per-agent memory-boundedness, filled by resolve(). Exposed so callers
  /// that need alphas after resolution (the engine's SMT penalty) can reuse
  /// them instead of recomputing the pow() per agent.
  std::vector<double> alphas;
  /// Per-agent inverse arbitration weight, filled by resolve().
  std::vector<double> inv_w;
  /// The resolution resolve() returned; valid until the next resolve()
  /// into the same workspace.
  BusResolution result;
};

/// Stateless solver for the contention model; one instance per machine.
class BusModel {
 public:
  explicit BusModel(const BusConfig& cfg) : cfg_(cfg) {}

  /// Memory-boundedness of a thread with uncontended demand `d` (trans/µs).
  [[nodiscard]] double alpha(double demand_tps) const;

  /// Effective capacity given the number of demanding agents.
  [[nodiscard]] double effective_capacity(int demanding_agents) const;

  /// Resolves one tick: returns per-thread slowdowns and granted rates.
  /// `demands` holds the uncontended transaction rate of each running
  /// thread; entries may be zero (idle/spinning threads). `weights`, when
  /// non-empty, must be the same length and holds per-thread arbitration
  /// weights (>= 1; 1 = ordinary latency-bound traffic).
  [[nodiscard]] BusResolution resolve(
      std::span<const double> demands,
      std::span<const double> weights = {}) const;

  /// Allocation-free variant: resolves into `ws`, reusing its buffers, and
  /// returns a reference to ws.result. `demands`/`weights` must not alias
  /// the workspace's own vectors.
  const BusResolution& resolve(std::span<const double> demands,
                               std::span<const double> weights,
                               BusWorkspace& ws) const;

  [[nodiscard]] const BusConfig& config() const noexcept { return cfg_; }

 private:
  BusConfig cfg_;
};

}  // namespace bbsched::sim
