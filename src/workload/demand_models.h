// Demand models beyond the steady state: bursty and phased traffic.
//
// The paper singles out Raytrace and LU as applications with "irregular bus
// bandwidth requirements" whose short bursts destabilise the Latest-Quantum
// policy and motivate the 5-sample Quanta-Window average. These models are
// deterministic functions of (thread index, progress) so simulated runs are
// exactly reproducible and independent of scheduling history.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

#include "sim/job.h"

namespace bbsched::workload {

/// Piecewise-constant random multiplier: progress is divided into cells of
/// `cell_us`; each cell draws a multiplier in [1-amplitude, 1+amplitude]
/// from a hash of (seed, thread, cell). Long-run mean equals `base_tps`.
class BurstyDemand final : public sim::DemandModel {
 public:
  BurstyDemand(double base_tps, double amplitude, double cell_us,
               std::uint64_t seed)
      : base_(base_tps), amplitude_(amplitude), cell_(cell_us), seed_(seed) {
    assert(base_tps >= 0.0);
    assert(amplitude >= 0.0 && amplitude <= 1.0);
    assert(cell_us > 0.0);
  }

  [[nodiscard]] double rate(int tidx, double progress_us) const override {
    const auto cell = static_cast<std::uint64_t>(progress_us / cell_);
    const double u = hash01(cell, static_cast<std::uint64_t>(tidx));
    return base_ * (1.0 + amplitude_ * (2.0 * u - 1.0));
  }

 private:
  [[nodiscard]] double hash01(std::uint64_t cell, std::uint64_t tidx) const {
    std::uint64_t x = seed_ ^ (cell * 0x9e3779b97f4a7c15ULL) ^
                      (tidx * 0xc2b2ae3d27d4eb4fULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  double base_;
  double amplitude_;
  double cell_;
  std::uint64_t seed_;
};

/// Alternating two-level demand: `high_tps` for the first `duty` fraction of
/// every `period_us` of progress, `low_tps` for the rest. Models codes with
/// distinct memory-sweep and compute phases (LU's factor/solve alternation).
class PhasedDemand final : public sim::DemandModel {
 public:
  PhasedDemand(double high_tps, double low_tps, double period_us, double duty)
      : high_(high_tps), low_(low_tps), period_(period_us), duty_(duty) {
    assert(high_tps >= low_tps && low_tps >= 0.0);
    assert(period_us > 0.0);
    assert(duty >= 0.0 && duty <= 1.0);
  }

  [[nodiscard]] double rate(int /*tidx*/, double progress_us) const override {
    const double phase = std::fmod(progress_us, period_);
    return phase < duty_ * period_ ? high_ : low_;
  }

  /// Long-run mean rate (used by calibration).
  [[nodiscard]] double mean_tps() const {
    return duty_ * high_ + (1.0 - duty_) * low_;
  }

 private:
  double high_;
  double low_;
  double period_;
  double duty_;
};

/// Wraps any demand model, scaling its output by a constant factor. Used by
/// calibration to hit a target standalone transaction rate while preserving
/// the temporal shape.
class ScaledDemand final : public sim::DemandModel {
 public:
  ScaledDemand(std::shared_ptr<const sim::DemandModel> inner, double factor)
      : inner_(std::move(inner)), factor_(factor) {
    assert(inner_ != nullptr);
    assert(factor >= 0.0);
  }

  [[nodiscard]] double rate(int tidx, double progress_us) const override {
    return factor_ * inner_->rate(tidx, progress_us);
  }

  [[nodiscard]] bool steady() const override { return inner_->steady(); }

 private:
  std::shared_ptr<const sim::DemandModel> inner_;
  double factor_;
};

}  // namespace bbsched::workload
