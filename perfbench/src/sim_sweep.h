// The simulator half of a workload: one paper Fig. 2 set for all 11 paper
// applications, each simulated under the Linux 2.4 baseline and both
// manager policies (33 simulations), serially in the calling thread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/fig2.h"
#include "experiments/runner.h"
#include "sim/engine.h"

#include "common.h"
#include "spans.h"

namespace perfbench {

/// Scheduler kinds of a Fig. 2 row, in report order.
inline constexpr int kNumScheds = 3;
inline constexpr const char* kSchedNames[kNumScheds] = {"linux", "latest",
                                                        "window"};

/// Host time one scheduler kind spent over a sweep (traced sweeps only).
struct SchedLayer {
  double run_ns = 0.0;  ///< inside Engine::run
  double start_ns = 0.0;
  double tick_ns = 0.0;
  double quiescent_ns = 0.0;  ///< start/tick/quiescent times are estimates
                              ///< from a random sample of the calls
  std::uint64_t tick_calls = 0;
  std::uint64_t calls = 0;  ///< every forwarded call: start, tick, quiescent_until
  double decorator_ns = 0.0;  ///< estimated cost of the timing itself
  [[nodiscard]] double scheduler_ns() const {
    return start_ns + tick_ns + quiescent_ns;
  }
  /// Engine::run time that is the simulator's own.
  [[nodiscard]] double sim_self_ns() const {
    return run_ns - scheduler_ns() - decorator_ns;
  }
};

/// Host cost of the timing decorator of a traced sweep, measured standalone.
struct DecoratorCost {
  double clock_bias_ns = 0.0;  ///< clock's share of a measured interval,
                               ///< taken off every timed call
  double call_ns = 0.0;        ///< bookkeeping per forwarded call
};

/// What one simulation produced.
struct SimRun {
  std::string app;
  int sched = 0;  ///< index into kSchedNames
  bbsched::sim::SimTime end_time_us = 0;
  bbsched::sim::EngineStats stats;
  std::uint64_t elections = 0;
  std::vector<double> turnaround_us;  ///< per job; 0 = never finished
  double measured_mean_us = 0.0;
};

/// True when every simulated statistic of `a` and `b` is bit-identical.
[[nodiscard]] bool identical(const SimRun& a, const SimRun& b);

struct SweepResult {
  double setup_s = 0.0;  ///< building the 33 workloads and engines (median)
  double run_s = 0.0;    ///< host time inside the 33 Engine::run calls
  std::vector<double> run_s_each;  ///< the same, per simulation
  DecoratorCost decorator;  ///< traced sweeps: measured before the sweep
  std::uint64_t total_ticks = 0;
  std::vector<SimRun> runs;  ///< app-major, kSchedNames order
  SchedLayer layers[kNumScheds];
};

/// Host cost of one BusModel::resolve (with a workspace), by outcome.
struct BusTiming {
  double saturated_ns = 0.0;
  double unsaturated_ns = 0.0;
};

class SimSweep {
 public:
  SimSweep(bbsched::experiments::Fig2Set set, std::uint64_t seed, double time_scale);

  /// Runs the 33 simulations. With an enabled `spans`, every scheduler call
  /// is timed through a forwarding decorator and spans are recorded; the
  /// decorator's estimated own cost is charged to the "trace" layer, not
  /// to the simulator.
  [[nodiscard]] SweepResult run(SpanLog& spans) const;

  /// Re-runs one application's managed simulations with quantum batching
  /// off (max_batch_ticks = 1); returns the runs in kSchedNames order,
  /// skipping Linux (which never batches).
  [[nodiscard]] std::vector<SimRun> run_unbatched(std::size_t app) const;

  /// Property checks of one simulation of `result` (its index in runs);
  /// an empty list means the simulation passed.
  [[nodiscard]] std::vector<std::string> check(const SweepResult& result,
                                               std::size_t index) const;

  /// Mean simulated turnaround (s) of the measured applications under one
  /// scheduler kind, over all applications of the sweep.
  [[nodiscard]] static double mean_turnaround_s(const SweepResult& result,
                                                int sched);

  /// Times BusModel::resolve on every 4-thread gang of each application's
  /// set (the processors' worth of threads a scheduler can place).
  [[nodiscard]] BusTiming time_bus_resolve() const;

  [[nodiscard]] std::size_t num_apps() const noexcept { return apps_.size(); }

 private:
  [[nodiscard]] bbsched::workload::Workload build_workload(std::size_t app) const;

  bbsched::experiments::Fig2Set set_;
  bbsched::experiments::ExperimentConfig cfg_;
  std::vector<bbsched::workload::AppProfile> apps_;
};

}  // namespace perfbench
