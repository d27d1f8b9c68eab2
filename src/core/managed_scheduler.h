// Simulator adapter for the CPU manager: drives core::CpuManager from engine
// ticks the way the real user-level manager is driven by timers and the
// shared arena.
//
// Responsibilities per the paper's §4:
//  * connect every admitted job to the manager (apps "connect" on startup),
//  * poll the (simulated) performance counters of running applications twice
//    per quantum and post the accumulated transactions,
//  * at every quantum boundary run the election, block the de-scheduled
//    applications and unblock the elected ones (block/unblock intents map
//    to SIGUSR1/SIGUSR2 in the native runtime),
//  * place elected threads with affinity (a thread returns to the CPU it
//    last used whenever it is free),
//  * charge the manager's own overhead by keeping processors idle for a
//    configurable interval at each quantum boundary (signal delivery + list
//    traversal + arena polling in the real system).
#pragma once

#include <cstddef>
#include <vector>

#include "core/cpu_manager.h"
#include "faults/fault_injector.h"
#include "sim/scheduler.h"

namespace bbsched::core {

struct ManagedSchedulerConfig {
  ManagerConfig manager{};

  /// Fixed manager cost per quantum boundary (µs of idle machine time).
  sim::SimTime overhead_base_us = 0;
  /// Additional cost per connected application (list traversal, signals,
  /// counter polling).
  sim::SimTime overhead_per_app_us = 0;

  /// Re-run the election immediately when a job completes mid-quantum
  /// (the real manager reacts to the 'disconnect' message).
  bool reelect_on_disconnect = true;

  /// Sample demand-side counters (attempted transactions, the quantity the
  /// Xeon bus-event counters report) rather than the data actually moved.
  /// See sim::ThreadCtx::bus_attempts.
  bool sample_attempts = true;

  /// Seeded fault schedule applied to the manager's counter reads (one draw
  /// per read, simulating the faults::FaultyCounterSource classes at the
  /// sampling site). Disabled by default; disabled injection performs no
  /// draw, so fault-free runs are bit-identical to a build without the hook.
  faults::FaultConfig counter_faults{};
};

class ManagedScheduler final : public sim::Scheduler {
 public:
  explicit ManagedScheduler(const ManagedSchedulerConfig& cfg)
      : cfg_(cfg), manager_(cfg.manager), injector_(cfg.counter_faults) {}

  void start(sim::Machine& m, trace::ScheduleTrace& trace) override;
  void tick(sim::Machine& m, sim::SimTime now,
            trace::ScheduleTrace& trace) override;

  /// Quantum batching support (sim::Scheduler contract): between sampling
  /// points, election boundaries and the end of the overhead window, tick()
  /// provably mutates nothing as long as no job connects/disconnects, no
  /// block-state flip is pending and no elected thread awaits placement.
  [[nodiscard]] sim::SimTime quiescent_until(const sim::Machine& m,
                                             sim::SimTime now) const override;

  [[nodiscard]] const char* name() const override {
    if (cfg_.manager.qos.enabled) return "manager/credit";
    switch (cfg_.manager.policy) {
      case PolicyKind::kLatestQuantum: return "manager/latest-quantum";
      case PolicyKind::kQuantaWindow: return "manager/quanta-window";
      case PolicyKind::kExponential: return "manager/ewma";
    }
    return "manager";
  }

  [[nodiscard]] CpuManager& manager() noexcept { return manager_; }
  [[nodiscard]] const CpuManager& manager() const noexcept { return manager_; }

  /// Attaches a structured event tracer (non-owning): elections are
  /// recorded by the embedded CpuManager; counter samples and manager
  /// block/unblock transitions are recorded here, where simulated time and
  /// job ids are at hand.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    manager_.set_tracer(tracer);
  }

  /// Attaches a metrics registry (forwarded to the embedded CpuManager,
  /// which owns the fault counters and the degradation gauge).
  void set_metrics(obs::MetricsRegistry* metrics) { manager_.set_metrics(metrics); }

  /// The counter-read fault injector (for tests asserting fault schedules).
  [[nodiscard]] const faults::FaultInjector& injector() const noexcept {
    return injector_;
  }

  /// Completed gang context switches (elections applied); for tests and the
  /// quantum-length ablation.
  [[nodiscard]] std::uint64_t elections() const noexcept { return elections_; }

 private:
  int connect_app(const sim::Job& job, sim::SimTime now);
  [[nodiscard]] int app_of(int job_id) const {
    return lookup(job_to_app_, job_id);
  }
  [[nodiscard]] int job_of(int app) const { return lookup(app_to_job_, app); }
  [[nodiscard]] static int lookup(const std::vector<int>& ids, int id) {
    const auto i = static_cast<std::size_t>(id);
    return i < ids.size() ? ids[i] : -1;
  }
  [[nodiscard]] double read_counters(const sim::Machine& m, int job_id) const;
  void take_sample(sim::Machine& m, sim::SimTime now,
                   trace::ScheduleTrace& trace);
  void run_election(sim::Machine& m, sim::SimTime now,
                    trace::ScheduleTrace& trace);
  void apply_block_states(sim::Machine& m, trace::ScheduleTrace& trace,
                          sim::SimTime now);
  void place_elected(sim::Machine& m);
  void handle_completions(sim::Machine& m, sim::SimTime now,
                          trace::ScheduleTrace& trace);

  [[nodiscard]] sim::SimTime overhead_us() const {
    return cfg_.overhead_base_us +
           cfg_.overhead_per_app_us * manager_.app_count();
  }

  ManagedSchedulerConfig cfg_;
  CpuManager manager_;
  faults::FaultInjector injector_;  ///< counter-read fault schedule
  obs::Tracer* tracer_ = nullptr;   ///< non-owning

  /// job id -> manager app id and back, dense by id: job ids are engine
  /// indices and app ids the manager's sequential ids. -1 = not connected.
  /// Only connect_app grows them.
  std::vector<int> job_to_app_;
  std::vector<int> app_to_job_;
  /// Last cumulative transaction count read per manager app, by app id.
  std::vector<double> last_read_;

  sim::SimTime quantum_start_ = 0;
  int samples_taken_ = 0;
  sim::SimTime busy_until_ = 0;  ///< manager overhead window
  std::uint64_t elections_ = 0;
};

}  // namespace bbsched::core
