// Scheduler interface for the simulated SMP.
//
// The engine calls tick() before executing every simulation tick; the
// scheduler mutates CPU placements (Machine::place / vacate) and thread
// states (e.g. kManagerBlocked). Implementations:
//   * linuxsched::LinuxScheduler — the bandwidth-oblivious baseline,
//   * core::ManagedScheduler    — the paper's user-level CPU manager running
//                                 a bandwidth-aware policy,
//   * sim::PinnedScheduler      — static placement for calibration runs.
#pragma once

#include "sim/machine.h"
#include "sim/time.h"
#include "trace/schedule_trace.h"

namespace bbsched::sim {

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Invoked once before jobs start so the scheduler can initialise
  /// bookkeeping for admitted jobs.
  virtual void start(Machine& machine, trace::ScheduleTrace& trace) {
    (void)machine;
    (void)trace;
  }

  /// Invoked at the start of every engine tick; adjusts placements.
  virtual void tick(Machine& machine, SimTime now,
                    trace::ScheduleTrace& trace) = 0;

  /// Latest time T such that skipping the tick() calls at times in
  /// [now, T) and calling tick(T) directly leaves the same state — machine
  /// and scheduler-internal — as calling each of them, PROVIDED thread
  /// states, placements and the job set do not change in the interim. A
  /// scheduler whose skipped ticks would only have accumulated something
  /// (a timeslice charge, say) catches up on its own in tick(T). The engine
  /// uses this to batch event-free ticks (DESIGN.md §11); any event that
  /// could invalidate the premise ends the batch and resumes per-tick
  /// stepping. The conservative default (`now`) declares the scheduler
  /// never quiescent, which disables batching for implementations that do
  /// not opt in.
  [[nodiscard]] virtual SimTime quiescent_until(const Machine& machine,
                                                SimTime now) const {
    (void)machine;
    return now;
  }

  [[nodiscard]] virtual const char* name() const = 0;
};

/// Statically pins each thread to CPU (thread_id % num_cpus) and never
/// preempts. Used by the Fig.-1 calibration experiments, which by
/// construction have at most one thread per processor ("no processor
/// sharing").
class PinnedScheduler final : public Scheduler {
 public:
  void tick(Machine& m, SimTime /*now*/,
            trace::ScheduleTrace& /*trace*/) override {
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      const int cpu = t.id % m.num_cpus();
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == Cpu::kIdle) {
        m.place(cpu, t.id);
      }
    }
  }

  /// tick() only ever places a ready thread onto its idle home CPU; with no
  /// such thread it is a no-op forever (until an engine event changes a
  /// state or placement, which ends any batch).
  [[nodiscard]] SimTime quiescent_until(const Machine& m,
                                        SimTime now) const override {
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      const int cpu = t.id % m.num_cpus();
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == t.id) continue;
      if (m.cpus()[static_cast<std::size_t>(cpu)].thread == Cpu::kIdle) {
        return now;  // tick() would place this thread
      }
    }
    return kForever;
  }

  [[nodiscard]] const char* name() const override { return "pinned"; }
};

}  // namespace bbsched::sim
