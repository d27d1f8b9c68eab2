#include "linuxsched/linux_sched.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bbsched::linuxsched {

using sim::Cpu;
using sim::Machine;
using sim::ThreadCtx;
using sim::ThreadState;

void LinuxScheduler::start(Machine& m, trace::ScheduleTrace& /*trace*/) {
  rng_.reseed(cfg_.seed);
  counters_.resize(m.threads().size());
  // Random initial phases: real tasks never start with synchronized slices.
  const auto slice = static_cast<double>(cfg_.timeslice_us);
  for (auto& c : counters_) {
    c = slice * rng_.uniform(cfg_.initial_phase_min, 1.0);
  }
}

double LinuxScheduler::goodness(const ThreadCtx& t, int cpu) const {
  const double counter = counters_[static_cast<std::size_t>(t.id)];
  if (counter <= 0.0) return 0.0;  // exhausted => no bonus, lowest priority
  double weight = counter;
  if (t.last_cpu == cpu) weight += cfg_.affinity_bonus_us;
  return weight;
}

void LinuxScheduler::maybe_epoch_refill(Machine& m) {
  // Epoch ends when every runnable task has exhausted its counter. Blocked
  // tasks keep (and halve) their remainder, exactly like kernel 2.4.
  bool any_runnable = false;
  for (const auto& t : m.threads()) {
    if (t.state == ThreadState::kReady) {
      any_runnable = true;
      if (counters_[static_cast<std::size_t>(t.id)] > 0.0) return;
    }
  }
  if (!any_runnable) return;
  ++epochs_;
  const auto slice = static_cast<double>(cfg_.timeslice_us);
  for (const auto& t : m.threads()) {
    if (t.state == ThreadState::kDone) continue;
    auto& c = counters_[static_cast<std::size_t>(t.id)];
    const double jitter =
        1.0 + cfg_.refill_jitter * (2.0 * rng_.uniform() - 1.0);
    c = std::max(c, 0.0) / 2.0 + slice * jitter;
  }
}

void LinuxScheduler::reschedule_idle(Machine& m, int tid,
                                     trace::ScheduleTrace& trace) {
  const ThreadCtx t = m.thread(tid);

  // Prefer the task's cache home if idle, then any idle CPU.
  if (t.last_cpu != -1 &&
      m.cpus()[static_cast<std::size_t>(t.last_cpu)].thread == Cpu::kIdle) {
    m.place(t.last_cpu, tid);
    return;
  }
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    if (m.cpus()[c].thread == Cpu::kIdle) {
      m.place(static_cast<int>(c), tid);
      return;
    }
  }

  // No idle CPU: preempt the running task with the smallest goodness if the
  // woken task beats it there (kernel 2.4 preemption_goodness > 1 check).
  int victim_cpu = -1;
  double victim_w = 1e300;
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    const int cur = m.cpus()[c].thread;
    const double w = goodness(m.thread(cur), static_cast<int>(c));
    if (w < victim_w) {
      victim_w = w;
      victim_cpu = static_cast<int>(c);
    }
  }
  if (victim_cpu >= 0 &&
      goodness(t, victim_cpu) > victim_w + 1.0) {
    const int prev_cpu = t.last_cpu;
    m.vacate(victim_cpu);
    m.place(victim_cpu, tid);
    if (prev_cpu != -1 && prev_cpu != victim_cpu) {
      trace.event({0, trace::EventKind::kMigration, t.app_id, tid,
                   victim_cpu, 0.0});
    }
  }
}

void LinuxScheduler::tick(Machine& m, sim::SimTime now,
                          trace::ScheduleTrace& trace) {
  // New threads (jobs admitted after start) get a fresh slice.
  if (counters_.size() < m.threads().size()) {
    counters_.resize(m.threads().size(),
                     static_cast<double>(cfg_.timeslice_us));
  }
  was_blocked_.resize(m.threads().size(), false);

  // Charge the tasks that ran since the previous invocation (the engine
  // calls us once per tick, before executing it). A gap of k steps means
  // the engine batched past k - 1 quiet ticks (quiescent_until promised
  // they only charge counters): charge one step k times, since a single
  // c -= k * step rounds differently once c is far enough below zero.
  const sim::SimTime gap = has_last_now_ ? now - last_now_ : 0;
  last_now_ = now;
  has_last_now_ = true;
  if (step_ == 0) step_ = gap;
  sim::SimTime charges = 1;
  double elapsed = static_cast<double>(gap);
  if (step_ != 0 && gap > step_ && gap % step_ == 0) {
    charges = gap / step_;
    elapsed = static_cast<double>(step_);
  }
  for (auto& cpu : m.cpus()) {
    if (cpu.thread == Cpu::kIdle) continue;
    double& c = counters_[static_cast<std::size_t>(cpu.thread)];
    for (sim::SimTime k = 0; k < charges; ++k) c -= elapsed;
  }

  maybe_epoch_refill(m);

  // Wakeups: threads that were barrier-blocked last tick and are runnable
  // now go through reschedule_idle() (idle-CPU placement / preemption).
  for (const auto& t : m.threads()) {
    const auto idx = static_cast<std::size_t>(t.id);
    const bool blocked_now = t.state == ThreadState::kBarrierWait;
    if (was_blocked_[idx] && !blocked_now &&
        t.state == ThreadState::kReady && m.cpu_of(t.id) == -1) {
      reschedule_idle(m, t.id, trace);
    }
    was_blocked_[idx] = blocked_now;
  }

  // schedule() per CPU: keep the current task while it has timeslice left;
  // otherwise pick the max-goodness runnable task (including the current).
  for (std::size_t c = 0; c < m.cpus().size(); ++c) {
    const int cpu = static_cast<int>(c);
    const int cur = m.cpus()[c].thread;

    if (cur != Cpu::kIdle) {
      assert(m.thread(cur).state == ThreadState::kReady);
      if (counters_[static_cast<std::size_t>(cur)] > 0.0) {
        continue;  // timeslice not expired: keep running
      }
    }

    // Candidates: the current task plus every runnable, unplaced thread.
    int best = cur;
    double best_w = cur == Cpu::kIdle ? -1.0 : goodness(m.thread(cur), cpu);
    for (const auto& t : m.threads()) {
      if (t.state != ThreadState::kReady) continue;
      if (t.id == cur) continue;
      if (m.cpu_of(t.id) != -1) continue;  // running elsewhere
      const double w = goodness(t, cpu);
      if (w > best_w) {
        best_w = w;
        best = t.id;
      }
    }

    if (best == cur || best == Cpu::kIdle) continue;
    const int prev_cpu = m.thread(best).last_cpu;
    if (cur != Cpu::kIdle) m.vacate(cpu);
    m.place(cpu, best);
    if (prev_cpu != -1 && prev_cpu != cpu) {
      trace.event({0, trace::EventKind::kMigration, m.thread(best).app_id,
                   best, cpu, 0.0});
    }
  }
}

sim::SimTime LinuxScheduler::quiescent_until(const Machine& m,
                                             sim::SimTime now) const {
  // Mirror tick(): every branch that would do more than charge counters
  // pins the promise to `now`. Placements and states are frozen in the
  // interim, so only the running tasks' counters move.
  if (!has_last_now_ || step_ == 0 || now <= last_now_ ||
      (now - last_now_) % step_ != 0) {
    return now;
  }
  const std::size_t n = m.threads().size();
  if (counters_.size() < n || was_blocked_.size() < n) return now;

  bool any_ready = false;
  bool unplaced_ready = false;
  bool unplaced_with_slice = false;
  for (const auto& t : m.threads()) {
    const auto idx = static_cast<std::size_t>(t.id);
    if (was_blocked_[idx] != (t.state == ThreadState::kBarrierWait)) {
      return now;  // a wakeup (or a new block) is pending
    }
    if (t.state != ThreadState::kReady) continue;
    any_ready = true;
    if (m.cpu_of(t.id) == -1) {
      unplaced_ready = true;
      if (counters_[idx] > 0.0) unplaced_with_slice = true;
    }
  }

  // The tick at `now` applies `charges` charges; the n-th charge of a
  // positive counter c leaves c - n * step exactly (each subtraction is
  // exact while the result is non-negative), so the charge that exhausts it
  // is the least n with n * step >= c.
  const sim::SimTime charges = (now - last_now_) / step_;
  const auto step = static_cast<double>(step_);
  bool running_keeps_slice = false;
  sim::SimTime horizon = sim::kForever;
  for (const auto& cpu : m.cpus()) {
    if (cpu.thread == Cpu::kIdle) {
      if (unplaced_ready) return now;  // the idle CPU would pull it
      continue;
    }
    const double c = counters_[static_cast<std::size_t>(cpu.thread)];
    if (c <= 0.0) {
      // Exhausted but kept: any runnable thread with slice left wins.
      if (unplaced_with_slice) return now;
      continue;
    }
    // c / step can round down onto an integer, never up past one.
    auto expiry = static_cast<sim::SimTime>(std::ceil(c / step));
    if (static_cast<double>(expiry * step_) < c) ++expiry;
    if (expiry <= charges) return now;  // the slice expires at `now`
    running_keeps_slice = true;
    horizon = std::min(horizon, last_now_ + expiry * step_);
  }
  // Every ready thread out of slice: the next tick refills the epoch.
  if (any_ready && !running_keeps_slice) return now;
  return horizon;
}

}  // namespace bbsched::linuxsched
