// Tests for the Linux 2.4 baseline scheduler model: timeslices, goodness
// selection with cache affinity, epoch refill, idle stealing, and wake
// placement (reschedule_idle), and the quiescence promise that lets the
// engine batch past ticks which only charge timeslices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "linuxsched/linux_sched.h"
#include "sim/engine.h"
#include "stats/rng.h"

namespace bbsched::linuxsched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SimTime;
using sim::SteadyDemand;
using sim::ThreadState;

EngineConfig quiet_engine() {
  EngineConfig e;
  e.os_noise_interval_us = 0;
  return e;
}

JobSpec cpu_job(const std::string& name, int nthreads, double work_us) {
  JobSpec spec;
  spec.name = name;
  spec.nthreads = nthreads;
  spec.work_us = work_us;
  spec.demand = std::make_shared<SteadyDemand>(0.1);
  spec.cache.cold_demand_boost = 0.0;
  spec.cache.migration_sensitivity = 0.0;
  return spec;
}

LinuxSchedConfig deterministic_cfg() {
  LinuxSchedConfig cfg;
  cfg.initial_phase_min = 1.0;  // no phase jitter
  cfg.refill_jitter = 0.0;
  return cfg;
}

TEST(LinuxSched, FillsAllCpusWhenEnoughThreads) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.step();
  for (const auto& cpu : eng.machine().cpus()) {
    EXPECT_NE(cpu.thread, sim::Cpu::kIdle);
  }
}

TEST(LinuxSched, TimeSharesFairlyAtDegreeTwo) {
  // 8 equal uncoupled threads on 4 CPUs finish in ~2x their work.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  for (int i = 0; i < 8; ++i) eng.add_job(cpu_job("t", 1, 500'000.0));
  eng.run();
  for (const auto& job : eng.machine().jobs()) {
    ASSERT_TRUE(job.completed);
    const double t = static_cast<double>(job.turnaround_us());
    EXPECT_GT(t, 0.85e6);
    EXPECT_LT(t, 1.25e6);
  }
}

TEST(LinuxSched, CountersDecrementOnlyWhileRunning) {
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.add_job(cpu_job("b", 4, 1.0e6));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  for (int i = 0; i < 10; ++i) eng.step();
  // Exactly 4 threads ran for 10 ms; their counters are lower.
  int drained = 0;
  for (const auto& t : eng.machine().threads()) {
    if (sched.counter(t.id) < 100'000.0 - 1.0) ++drained;
  }
  EXPECT_EQ(drained, 4);
}

TEST(LinuxSched, PreemptionAtSliceExpiry) {
  // With two 1-CPU-each jobs on a 1-CPU machine, the scheduler alternates
  // them at slice boundaries.
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  EngineConfig ecfg = quiet_engine();
  ecfg.trace = true;
  Engine eng(mcfg, ecfg,
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 400'000.0));
  eng.add_job(cpu_job("b", 1, 400'000.0));
  eng.run();
  const auto& a = eng.machine().job(0);
  const auto& b = eng.machine().job(1);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  // Both finish near 800 ms: time-sharing, not FCFS.
  EXPECT_GT(static_cast<double>(a.turnaround_us()), 650'000.0);
  EXPECT_GT(static_cast<double>(b.turnaround_us()), 650'000.0);
}

TEST(LinuxSched, EpochRefillHappens) {
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Engine eng(mcfg, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 600'000.0));
  eng.add_job(cpu_job("b", 1, 600'000.0));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  eng.run_until(sim::ms(450));
  EXPECT_GE(sched.epochs(), 2u);
}

TEST(LinuxSched, AffinityKeepsThreadsHome) {
  // With 4 threads on 4 CPUs and no contention for slots, nobody migrates.
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 2, 300'000.0));
  eng.add_job(cpu_job("b", 2, 300'000.0));
  eng.run();
  for (const auto& t : eng.machine().threads()) {
    EXPECT_EQ(t.migrations, 0u) << "thread " << t.id;
  }
}

TEST(LinuxSched, GoodnessZeroWhenExpired) {
  // A thread with exhausted counter loses to a fresh one even off-home:
  // at multiprogramming degree 2 on one CPU, both threads make progress
  // within any 300 ms window (no starvation through affinity).
  MachineConfig mcfg;
  mcfg.num_cpus = 1;
  Engine eng(mcfg, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  eng.add_job(cpu_job("a", 1, 5.0e6));
  eng.add_job(cpu_job("b", 1, 5.0e6));
  eng.run_until(sim::ms(300));
  EXPECT_GT(eng.machine().thread(0).progress_us, 0.0);
  EXPECT_GT(eng.machine().thread(1).progress_us, 0.0);
}

TEST(LinuxSched, JitteredSlicesDesynchronize) {
  LinuxSchedConfig cfg;  // defaults: jitter on
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(cfg));
  eng.add_job(cpu_job("a", 4, 1.0e6));
  eng.add_job(cpu_job("b", 4, 1.0e6));
  auto& sched = dynamic_cast<LinuxScheduler&>(eng.scheduler());
  eng.step();
  // Initial counters differ across threads (random phases).
  bool any_diff = false;
  for (std::size_t i = 1; i < eng.machine().threads().size(); ++i) {
    if (std::abs(sched.counter(static_cast<int>(i)) - sched.counter(0)) >
        1.0) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(LinuxSched, WakePlacementUsesIdleCpu) {
  // A coupled job whose sibling blocks must resume promptly once the
  // laggard catches up — via reschedule_idle onto an idle CPU.
  EngineConfig ecfg = quiet_engine();
  ecfg.trace = true;
  Engine eng(MachineConfig{}, ecfg,
             std::make_unique<LinuxScheduler>(LinuxSchedConfig{}));
  JobSpec coupled = cpu_job("par", 2, 600'000.0);
  coupled.barrier_interval_us = 2'000.0;
  eng.add_job(coupled);
  for (int i = 0; i < 8; ++i) eng.add_job(cpu_job("bg", 1, 600'000.0));
  eng.run();
  ASSERT_TRUE(eng.machine().job(0).completed);
}

TEST(LinuxSched, ObliviousToBandwidth) {
  // The baseline treats a BBMA-class hog and a quiet job identically in CPU
  // share terms (that obliviousness is what the paper exploits).
  Engine eng(MachineConfig{}, quiet_engine(),
             std::make_unique<LinuxScheduler>(deterministic_cfg()));
  JobSpec hog = cpu_job("hog", 4, sim::JobSpec::kInfiniteWork);
  hog.demand = std::make_shared<SteadyDemand>(23.6);
  eng.add_job(hog);
  eng.add_job(cpu_job("quiet", 4, 500'000.0));
  eng.run_until(sim::sec(2));
  double hog_run = 0.0, quiet_run = 0.0;
  for (const auto& t : eng.machine().threads()) {
    if (t.app_id == 0) hog_run += t.run_us + t.spin_us;
    else quiet_run += t.run_us + t.spin_us;
  }
  // Shares within ~25% of each other while both are present. The quiet job
  // finishes early, so compare over its lifetime only.
  const double lifetime =
      static_cast<double>(eng.machine().job(1).completion_us);
  (void)lifetime;
  EXPECT_GT(quiet_run, 0.5 * hog_run * 0.5);
}

// ---- quiescence and catch-up ---------------------------------------------
// These drive the scheduler directly on a bare Machine (no engine), so the
// test controls exactly which tick() calls happen.

constexpr SimTime kStep = 1000;

/// A machine plus a scheduler started on it; two rigs built alike evolve
/// alike under the same calls.
struct Rig {
  sim::Machine m;
  LinuxScheduler sched;
  trace::ScheduleTrace trace{true};

  Rig(int cpus, const std::vector<JobSpec>& jobs, const LinuxSchedConfig& cfg)
      : m(machine_with(cpus)), sched(cfg) {
    for (const auto& j : jobs) m.add_job(j);
    sched.start(m, trace);
  }
  void tick(SimTime now) { sched.tick(m, now, trace); }

  static MachineConfig machine_with(int cpus) {
    MachineConfig mcfg;
    mcfg.num_cpus = cpus;
    return mcfg;
  }
};

std::vector<int> placements(const sim::Machine& m) {
  std::vector<int> out;
  for (const auto& c : m.cpus()) out.push_back(c.thread);
  return out;
}

std::vector<int> states(const sim::Machine& m) {
  std::vector<int> out;
  for (const auto& t : m.threads()) out.push_back(static_cast<int>(t.state));
  return out;
}

/// Everything tick() may change besides the counters.
void expect_same_schedule(const Rig& a, const Rig& b) {
  EXPECT_EQ(placements(a.m), placements(b.m));
  EXPECT_EQ(states(a.m), states(b.m));
  EXPECT_EQ(a.sched.epochs(), b.sched.epochs());
  ASSERT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t i = 0; i < a.trace.events().size(); ++i) {
    EXPECT_EQ(a.trace.events()[i].thread_id, b.trace.events()[i].thread_id);
    EXPECT_EQ(a.trace.events()[i].cpu, b.trace.events()[i].cpu);
  }
}

void expect_same_counters(const Rig& a, const Rig& b) {
  for (const auto& t : a.m.threads()) {
    EXPECT_EQ(a.sched.counter(t.id), b.sched.counter(t.id))
        << "thread " << t.id;  // bitwise
  }
}

/// Two single-thread jobs on two CPUs: both run from the first tick, each
/// with its own jittered (fractional) counter.
std::vector<JobSpec> two_solo_jobs() {
  return {cpu_job("a", 1, 1.0e9), cpu_job("b", 1, 1.0e9)};
}

/// First charge count n with c - n * step <= 0.
SimTime expiry_step(double c) {
  return static_cast<SimTime>(std::ceil(c / static_cast<double>(kStep)));
}

/// Runs `ref` one step at a time to `to` and `lazy` to `from`, then jumps
/// `lazy` straight to `to`; the jump must be one the promise allows.
void step_and_jump(Rig& ref, Rig& lazy, SimTime from, SimTime to) {
  for (SimTime k = 0; k <= to; ++k) ref.tick(k * kStep);
  for (SimTime k = 0; k <= from; ++k) lazy.tick(k * kStep);
  EXPECT_GE(lazy.sched.quiescent_until(lazy.m, (from + 1) * kStep),
            to * kStep)
      << "the engine could not have batched this jump";
  lazy.tick(to * kStep);
}

/// A configuration in which one task runs exhausted-but-kept from `from`
/// to `to` (its sibling still has slice, so no epoch refill), deep enough
/// into negative counters that charging the jump's steps one at a time
/// rounds differently from a single bulk c -= k * step. Only a
/// step-at-a-time catch-up can match the reference there.
struct ExhaustedStretch {
  LinuxSchedConfig cfg;
  SimTime from = 0;
  SimTime to = 0;
};

ExhaustedStretch exhausted_stretch() {
  ExhaustedStretch out;
  out.cfg.timeslice_us = 400 * sim::kUsPerMs;
  out.cfg.initial_phase_min = 0.05;
  const auto step = static_cast<double>(kStep);
  for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
    out.cfg.seed = seed;
    const Rig probe(2, two_solo_jobs(), out.cfg);
    const double lo = std::min(probe.sched.counter(0), probe.sched.counter(1));
    const double hi = std::max(probe.sched.counter(0), probe.sched.counter(1));
    out.from = expiry_step(lo) + 1;
    out.to = expiry_step(hi) - 1;
    if (out.to < out.from + 100) continue;
    double stepped = lo;
    for (SimTime k = 0; k < out.from; ++k) stepped -= step;
    const double bulk =
        stepped - static_cast<double>(out.to - out.from) * step;
    for (SimTime k = out.from; k < out.to; ++k) stepped -= step;
    if (stepped != bulk) return out;
  }
  ADD_FAILURE() << "no seed separates stepped from bulk charging";
  return out;
}

TEST(LinuxSched, CatchUpIsExactWhileCountersArePositive) {
  const LinuxSchedConfig cfg;
  Rig ref(2, two_solo_jobs(), cfg);
  Rig lazy(2, two_solo_jobs(), cfg);
  const double lo = std::min(ref.sched.counter(0), ref.sched.counter(1));
  const SimTime to = expiry_step(lo) - 1;
  ASSERT_GT(to, 3u);
  step_and_jump(ref, lazy, 1, to);
  EXPECT_GT(lazy.sched.counter(0), 0.0);
  EXPECT_GT(lazy.sched.counter(1), 0.0);
  expect_same_counters(ref, lazy);
  expect_same_schedule(ref, lazy);
}

TEST(LinuxSched, CatchUpIsExactForExhaustedButKeptTasks) {
  // The shorter slice runs out first; with no other runnable thread its
  // task keeps the CPU with a negative counter until the longer one runs
  // out too.
  const ExhaustedStretch x = exhausted_stretch();
  Rig ref(2, two_solo_jobs(), x.cfg);
  Rig lazy(2, two_solo_jobs(), x.cfg);
  step_and_jump(ref, lazy, x.from, x.to);
  EXPECT_LT(std::min(lazy.sched.counter(0), lazy.sched.counter(1)), 0.0);
  EXPECT_EQ(lazy.sched.epochs(), 0u);
  expect_same_counters(ref, lazy);
  expect_same_schedule(ref, lazy);
}

TEST(LinuxSched, CatchUpThatEndsOnAnEpochRefillIsExact) {
  // The jump lands exactly on the tick at which the last slice runs out:
  // the catch-up charges first, then that same tick refills the epoch.
  const ExhaustedStretch x = exhausted_stretch();
  Rig ref(2, two_solo_jobs(), x.cfg);
  Rig lazy(2, two_solo_jobs(), x.cfg);
  step_and_jump(ref, lazy, x.from, x.to + 1);
  EXPECT_EQ(ref.sched.epochs(), 1u);
  EXPECT_GT(lazy.sched.counter(0), 0.0);
  EXPECT_GT(lazy.sched.counter(1), 0.0);
  expect_same_counters(ref, lazy);
  expect_same_schedule(ref, lazy);
}

TEST(LinuxSched, NoPromiseBeforeTheStepIsKnown) {
  Rig rig(2, two_solo_jobs(), LinuxSchedConfig{});
  rig.tick(0);
  EXPECT_EQ(rig.sched.quiescent_until(rig.m, kStep), kStep);
  rig.tick(kStep);
  EXPECT_GT(rig.sched.quiescent_until(rig.m, 2 * kStep), 2 * kStep);
}

// Random small machines with random engine-like events between ticks. A
// reference scheduler ticks every step; a lazy one skips every tick its own
// promise covers, exactly as the engine does. No skipped tick may change a
// placement, a state, a trace event or the epoch count, and at every tick
// the lazy scheduler does take, its whole state must match the reference
// bit for bit. As in the engine, a block (which vacates the CPU) or an I/O
// wake follows a fully executed tick, while a barrier wake-up may follow a
// skipped one.
TEST(LinuxSched, QuiescencePromiseHoldsOnRandomMachines) {
  stats::Rng rng(0x11a5e);
  std::uint64_t skipped = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int cpus = 1 + static_cast<int>(rng.below(4));
    std::vector<JobSpec> jobs;
    const auto njobs = 1 + rng.below(4);
    for (std::uint64_t j = 0; j < njobs; ++j) {
      jobs.push_back(
          cpu_job("j", 1 + static_cast<int>(rng.below(3)), 1.0e9));
    }
    LinuxSchedConfig cfg;
    cfg.seed = 1 + static_cast<std::uint64_t>(trial);
    const SimTime slices[] = {3, 20, 100};
    cfg.timeslice_us = slices[rng.below(3)] * sim::kUsPerMs;
    Rig ref(cpus, jobs, cfg);
    Rig lazy(cpus, jobs, cfg);
    const auto nthreads = static_cast<std::uint64_t>(ref.m.threads().size());

    SimTime resume = 0;  // lazy's next tick
    for (SimTime k = 0; k < 1500; ++k) {
      const SimTime now = k * kStep;
      const int tid =
          rng.uniform() < 0.02 ? static_cast<int>(rng.below(nthreads)) : -1;
      const ThreadState from =
          tid == -1 ? ThreadState::kDone : ref.m.thread(tid).state;
      // Anything but a barrier wake-up follows a full tick.
      if (tid != -1 && from != ThreadState::kBarrierWait) {
        resume = std::min(resume, now);
      }

      const auto before_place = placements(ref.m);
      const auto before_state = states(ref.m);
      const std::size_t before_events = ref.trace.events().size();
      const std::uint64_t before_epochs = ref.sched.epochs();
      ref.tick(now);
      SCOPED_TRACE("trial " + std::to_string(trial) + " tick " +
                   std::to_string(k));
      const bool lazy_ticks = now >= resume;
      if (lazy_ticks) {
        lazy.tick(now);
        expect_same_counters(ref, lazy);
        expect_same_schedule(ref, lazy);
        if (HasFailure()) return;
      } else {
        ++skipped;
        ASSERT_EQ(placements(ref.m), before_place);
        ASSERT_EQ(states(ref.m), before_state);
        ASSERT_EQ(ref.trace.events().size(), before_events);
        ASSERT_EQ(ref.sched.epochs(), before_epochs);
      }

      // The engine event, on both machines alike.
      if (tid != -1) {
        const bool io = rng.uniform() < 0.3;
        for (Rig* r : {&ref, &lazy}) {
          auto t = r->m.thread(tid);
          if (from == ThreadState::kReady) {
            const int cpu = r->m.cpu_of(tid);
            if (cpu != -1) r->m.vacate(cpu);
            t.state = io ? ThreadState::kIoWait : ThreadState::kBarrierWait;
          } else {
            t.state = ThreadState::kReady;
          }
        }
      }
      // The event voids the promise in flight; ask afresh, as the engine
      // may at any tick.
      if (tid != -1 || lazy_ticks) {
        resume = lazy.sched.quiescent_until(lazy.m, now + kStep);
        ASSERT_GE(resume, now + kStep);
      }
    }
  }
  EXPECT_GT(skipped, 10'000u) << "the promise almost never held";
}

}  // namespace
}  // namespace bbsched::linuxsched
