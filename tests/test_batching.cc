// Differential tests for quantum batching (DESIGN.md §11): a run with
// batching enabled must be bit-identical — thread accounting, engine stats,
// schedule-trace event and interval streams — to the same run forced to step
// per tick (max_batch_ticks = 1). The workloads are chosen to cross every
// event class mid-run: open-system arrivals, OS-noise window boundaries,
// spin-grace expiry, I/O issue/wake edges, barrier wake-ups and completions.
// The Linux-baseline runs also compare the scheduler's own state (timeslice
// counters, epoch refills), which it catches up on after each batch. Runs
// through a cache warm-up ramp or across demand-model edges also compare
// the structured tracer's per-tick kBusResolution events.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/managed_scheduler.h"
#include "experiments/runner.h"
#include "linuxsched/linux_sched.h"
#include "obs/tracer.h"
#include "sim/engine.h"
#include "sim/scheduler.h"
#include "workload/demand_models.h"
#include "workload/workload.h"

namespace bbsched {
namespace {

using sim::Engine;
using sim::EngineConfig;
using sim::JobSpec;
using sim::MachineConfig;
using sim::SimTime;

/// Double fields recorded per thread in RunSnapshot::thread_doubles; the
/// second is warmth.
constexpr std::size_t kThreadDoubles = 13;
constexpr std::size_t kWarmth = 1;

/// Everything the engine computes that callers can observe.
struct RunSnapshot {
  SimTime end = 0;
  std::uint64_t total_ticks = 0;
  std::uint64_t saturated_ticks = 0;
  std::uint64_t batched_ticks = 0;
  std::uint64_t batches = 0;
  std::uint64_t replay_resolves = 0;
  double total_granted = 0.0;
  std::uint64_t util_n = 0;
  double util_mean = 0.0;
  double stretch_mean = 0.0;
  std::vector<double> thread_doubles;  ///< kThreadDoubles per thread
  std::vector<int> thread_ints;
  std::vector<SimTime> completions;
  std::vector<trace::Event> events;
  std::vector<trace::RunInterval> intervals;
  std::vector<double> sched_counters;  ///< LinuxScheduler runs only
  std::uint64_t sched_epochs = 0;      ///< LinuxScheduler runs only
  std::vector<obs::TraceEvent> tracer_events;  ///< RunSpec::tracer runs only
};

struct RunSpec {
  MachineConfig machine{};
  EngineConfig engine{};
  std::vector<JobSpec> jobs;
  /// (when, spec) open-system arrivals.
  std::vector<std::pair<SimTime, JobSpec>> arrivals;
  SimTime until = 0;
  /// Attach an enabled obs::Tracer and snapshot its events.
  bool tracer = false;
};

RunSnapshot run(const RunSpec& s, std::unique_ptr<sim::Scheduler> sched,
                std::uint32_t max_batch_ticks) {
  EngineConfig ecfg = s.engine;
  ecfg.trace = true;
  ecfg.max_batch_ticks = max_batch_ticks;
  Engine eng(s.machine, ecfg, std::move(sched));
  obs::Tracer tracer({.enabled = s.tracer});
  if (s.tracer) eng.set_tracer(&tracer);
  for (const auto& spec : s.jobs) eng.add_job(spec);
  for (const auto& [when, spec] : s.arrivals) eng.submit_job(spec, when);
  eng.run_until(s.until);
  // The Linux baseline charges the ticks a batch skipped at its next
  // tick(); one more full step lands those charges in both runs, so the
  // counters are comparable.
  const auto* linux_sched =
      dynamic_cast<const linuxsched::LinuxScheduler*>(&eng.scheduler());
  if (linux_sched != nullptr) eng.step();

  RunSnapshot out;
  out.end = eng.now();
  const auto& st = eng.stats();
  out.total_ticks = st.total_ticks;
  out.saturated_ticks = st.saturated_ticks;
  out.batched_ticks = st.batched_ticks;
  out.batches = st.batches;
  out.replay_resolves = st.replay_resolves;
  out.total_granted = st.total_granted_transactions;
  out.util_n = st.bus_utilization.count();
  out.util_mean = st.bus_utilization.mean();
  out.stretch_mean = st.stretch.mean();
  for (const auto& t : eng.machine().threads()) {
    out.thread_doubles.insert(
        out.thread_doubles.end(),
        {t.progress_us, t.warmth, t.consecutive_spin_us,
         t.next_io_at_progress, t.bus_transactions, t.bus_attempts, t.run_us,
         t.spin_us, t.stolen_us, t.ready_wait_us, t.barrier_wait_us,
         t.io_wait_us, t.mgr_blocked_us});
    out.thread_ints.insert(out.thread_ints.end(),
                           {static_cast<int>(t.state), t.last_cpu,
                            static_cast<int>(t.migrations),
                            static_cast<int>(t.io_wake_us & 0x7fffffff)});
  }
  for (const auto& j : eng.machine().jobs()) {
    out.completions.push_back(j.completed ? j.completion_us : 0);
  }
  out.events = eng.trace().events();
  out.intervals = eng.trace().intervals();
  if (linux_sched != nullptr) {
    for (const auto& t : eng.machine().threads()) {
      out.sched_counters.push_back(linux_sched->counter(t.id));
    }
    out.sched_epochs = linux_sched->epochs();
  }
  EXPECT_EQ(tracer.dropped(), 0u) << "tracer ring too small for the run";
  tracer.events().for_each(
      [&](const obs::TraceEvent& e) { out.tracer_events.push_back(e); });
  return out;
}

void expect_identical(const RunSnapshot& a, const RunSnapshot& b) {
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.total_ticks, b.total_ticks);
  EXPECT_EQ(a.saturated_ticks, b.saturated_ticks);
  EXPECT_EQ(a.total_granted, b.total_granted);  // bitwise
  EXPECT_EQ(a.util_n, b.util_n);
  EXPECT_EQ(a.util_mean, b.util_mean);
  EXPECT_EQ(a.stretch_mean, b.stretch_mean);
  ASSERT_EQ(a.thread_doubles.size(), b.thread_doubles.size());
  for (std::size_t i = 0; i < a.thread_doubles.size(); ++i) {
    EXPECT_EQ(a.thread_doubles[i], b.thread_doubles[i]) << "double #" << i;
  }
  EXPECT_EQ(a.thread_ints, b.thread_ints);
  EXPECT_EQ(a.completions, b.completions);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time_us, b.events[i].time_us) << "event #" << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "event #" << i;
    EXPECT_EQ(a.events[i].app_id, b.events[i].app_id) << "event #" << i;
    EXPECT_EQ(a.events[i].thread_id, b.events[i].thread_id);
    EXPECT_EQ(a.events[i].value, b.events[i].value) << "event #" << i;
  }
  ASSERT_EQ(a.intervals.size(), b.intervals.size());
  for (std::size_t i = 0; i < a.intervals.size(); ++i) {
    EXPECT_EQ(a.intervals[i].start_us, b.intervals[i].start_us);
    EXPECT_EQ(a.intervals[i].end_us, b.intervals[i].end_us);
    EXPECT_EQ(a.intervals[i].thread_id, b.intervals[i].thread_id);
    EXPECT_EQ(a.intervals[i].cpu, b.intervals[i].cpu);
  }
  ASSERT_EQ(a.sched_counters.size(), b.sched_counters.size());
  for (std::size_t i = 0; i < a.sched_counters.size(); ++i) {
    EXPECT_EQ(a.sched_counters[i], b.sched_counters[i]) << "counter #" << i;
  }
  EXPECT_EQ(a.sched_epochs, b.sched_epochs);
  ASSERT_EQ(a.tracer_events.size(), b.tracer_events.size());
  for (std::size_t i = 0; i < a.tracer_events.size(); ++i) {
    const obs::TraceEvent& x = a.tracer_events[i];
    const obs::TraceEvent& y = b.tracer_events[i];
    EXPECT_EQ(x.time_us, y.time_us) << "tracer event #" << i;
    ASSERT_EQ(x.type, y.type) << "tracer event #" << i;
    if (x.type != obs::EventType::kBusResolution) continue;
    EXPECT_EQ(x.bus.demand_tps, y.bus.demand_tps) << "tracer event #" << i;
    EXPECT_EQ(x.bus.granted_tps, y.bus.granted_tps) << "tracer event #" << i;
    EXPECT_EQ(x.bus.capacity_tps, y.bus.capacity_tps) << "tracer event #" << i;
    EXPECT_EQ(x.bus.utilization, y.bus.utilization) << "tracer event #" << i;
    EXPECT_EQ(x.bus.stretch, y.bus.stretch) << "tracer event #" << i;
    EXPECT_EQ(x.bus.agents, y.bus.agents) << "tracer event #" << i;
    EXPECT_EQ(x.bus.saturated, y.bus.saturated) << "tracer event #" << i;
  }
}

/// Runs `s` batched and per-tick under fresh schedulers from `make` and
/// expects bit-identical snapshots; returns the batched one.
template <typename MakeScheduler>
RunSnapshot expect_batching_exact(const RunSpec& s, MakeScheduler make) {
  const RunSnapshot batched = run(s, make(), 4096);
  const RunSnapshot stepped = run(s, make(), 1);
  EXPECT_EQ(stepped.batched_ticks, 0u);
  EXPECT_EQ(stepped.replay_resolves, 0u);
  expect_identical(batched, stepped);
  return batched;
}

std::unique_ptr<sim::Scheduler> pinned() {
  return std::make_unique<sim::PinnedScheduler>();
}

std::unique_ptr<sim::Scheduler> managed() {
  core::ManagedSchedulerConfig mcfg;
  mcfg.overhead_base_us = 300;
  mcfg.overhead_per_app_us = 50;
  return std::make_unique<core::ManagedScheduler>(mcfg);
}

std::unique_ptr<sim::Scheduler> linux_baseline() {
  return std::make_unique<linuxsched::LinuxScheduler>();
}

// The Fig.-1 contention set under a pinned scheduler with OS noise: the
// fast barrier sibling rides the barrier limit (frac < 1 inside batches),
// spinners expire their grace, noise windows open on every CPU.
TEST(Batching, PinnedNoiseContentionSetIsBitIdentical) {
  RunSpec s;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 2'000'000;  // 2 s simulated
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
  EXPECT_EQ(stepped.batched_ticks, 0u);
  expect_identical(batched, stepped);
}

// The CPU-manager path: sampling points, election boundaries and the
// overhead window all bound batches; manager-blocked threads accrue wait.
TEST(Batching, ManagedSchedulerIsBitIdentical) {
  RunSpec s;
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 3'000'000;
  const RunSnapshot batched = run(s, managed(), 4096);
  const RunSnapshot stepped = run(s, managed(), 1);
  EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
  expect_identical(batched, stepped);
}

// I/O jobs: issue points interrupt batches mid-tick, wake edges bound the
// horizon, DMA agents keep demanding while their threads block.
TEST(Batching, IoIssueAndWakeEdgesAreBitIdentical) {
  RunSpec s;
  JobSpec io_job;
  io_job.name = "io";
  io_job.nthreads = 2;
  io_job.work_us = 400'000.0;
  io_job.demand = std::make_shared<sim::SteadyDemand>(6.0);
  io_job.cache.cold_demand_boost = 0.0;
  io_job.cache.migration_sensitivity = 0.0;
  io_job.io.period_progress_us = 23'000.0;
  io_job.io.burst_us = 7'500.0;
  io_job.io.dma_tps = 9.0;
  JobSpec steady;
  steady.name = "bg";
  steady.nthreads = 1;
  steady.work_us = 500'000.0;
  steady.demand = std::make_shared<sim::SteadyDemand>(12.0);
  steady.cache.cold_demand_boost = 0.0;
  steady.cache.migration_sensitivity = 0.0;
  s.jobs = {io_job, steady};
  s.until = 1'500'000;
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, 0u);
  expect_identical(batched, stepped);
}

// Open-system arrivals land mid-run at times that would fall inside a batch
// if the horizon ignored them; completions of the finite jobs end batches.
TEST(Batching, ArrivalsMidBatchAreBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;  // long batches => arrivals must bound
  JobSpec base;
  base.name = "base";
  base.nthreads = 2;
  base.work_us = 900'000.0;
  base.barrier_interval_us = 3'000.0;
  base.demand = std::make_shared<workload::BurstyDemand>(8.0, 0.4, 90'000.0,
                                                         0x5eedULL);
  base.cache.cold_demand_boost = 0.0;
  base.cache.migration_sensitivity = 0.0;
  s.jobs = {base};
  JobSpec late = base;
  late.name = "late";
  late.nthreads = 1;
  late.work_us = 200'000.0;
  s.arrivals = {{137'000, late}, {512'000, late}};
  s.until = 2'000'000;
  const RunSnapshot batched = run(s, pinned(), 4096);
  const RunSnapshot stepped = run(s, pinned(), 1);
  EXPECT_GT(batched.batched_ticks, 0u);
  expect_identical(batched, stepped);
}

// Randomized sweep: heterogeneous mixes (bursty/phased demand, barriers,
// warmth-sensitive apps) across seeds, under both schedulers. Any divergence
// between the replay arithmetic and the full path shows up as a bitwise
// mismatch in some seed.
TEST(Batching, RandomizedMixesAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunSpec s;
    s.engine.seed = seed;
    const auto w =
        workload::random_mix(2, seed % 3, (seed + 1) % 2, s.machine.bus, seed);
    s.jobs = w.jobs;
    s.until = 1'200'000;
    {
      const RunSnapshot batched = run(s, pinned(), 4096);
      const RunSnapshot stepped = run(s, pinned(), 1);
      SCOPED_TRACE("pinned seed " + std::to_string(seed));
      expect_identical(batched, stepped);
    }
    {
      const RunSnapshot batched = run(s, managed(), 4096);
      const RunSnapshot stepped = run(s, managed(), 1);
      SCOPED_TRACE("managed seed " + std::to_string(seed));
      expect_identical(batched, stepped);
    }
  }
}

// The Linux 2.4 baseline on the paper's Fig. 2 sets at the default engine
// configuration (OS noise on, jittered slices): batches end at slice
// expiries, wakeups and epoch refills, and the scheduler charges the skipped
// ticks itself — including exhausted-but-kept tasks, whose negative
// counters must be charged one step at a time.
TEST(Batching, LinuxBaselineFig2SetsAreBitIdentical) {
  using Builder = workload::Workload (*)(const workload::AppProfile&,
                                         const sim::BusConfig&);
  const std::pair<const char*, Builder> sets[] = {
      {"2A", &workload::fig2_saturated},
      {"2B", &workload::fig2_idle_bus},
      {"2C", &workload::fig2_mixed}};
  for (const char* app : {"MG", "Raytrace", "LU-CB", "Volrend"}) {
    for (const auto& [label, build] : sets) {
      RunSpec s;
      s.jobs = build(workload::paper_application(app), s.machine.bus).jobs;
      s.until = 3'000'000;
      const RunSnapshot batched = run(s, linux_baseline(), 4096);
      const RunSnapshot stepped = run(s, linux_baseline(), 1);
      SCOPED_TRACE(std::string("Fig. ") + label + " " + app);
      EXPECT_GT(batched.batched_ticks, 0u) << "batching never engaged";
      EXPECT_EQ(stepped.batched_ticks, 0u);
      EXPECT_GT(batched.sched_epochs, 0u);
      expect_identical(batched, stepped);
    }
  }
}

// Open-system arrivals land inside what would otherwise be one long Linux
// batch (no OS noise); the newcomers get fresh slices at admission.
TEST(Batching, LinuxBaselineArrivalsMidBatchAreBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;
  JobSpec base;
  base.name = "base";
  base.nthreads = 4;
  base.work_us = 900'000.0;
  base.barrier_interval_us = 40'000.0;
  base.demand = std::make_shared<sim::SteadyDemand>(5.0);
  base.cache.cold_demand_boost = 0.0;
  base.cache.migration_sensitivity = 0.0;
  JobSpec solo = base;
  solo.name = "solo";
  solo.nthreads = 1;
  solo.barrier_interval_us = 0.0;
  s.jobs = {base, solo};
  JobSpec late = solo;
  late.name = "late";
  late.work_us = 200'000.0;
  s.arrivals = {{137'000, late}, {512'000, late}};
  s.until = 2'000'000;
  const RunSnapshot batched = run(s, linux_baseline(), 4096);
  const RunSnapshot stepped = run(s, linux_baseline(), 1);
  EXPECT_GT(batched.batched_ticks, 0u);
  expect_identical(batched, stepped);
}

// Randomized heterogeneous mixes under the Linux baseline, six seeds.
TEST(Batching, LinuxBaselineRandomizedMixesAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RunSpec s;
    s.engine.seed = seed;
    const auto w =
        workload::random_mix(2, seed % 3, (seed + 1) % 2, s.machine.bus, seed);
    s.jobs = w.jobs;
    s.until = 1'200'000;
    const RunSnapshot batched = run(s, linux_baseline(), 4096);
    const RunSnapshot stepped = run(s, linux_baseline(), 1);
    SCOPED_TRACE("linux seed " + std::to_string(seed));
    EXPECT_GT(batched.batched_ticks, 0u);
    expect_identical(batched, stepped);
  }
}

// A job of `nthreads` independent (barrier-free) threads with a cold cache
// that lifts demand and slows progress until warm.
JobSpec warming_job(const char* name, int nthreads,
                    std::shared_ptr<const sim::DemandModel> demand) {
  JobSpec j;
  j.name = name;
  j.nthreads = nthreads;
  j.work_us = 5'000'000.0;
  j.barrier_interval_us = 0.0;
  j.demand = std::move(demand);
  j.cache.cold_demand_boost = 1.5;
  j.cache.migration_sensitivity = 0.3;
  return j;
}

// Cold start: every thread begins at warmth 0, so for the first warmup_us
// (40 ticks) each runner's cold-cache demand boost and migration penalty
// change every tick. The horizon ends inside that ramp, so every batched
// tick re-derives a drifting demand and re-solves the bus.
TEST(Batching, ColdStartRampBatchesBitIdentically) {
  for (const char* app : {"LU-CB", "Water-nsqr"}) {
    RunSpec s;
    s.engine.os_noise_interval_us = 0;
    s.jobs = workload::fig1_with_bbma(workload::paper_application(app),
                                      s.machine.bus)
                 .jobs;
    s.until = 35 * s.engine.tick_us;
    ASSERT_LT(s.until, s.machine.cache.warmup_us);
    s.tracer = true;
    SCOPED_TRACE(app);
    const RunSnapshot batched = expect_batching_exact(s, pinned);
    EXPECT_GT(batched.batched_ticks, 0u) << "the warm-up ramp never batched";
    EXPECT_GT(batched.replay_resolves, 0u);
    EXPECT_EQ(batched.total_ticks, 35u);
  }
}

// Warmth climbs to its 1.0 cap inside one batch: the demand re-solves stop
// once it saturates, and the cap itself must match per-tick stepping.
TEST(Batching, WarmthCapInsideBatchIsBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;
  s.jobs = {warming_job("warm", 2, std::make_shared<sim::SteadyDemand>(9.0)),
            warming_job("warm2", 1, std::make_shared<sim::SteadyDemand>(4.0))};
  s.until = 150 * s.engine.tick_us;
  s.tracer = true;
  const RunSnapshot batched = expect_batching_exact(s, pinned);
  // One full tick, then a single batch through the ramp and the cap.
  EXPECT_EQ(batched.batches, 1u);
  EXPECT_EQ(batched.batched_ticks, batched.total_ticks - 1);
  EXPECT_GT(batched.replay_resolves, 0u);
  // The ramp re-solves each tick; the warm tail reuses the last solve.
  EXPECT_LT(batched.replay_resolves, batched.batched_ticks);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(batched.thread_doubles[t * kThreadDoubles + kWarmth], 1.0)
        << "thread " << t;
  }
}

// BurstyDemand cell boundaries and PhasedDemand high/low edges fall inside
// batches: each edge changes a demand, which the replay re-solves instead
// of ending the batch.
TEST(Batching, DemandModelEdgesInsideBatchAreBitIdentical) {
  RunSpec s;
  s.engine.os_noise_interval_us = 0;
  s.jobs = {warming_job("bursty", 2,
                        std::make_shared<workload::BurstyDemand>(
                            8.0, 0.4, 3'000.0, 0x5eedULL)),
            warming_job("phased", 1,
                        std::make_shared<workload::PhasedDemand>(
                            14.0, 2.0, 5'000.0, 0.3))};
  s.jobs[0].cache.cold_demand_boost = 0.0;
  s.jobs[0].cache.migration_sensitivity = 0.0;
  s.jobs[1].cache.cold_demand_boost = 0.0;
  s.until = 400 * s.engine.tick_us;
  s.tracer = true;
  const RunSnapshot batched = expect_batching_exact(s, pinned);
  EXPECT_EQ(batched.batches, 1u) << "a demand edge ended the batch";
  EXPECT_EQ(batched.batched_ticks, batched.total_ticks - 1);
  // Well over one edge per 10 ticks: 2 bursty threads cross a cell every
  // ~3 ticks, the phased thread a phase edge every ~2.5 ticks.
  EXPECT_GT(batched.replay_resolves, 40u);
}

// Hyper-threaded machine (4 cores x 2 contexts): a runner's SMT penalty
// depends on its sibling context's alpha, so a re-solve inside a batch must
// refresh it; the sibling context's runner also disturbs the shared cache.
TEST(Batching, SmtMixesAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunSpec s;
    s.machine.num_cpus = 8;
    s.machine.threads_per_core = 2;
    s.engine.seed = seed;
    s.jobs = workload::random_mix(3, 1 + seed % 2, 2, s.machine.bus, seed).jobs;
    s.until = 1'200'000;
    s.tracer = true;
    SCOPED_TRACE("smt seed " + std::to_string(seed));
    {
      SCOPED_TRACE("pinned");
      EXPECT_GT(expect_batching_exact(s, pinned).batched_ticks, 0u);
    }
    {
      SCOPED_TRACE("linux");
      EXPECT_GT(expect_batching_exact(s, linux_baseline).batched_ticks, 0u);
    }
    {
      SCOPED_TRACE("managed");
      EXPECT_GT(expect_batching_exact(s, managed).batched_ticks, 0u);
    }
  }
}

// A small max_batch_ticks still matches (batches are just shorter), and the
// tick observer disables batching outright.
TEST(Batching, ShortBatchesAndObserverForcePerTick) {
  RunSpec s;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), s.machine.bus);
  s.jobs = w.jobs;
  s.until = 500'000;
  const RunSnapshot b4096 = run(s, pinned(), 4096);
  const RunSnapshot b7 = run(s, pinned(), 7);
  expect_identical(b4096, b7);

  EngineConfig ecfg = s.engine;
  ecfg.trace = true;
  Engine eng(s.machine, ecfg, pinned());
  for (const auto& spec : s.jobs) eng.add_job(spec);
  std::uint64_t observed = 0;
  eng.set_tick_observer([&](const Engine&) { ++observed; });
  eng.run_until(s.until);
  EXPECT_EQ(eng.stats().batched_ticks, 0u);
  EXPECT_EQ(observed, eng.stats().total_ticks);
}

}  // namespace
}  // namespace bbsched
