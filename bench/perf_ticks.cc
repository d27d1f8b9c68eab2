// Performance tracking bench for the simulation hot path and the parallel
// experiment harness. Emits one JSON object on stdout:
//
//   {
//     "hardware_threads": ...,
//     "tick_bench": { ticks, wall_s, ticks_per_sec, allocs, allocs_per_tick,
//                     batched_ticks, batches, replay_resolves, batched_frac },
//     "tick_bench_traced": { ..., events, dropped, overhead_pct },
//     "tick_bench_managed": { ..., fault_overhead_pct },
//     "tick_bench_linux": { ... },
//     "tick_bench_warmup": { ... },
//     "sweep":      { seeds, runs, serial_wall_s, parallel_wall_s, workers,
//                     speedup, results_identical }
//   }
//
// Every tick_bench* section carries the fields up to replay_resolves (bus
// solves inside batches, EngineStats::replay_resolves); "..." marks them.
//
// * tick_bench drives a single engine for N ticks (barriered application +
//   two streaming microbenchmarks) and reports throughput plus heap
//   allocations per tick, counted by a global operator-new override. After
//   the workspace refactor the steady-state tick path performs no heap
//   allocation, and --smoke asserts it stays that way. The baseline run has
//   a *disabled* obs::Tracer attached, so the zero-alloc assertion also
//   covers the tracing-off hook; tick_bench_traced repeats the bench with
//   the tracer enabled (events land in the preallocated ring, so it must
//   stay allocation-free too) and reports the wall-clock overhead.
//   tick_bench_managed and tick_bench_linux drive the CPU-manager path and
//   the Linux 2.4 baseline (Fig. 2A set); tick_bench_warmup runs the Linux
//   baseline on the Fig. 2B set, whose slice switches keep runners in their
//   cache warm-up ramp, so its batches re-solve the bus as demand drifts.
//   --smoke asserts every tick bench stays allocation-free, and that the
//   Linux-baseline benches batch their quiet ticks.
// * sweep runs the same multi-seed improvement sweep twice — through the
//   serial reference path and through the ThreadPool-backed harness — and
//   reports both wall clocks. The two must produce bit-identical statistics
//   (also asserted under --smoke); the speedup tracks how well the harness
//   scales on the host. With >= 4 hardware threads expect >= 2x.
//
// Usage: perf_ticks [--ticks=N] [--seeds=N] [--workers=N] [--scale=X]
//                   [--smoke]
//   --smoke  tiny iteration counts + hard assertions (ctest label
//            perf_smoke runs this so the bench stays green under tier-1)
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "experiments/cli.h"
#include "experiments/parallel.h"
#include "experiments/runner.h"
#include "experiments/sweep.h"
#include "obs/tracer.h"
#include "runtime/thread_pool.h"
#include "sim/engine.h"
#include "workload/workload.h"

// ---- global allocation counter -------------------------------------------
// Replaces the default (unaligned) global new/delete with malloc/free plus a
// relaxed atomic count. Only the *difference* around a measured region is
// reported, so unrelated startup allocations don't pollute the numbers.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace bbsched;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct TickBench {
  std::uint64_t ticks = 0;
  double wall_s = 0.0;
  double ticks_per_sec = 0.0;
  std::uint64_t allocs = 0;
  double allocs_per_tick = 0.0;
  std::uint64_t batched_ticks = 0;  ///< ticks replayed by quantum batching
  std::uint64_t batches = 0;        ///< event-free batches entered
  std::uint64_t replay_resolves = 0;  ///< bus solves inside batches
  std::uint64_t events = 0;   ///< traced variant only
  std::uint64_t dropped = 0;  ///< traced variant only
};

/// Warms `engine` up, then times run_until over `ticks` more ticks.
TickBench measure_run(sim::Engine& engine, std::uint64_t ticks) {
  // Warm up: scratch buffers reach steady-state capacity, placements settle.
  for (int i = 0; i < 512; ++i) engine.step();
  // Also warm the batch-replay scratch (step() never batches): one short
  // run_until lets those vectors reach steady capacity before measuring.
  engine.run_until(engine.now() + 2048 * engine.config().tick_us);

  // Measured region drives run_until so quantum batching (DESIGN.md §11)
  // engages exactly as in real experiments. run_until stops early once every
  // finite job completes, so throughput is computed over the ticks the
  // engine actually executed (EngineStats::total_ticks delta), not the
  // requested horizon.
  const sim::SimTime until =
      engine.now() + ticks * engine.config().tick_us;
  const std::uint64_t ticks_before = engine.stats().total_ticks;
  const std::uint64_t batched_before = engine.stats().batched_ticks;
  const std::uint64_t batches_before = engine.stats().batches;
  const std::uint64_t resolves_before = engine.stats().replay_resolves;
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  engine.run_until(until);
  TickBench out;
  out.wall_s = seconds_since(start);
  out.ticks = engine.stats().total_ticks - ticks_before;
  out.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  out.ticks_per_sec =
      out.wall_s > 0.0 ? static_cast<double>(out.ticks) / out.wall_s : 0.0;
  out.allocs_per_tick =
      out.ticks > 0
          ? static_cast<double>(out.allocs) / static_cast<double>(out.ticks)
          : 0.0;
  out.batched_ticks = engine.stats().batched_ticks - batched_before;
  out.batches = engine.stats().batches - batches_before;
  out.replay_resolves = engine.stats().replay_resolves - resolves_before;
  return out;
}

/// Single-engine microbench: one barriered application + two BBMA streamers
/// (the Fig.-1 contention set) stepped `ticks` times with OS noise active,
/// so the barrier, saturation and noise paths all run. The tracer (disabled
/// or enabled) is attached before the measured region; its ring is
/// preallocated, so neither mode may allocate per tick.
TickBench bench_ticks(std::uint64_t ticks, bool trace_enabled) {
  experiments::ExperimentConfig cfg;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), cfg.machine.bus);
  sim::Engine engine(
      cfg.machine, cfg.engine,
      experiments::make_scheduler(experiments::SchedulerKind::kPinned, cfg));
  obs::Tracer tracer({.enabled = trace_enabled});
  engine.set_tracer(&tracer);
  for (const auto& spec : w.jobs) engine.add_job(spec);

  TickBench out = measure_run(engine, ticks);
  out.events = tracer.events().size();
  out.dropped = tracer.dropped();
  return out;
}

/// Managed-scheduler variant of the tick bench: the full CPU-manager path
/// (sampling, elections, staleness bookkeeping) with the fault-injection
/// hook compiled in. `faults_enabled` toggles injection; with it off the
/// hook must be zero-cost — no draw, no allocation — which --smoke asserts.
TickBench bench_managed_ticks(std::uint64_t ticks, bool faults_enabled) {
  experiments::ExperimentConfig cfg;
  cfg.managed.counter_faults.enabled = faults_enabled;
  cfg.managed.counter_faults.drop_prob = faults_enabled ? 0.10 : 0.0;
  cfg.managed.counter_faults.noise_prob = faults_enabled ? 0.10 : 0.0;
  const auto w = workload::fig1_with_bbma(
      workload::paper_application("Raytrace"), cfg.machine.bus);
  sim::Engine engine(cfg.machine, cfg.engine,
                     experiments::make_scheduler(
                         experiments::SchedulerKind::kManagedCustom, cfg));
  obs::Tracer tracer({.enabled = false});
  engine.set_tracer(&tracer);
  for (const auto& spec : w.jobs) engine.add_job(spec);

  return measure_run(engine, ticks);
}

/// Linux-baseline variant on the Fig. 2A set (two MG instances + four BBMA,
/// bus saturated) or, with `idle_bus`, the Fig. 2B set (four nBBMA instead).
/// Its quiet ticks batch between slice expiries and wakeups, including the
/// cache warm-up ramp after each switch; --smoke asserts that they do and
/// that the scheduler's catch-up stays allocation-free.
TickBench bench_linux_ticks(std::uint64_t ticks, bool idle_bus) {
  experiments::ExperimentConfig cfg;
  const auto& mg = workload::paper_application("MG");
  const auto w = idle_bus ? workload::fig2_idle_bus(mg, cfg.machine.bus)
                          : workload::fig2_saturated(mg, cfg.machine.bus);
  sim::Engine engine(
      cfg.machine, cfg.engine,
      experiments::make_scheduler(experiments::SchedulerKind::kLinux, cfg));
  obs::Tracer tracer({.enabled = false});
  engine.set_tracer(&tracer);
  for (const auto& spec : w.jobs) engine.add_job(spec);
  return measure_run(engine, ticks);
}

/// Prints one tick bench as a JSON section: the fields every tick bench
/// shares, then `extra` (preformatted `, "key": value` pairs, or "").
void print_tick_bench(const char* name, const TickBench& b,
                      const char* extra) {
  std::printf(
      "  \"%s\": {\"ticks\": %llu, \"wall_s\": %.6f, \"ticks_per_sec\": %.1f, "
      "\"allocs\": %llu, \"allocs_per_tick\": %.6f, \"batched_ticks\": %llu, "
      "\"batches\": %llu, \"replay_resolves\": %llu%s},\n",
      name, static_cast<unsigned long long>(b.ticks), b.wall_s,
      b.ticks_per_sec, static_cast<unsigned long long>(b.allocs),
      b.allocs_per_tick, static_cast<unsigned long long>(b.batched_ticks),
      static_cast<unsigned long long>(b.batches),
      static_cast<unsigned long long>(b.replay_resolves), extra);
}

struct SweepBench {
  int seeds = 0;
  int runs = 0;
  int workers = 0;
  double serial_wall_s = 0.0;
  double parallel_wall_s = 0.0;
  double speedup = 0.0;
  bool results_identical = false;
};

bool identical(const experiments::ImprovementStats& a,
               const experiments::ImprovementStats& b) {
  return a.n == b.n && a.mean_pct == b.mean_pct &&
         a.stddev_pct == b.stddev_pct && a.min_pct == b.min_pct &&
         a.max_pct == b.max_pct && a.ci95_pct == b.ci95_pct;
}

/// Multi-seed Fig.-2 improvement sweep, serial vs parallel wall clock.
SweepBench bench_sweep(int seeds, int workers, double time_scale) {
  experiments::ExperimentConfig cfg;
  cfg.time_scale = time_scale;
  const auto w = workload::fig2_mixed(
      workload::paper_application("Volrend"), cfg.machine.bus);

  SweepBench out;
  out.seeds = seeds;
  out.runs = 2 * seeds;

  const auto serial_start = Clock::now();
  const auto serial = experiments::sweep_improvement(
      w, experiments::SchedulerKind::kQuantaWindow,
      experiments::SchedulerKind::kLinux, cfg, seeds);
  out.serial_wall_s = seconds_since(serial_start);

  experiments::ParallelExecutor executor(workers);
  out.workers = executor.workers();
  const auto parallel_start = Clock::now();
  const auto parallel = experiments::parallel_sweep_improvement(
      w, experiments::SchedulerKind::kQuantaWindow,
      experiments::SchedulerKind::kLinux, cfg, seeds, executor);
  out.parallel_wall_s = seconds_since(parallel_start);

  out.speedup = out.parallel_wall_s > 0.0
                    ? out.serial_wall_s / out.parallel_wall_s
                    : 0.0;
  out.results_identical = identical(serial, parallel);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = experiments::parse_cli(argc, argv);
  std::uint64_t ticks = 200'000;
  int seeds = 6;
  bool smoke = false;
  double sweep_scale = opt.time_scale != 1.0 ? opt.time_scale : 0.1;
  int workers = opt.jobs;  // --workers=N is an alias for --jobs=N
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ticks=", 0) == 0) ticks = std::stoull(arg.substr(8));
    if (arg.rfind("--seeds=", 0) == 0) seeds = std::stoi(arg.substr(8));
    if (arg.rfind("--workers=", 0) == 0) workers = std::stoi(arg.substr(10));
    if (arg == "--smoke") smoke = true;
  }
  if (smoke) {
    ticks = 5'000;
    seeds = 2;
    sweep_scale = 0.03;
  }

  const TickBench tb = bench_ticks(ticks, /*trace_enabled=*/false);
  const TickBench tt = bench_ticks(ticks, /*trace_enabled=*/true);
  const TickBench tm = bench_managed_ticks(ticks, /*faults_enabled=*/false);
  const TickBench tf = bench_managed_ticks(ticks, /*faults_enabled=*/true);
  const TickBench tl = bench_linux_ticks(ticks, /*idle_bus=*/false);
  const TickBench tw = bench_linux_ticks(ticks, /*idle_bus=*/true);
  const SweepBench sb = bench_sweep(seeds, workers, sweep_scale);

  const double overhead_pct =
      tb.wall_s > 0.0 ? (tt.wall_s - tb.wall_s) / tb.wall_s * 100.0 : 0.0;
  const double fault_overhead_pct =
      tm.wall_s > 0.0 ? (tf.wall_s - tm.wall_s) / tm.wall_s * 100.0 : 0.0;

  char extra[160];
  std::printf("{\n  \"hardware_threads\": %d,\n",
              runtime::ThreadPool::hardware_workers());
  std::snprintf(extra, sizeof extra, ", \"batched_frac\": %.4f",
                tb.ticks > 0 ? static_cast<double>(tb.batched_ticks) /
                                   static_cast<double>(tb.ticks)
                             : 0.0);
  print_tick_bench("tick_bench", tb, extra);
  std::snprintf(extra, sizeof extra,
                ", \"events\": %llu, \"dropped\": %llu, "
                "\"overhead_pct\": %.2f",
                static_cast<unsigned long long>(tt.events),
                static_cast<unsigned long long>(tt.dropped), overhead_pct);
  print_tick_bench("tick_bench_traced", tt, extra);
  std::snprintf(extra, sizeof extra, ", \"fault_overhead_pct\": %.2f",
                fault_overhead_pct);
  print_tick_bench("tick_bench_managed", tm, extra);
  print_tick_bench("tick_bench_linux", tl, "");
  print_tick_bench("tick_bench_warmup", tw, "");
  std::printf(
      "  \"sweep\": {\"seeds\": %d, \"runs\": %d, \"serial_wall_s\": %.6f, "
      "\"parallel_wall_s\": %.6f, \"workers\": %d, \"speedup\": %.3f, "
      "\"results_identical\": %s}\n"
      "}\n",
      sb.seeds, sb.runs, sb.serial_wall_s, sb.parallel_wall_s, sb.workers,
      sb.speedup, sb.results_identical ? "true" : "false");

  if (smoke) {
    bool ok = true;
    const std::pair<const char*, const TickBench*> benches[] = {
        {"tick_bench", &tb},        {"tick_bench_traced", &tt},
        {"tick_bench_managed", &tm}, {"tick_bench_linux", &tl},
        {"tick_bench_warmup", &tw}};
    for (const auto& [name, b] : benches) {
      // Tracer rings and every scratch buffer are preallocated.
      if (b->allocs_per_tick > 0.01) {
        std::fprintf(stderr, "FAIL: %s allocates (%.4f allocs/tick, want ~0)\n",
                     name, b->allocs_per_tick);
        ok = false;
      }
    }
    if (tt.events == 0) {
      std::fprintf(stderr, "FAIL: traced tick bench recorded no events\n");
      ok = false;
    }
    for (const auto& [name, b] : {benches[0], benches[3], benches[4]}) {
      if (b->batched_ticks == 0) {
        std::fprintf(stderr,
                     "FAIL: quantum batching inactive in %s (0 of %llu ticks "
                     "batched)\n",
                     name, static_cast<unsigned long long>(b->ticks));
        ok = false;
      }
    }
    if (!sb.results_identical) {
      std::fprintf(stderr,
                   "FAIL: parallel sweep differs from serial reference\n");
      ok = false;
    }
    return ok ? 0 : 1;
  }
  return 0;
}
