#include "sim_sweep.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "core/managed_scheduler.h"
#include "sim/bus_model.h"
#include "workload/app_profile.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace ex = bbsched::experiments;
namespace sim = bbsched::sim;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

ex::SchedulerKind kind_of(int sched) {
  switch (sched) {
    case 1: return ex::SchedulerKind::kLatestQuantum;
    case 2: return ex::SchedulerKind::kQuantaWindow;
    default: return ex::SchedulerKind::kLinux;
  }
}

/// Layer that a scheduler kind's host time is charged to.
const char* layer_of(int sched) { return sched == 0 ? "linuxsched" : "core"; }

/// The decorator times one call in kSampleEvery, picked at random, so that
/// most calls pay no clock reads; each sampled time stands for kSampleEvery
/// calls. A power of two.
constexpr std::uint64_t kSampleEvery = 16;

/// The decorator's bookkeeping around one call: counts it and, when it is
/// sampled, adds its host time (less `bias_ns`, the clock's own share of an
/// empty measured interval) times kSampleEvery to `acc_ns` on destruction.
class CallTimer {
 public:
  CallTimer(double& acc_ns, std::uint64_t& calls, std::uint64_t& rng,
            double bias_ns)
      : acc_ns_(sampled(rng) ? &acc_ns : nullptr), bias_ns_(bias_ns) {
    ++calls;
    if (acc_ns_ != nullptr) t0_ = Clock::now();
  }
  ~CallTimer() {
    if (acc_ns_ != nullptr) {
      *acc_ns_ += (ns_since(t0_) - bias_ns_) * static_cast<double>(kSampleEvery);
    }
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  static bool sampled(std::uint64_t& rng) {
    rng ^= rng << 13;  // xorshift64
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return (rng & (kSampleEvery - 1)) == 0;
  }

  double* acc_ns_;
  double bias_ns_;
  Clock::time_point t0_;
};

/// Forwards every engine → scheduler call and estimates its host time.
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::Scheduler> inner, SchedLayer& out,
                 double clock_bias_ns)
      : inner_(std::move(inner)), out_(out), bias_ns_(clock_bias_ns) {}

  void start(sim::Machine& m, bbsched::trace::ScheduleTrace& t) override {
    const CallTimer timer(out_.start_ns, out_.calls, rng_, bias_ns_);
    inner_->start(m, t);
  }
  void tick(sim::Machine& m, sim::SimTime now,
            bbsched::trace::ScheduleTrace& t) override {
    ++out_.tick_calls;
    const CallTimer timer(out_.tick_ns, out_.calls, rng_, bias_ns_);
    inner_->tick(m, now, t);
  }
  [[nodiscard]] sim::SimTime quiescent_until(const sim::Machine& m,
                                             sim::SimTime now) const override {
    const CallTimer timer(out_.quiescent_ns, out_.calls, rng_, bias_ns_);
    return inner_->quiescent_until(m, now);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  [[nodiscard]] sim::Scheduler& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  SchedLayer& out_;
  double bias_ns_;
  mutable std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
};

/// The decorator's own cost, from its bookkeeping around an empty body:
/// the clock's share of a measured interval, and the host time per call
/// (sampled or not). Medians of 5 timings.
DecoratorCost measure_decorator_cost() {
  constexpr int kCalls = 20'000;
  std::vector<double> bias, per_call;
  for (int rep = 0; rep < 5; ++rep) {
    double acc = 0.0;
    for (int k = 0; k < kCalls / 8; ++k) {
      const auto t0 = Clock::now();
      acc += ns_since(t0);
    }
    bias.push_back(acc / (kCalls / 8));
  }
  const double bias_ns = median(bias);
  SchedLayer sink;
  std::uint64_t rng = 1;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kCalls; ++k) {
      const CallTimer timer(sink.tick_ns, sink.calls, rng, bias_ns);
    }
    per_call.push_back(ns_since(t0) / kCalls);
  }
  return {bias_ns, median(per_call)};
}

std::uint64_t elections_of(sim::Scheduler& s) {
  if (auto* timed = dynamic_cast<TimedScheduler*>(&s)) {
    return elections_of(timed->inner());
  }
  if (auto* managed = dynamic_cast<bbsched::core::ManagedScheduler*>(&s)) {
    return managed->elections();
  }
  return 0;
}

std::unique_ptr<sim::Engine> make_engine(const bbsched::workload::Workload& w,
                                         int sched,
                                         const ex::ExperimentConfig& cfg,
                                         SchedLayer* timed,
                                         double clock_bias_ns = 0.0) {
  auto scheduler = ex::make_scheduler(kind_of(sched), cfg);
  if (timed != nullptr) {
    scheduler = std::make_unique<TimedScheduler>(std::move(scheduler), *timed,
                                                 clock_bias_ns);
  }
  auto engine = std::make_unique<sim::Engine>(cfg.machine, cfg.engine,
                                              std::move(scheduler));
  for (const auto& spec : w.jobs) {
    sim::JobSpec scaled = spec;
    if (!scaled.infinite()) scaled.work_us *= cfg.time_scale;
    engine->add_job(scaled);
  }
  return engine;
}

SimRun harvest(sim::Engine& engine, const bbsched::workload::Workload& w,
               const std::string& app, int sched) {
  SimRun out;
  out.app = app;
  out.sched = sched;
  out.end_time_us = engine.now();
  out.stats = engine.stats();
  out.elections = elections_of(engine.scheduler());
  for (const auto& job : engine.machine().jobs()) {
    out.turnaround_us.push_back(
        job.completed ? static_cast<double>(job.turnaround_us()) : 0.0);
  }
  double sum = 0.0;
  for (std::size_t idx : w.measured) sum += out.turnaround_us[idx];
  out.measured_mean_us =
      w.measured.empty() ? 0.0 : sum / static_cast<double>(w.measured.size());
  return out;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_stats(const bbsched::stats::OnlineStats& a,
                const bbsched::stats::OnlineStats& b) {
  return a.count() == b.count() && same_bits(a.mean(), b.mean()) &&
         same_bits(a.variance(), b.variance());
}

}  // namespace

bool identical(const SimRun& a, const SimRun& b) {
  if (a.app != b.app || a.sched != b.sched || a.end_time_us != b.end_time_us ||
      a.elections != b.elections ||
      a.turnaround_us.size() != b.turnaround_us.size()) {
    return false;
  }
  const auto& s = a.stats;
  const auto& t = b.stats;
  if (s.total_ticks != t.total_ticks || s.saturated_ticks != t.saturated_ticks ||
      !same_bits(s.total_granted_transactions, t.total_granted_transactions) ||
      !same_stats(s.bus_utilization, t.bus_utilization) ||
      !same_stats(s.stretch, t.stretch)) {
    return false;
  }
  for (std::size_t i = 0; i < a.turnaround_us.size(); ++i) {
    if (!same_bits(a.turnaround_us[i], b.turnaround_us[i])) return false;
  }
  return true;
}

SimSweep::SimSweep(ex::Fig2Set set, std::uint64_t seed, double time_scale)
    : set_(set), apps_(bbsched::workload::paper_applications()) {
  // Seed 0 reproduces the repository's default Fig. 2 runs.
  cfg_.engine.seed += seed;
  cfg_.linux_sched.seed += seed;
  cfg_.time_scale = time_scale;
}

bbsched::workload::Workload SimSweep::build_workload(std::size_t app) const {
  return ex::make_fig2_workload(set_, apps_[app], cfg_.machine.bus);
}

SweepResult SimSweep::run(SpanLog& spans) const {
  SweepResult r;
  const bool timed = spans.enabled();
  if (timed) {
    const double span_cal0 = spans.now_us();
    r.decorator = measure_decorator_cost();
    const double cal_us = spans.now_us() - span_cal0;
    spans.add("trace.calibration", "trace", 0, span_cal0, cal_us, cal_us);
  }

  // Set-up is built kSetupRepeats times and the median reported: one build
  // takes about a millisecond, too short to time once. The last build runs.
  constexpr int kSetupRepeats = 11;
  const double span_setup0 = spans.now_us();
  std::vector<bbsched::workload::Workload> workloads;
  std::vector<std::unique_ptr<sim::Engine>> engines;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = now_s();
    workloads.clear();
    engines.clear();
    for (std::size_t a = 0; a < apps_.size(); ++a) {
      workloads.push_back(build_workload(a));
      for (int s = 0; s < kNumScheds; ++s) {
        engines.push_back(make_engine(workloads.back(), s, cfg_,
                                      timed ? &r.layers[s] : nullptr,
                                      r.decorator.clock_bias_ns));
      }
    }
    setup_s.push_back(now_s() - t0);
  }
  r.setup_s = median(setup_s);
  const double setup_us = spans.now_us() - span_setup0;
  spans.add("workload.build", "workload", 0, span_setup0, setup_us, setup_us,
            "\"simulations\": " + std::to_string(engines.size()) +
                ", \"builds\": " + std::to_string(kSetupRepeats));

  for (std::size_t i = 0; i < engines.size(); ++i) {
    const std::size_t a = i / kNumScheds;
    const int s = static_cast<int>(i % kNumScheds);
    const double sched_before = r.layers[s].scheduler_ns();
    const std::uint64_t calls_before = r.layers[s].calls;
    const double span_run0 = spans.now_us();
    const auto t0 = Clock::now();
    (void)engines[i]->run();
    const double run_ns = ns_since(t0);
    r.run_s += run_ns * 1e-9;
    r.run_s_each.push_back(run_ns * 1e-9);
    r.runs.push_back(harvest(*engines[i], workloads[a], apps_[a].name, s));
    r.total_ticks += r.runs.back().stats.total_ticks;
    engines[i].reset();
    if (!timed) continue;

    // One span per simulation; the scheduler's share and the decorator's
    // estimated cost are aggregate children (per-call spans would
    // outnumber the ticks).
    SchedLayer& layer = r.layers[s];
    const double decorator_ns =
        static_cast<double>(layer.calls - calls_before) * r.decorator.call_ns;
    layer.run_ns += run_ns;
    layer.decorator_ns += decorator_ns;
    const double sched_us = (layer.scheduler_ns() - sched_before) / 1e3;
    const double decorator_us = decorator_ns / 1e3;
    const double run_us = run_ns / 1e3;
    const std::string label = apps_[a].name + "/" + kSchedNames[s];
    spans.add("sim.run " + label, "sim", 0, span_run0, run_us,
              run_us - sched_us - decorator_us,
              "\"ticks\": " + std::to_string(r.runs.back().stats.total_ticks));
    spans.add(std::string(layer_of(s)) + ".scheduler " + label, layer_of(s), 0,
              span_run0, sched_us, sched_us,
              "\"aggregate\": true, \"calls\": " +
                  std::to_string(layer.calls - calls_before));
    spans.add("trace.decorator " + label, "trace", 0, span_run0 + sched_us,
              decorator_us, decorator_us, "\"aggregate\": true");
    const double harvest_us = spans.now_us() - span_run0 - run_us;
    spans.add("harvest " + label, "perfbench", 0, span_run0 + run_us,
              harvest_us, harvest_us);
  }
  return r;
}

std::vector<SimRun> SimSweep::run_unbatched(std::size_t app) const {
  ex::ExperimentConfig cfg = cfg_;
  cfg.engine.max_batch_ticks = 1;
  const auto w = build_workload(app);
  std::vector<SimRun> out;
  for (int s = 1; s < kNumScheds; ++s) {
    auto engine = make_engine(w, s, cfg, nullptr);
    (void)engine->run();
    out.push_back(harvest(*engine, w, apps_[app].name, s));
  }
  return out;
}

std::vector<std::string> SimSweep::check(const SweepResult& result,
                                         std::size_t index) const {
  std::vector<std::string> errors;
  const SimRun& run = result.runs[index];
  const std::size_t a = index / kNumScheds;
  const auto w = build_workload(a);

  std::size_t finite_jobs = 0;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    if (!w.jobs[j].infinite()) ++finite_jobs;
  }
  for (std::size_t idx : w.measured) {
    const double work = w.jobs[idx].work_us * cfg_.time_scale;
    if (run.turnaround_us[idx] <= 0.0) {
      errors.push_back("measured job " + std::to_string(idx) +
                       " did not complete");
    } else if (run.turnaround_us[idx] < work) {
      errors.push_back("turnaround of job " + std::to_string(idx) +
                       " is below its work");
    }
  }
  const double capacity = cfg_.machine.bus.capacity_tps *
                          static_cast<double>(run.end_time_us);
  if (run.stats.total_granted_transactions > capacity * (1.0 + 1e-9)) {
    errors.push_back("granted transactions exceed capacity x time");
  }
  if (run.sched != 0) {
    // One election per quantum boundary, plus at most one re-election per
    // job completion (each restarts the quantum).
    const double expected = static_cast<double>(run.end_time_us) /
                            static_cast<double>(cfg_.managed.manager.quantum_us);
    if (std::fabs(static_cast<double>(run.elections) - expected) >
        static_cast<double>(finite_jobs) + 1.0) {
      errors.push_back("elections " + std::to_string(run.elections) +
                       " do not match simulated time / quantum");
    }
    // The paper's Fig. 2 claim, over the set: the policy's mean turnaround
    // of the measured applications is below Linux's.
    if (!(mean_turnaround_s(result, run.sched) <
          mean_turnaround_s(result, 0))) {
      errors.push_back("the policy's mean turnaround is not below Linux's");
    }
  }
  return errors;
}

double SimSweep::mean_turnaround_s(const SweepResult& result, int sched) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& run : result.runs) {
    if (run.sched != sched) continue;
    sum += run.measured_mean_us;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n) / 1e6;
}

BusTiming SimSweep::time_bus_resolve() const {
  const sim::BusModel bus(cfg_.machine.bus);
  const int cpus = cfg_.machine.num_cpus;
  std::vector<std::vector<double>> mixes[2];  // [saturated] → demands,weights
  for (std::size_t a = 0; a < apps_.size(); ++a) {
    const auto w = build_workload(a);
    std::vector<double> demand;
    std::vector<double> weight;
    for (const auto& spec : w.jobs) {
      for (int t = 0; t < spec.nthreads; ++t) {
        demand.push_back(spec.demand->rate(t, 0.0));
        weight.push_back(spec.bus_priority);
      }
    }
    const auto nthreads = static_cast<unsigned>(demand.size());
    for (unsigned mask = 0; mask < (1u << nthreads); ++mask) {
      if (__builtin_popcount(mask) != cpus) continue;
      std::vector<double> mix;  // demands then weights
      for (unsigned t = 0; t < nthreads; ++t) {
        if ((mask >> t) & 1u) mix.push_back(demand[t]);
      }
      for (unsigned t = 0; t < nthreads; ++t) {
        if ((mask >> t) & 1u) mix.push_back(weight[t]);
      }
      const std::span<const double> all(mix);
      const bool saturated =
          bus.resolve(all.first(static_cast<std::size_t>(cpus)),
                      all.last(static_cast<std::size_t>(cpus)))
              .saturated;
      mixes[saturated ? 1 : 0].push_back(std::move(mix));
    }
  }

  BusTiming out;
  sim::BusWorkspace ws;
  double sink = 0.0;
  for (int sat = 0; sat < 2; ++sat) {
    if (mixes[sat].empty()) continue;
    constexpr std::size_t kTarget = 200'000;  // resolves per timing
    const std::size_t reps = kTarget / mixes[sat].size() + 1;
    std::vector<double> samples;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      for (std::size_t k = 0; k < reps; ++k) {
        for (const auto& mix : mixes[sat]) {
          const std::span<const double> all(mix);
          sink += bus.resolve(all.first(static_cast<std::size_t>(cpus)),
                              all.last(static_cast<std::size_t>(cpus)), ws)
                      .total_granted;
        }
      }
      samples.push_back(ns_since(t0) /
                        static_cast<double>(reps * mixes[sat].size()));
    }
    (sat == 1 ? out.saturated_ns : out.unsaturated_ns) = median(samples);
  }
  if (sink < 0.0) out.saturated_ns = -1.0;  // keeps the resolves observable
  return out;
}

}  // namespace perfbench
