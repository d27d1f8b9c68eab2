#include "experiments/opt_solve.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace bbsched::experiments {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cost of running one gang (bitmask of app indices) to completion under
/// the analytic contention model: all member threads start together, the
/// bus stretch is re-resolved every time a member finishes.
struct GangCost {
  double span_us = 0.0;            ///< time until the last member finishes
  double sum_completion_us = 0.0;  ///< sum of member completion times
};

GangCost gang_cost(const OptInstance& inst, unsigned mask) {
  const sim::BusModel model(inst.bus);
  std::vector<int> members;
  for (std::size_t i = 0; i < inst.apps.size(); ++i) {
    if ((mask >> i) & 1u) members.push_back(static_cast<int>(i));
  }
  std::vector<double> remaining(members.size());
  std::vector<char> done(members.size(), 0);
  for (std::size_t m = 0; m < members.size(); ++m) {
    remaining[m] = inst.apps[static_cast<std::size_t>(members[m])].work_us;
  }

  GangCost out;
  std::vector<double> demands;
  std::vector<double> weights;
  std::size_t active = members.size();
  double t = 0.0;
  while (active > 0) {
    demands.clear();
    weights.clear();
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (done[m]) continue;
      const OptApp& a = inst.apps[static_cast<std::size_t>(members[m])];
      for (int k = 0; k < a.nthreads; ++k) {
        demands.push_back(a.demand_tps);
        weights.push_back(a.weight);
      }
    }
    const sim::BusResolution res = model.resolve(demands, weights);

    // All threads of one app share demand and weight, hence slowdown; read
    // the first thread's. Find the next completion and advance to it.
    double dt = kInf;
    std::size_t cursor = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (done[m]) continue;
      const OptApp& a = inst.apps[static_cast<std::size_t>(members[m])];
      const double slowdown = res.slowdown[cursor];
      cursor += static_cast<std::size_t>(a.nthreads);
      dt = std::min(dt, remaining[m] * slowdown);
    }
    assert(std::isfinite(dt));
    t += dt;
    cursor = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (done[m]) continue;
      const OptApp& a = inst.apps[static_cast<std::size_t>(members[m])];
      const double slowdown = res.slowdown[cursor];
      cursor += static_cast<std::size_t>(a.nthreads);
      remaining[m] -= dt / slowdown;
      if (remaining[m] <= 1e-9) {
        done[m] = 1;
        --active;
        out.sum_completion_us += t;
      }
    }
  }
  out.span_us = t;
  return out;
}

/// Value of a full batch sequence by linear replay (shared by the DP's
/// reconstruction and the brute-force enumerator).
void evaluate_sequence(const OptInstance& inst,
                       const std::vector<unsigned>& batches,
                       OptSchedule& out) {
  double t = 0.0;
  double sum_completion = 0.0;
  out.batches.clear();
  for (unsigned mask : batches) {
    const GangCost c = gang_cost(inst, mask);
    sum_completion +=
        c.sum_completion_us +
        t * static_cast<double>(std::popcount(mask));
    t += c.span_us;
    std::vector<int> ids;
    for (std::size_t i = 0; i < inst.apps.size(); ++i) {
      if ((mask >> i) & 1u) ids.push_back(static_cast<int>(i));
    }
    out.batches.push_back(std::move(ids));
  }
  out.makespan_us = t;
  out.mean_turnaround_us =
      inst.apps.empty()
          ? 0.0
          : sum_completion / static_cast<double>(inst.apps.size());
}

}  // namespace

OptInstance make_instance(const workload::Workload& workload,
                          const sim::MachineConfig& machine,
                          double time_scale) {
  OptInstance inst;
  inst.nprocs = machine.num_cpus;
  inst.bus = machine.bus;

  std::vector<std::size_t> indices = workload.measured;
  if (indices.empty()) {
    for (std::size_t i = 0; i < workload.jobs.size(); ++i) indices.push_back(i);
  }
  for (std::size_t idx : indices) {
    const sim::JobSpec& spec = workload.jobs[idx];
    if (spec.infinite()) continue;  // background microbenchmarks
    OptApp app;
    app.name = spec.name;
    app.nthreads = spec.nthreads;
    app.work_us = spec.work_us * time_scale;
    app.weight = spec.bus_priority;
    // Only a provably steady demand contributes to the bus bound; anything
    // else falls back to 0 (weaker but still certified).
    if (spec.demand != nullptr && spec.demand->steady()) {
      app.demand_tps = spec.demand->rate(0, 0.0);
    }
    inst.apps.push_back(std::move(app));
  }
  return inst;
}

OptBounds certified_bounds(const OptInstance& inst) {
  OptBounds out;
  const std::size_t n = inst.apps.size();
  if (n == 0) return out;
  const double P = static_cast<double>(inst.nprocs);
  const double C = inst.bus.capacity_tps;

  std::vector<double> work(n);       // per-thread progress each app needs
  std::vector<double> proc_load(n);  // processor-µs each app needs
  std::vector<double> bus_load(n);   // transactions each app must be granted
  for (std::size_t i = 0; i < n; ++i) {
    const OptApp& a = inst.apps[i];
    work[i] = a.work_us;
    proc_load[i] = a.work_us * static_cast<double>(a.nthreads);
    bus_load[i] = a.work_us * a.demand_tps * static_cast<double>(a.nthreads);
  }
  const double total_proc = std::accumulate(proc_load.begin(),
                                            proc_load.end(), 0.0);
  const double total_bus = std::accumulate(bus_load.begin(), bus_load.end(),
                                           0.0);
  out.makespan_lb_us = *std::max_element(work.begin(), work.end());
  if (P > 0.0) out.makespan_lb_us = std::max(out.makespan_lb_us,
                                             total_proc / P);
  if (C > 0.0) out.makespan_lb_us = std::max(out.makespan_lb_us,
                                             total_bus / C);

  // Order statistics: among any schedule's first j finishers, total
  // processor work is at least the sum of the j smallest processor loads
  // (same for bus transactions), and the largest per-thread work among
  // them is at least the j-th smallest work. Each gives a floor on the
  // j-th completion time; summing the floors bounds the mean.
  std::sort(work.begin(), work.end());
  std::sort(proc_load.begin(), proc_load.end());
  std::sort(bus_load.begin(), bus_load.end());
  double sum = 0.0;
  double proc_prefix = 0.0;
  double bus_prefix = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    proc_prefix += proc_load[j];
    bus_prefix += bus_load[j];
    double cj = work[j];
    if (P > 0.0) cj = std::max(cj, proc_prefix / P);
    if (C > 0.0) cj = std::max(cj, bus_prefix / C);
    sum += cj;
  }
  out.mean_turnaround_lb_us = sum / static_cast<double>(n);
  return out;
}

OptSchedule solve_batches(const OptInstance& inst, OptObjective objective) {
  OptSchedule out;
  const std::size_t n = inst.apps.size();
  if (n == 0) return out;
  assert(n <= 16 && "subset DP is exponential; split the instance");
  for (const OptApp& a : inst.apps) {
    assert(a.nthreads <= inst.nprocs && "app cannot run on this machine");
    (void)a;
  }

  const unsigned full = (1u << n) - 1u;
  std::vector<int> threads(full + 1, 0);
  for (unsigned mask = 1; mask <= full; ++mask) {
    const unsigned low = mask & (mask - 1);
    const int bit = std::countr_zero(mask);
    threads[mask] =
        threads[low] + inst.apps[static_cast<std::size_t>(bit)].nthreads;
  }

  // Gang costs for every feasible (co-runnable) subset, computed once.
  std::vector<GangCost> cost(full + 1);
  std::vector<char> feasible(full + 1, 0);
  for (unsigned mask = 1; mask <= full; ++mask) {
    if (threads[mask] <= inst.nprocs) {
      feasible[mask] = 1;
      cost[mask] = gang_cost(inst, mask);
    }
  }

  std::vector<double> f(full + 1, kInf);
  std::vector<unsigned> choice(full + 1, 0);
  f[0] = 0.0;
  for (unsigned s = 1; s <= full; ++s) {
    // Enumerate non-empty submasks g of s as the *first* batch of s.
    for (unsigned g = s; g != 0; g = (g - 1) & s) {
      if (!feasible[g]) continue;
      const double rest = f[s ^ g];
      if (rest == kInf) continue;
      double value = 0.0;
      if (objective == OptObjective::kMakespan) {
        value = cost[g].span_us + rest;
      } else {
        // Every app outside g waits out g's span before its own clock in
        // the subproblem starts.
        value = cost[g].sum_completion_us +
                cost[g].span_us *
                    static_cast<double>(std::popcount(s ^ g)) +
                rest;
      }
      if (value < f[s]) {
        f[s] = value;
        choice[s] = g;
      }
    }
  }
  assert(f[full] != kInf && "no feasible batch partition");

  std::vector<unsigned> batches;
  for (unsigned s = full; s != 0; s ^= choice[s]) {
    batches.push_back(choice[s]);
  }
  evaluate_sequence(inst, batches, out);
  return out;
}

OptSchedule brute_force(const OptInstance& inst, OptObjective objective) {
  OptSchedule out;
  const std::size_t n = inst.apps.size();
  if (n == 0) return out;

  const unsigned full = (1u << n) - 1u;
  std::vector<unsigned> current;
  std::vector<unsigned> best_seq;
  double best_value = kInf;
  OptSchedule scratch;

  // Depth-first over ordered batch sequences; every complete sequence is
  // evaluated by linear replay (deliberately not the DP recurrence, so the
  // two implementations cross-check each other).
  auto recurse = [&](auto&& self, unsigned remaining) -> void {
    if (remaining == 0) {
      evaluate_sequence(inst, current, scratch);
      const double value = objective == OptObjective::kMakespan
                               ? scratch.makespan_us
                               : scratch.mean_turnaround_us;
      if (value < best_value) {
        best_value = value;
        best_seq = current;
      }
      return;
    }
    for (unsigned g = remaining; g != 0; g = (g - 1) & remaining) {
      int nthreads = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if ((g >> i) & 1u) nthreads += inst.apps[i].nthreads;
      }
      if (nthreads > inst.nprocs) continue;
      current.push_back(g);
      self(self, remaining ^ g);
      current.pop_back();
    }
  };
  recurse(recurse, full);
  assert(best_value != kInf && "no feasible batch partition");
  evaluate_sequence(inst, best_seq, out);
  return out;
}

double regret_pct(double measured_us, double bound_us) {
  if (bound_us <= 0.0) return 0.0;
  return (measured_us - bound_us) / bound_us * 100.0;
}

}  // namespace bbsched::experiments
