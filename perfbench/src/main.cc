// perfbench: the bbsched end-to-end benchmark program.
//
// One workload per invocation. A workload is one paper Fig. 2 set, run two
// ways in every round: simulated (11 applications x {Linux 2.4, latest,
// window} = 33 simulations, serially) and live (a native ManagerServer
// scheduling forked clients at the set's bus rates). Rounds repeat until
// --seconds have passed; end-to-end metrics are medians over rounds.
// --trace 1 instead runs one untraced and one traced round and reports
// per-layer metrics, a Chrome trace and a self-time table.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//        perfbench --selftest [--seed N]
// Traces, layer tables and the manager socket go to .bench_out/ under the
// working directory.
// The last stdout line is the result as one JSON object. Exit status: 0 when
// every check passed, 1 when a check failed, 2 on a usage error.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "workload/app_profile.h"

#include "common.h"
#include "live_gang.h"
#include "sim_sweep.h"
#include "spans.h"

namespace perfbench {
namespace {

namespace ex = bbsched::experiments;

/// Output directory for traces, layer tables and the manager socket.
constexpr const char* kOutDir = ".bench_out";

/// Layers that are repository modules (the others are the benchmark's own).
bool is_repository_layer(const std::string& layer) {
  for (const char* module :
       {"sim", "linuxsched", "core", "experiments", "workload", "runtime"}) {
    if (layer == module) return true;
  }
  return false;
}

/// The application whose threads the live clients run as: MG, one of the
/// paper's four high-bandwidth codes. Two MG threads fit the bus together;
/// an MG thread beside a BBMA does not.
constexpr const char* kGangApp = "MG";

struct WorkloadDef {
  const char* name;
  ex::Fig2Set set;
  /// The set's microbenchmark and its measured rate (trans/µs, §3, as
  /// app_profile.h gives them: BBMA 23.6, nBBMA 0.0037).
  const char* micro;
  double micro_tps;
};

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"fig2-saturated", ex::Fig2Set::kSaturated, "BBMA", 23.6},
      {"fig2-idle-bus", ex::Fig2Set::kIdleBus, "nBBMA", 0.0037},
  };
  return defs;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 50;
  bool trace = false;
  bool selftest = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds N] [--trace 0|1]\n"
               "       perfbench --selftest [--seed N]\n",
               msg.c_str());
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t max) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    usage_error("malformed number for " + flag + ": '" + text + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || v > max) {
    usage_error("number out of range for " + flag + ": " + text);
  }
  return v;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); arg.rfind("--", 0) == 0 &&
                                       eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto take_value = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = take_value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_uint(arg, take_value(), UINT64_MAX);
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<int>(parse_uint(arg, take_value(), 3600));
    } else if (arg == "--trace") {
      opt.trace = parse_uint(arg, take_value(), 1) == 1;
    } else if (arg == "--selftest" && !has_value) {
      opt.selftest = true;
    } else {
      usage_error("unknown argument '" + std::string(argv[i]) + "'");
    }
  }
  if (!opt.selftest && !have_workload) usage_error("--workload is required");
  if (have_workload) {
    const auto& defs = workloads();
    if (std::none_of(defs.begin(), defs.end(), [&](const WorkloadDef& d) {
          return opt.workload == d.name;
        })) {
      usage_error("unknown workload '" + opt.workload + "'");
    }
  }
  return opt;
}

/// How much work a round does.
struct Scale {
  double time_scale = 1.0;     ///< simulated job length (1 = the paper's)
  double session_s = 1.0;      ///< live gang window
  int sessions_per_round = 2;  ///< live gang sessions after each sweep
};

struct Outcome {
  bool correct = true;
  Ops ops;
  MetricList metrics;
};

/// Counts each simulation of a sweep as one operation, with its checks;
/// `reference` (if any) is a sweep whose results must be bit-identical.
void check_sweep(const SimSweep& sweep, const SweepResult& r,
                 const SweepResult* reference, Ops& ops) {
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    auto errors = sweep.check(r, i);
    if (reference != nullptr) {
      const SimRun& a = r.runs[i];
      const SimRun& b = reference->runs[i];
      if (!identical(a, b) || a.stats.batches != b.stats.batches ||
          a.stats.batched_ticks != b.stats.batched_ticks) {
        errors.push_back("results differ from the reference sweep");
      }
    }
    ops.record("simulation " + r.runs[i].app + "/" +
                   kSchedNames[r.runs[i].sched],
               errors);
  }
}

/// One application's managed runs again with batching off (application
/// `pick` mod 11); they must match the batched runs bit for bit.
void check_batching(const SimSweep& sweep, const SweepResult& r,
                    std::uint64_t pick, Ops& ops) {
  const std::size_t app = pick % sweep.num_apps();
  for (const SimRun& unbatched : sweep.run_unbatched(app)) {
    const SimRun& batched =
        r.runs[app * kNumScheds + static_cast<std::size_t>(unbatched.sched)];
    std::vector<std::string> errors;
    if (!identical(unbatched, batched)) {
      errors.push_back("per-tick stepping differs from the batched run");
    }
    if (unbatched.stats.batched_ticks != 0) {
      errors.push_back("max_batch_ticks = 1 still batched");
    }
    ops.record("unbatched rerun " + unbatched.app + "/" +
                   kSchedNames[unbatched.sched],
               errors);
  }
}

/// Live clients at the set's own rates: threads of one application
/// instance (each at half the profile's standalone rate, which is the
/// 2-thread run's total) and the set's microbenchmark.
///
/// A session runs one of each on the gang's 2 processors, so the manager
/// elects and samples every quantum but never parks anyone: with parks and
/// resumes, the signal gate loses one now and then under host stalls (see
/// README), which would fail sessions at random.
GangConfig gang_config(const WorkloadDef& def, std::uint64_t seed,
                       const Scale& scale) {
  const auto& app = bbsched::workload::paper_application(kGangApp);
  const GangClient app_thread{app.name + " thread",
                              app.standalone_rate_tps / 2.0};
  const GangClient micro{def.micro, def.micro_tps};
  GangConfig cfg;
  cfg.clients = {app_thread, micro};
  std::mt19937_64 rng(seed);
  std::shuffle(cfg.clients.begin(), cfg.clients.end(), rng);  // connect order
  cfg.session_s = scale.session_s;
  cfg.socket_path =
      std::string(kOutDir) + "/gang-" + std::to_string(::getpid()) + ".sock";
  return cfg;
}

void add_gang_session(const GangSession& g, std::vector<double>& mgr_cpu,
                    std::vector<double>& work, std::vector<double>& eps) {
  mgr_cpu.push_back(g.elections > 0 ? g.manager_cpu_s * 1e6 /
                                          static_cast<double>(g.elections)
                                    : 0.0);
  work.push_back(g.window_s > 0 ? static_cast<double>(g.iterations) /
                                      g.window_s
                                : 0.0);
  eps.push_back(g.window_s > 0 ? static_cast<double>(g.elections) / g.window_s
                               : 0.0);
}

Outcome run_end_to_end(const WorkloadDef& def, const Options& opt,
                       const Scale& scale) {
  Outcome out;
  const SimSweep sweep(def.set, opt.seed, scale.time_scale);
  const GangConfig gang = gang_config(def, opt.seed, scale);
  SpanLog off(false);

  // Every round runs the same operations: 33 simulations, 2 unbatched
  // reruns and the client sessions.
  std::vector<double> setup, mgr_cpu, work, eps;
  std::vector<std::vector<double>> sim_s;  // [simulation][round]
  SweepResult first;
  const double t_start = now_s();
  int rounds = 0;
  do {
    SweepResult r = sweep.run(off);
    check_sweep(sweep, r, rounds > 0 ? &first : nullptr, out.ops);
    check_batching(sweep, r, opt.seed + static_cast<std::uint64_t>(rounds),
                   out.ops);
    setup.push_back(r.setup_s);
    sim_s.resize(r.run_s_each.size());
    for (std::size_t i = 0; i < r.run_s_each.size(); ++i) {
      sim_s[i].push_back(r.run_s_each[i]);
    }
    std::fprintf(stdout, "round %d: setup %.4f s, sweep %.4f s, %.0f ticks/s\n",
                 rounds, r.setup_s, r.run_s,
                 static_cast<double>(r.total_ticks) / r.run_s);
    for (int k = 0; k < scale.sessions_per_round; ++k) {
      const GangSession g = run_gang_session(gang, out.ops, off);
      add_gang_session(g, mgr_cpu, work, eps);
      std::fprintf(stdout,
                   "  session: setup %.4f s, manager %.2f us/quantum, %.0f "
                   "client iterations/s, %.2f elections/s, %.3f processors "
                   "running clients, estimates %.3f-%.3f x own rate\n",
                   g.setup_s, mgr_cpu.back(), work.back(), eps.back(),
                   g.running_s / g.window_s,
                   percentile(g.estimate_ratio, 0),
                   percentile(g.estimate_ratio, 100));
    }
    if (rounds++ == 0) first = std::move(r);
  } while (now_s() - t_start < opt.seconds);
  std::fprintf(stdout, "rounds %d in %.3f s\n", rounds, now_s() - t_start);

  // The sweep's time is the sum of each simulation's median over rounds:
  // a burst of host load then costs only the simulations it overlapped.
  double sweep_s = 0.0;
  for (const auto& times : sim_s) sweep_s += median(times);

  out.metrics = {
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"sweep_s", sweep_s, "s"},
      {"sim_ticks_per_s", static_cast<double>(first.total_ticks) / sweep_s,
       "1/s"},
      {"turnaround_latest_s", SimSweep::mean_turnaround_s(first, 1), "s"},
      {"turnaround_window_s", SimSweep::mean_turnaround_s(first, 2), "s"},
      {"manager_cpu_us_per_quantum", median(mgr_cpu), "us"},
      {"elections_per_s", median(eps), "1/s"},
  };
  return out;
}

Outcome run_traced(const WorkloadDef& def, const Options& opt,
                   const Scale& scale) {
  Outcome out;
  const SimSweep sweep(def.set, opt.seed, scale.time_scale);
  const GangConfig gang = gang_config(def, opt.seed, scale);

  // Untraced reference round.
  SpanLog off(false);
  const double t_plain0 = now_s();
  const SweepResult plain = sweep.run(off);
  const double plain_wall_s = now_s() - t_plain0;
  check_sweep(sweep, plain, nullptr, out.ops);
  std::vector<GangSession> sessions;
  for (int k = 0; k < scale.sessions_per_round; ++k) {
    sessions.push_back(run_gang_session(gang, out.ops, off));
  }

  // Traced round: the same sweep and as many gang sessions, with spans.
  SpanLog spans(true);
  spans.name_track(0, "benchmark thread");
  const double round0_us = spans.now_us();
  const SweepResult traced = sweep.run(spans);
  const double traced_wall_s = (spans.now_us() - round0_us) / 1e6;
  // Share of the traced sweep's wall time that the repository's layers
  // account for; the benchmark's own spans (harvesting results, the
  // decorator's estimated cost, its calibration) count against it.
  double repo_us = 0.0;
  for (const auto& [layer, us] : spans.self_us()) {
    if (is_repository_layer(layer)) repo_us += us;
  }
  const double coverage = repo_us / (traced_wall_s * 1e6);
  if (coverage < 0.95) {
    std::fprintf(stderr, "FAILED trace accounting: repository layers cover "
                         "%.1f%% of the traced sweep\n", coverage * 100);
    out.correct = false;
  }
  const double check0_us = spans.now_us();
  check_sweep(sweep, traced, &plain, out.ops);
  spans.add("sweep.checks", "perfbench", 0, check0_us,
            spans.now_us() - check0_us, spans.now_us() - check0_us);
  for (int k = 0; k < scale.sessions_per_round; ++k) {
    sessions.push_back(run_gang_session(gang, out.ops, spans));
  }
  const double round_us = spans.now_us() - round0_us;

  check_batching(sweep, plain, opt.seed, out.ops);
  const BusTiming bus = sweep.time_bus_resolve();
  const double election_us = time_election_us(gang);

  // Artifacts.
  const std::string stem = std::string(kOutDir) + "/" + def.name + "-seed" +
                           std::to_string(opt.seed);
  const bool wrote =
      spans.write_chrome(stem + ".trace.json") &&
      spans.write_table(stem + ".layers.tsv", round_us,
                        std::string(def.name) + " seed " +
                            std::to_string(opt.seed) +
                            " traced round; fingerprint " +
                            fingerprint_json());
  if (!wrote) {
    std::fprintf(stderr, "FAILED writing %s.*\n", stem.c_str());
    out.correct = false;
  } else {
    std::fprintf(stdout, "trace %s.trace.json\nlayers %s.layers.tsv\n",
                 stem.c_str(), stem.c_str());
  }

  MetricList& m = out.metrics;
  const SchedLayer& lx = traced.layers[0];
  m.push_back({"linuxsched.tick_ms", lx.tick_ns / 1e6, "ms"});
  m.push_back({"linuxsched.tick_calls", static_cast<double>(lx.tick_calls),
               "count"});
  for (int s = 1; s < kNumScheds; ++s) {
    const SchedLayer& l = traced.layers[s];
    const std::string k = kSchedNames[s];
    std::uint64_t elections = 0;
    for (const auto& run : traced.runs) {
      if (run.sched == s) elections += run.elections;
    }
    m.push_back({"core.tick_ms." + k, (l.tick_ns + l.start_ns) / 1e6, "ms"});
    m.push_back({"core.tick_calls." + k, static_cast<double>(l.tick_calls),
                 "count"});
    m.push_back({"core.quiescent_ms." + k, l.quiescent_ns / 1e6, "ms"});
    m.push_back({"core.elections." + k, static_cast<double>(elections),
                 "count"});
  }
  for (int s = 0; s < kNumScheds; ++s) {
    const SchedLayer& l = traced.layers[s];
    const std::string k = kSchedNames[s];
    std::uint64_t ticks = 0, batched = 0, batches = 0, saturated = 0;
    for (const auto& run : traced.runs) {
      if (run.sched != s) continue;
      ticks += run.stats.total_ticks;
      batched += run.stats.batched_ticks;
      batches += run.stats.batches;
      saturated += run.stats.saturated_ticks;
    }
    m.push_back({"sim.self_ms." + k, l.sim_self_ns() / 1e6, "ms"});
    m.push_back({"sim.ticks." + k, static_cast<double>(ticks), "count"});
    m.push_back({"sim.batched_ticks." + k, static_cast<double>(batched),
                 "count"});
    m.push_back({"sim.batches." + k, static_cast<double>(batches), "count"});
    m.push_back({"sim.saturated_ticks." + k, static_cast<double>(saturated),
                 "count"});
    m.push_back({"sim.resolve_calls." + k, static_cast<double>(ticks - batched),
                 "count"});
  }
  m.push_back({"sim.bus_resolve_ns.saturated", bus.saturated_ns, "ns"});
  m.push_back({"sim.bus_resolve_ns.unsaturated", bus.unsaturated_ns, "ns"});
  m.push_back({"workload.build_ms", traced.setup_s * 1e3, "ms"});

  auto pooled = [&](auto member) {
    std::vector<double> v;
    for (const GangSession& g : sessions) {
      v.insert(v.end(), (g.*member).begin(), (g.*member).end());
    }
    return v;
  };
  auto total = [&](std::uint64_t GangSession::*member) {
    std::uint64_t sum = 0;
    for (const GangSession& g : sessions) sum += g.*member;
    return static_cast<double>(sum);
  };
  const auto connect = pooled(&GangSession::connect_ms);
  const auto quantum = pooled(&GangSession::quantum_ms);
  std::vector<double> gang_setup_ms;
  for (const GangSession& g : sessions) gang_setup_ms.push_back(g.setup_s * 1e3);
  m.push_back({"runtime.setup_ms", median(gang_setup_ms), "ms"});
  m.push_back({"runtime.connect_ms", median(connect), "ms"});
  m.push_back({"runtime.quantum_ms.p50", percentile(quantum, 50), "ms"});
  m.push_back({"runtime.quantum_ms.p90", percentile(quantum, 90), "ms"});
  std::vector<double> mgr_cpu, work, eps, running_cpus;
  for (const GangSession& g : sessions) {
    add_gang_session(g, mgr_cpu, work, eps);
    running_cpus.push_back(g.window_s > 0 ? g.running_s / g.window_s : 0.0);
  }
  m.push_back({"runtime.client_work_per_s", median(work), "1/s"});
  m.push_back({"runtime.client_running_cpus", median(running_cpus), "cpus"});
  m.push_back({"runtime.stale_arenas", total(&GangSession::stale_arenas),
               "count"});
  m.push_back({"core.election_us", election_us, "us"});
  m.push_back({"trace.overhead_pct",
               100.0 * (traced_wall_s / plain_wall_s - 1.0), "%"});
  double decorator_ns = 0.0;
  for (const SchedLayer& l : traced.layers) decorator_ns += l.decorator_ns;
  m.push_back({"trace.decorator_ms", decorator_ns / 1e6, "ms"});
  m.push_back({"trace.coverage_pct", 100.0 * coverage, "%"});
  return out;
}

void print_result(const Outcome& o) {
  for (const auto& metric : o.metrics) {
    std::fprintf(stdout, "metric %-32s %16.6f %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  std::fprintf(stdout,
               "operations attempted %llu failed %llu\n",
               static_cast<unsigned long long>(o.ops.attempted),
               static_cast<unsigned long long>(o.ops.failed));
  std::string json = "{\"correct\": ";
  json += o.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.ops.attempted);
  json += ", \"failed\": " + std::to_string(o.ops.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const auto& metric = o.metrics[i];
    json += (i ? ", \"" : "\"") + metric.name + "\": {\"value\": " +
            json_number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::fprintf(stdout, "%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse_args(argc, argv);
  if (::mkdir(kOutDir, 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", kOutDir);
    return 1;
  }
  std::fprintf(stdout, "fingerprint %s\n", fingerprint_json().c_str());

  if (opt.selftest) {
    // Every workload briefly, traced, with every check on.
    const Scale brief{.time_scale = 0.1, .session_s = 1.0,
                      .sessions_per_round = 1};
    bool ok = true;
    Outcome total;
    for (const auto& def : workloads()) {
      const Outcome o = run_traced(def, opt, brief);
      std::fprintf(stdout, "selftest %s: attempted %llu failed %llu%s\n",
                   def.name, static_cast<unsigned long long>(o.ops.attempted),
                   static_cast<unsigned long long>(o.ops.failed),
                   o.correct ? "" : " (trace accounting failed)");
      ok = ok && o.correct && o.ops.failed == 0;
      total.correct = total.correct && o.correct;
      total.ops.attempted += o.ops.attempted;
      total.ops.failed += o.ops.failed;
    }
    print_result(total);
    return ok ? 0 : 1;
  }

  const auto& defs = workloads();
  const WorkloadDef& def = *std::find_if(
      defs.begin(), defs.end(),
      [&](const WorkloadDef& d) { return opt.workload == d.name; });
  const Outcome o = opt.trace ? run_traced(def, opt, Scale{})
                              : run_end_to_end(def, opt, Scale{});
  print_result(o);
  return o.correct && o.ops.failed == 0 ? 0 : 1;
}
