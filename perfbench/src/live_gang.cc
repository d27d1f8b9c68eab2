#include "live_gang.h"

#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <new>
#include <thread>

#include "core/cpu_manager.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/client.h"
#include "runtime/manager_server.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
namespace rt = bbsched::runtime;
namespace obs = bbsched::obs;

constexpr int kMaxClients = 8;
constexpr int kMaxGaps = 4096;
/// A stall longer than this between two loop iterations is recorded as a
/// gap: a park by the manager, or a preemption by the kernel.
constexpr std::uint64_t kGapNs = 500'000;
/// Dependent multiply-add steps per loop iteration (about a microsecond).
constexpr int kSpinSteps = 400;
/// Bound on every wait for a client or the manager.
constexpr double kWaitS = 5.0;

std::uint64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Session phase, written by the benchmark process only.
enum Phase : int { kSetup = 0, kMeasure = 1, kStop = 2, kExit = 3 };

struct Gap {
  std::uint64_t start_ns;  ///< last iteration before the stall
  std::uint64_t end_ns;    ///< first iteration after it
};

/// One client's report, written by that client only and read by the
/// benchmark process after the client has exited.
struct ClientShared {
  std::uint64_t connect_begin_ns;
  std::uint64_t ready_ns;
  std::uint64_t first_ns;
  std::uint64_t last_ns;
  std::uint64_t iterations;
  std::uint64_t measured_iterations;  ///< iterations during kMeasure
  std::uint64_t sink;  ///< keeps the spin loop's result alive
  std::uint32_t ngaps;
  std::uint32_t gaps_dropped;
  /// 1 = ran and disconnected; < 0 = failed step. Polled while the client
  /// runs, hence atomic; the other fields are read after the client exits.
  std::atomic<std::int32_t> status;
  Gap gaps[kMaxGaps];
};

/// Anonymous shared mapping, created before the clients are forked.
struct Shared {
  std::atomic<int> phase;
  ClientShared clients[kMaxClients];
};
static_assert(std::atomic<int>::is_always_lock_free &&
                  std::atomic<std::int32_t>::is_always_lock_free &&
                  std::atomic<std::uint64_t>::is_always_lock_free,
              "the flags are shared between processes");

/// Polls `done` every `poll` until it holds (true) or `timeout_s` passes.
bool wait_until(double timeout_s, std::chrono::microseconds poll,
                const auto& done) {
  const double deadline = now_s() + timeout_s;
  while (!done()) {
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(poll);
  }
  return true;
}

/// Body of a forked client process; never returns.
/// The worker runs on `cpus`; the client's arena updater, started by
/// connect, keeps the whole set, so that two workers filling their two
/// CPUs cannot delay its publishing.
[[noreturn]] void client_main(Shared* sh, int idx, double rate_tps,
                              const cpu_set_t& cpus,
                              const std::string& socket_path, int go_fd,
                              int ready_fd) {
  ClientShared& me = sh->clients[idx];
  char byte = 0;
  if (::read(go_fd, &byte, 1) != 1) ::_exit(3);
  me.connect_begin_ns = mono_ns();
  {
    rt::Client client;
    if (!client.connect(socket_path, "client" + std::to_string(idx), 1) ||
        !client.ready()) {
      me.status.store(-1, std::memory_order_relaxed);
      (void)!::write(ready_fd, "F", 1);
      ::_exit(4);
    }
    me.ready_ns = mono_ns();
    (void)::sched_setaffinity(0, sizeof cpus, &cpus);
    (void)!::write(ready_fd, "R", 1);

    // Idle until the measured window opens, so clients already connected
    // do not compete for processors with the ones still connecting.
    if (!wait_until(kWaitS, 1ms, [&] {
          return sh->phase.load(std::memory_order_relaxed) != kSetup;
        })) {
      me.status.store(-2, std::memory_order_relaxed);
      ::_exit(6);
    }
    // The client earns rate_tps transactions per µs it runs: each loop
    // iteration credits the time since the previous one, unless that was a
    // stall (a park or a host preemption), which earns nothing.
    const int slot = client.leader_counter_slot();
    const double per_ns = rate_tps / 1e3;
    double owed = 0.0;  // earned, not yet credited (less than one)
    std::uint64_t x = static_cast<std::uint64_t>(idx) + 1;
    std::uint64_t iterations = 0;
    std::uint64_t measured = 0;
    std::uint64_t last = mono_ns();
    me.first_ns = last;
    for (;;) {
      const int phase = sh->phase.load(std::memory_order_relaxed);
      if (phase >= kStop) break;
      for (int k = 0; k < kSpinSteps; ++k) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      ++iterations;
      if (phase == kMeasure) ++measured;
      const std::uint64_t now = mono_ns();
      if (now - last > kGapNs) {
        if (me.ngaps < kMaxGaps) {
          me.gaps[me.ngaps++] = {last, now};
        } else {
          ++me.gaps_dropped;
        }
      } else {
        owed += per_ns * static_cast<double>(now - last);
        const auto whole = static_cast<std::uint64_t>(owed);
        if (whole != 0) {
          client.credit(slot, whole);
          owed -= static_cast<double>(whole);
        }
      }
      last = now;
    }
    me.last_ns = last;
    me.iterations = iterations;
    me.measured_iterations = measured;
    me.sink = x;
    client.unregister_worker();
    client.disconnect();
  }
  me.status.store(1, std::memory_order_relaxed);
  // Stay alive until the manager has dropped this client, so a late signal
  // can never find the leader gone (which the manager would count as a
  // crashed client).
  const bool released = wait_until(
      kWaitS, 1ms, [&] { return sh->phase.load(std::memory_order_relaxed) ==
                           kExit; });
  ::_exit(released ? 0 : 5);
}

/// Time `c` ran inside [a_ns, b_ns], from its own log: the overlap with its
/// loop's life, less its stalls (parks and host preemptions alike).
double running_ns(const ClientShared& c, double a_ns, double b_ns) {
  const double a = std::max(static_cast<double>(c.first_ns), a_ns);
  const double b = std::min(static_cast<double>(c.last_ns), b_ns);
  double ran = std::max(0.0, b - a);
  for (std::uint32_t g = 0; g < c.ngaps; ++g) {
    const double ga = std::max(static_cast<double>(c.gaps[g].start_ns), a);
    const double gb = std::min(static_cast<double>(c.gaps[g].end_ns), b);
    ran -= std::max(0.0, gb - ga);
  }
  return ran;
}

/// This thread's CPU set, split as the paper's manager splits the machine:
/// the clients get the last kGangProcs CPUs, the manager the others. With
/// no CPU to spare, both get the whole set.
struct CpuSplit {
  cpu_set_t all;
  cpu_set_t clients;
  cpu_set_t manager;
};

CpuSplit split_cpus() {
  CpuSplit s{};
  CPU_ZERO(&s.all);
  if (::sched_getaffinity(0, sizeof s.all, &s.all) != 0) CPU_ZERO(&s.all);
  s.clients = s.all;
  s.manager = s.all;
  if (CPU_COUNT(&s.all) <= kGangProcs) return s;
  CPU_ZERO(&s.clients);
  int taken = 0;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && taken < kGangProcs; --cpu) {
    if (CPU_ISSET(cpu, &s.all)) {
      CPU_SET(cpu, &s.clients);
      CPU_CLR(cpu, &s.manager);
      ++taken;
    }
  }
  return s;
}

double counter_value(const obs::MetricsRegistry& m, const char* name) {
  const obs::Counter* c = m.find_counter(name);
  return c == nullptr ? 0.0 : c->value();
}

}  // namespace

GangSession run_gang_session(const GangConfig& cfg, Ops& ops,
                             SpanLog& spans) {
  GangSession out;
  const int n = static_cast<int>(cfg.clients.size());
  std::vector<std::vector<std::string>> errors(static_cast<std::size_t>(n));
  auto fail_all = [&](const std::string& msg) {
    for (auto& e : errors) {
      if (std::find(e.begin(), e.end(), msg) == e.end()) e.push_back(msg);
    }
  };
  auto record_ops = [&] {
    for (int i = 0; i < n; ++i) {
      ops.record("client " + std::to_string(i) + " session",
                 errors[static_cast<std::size_t>(i)]);
    }
  };
  if (n < 1 || n > kMaxClients) {
    fail_all("unsupported client count");
    record_ops();
    return out;
  }

  const double t_setup0 = now_s();
  const double span_setup0 = spans.now_us();
  void* mem = ::mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    fail_all("mmap of the shared report area failed");
    record_ops();
    return out;
  }
  Shared* sh = new (mem) Shared();

  // Fork every client while this process is still single-threaded; each
  // waits on its go pipe before connecting.
  const CpuSplit cpus = split_cpus();
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(static_cast<std::size_t>(n), -1);
  std::vector<int> go_w(static_cast<std::size_t>(n), -1);
  std::vector<int> ready_r(static_cast<std::size_t>(n), -1);
  for (int i = 0; i < n; ++i) {
    int go[2];
    int ready[2];
    if (::pipe(go) != 0 || ::pipe(ready) != 0) {
      errors[static_cast<std::size_t>(i)].push_back("pipe failed");
      continue;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(go[1]);
      ::close(ready[0]);
      client_main(sh, i, cfg.clients[static_cast<std::size_t>(i)].rate_tps,
                  cpus.clients, cfg.socket_path, go[0], ready[1]);
    }
    ::close(go[0]);
    ::close(ready[1]);
    go_w[static_cast<std::size_t>(i)] = go[1];
    ready_r[static_cast<std::size_t>(i)] = ready[0];
    if (pid < 0) {
      errors[static_cast<std::size_t>(i)].push_back("fork failed");
    }
    pids[static_cast<std::size_t>(i)] = pid;
  }

  obs::Tracer tracer(obs::TracerConfig{.enabled = true, .capacity = 1 << 13});
  obs::MetricsRegistry metrics;
  rt::ServerConfig scfg;
  scfg.manager.policy = bbsched::core::PolicyKind::kQuantaWindow;
  scfg.manager.quantum_us = kGangQuantumUs;
  scfg.nprocs = kGangProcs;
  scfg.socket_path = cfg.socket_path;
  scfg.tracer = &tracer;
  scfg.metrics = &metrics;
  rt::ManagerServer server(scfg);
  // The manager thread inherits this thread's CPU set.
  (void)::sched_setaffinity(0, sizeof cpus.manager, &cpus.manager);
  const bool started = server.start();
  if (!started) fail_all("manager server did not start");

  // Connect the clients one at a time, so manager app ids follow the
  // connect order (client i is app i).
  for (int i = 0; started && i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (pids[u] <= 0) continue;
    char byte = 0;
    pollfd pfd{ready_r[u], POLLIN, 0};
    const bool sent = ::write(go_w[u], "G", 1) == 1;
    const bool answered =
        sent && ::poll(&pfd, 1, static_cast<int>(kWaitS * 1000)) == 1 &&
        ::read(ready_r[u], &byte, 1) == 1 && byte == 'R';
    const bool registered =
        answered && wait_until(kWaitS, 20us, [&] {
          return server.estimates().size() == u + 1;
        });
    if (!registered) errors[u].push_back("did not connect and become ready");
  }
  for (int fd : go_w) if (fd >= 0) ::close(fd);
  for (int fd : ready_r) if (fd >= 0) ::close(fd);
  out.setup_s = now_s() - t_setup0;
  spans.add("runtime.setup", "runtime", 0, span_setup0, out.setup_s * 1e6,
            out.setup_s * 1e6,
            "\"clients\": " + std::to_string(n));

  // The measured window.
  const double span_window0 = spans.now_us();
  sh->phase.store(kMeasure, std::memory_order_relaxed);
  const std::uint64_t w0_us = mono_ns() / 1000;
  const double t0 = now_s();
  const double cpu0 = process_cpu_s();
  const double main0 = thread_cpu_s();
  const std::uint64_t e0 = server.elections();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.session_s - (now_s() - t0)));
  const std::uint64_t e1 = server.elections();
  const double main1 = thread_cpu_s();
  const double cpu1 = process_cpu_s();
  out.window_s = now_s() - t0;
  const std::uint64_t w1_us = mono_ns() / 1000;
  sh->phase.store(kStop, std::memory_order_relaxed);
  out.elections = e1 - e0;
  out.manager_cpu_s = (cpu1 - cpu0) - (main1 - main0);
  // The benchmark thread only sleeps through the window; what the program
  // spends in it is the manager thread's CPU time (elections, sampling,
  // signalling), charged to runtime.
  spans.add("runtime.manager", "runtime", 0, span_window0, out.window_s * 1e6,
            out.manager_cpu_s * 1e6,
            "\"elections\": " + std::to_string(out.elections) +
                ", \"manager_cpu_us\": " + json_number(out.manager_cpu_s * 1e6));

  // Teardown. A client sees the stop flag once it is next elected, which
  // the rotation bound guarantees within n quanta, and disconnects while the
  // manager still runs. A client still suspended after that fails its
  // session; stopping the manager frees it (its updater sees the socket
  // close and releases the gate), so its process can still be reaped.
  const double span_teardown0 = spans.now_us();
  auto stopped = [&](int i) {
    return pids[static_cast<std::size_t>(i)] <= 0 ||
           sh->clients[i].status.load(std::memory_order_relaxed) != 0;
  };
  const bool all_stopped = wait_until(
      1.0 + static_cast<double>(n) * static_cast<double>(kGangQuantumUs) / 1e6,
      200us, [&] {
        for (int i = 0; i < n; ++i) {
          if (!stopped(i)) return false;
        }
        return true;
      });
  if (all_stopped && started &&
      !wait_until(kWaitS, 200us,
                  [&] { return server.connected_apps() == 0; })) {
    fail_all("the manager still holds a client after every disconnect");
  }
  std::vector<bool> freed_by_stop(static_cast<std::size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    freed_by_stop[static_cast<std::size_t>(i)] = !stopped(i);
  }
  server.stop();
  (void)::sched_setaffinity(0, sizeof cpus.all, &cpus.all);
  sh->phase.store(kExit, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (pids[u] <= 0) continue;
    int status = 0;
    const bool exited = wait_until(kWaitS, 200us, [&] {
      return ::waitpid(pids[u], &status, WNOHANG) == pids[u];
    });
    if (!exited) {
      ::kill(pids[u], SIGKILL);
      ::waitpid(pids[u], &status, 0);
      errors[u].push_back("client process did not exit");
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      errors[u].push_back("client process exited with status " +
                          std::to_string(status));
    }
  }
  const double teardown_us = spans.now_us() - span_teardown0;
  spans.add("runtime.teardown", "runtime", 0, span_teardown0, teardown_us,
            teardown_us);

  // Analysis of the manager's trace against the clients' own timestamps.
  const double span_analysis0 = spans.now_us();
  struct Quantum {
    std::uint64_t t_us = 0;
    int candidates = 0;
    std::vector<int> elected;
  };
  std::vector<Quantum> quanta;  // indexed by election index
  struct Sample {
    std::uint64_t t_us;
    double estimate_tps;
    bool measured;  ///< in the window, and derived from measurement
  };
  std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(n));
  bool foreign_app = false;
  auto in_window = [&](std::uint64_t t) { return t >= w0_us && t <= w1_us; };
  const double initial_estimate = scfg.manager.initial_estimate_tps;
  tracer.events().for_each([&](const obs::TraceEvent& e) {
    switch (e.type) {
      case obs::EventType::kQuantumStart: {
        const auto idx = static_cast<std::size_t>(e.quantum_start.index);
        if (quanta.size() <= idx) quanta.resize(idx + 1);
        quanta[idx].t_us = e.time_us;
        quanta[idx].candidates = e.quantum_start.candidates;
        break;
      }
      case obs::EventType::kElectionDecision: {
        const auto idx = static_cast<std::size_t>(e.election.quantum);
        if (quanta.size() <= idx) quanta.resize(idx + 1);
        if (e.election.elected != 0) {
          quanta[idx].elected.push_back(e.election.app_id);
        }
        break;
      }
      case obs::EventType::kCounterSample: {
        const int app = e.sample.app_id;
        if (app < 0 || app >= n) {
          foreign_app = true;
        } else {
          // Before its first folded quantum an application carries the
          // fair-share initial estimate, not a measured one.
          samples[static_cast<std::size_t>(app)].push_back(
              {e.time_us, e.sample.estimate_tps,
               in_window(e.time_us) &&
                   e.sample.estimate_tps != initial_estimate});
        }
        break;
      }
      default:
        break;
    }
  });

  // Rotation bound, from the manager's elections in the window: elected
  // applications move to the list tail and the head is always elected, so
  // nobody waits more than n - 1 quanta.
  std::vector<std::vector<std::string>> rotation(static_cast<std::size_t>(n));
  std::vector<int> unelected_run(static_cast<std::size_t>(n), 0);
  const Quantum* prev = nullptr;
  for (const Quantum& q : quanta) {
    if (!in_window(q.t_us) || q.candidates != n) continue;
    for (int i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      const bool elected =
          std::find(q.elected.begin(), q.elected.end(), i) != q.elected.end();
      unelected_run[u] = elected ? 0 : unelected_run[u] + 1;
      if (unelected_run[u] > n - 1 && rotation[u].empty()) {
        rotation[u].push_back("client " + std::to_string(i) +
                              " waited more quanta than the rotation bound");
      }
    }
    if (prev != nullptr) {
      out.quantum_ms.push_back(static_cast<double>(q.t_us - prev->t_us) /
                               1e3);
    }
    prev = &q;
  }

  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    errors[u].insert(errors[u].end(), rotation[u].begin(), rotation[u].end());
  }
  if (tracer.dropped() != 0) fail_all("the manager trace overflowed");
  if (foreign_app) fail_all("the manager traced an unknown application");

  // No client may be reaped or quarantined. (A stale-arena report is
  // neither: it only flags an updater that missed its publishing period.)
  out.stale_arenas = static_cast<std::uint64_t>(
      counter_value(metrics, "server.faults.stale_arenas"));
  for (const char* name :
       {"server.faults.dead_leaders", "server.adversarial.quarantines",
        "manager.faults.quarantines"}) {
    if (counter_value(metrics, name) != 0.0) {
      fail_all(std::string("manager counted ") + name);
    }
  }

  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    const ClientShared& c = sh->clients[i];
    if (pids[u] <= 0) continue;
    if (c.status.load(std::memory_order_relaxed) != 1) {
      errors[u].push_back("did not run to a clean disconnect");
    }
    if (freed_by_stop[u]) {
      errors[u].push_back("stayed suspended until the manager stopped");
    }
    if (c.gaps_dropped != 0) errors[u].push_back("gap log overflowed");
    if (c.measured_iterations == 0) {
      errors[u].push_back("never ran in the measured window");
    }
    out.iterations += c.measured_iterations;
    out.running_s += running_ns(c, static_cast<double>(w0_us) * 1e3,
                                static_cast<double>(w1_us) * 1e3) *
                     1e-9;
    if (c.ready_ns > c.connect_begin_ns) {
      out.connect_ms.push_back(
          static_cast<double>(c.ready_ns - c.connect_begin_ns) / 1e6);
    }

    // The manager's estimates against the rates the client delivered over
    // the same sample intervals: it credits `rate_tps` per µs it runs, so
    // over an interval it delivers rate_tps times its running share there
    // (host stalls included, as the manager sees them). Medians of both.
    std::vector<double> estimates;
    std::vector<double> delivered;
    const auto& sm = samples[u];
    for (std::size_t k = 1; k < sm.size(); ++k) {
      if (!sm[k].measured || sm[k].t_us <= sm[k - 1].t_us) continue;
      const double a_ns = static_cast<double>(sm[k - 1].t_us) * 1e3;
      const double b_ns = static_cast<double>(sm[k].t_us) * 1e3;
      estimates.push_back(sm[k].estimate_tps);
      delivered.push_back(cfg.clients[u].rate_tps *
                          running_ns(c, a_ns, b_ns) / (b_ns - a_ns));
    }
    const double own_rate = median(delivered);
    const double est = median(estimates);
    if (own_rate > 0.0) out.estimate_ratio.push_back(est / own_rate);
    if (estimates.empty() || own_rate <= 0.0 ||
        est < kEstimateLow * own_rate || est > kEstimateHigh * own_rate) {
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "manager estimate %.4g vs own rate %.4g trans/us "
                    "(allowed %.2fx..%.2fx)",
                    est, own_rate, kEstimateLow, kEstimateHigh);
      errors[u].push_back(msg);
    }

    if (spans.enabled()) {
      const int track = 100 + i;
      char label[96];
      std::snprintf(label, sizeof label, "client %d (%s, %.4g trans/us)", i,
                    cfg.clients[u].name.c_str(), cfg.clients[u].rate_tps);
      spans.name_track(track, label);
      const double origin_us = static_cast<double>(mono_ns()) / 1e3 -
                               spans.now_us();
      auto span_at = [&](const char* name, const char* layer,
                         std::uint64_t a_ns, std::uint64_t b_ns) {
        spans.add(name, layer, track,
                  static_cast<double>(a_ns) / 1e3 - origin_us,
                  static_cast<double>(b_ns - a_ns) / 1e3, 0.0);
      };
      if (c.ready_ns > c.connect_begin_ns) {
        span_at("runtime.connect", "runtime", c.connect_begin_ns, c.ready_ns);
      }
      for (std::uint32_t g = 0; g < c.ngaps; ++g) {
        span_at("stalled", "runtime", c.gaps[g].start_ns, c.gaps[g].end_ns);
      }
    }
  }
  if (spans.enabled()) {
    spans.name_track(99, "manager elections");
    const double origin_us =
        static_cast<double>(mono_ns()) / 1e3 - spans.now_us();
    for (std::size_t k = 0; k + 1 < quanta.size(); ++k) {
      std::string elected;
      for (int id : quanta[k].elected) {
        elected += (elected.empty() ? "" : ", ") + std::to_string(id);
      }
      spans.add("quantum", "runtime", 99,
                static_cast<double>(quanta[k].t_us) - origin_us,
                static_cast<double>(quanta[k + 1].t_us - quanta[k].t_us), 0.0,
                "\"elected\": [" + elected + "]");
    }
  }
  const double analysis_us = spans.now_us() - span_analysis0;
  spans.add("gang.analysis", "perfbench", 0, span_analysis0, analysis_us,
            analysis_us);

  sh->~Shared();
  ::munmap(mem, sizeof(Shared));
  record_ops();
  return out;
}

double time_election_us(const GangConfig& cfg) {
  bbsched::core::ManagerConfig mc;
  mc.policy = bbsched::core::PolicyKind::kQuantaWindow;
  mc.quantum_us = kGangQuantumUs;
  bbsched::core::CpuManager manager(mc);
  std::vector<double> per_sample;  // transactions per half quantum, by app id
  for (std::size_t i = 0; i < cfg.clients.size(); ++i) {
    (void)manager.connect("client" + std::to_string(i), 1);
    per_sample.push_back(cfg.clients[i].rate_tps *
                         static_cast<double>(kGangQuantumUs) / 2.0);
  }
  std::uint64_t now = 0;
  auto elect = [&] {
    for (int id : manager.running()) {
      manager.record_sample(id, per_sample[static_cast<std::size_t>(id)], now);
      manager.record_sample(id, per_sample[static_cast<std::size_t>(id)], now);
    }
    now += kGangQuantumUs;
    (void)manager.schedule_quantum(kGangProcs, now);
  };
  constexpr int kElections = 20'000;
  for (int k = 0; k < 1000; ++k) elect();  // fill the moving windows
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    for (int k = 0; k < kElections; ++k) elect();
    samples.push_back((now_s() - t0) * 1e6 / kElections);
  }
  return median(samples);
}

}  // namespace perfbench
