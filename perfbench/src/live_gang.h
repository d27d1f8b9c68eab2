// The native half of a workload: an in-process runtime::ManagerServer
// (window policy) scheduling forked single-worker client processes over
// wall-clock quanta, through the real socket and shared-arena path.
// Clients are separate processes because the signal
// gate is process-wide and the paper runs one application per process.
// A session runs as many clients as processors, so the manager elects every
// client every quantum and never parks one (see README).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "spans.h"

namespace perfbench {

/// Processors the manager allocates, and its quantum (the paper uses
/// 200 ms; 20 ms gives a one-second window about 50 elections).
inline constexpr int kGangProcs = 2;
inline constexpr std::uint64_t kGangQuantumUs = 20'000;

/// Allowed range of a client's median manager estimate, as a multiple of
/// the median rate the client delivered over the same sample intervals.
/// Measured 0.72-1.07x on the reference machine; the low readings come and
/// go with host load (see README), so the range leaves them room.
inline constexpr double kEstimateLow = 0.5;
inline constexpr double kEstimateHigh = 1.5;

/// One client process: a single worker that credits `rate_tps`
/// transactions per µs of its own running time (stalls longer than the
/// gap threshold earn nothing), so the rate does not depend on how fast
/// the host runs the loop.
struct GangClient {
  std::string name;
  double rate_tps = 0.0;
};

struct GangConfig {
  /// Clients in connect order; client i becomes manager application i.
  std::vector<GangClient> clients;
  /// Length of the measured window, after every client is ready.
  double session_s = 1.0;
  /// UNIX socket path of the manager (relative to the working directory).
  std::string socket_path;
};

/// What one session measured.
struct GangSession {
  double setup_s = 0.0;  ///< server start + fork + every connect→ready
  double window_s = 0.0;  ///< measured window
  std::uint64_t elections = 0;     ///< in the window
  double manager_cpu_s = 0.0;      ///< manager thread CPU in the window
  std::uint64_t iterations = 0;    ///< client loop iterations in the window
  double running_s = 0.0;          ///< client running time in the window,
                                   ///< summed over clients
  std::uint64_t stale_arenas = 0;  ///< updater periods the manager saw missed

  // Per-layer samples.
  std::vector<double> connect_ms;     ///< per client
  std::vector<double> quantum_ms;     ///< election-to-election intervals
  std::vector<double> estimate_ratio;  ///< per client: manager estimate
                                       ///< over the client's own rate
};

/// Runs one session; each client session is one operation of `ops`.
[[nodiscard]] GangSession run_gang_session(const GangConfig& cfg, Ops& ops,
                                           SpanLog& spans);

/// Host cost of one election on the same application set, timed
/// standalone: CpuManager::record_sample for the running gang (twice, as
/// per quantum, at the clients' rates) plus CpuManager::schedule_quantum.
/// µs per election.
[[nodiscard]] double time_election_us(const GangConfig& cfg);

}  // namespace perfbench
