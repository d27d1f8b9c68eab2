// Native memory microbenchmarks (paper §3), instrumented for the software
// counter registry.
//
// BBMA ("Bus Bandwidth Microbenchmark Application"): walks a 2-dimensional
// array twice the size of the L2 cache COLUMN-wise while the array is stored
// row-wise — every write touches a different cache line, the line is evicted
// before its next element is needed, hit rate ~0%, each access is a bus
// transaction.
//
// nBBMA: walks an array half the L2 size ROW-wise — perfect spatial
// locality, the working set stays resident, hit rate ~100%, essentially no
// bus traffic after the compulsory misses.
//
// Both kernels credit their actual memory traffic to a counter slot so the
// CPU manager can observe them exactly as hardware counters would.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bbsched::runtime {

struct MicrobenchConfig {
  std::size_t l2_bytes = 256 * 1024;  ///< modelled L2 size (Xeon: 256 KB)
  std::size_t line_bytes = 64;        ///< cache line (= bytes/transaction)
};

/// One pass statistics returned by the kernels.
struct KernelStats {
  std::uint64_t iterations = 0;       ///< full array sweeps
  std::uint64_t transactions = 0;     ///< bus transactions credited
  double checksum = 0.0;              ///< defeats dead-code elimination
};

/// Runs the BBMA kernel until `*stop` becomes true, crediting transactions
/// to `counter_slot` (pass -1 to skip crediting). Returns pass statistics.
KernelStats run_bbma(const std::atomic<bool>& stop, int counter_slot,
                     const MicrobenchConfig& cfg = {});

/// Runs the nBBMA kernel until `*stop` becomes true.
KernelStats run_nbbma(const std::atomic<bool>& stop, int counter_slot,
                      const MicrobenchConfig& cfg = {});

/// A gap between two run_synthetic loop iterations longer than this (µs)
/// was a park or a host preemption, not running time, and earns nothing.
inline constexpr double kSyntheticStallUs = 500.0;

/// Transactions run_synthetic credits for one loop interval of `us`
/// microseconds at `target_tps`: us * target_tps, truncated, or 0 when the
/// interval exceeds kSyntheticStallUs.
[[nodiscard]] std::uint64_t synthetic_credit(double us, double target_tps);

/// A compute-bound kernel with a tunable trickle of memory traffic; used by
/// examples as a stand-in for a real application thread. `target_tps` is
/// the approximate bus-transaction rate to emulate (transactions/µs) and is
/// credited (not necessarily physically generated) — useful on machines
/// whose memory system differs from the paper's. Only time spent running
/// earns credit (see synthetic_credit).
KernelStats run_synthetic(const std::atomic<bool>& stop, int counter_slot,
                          double target_tps,
                          const MicrobenchConfig& cfg = {});

}  // namespace bbsched::runtime
