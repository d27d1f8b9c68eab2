#include "runtime/microbench.h"

#include <chrono>

#include "perfctr/software_counters.h"

namespace bbsched::runtime {

namespace {

void credit(int slot, std::uint64_t n) {
  if (slot >= 0) perfctr::global_counters().add(slot, n);
}

}  // namespace

KernelStats run_bbma(const std::atomic<bool>& stop, int counter_slot,
                     const MicrobenchConfig& cfg) {
  KernelStats out;
  // Array of 2x the L2 size, rows of one cache line each, stored row-wise.
  const std::size_t rows = (2 * cfg.l2_bytes) / cfg.line_bytes;
  const std::size_t cols = cfg.line_bytes;  // one char per line element
  std::vector<unsigned char> array(rows * cols, 1);

  while (!stop.load(std::memory_order_relaxed)) {
    // Column-wise writes: first element of every line, then the second, ...
    // By the time a line's next element is written the line has been
    // evicted, so every write is a miss.
    for (std::size_t c = 0; c < cols && !stop.load(std::memory_order_relaxed);
         ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        array[r * cols + c] = static_cast<unsigned char>(r + c);
      }
      // Every write missed: one transaction per (row, column) visit.
      credit(counter_slot, rows);
      out.transactions += rows;
    }
    ++out.iterations;
  }
  out.checksum = static_cast<double>(array[rows / 2 * cols + cols / 2]);
  return out;
}

KernelStats run_nbbma(const std::atomic<bool>& stop, int counter_slot,
                      const MicrobenchConfig& cfg) {
  KernelStats out;
  // Half the L2, walked row-wise: resident after the compulsory misses.
  const std::size_t bytes = cfg.l2_bytes / 2;
  std::vector<unsigned char> array(bytes, 1);

  // Compulsory misses: one per line while the working set loads.
  credit(counter_slot, bytes / cfg.line_bytes);
  out.transactions += bytes / cfg.line_bytes;

  unsigned acc = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    for (std::size_t i = 0; i < bytes; ++i) acc += array[i];
    ++out.iterations;
    // ~100% hit rate: virtually no bus traffic is credited.
  }
  out.checksum = static_cast<double>(acc);
  return out;
}

std::uint64_t synthetic_credit(double us, double target_tps) {
  if (us > kSyntheticStallUs) return 0;
  return static_cast<std::uint64_t>(us * target_tps);
}

KernelStats run_synthetic(const std::atomic<bool>& stop, int counter_slot,
                          double target_tps, const MicrobenchConfig& cfg) {
  KernelStats out;
  const std::size_t lines = cfg.l2_bytes / cfg.line_bytes;
  std::vector<unsigned char> array(cfg.l2_bytes, 1);
  unsigned acc = 0;

  using clock = std::chrono::steady_clock;
  auto last = clock::now();
  while (!stop.load(std::memory_order_relaxed)) {
    // A slice of compute over a cache-resident array...
    for (std::size_t i = 0; i < lines; ++i) {
      acc += array[i * cfg.line_bytes];
    }
    ++out.iterations;
    // ...credited with the bus traffic the emulated application would have
    // produced over the elapsed running time; the first interval after a
    // park spans the whole park and earns nothing.
    const auto now = clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(now - last).count();
    last = now;
    const std::uint64_t tx = synthetic_credit(us, target_tps);
    credit(counter_slot, tx);
    out.transactions += tx;
  }
  out.checksum = static_cast<double>(acc);
  return out;
}

}  // namespace bbsched::runtime
