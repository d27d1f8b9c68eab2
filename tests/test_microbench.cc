// Tests for the native BBMA / nBBMA kernels and their transaction
// accounting (paper §3's microbenchmark construction).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "perfctr/software_counters.h"
#include "runtime/microbench.h"

namespace bbsched::runtime {
namespace {

using namespace std::chrono_literals;

/// Runs a kernel for `duration` and returns its stats.
template <typename Kernel>
KernelStats run_for(Kernel kernel, std::chrono::milliseconds duration,
                    int slot = -1) {
  std::atomic<bool> stop{false};
  KernelStats stats;
  std::thread t([&] { stats = kernel(stop, slot); });
  std::this_thread::sleep_for(duration);
  stop.store(true);
  t.join();
  return stats;
}

TEST(Microbench, BbmaCreditsOneTransactionPerAccess) {
  const MicrobenchConfig cfg;
  const auto stats = run_for(
      [&](const std::atomic<bool>& stop, int slot) {
        return run_bbma(stop, slot, cfg);
      },
      50ms);
  // Column-wise walk of 2x L2: every access misses.
  EXPECT_GT(stats.transactions, 0u);
  const std::size_t rows = 2 * cfg.l2_bytes / cfg.line_bytes;
  // Credits happen in column granules of `rows` transactions.
  EXPECT_EQ(stats.transactions % rows, 0u);
}

TEST(Microbench, NbbmaCreditsOnlyCompulsoryMisses) {
  const MicrobenchConfig cfg;
  const auto stats = run_for(
      [&](const std::atomic<bool>& stop, int slot) {
        return run_nbbma(stop, slot, cfg);
      },
      50ms);
  // Exactly the compulsory misses: half the L2, one per line — regardless
  // of how many sweeps completed.
  EXPECT_EQ(stats.transactions, cfg.l2_bytes / 2 / cfg.line_bytes);
  EXPECT_GT(stats.iterations, 0u);
}

TEST(Microbench, BbmaVsNbbmaContrast) {
  // The whole point of §3: BBMA's transaction rate dwarfs nBBMA's.
  const auto bbma = run_for(
      [](const std::atomic<bool>& stop, int slot) {
        return run_bbma(stop, slot, MicrobenchConfig{});
      },
      40ms);
  const auto nbbma = run_for(
      [](const std::atomic<bool>& stop, int slot) {
        return run_nbbma(stop, slot, MicrobenchConfig{});
      },
      40ms);
  EXPECT_GT(bbma.transactions, 100 * nbbma.transactions);
}

TEST(Microbench, SyntheticCreditsApproximateTargetRate) {
  const double target_tps = 5.0;  // 5 transactions per µs
  const auto stats = run_for(
      [&](const std::atomic<bool>& stop, int slot) {
        return run_synthetic(stop, slot, target_tps, MicrobenchConfig{});
      },
      100ms);
  // ~100 ms at 5 trans/µs = ~500k transactions; allow wide CI slack.
  EXPECT_GT(stats.transactions, 100'000u);
  EXPECT_LT(stats.transactions, 2'000'000u);
}

TEST(Microbench, SyntheticCreditIsRateTimesRunningInterval) {
  EXPECT_EQ(synthetic_credit(100.0, 20.0), 2000u);
  EXPECT_EQ(synthetic_credit(kSyntheticStallUs, 2.0), 1000u);
}

TEST(Microbench, SyntheticCreditSkipsStalls) {
  // A park of a few quanta must not be credited as running time: a 20
  // trans/µs client would otherwise read far above the bus capacity.
  EXPECT_EQ(synthetic_credit(kSyntheticStallUs + 1.0, 20.0), 0u);
  EXPECT_EQ(synthetic_credit(60'000.0, 20.0), 0u);
}

TEST(Microbench, SyntheticCreditZeroIntervalIsZero) {
  EXPECT_EQ(synthetic_credit(0.0, 20.0), 0u);
}

TEST(Microbench, CountersReceiveCredits) {
  auto& registry = perfctr::global_counters();
  const int slot = registry.register_thread();
  const auto before = registry.read(slot);
  run_for(
      [&](const std::atomic<bool>& stop, int s) {
        return run_nbbma(stop, s, MicrobenchConfig{});
      },
      20ms, slot);
  EXPECT_GT(registry.read(slot), before);
}

TEST(SoftwareCounters, IndependentSlots) {
  auto& registry = perfctr::global_counters();
  const int a = registry.register_thread();
  const int b = registry.register_thread();
  registry.add(a, 10);
  registry.add(b, 3);
  registry.add(a, 5);
  EXPECT_EQ(registry.read(a), 15u);
  EXPECT_EQ(registry.read(b), 3u);
}

TEST(SoftwareCounters, ConcurrentAddsAreLossless) {
  auto& registry = perfctr::global_counters();
  const int slot = registry.register_thread();
  std::thread t1([&] {
    for (int i = 0; i < 100'000; ++i) registry.add(slot, 1);
  });
  std::thread t2([&] {
    for (int i = 0; i < 100'000; ++i) registry.add(slot, 1);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(registry.read(slot), 200'000u);
}

}  // namespace
}  // namespace bbsched::runtime
