// Shared helpers of the perfbench program: clocks, order statistics, the
// machine fingerprint and the metric list every workload reports into.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall time, seconds on the steady clock.
[[nodiscard]] double now_s();

/// CPU time of the calling thread / the whole process, seconds.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Compiler, build type and flags, processor count, CPU model and kernel,
/// as one JSON object.
[[nodiscard]] std::string fingerprint_json();

/// Named measurements in report order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

/// Operation bookkeeping: an operation is one simulation or one client
/// session; a failed check fails its operation and is reported on stderr.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one operation; `errors` are its failed checks (empty = passed).
  void record(const std::string& what, const std::vector<std::string>& errors);
};

/// `x` formatted with every significant digit of a double.
[[nodiscard]] std::string json_number(double x);

}  // namespace perfbench
