// In-memory span log of a traced benchmark run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// bbsched layer (no instrumentation inside the program). Every span names
// the layer it is charged to and the part of its duration that is the
// layer's own ("self") time, i.e. not covered by child spans. The log is
// written at the end of the run as Chrome trace JSON plus a per-layer
// self-time table.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  /// A disabled log records nothing and costs one branch per call.
  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Microseconds since the log was created (the trace's time origin).
  [[nodiscard]] double now_us() const;

  /// Names a track (Chrome "thread") of the trace.
  void name_track(int track, const std::string& name);

  /// Records one complete span and charges `self_us` of it to `layer`.
  /// `args_json` is the body of a JSON object ("" = no args).
  void add(const std::string& name, const std::string& layer, int track,
           double start_us, double dur_us, double self_us,
           const std::string& args_json = "");

  /// Self time per layer, µs.
  [[nodiscard]] const std::map<std::string, double>& self_us() const noexcept {
    return self_us_;
  }
  [[nodiscard]] double total_self_us() const;

  /// Chrome trace JSON (chrome://tracing, Perfetto). False on I/O error.
  bool write_chrome(const std::string& path) const;

  /// Tab-separated per-layer table: layer, self ms, share of `wall_us`.
  bool write_table(const std::string& path, double wall_us,
                   const std::string& header) const;

 private:
  struct Span {
    std::string name;
    std::string layer;
    int track;
    double start_us;
    double dur_us;
    std::string args_json;
  };

  bool enabled_;
  double origin_s_;
  std::vector<Span> spans_;
  std::map<int, std::string> tracks_;
  std::map<std::string, double> self_us_;
};

}  // namespace perfbench
