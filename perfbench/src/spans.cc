#include "spans.h"

#include <cstdio>
#include <fstream>

#include "common.h"

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_s_(now_s()) {}

double SpanLog::now_us() const { return (now_s() - origin_s_) * 1e6; }

void SpanLog::name_track(int track, const std::string& name) {
  if (enabled_) tracks_[track] = name;
}

void SpanLog::add(const std::string& name, const std::string& layer,
                  int track, double start_us, double dur_us, double self_us,
                  const std::string& args_json) {
  if (!enabled_) return;
  spans_.push_back({name, layer, track, start_us, dur_us, args_json});
  self_us_[layer] += self_us;
}

double SpanLog::total_self_us() const {
  double sum = 0.0;
  for (const auto& [layer, us] : self_us_) sum += us;
  return sum;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& [track, name] : tracks_) {
    out << (first ? "" : ",\n")
        << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": "
        << track << ", \"args\": {\"name\": \"" << name << "\"}}";
    first = false;
  }
  for (const auto& s : spans_) {
    out << (first ? "" : ",\n") << "{\"ph\": \"X\", \"name\": \"" << s.name
        << "\", \"cat\": \"" << s.layer << "\", \"pid\": 1, \"tid\": "
        << s.track << ", \"ts\": " << json_number(s.start_us)
        << ", \"dur\": " << json_number(s.dur_us) << ", \"args\": {"
        << s.args_json << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool SpanLog::write_table(const std::string& path, double wall_us,
                          const std::string& header) const {
  std::ofstream out(path);
  out << "# " << header << "\n";
  out << "layer\tself_ms\tshare_of_wall\n";
  for (const auto& [layer, us] : self_us_) {
    char line[256];
    std::snprintf(line, sizeof line, "%s\t%.3f\t%.4f\n", layer.c_str(),
                  us / 1e3, wall_us > 0 ? us / wall_us : 0.0);
    out << line;
  }
  char line[256];
  std::snprintf(line, sizeof line, "total\t%.3f\t%.4f\nwall\t%.3f\t1.0000\n",
                total_self_us() / 1e3,
                wall_us > 0 ? total_self_us() / wall_us : 0.0, wall_us / 1e3);
  out << line;
  return static_cast<bool>(out);
}

}  // namespace perfbench
