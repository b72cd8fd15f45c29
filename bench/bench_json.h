#ifndef C2MN_BENCH_BENCH_JSON_H_
#define C2MN_BENCH_BENCH_JSON_H_

// Shared result-capture and JSON plumbing for the google-benchmark-based
// micro_* binaries (micro_inference, micro_train, ...).  Kept separate
// from bench_util.h because the fig/table drivers include that header and
// must stay buildable when Google Benchmark is absent.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/simd.h"

namespace c2mn {
namespace bench {

/// One benchmark run flattened to what the JSON emitters need.
struct CapturedRun {
  std::string name;
  double real_ms = 0.0;
  std::map<std::string, double> counters;
};

/// Console reporter that additionally captures every plain iteration run
/// (field names for skipped/errored runs differ across google-benchmark
/// versions; aggregates are excluded).
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration) continue;
      CapturedRun captured;
      captured.name = run.benchmark_name();
      captured.real_ms =
          1e3 * run.real_accumulated_time /
          static_cast<double>(run.iterations > 0 ? run.iterations : 1);
      for (const auto& [key, counter] : run.counters) {
        captured.counters[key] = counter.value;
      }
      runs_.push_back(std::move(captured));
    }
    ConsoleReporter::ReportRuns(report);
  }

  const std::vector<CapturedRun>& runs() const { return runs_; }

 private:
  std::vector<CapturedRun> runs_;
};

/// Minimal JSON string escaping (backslash, quote, control characters).
inline std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Emits the `"results": [...]` array shared by every BENCH_*.json:
/// one object per run with name, real_ms, caller-supplied extra fields
/// (`extra(out, run)` runs between real_ms and the counters), and every
/// counter.  Writes no trailing newline after "]" so the caller can
/// continue the enclosing object (",\n") or close it ("\n").
template <typename ExtraFieldsFn>
void WriteRunsArray(std::ostream& out, const std::vector<CapturedRun>& runs,
                    ExtraFieldsFn&& extra) {
  out << "  \"results\": [\n";
  for (size_t r = 0; r < runs.size(); ++r) {
    const CapturedRun& run = runs[r];
    out << "    {\"name\": \"" << EscapeJson(run.name)
        << "\", \"real_ms\": " << run.real_ms;
    extra(out, run);
    for (const auto& [key, value] : run.counters) {
      out << ", \"" << EscapeJson(key) << "\": " << value;
    }
    out << "}" << (r + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]";
}

/// Emits `"machine": {...}` (no trailing comma): hardware threads, CPU
/// model (from /proc/cpuinfo where present) and the active SIMD tier, so
/// every recorded figure names the machine it was measured on.
inline void WriteMachine(std::ostream& out) {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu_model = line.substr(colon + 1);
      cpu_model.erase(0, cpu_model.find_first_not_of(' '));
      break;
    }
  }
  out << "  \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": \"" << EscapeJson(cpu_model) << "\", \"simd\": \""
      << simd::LevelName(simd::ActiveLevel()) << "\"}";
}

/// Parses "name=ms,name=ms" (the C2MN_BENCH_BASELINE format).
inline std::map<std::string, double> ParseBaseline(const char* spec) {
  std::map<std::string, double> baseline;
  if (spec == nullptr) return baseline;
  std::stringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    baseline[entry.substr(0, eq)] = std::atof(entry.c_str() + eq + 1);
  }
  return baseline;
}

}  // namespace bench
}  // namespace c2mn

#endif  // C2MN_BENCH_BENCH_JSON_H_
