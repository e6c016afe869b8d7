// Shared plumbing of the host benchmark: run arguments, the metric
// report and its final JSON line, order statistics, process counters,
// and the span recorder used by traced runs.
#ifndef HOSTBENCH_REPORT_H_
#define HOSTBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Host threads a workload may keep runnable at once; every
/// SearchParams::num_threads in the benchmark is derived from it.
constexpr size_t kHostThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< scratch files and span dumps
  std::string commit = "unknown";      ///< stamped into the report
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// getrusage(RUSAGE_SELF) snapshot: CPU time, faults, peak RSS.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long major_faults = 0;
  long minor_faults = 0;
  double max_rss_mb = 0;
  static Usage Now();
  double cpu_s() const { return user_s + sys_s; }
};

/// In-memory span log of a traced run: one record per call the
/// benchmark makes into a library layer (name, start, end, and the
/// request it served when there is one), written out as JSON when the
/// run ends. Spans do not nest — each wraps one public call — so a
/// span's self time is its duration. Disabled recorders cost one branch
/// per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t request = 0);

  /// Span durations summed by name, in seconds.
  std::map<std::string, double> SecondsByName() const;

  /// Writes every span to `path` as a JSON array; false on I/O error.
  bool Dump(const std::string& path) const;

  size_t size() const;
  void Clear();

 private:
  struct Span {
    uint64_t request;
    const char* name;
    double start_us;
    double end_us;
  };
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The run's outcome: named metrics with units, operation counts, the
/// correctness verdict, and free-form details for the report line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records operations; any failed one marks the run incorrect.
  void Ops(size_t attempted, size_t failed) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed != 0) correct_ = false;
  }
  /// A correctness check: counts as one operation and fails the run
  /// when `ok` is false, logging `what` to stderr.
  void Check(bool ok, const std::string& what);
  /// Adds a raw JSON value under `key` to the report line's details.
  void Detail(const std::string& key, const std::string& json_value);
  void Detail(const std::string& key, double value);
  void DetailString(const std::string& key, const std::string& value);

  bool correct() const { return correct_; }
  /// Prints the details line, then the result line (last stdout line).
  void Print(const Args& args) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

std::string JsonString(const std::string& s);
/// Shortest round-tripping decimal form ("null" for non-finite values).
std::string JsonNumber(double v);

/// The workloads. Each generates its inputs from args.seed, sets up,
/// checks its answers and fills `report`; with args.trace it measures
/// twice (untraced, then traced) and reports per-layer metrics plus the
/// tracing overhead instead of the end-to-end metrics.
void RunBatch(const Args& args, Report* report);
void RunServe(const Args& args, Report* report);
void RunChurn(const Args& args, Report* report);

}  // namespace hostbench

#endif  // HOSTBENCH_REPORT_H_
