// Library-facing helpers shared by the three workloads: input
// generation, build parameters, and the per-layer metric blocks every
// workload reports.
#ifndef HOSTBENCH_COMMON_H_
#define HOSTBENCH_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/index.h"
#include "core/search.h"
#include "dataset/matrix.h"
#include "dataset/profile.h"
#include "report.h"

namespace hostbench {

/// Every workload searches the DEEP-1M synthetic profile (96-d, L2) at
/// graph degree 32 for k = 10 neighbours.
constexpr size_t kK = 10;
constexpr size_t kDegree = 32;
const cagra::DatasetProfile& Profile();
cagra::BuildParams MakeBuildParams();

/// The corpus is fixed, as a real benchmark's dataset is: it always
/// comes from kCorpusSeed, so every seed searches the same index and
/// run-to-run spread measures the program rather than the data. The
/// run's seed draws the `queries` from a pool of twice as many fresh
/// samples of the corpus distribution, and the order of the `extra`
/// rows (vectors a workload inserts later). Sizes are fixed by each
/// workload, never taken from CAGRA_BENCH_SCALE.
constexpr uint64_t kCorpusSeed = 42;
struct Inputs {
  cagra::Matrix<float> base;
  cagra::Matrix<float> queries;
  cagra::Matrix<float> extra;
};
Inputs MakeInputs(size_t rows, size_t queries, size_t extra, uint64_t seed);

/// Copies rows [begin, begin + count) of `m`.
cagra::Matrix<float> SliceRows(const cagra::Matrix<float>& m, size_t begin,
                               size_t count);

/// Exact top-k ids (rows x kK) of `queries` over `base`.
cagra::Matrix<uint32_t> GroundTruth(const cagra::Matrix<float>& base,
                                    const cagra::Matrix<float>& queries);

/// Recall of one query's result row against its exact top-k.
double RowRecall(const uint32_t* got, const uint32_t* truth, size_t k);

/// Sums search work over many Search calls (counters from the
/// library's KernelCounters, host time measured around each call).
struct SearchTally {
  cagra::KernelCounters counters;
  double host_seconds = 0;
  double modeled_seconds = 0;
  size_t queries = 0;
  size_t multi_cta_queries = 0;
  uint64_t rows_examined = 0;
  void Add(const cagra::SearchResult& r, double seconds);
  void Merge(const SearchTally& o);
};

/// Sets every per-layer metric to zero, so a workload reports the
/// layers it bypasses as doing no work; the workload then overwrites
/// the layers it exercises.
void ZeroLayerMetrics(Report* report);

/// knn.* and optimize.* from one or more builds' statistics.
void BuildLayerMetrics(const std::vector<cagra::BuildStats>& builds,
                       Report* report);

/// search.* and gpusim.* from a tally.
void SearchLayerMetrics(const SearchTally& tally, Report* report);

/// The end-to-end metrics, the same five for every workload
/// (BENCHMARK.json end_to_end): setup_s, peak_rss_mb (PeakRssMb() when
/// the run ends), recall_at_10, search_qps and search_p50_ms. Each
/// workload documents what its search_qps and search latency measure.
/// Latency tails go to the details line (WorkloadMetric): on a shared
/// host a few percent of CPU steal moves them by more than any bound a
/// benchmark may set.
struct EndToEnd {
  double setup_s = 0;
  double recall_at_10 = 0;
  double search_qps = 0;
  double search_p50_ms = 0;
};
void EndToEndMetrics(const EndToEnd& e2e, Report* report);

/// A workload-specific headline (qps_at_r95, max_qps_under_slo,
/// write_p99_ms, ...): printed with its unit, and its status when it
/// has one, in the report line's "workload_metrics" of untraced runs.
void WorkloadMetric(const std::string& name, double value,
                    const std::string& unit, Report* report,
                    const std::string& status = "");

/// Process CPU and wall time over a measured phase: starts at
/// construction, Stop() ends it.
struct PhaseClock {
  Usage before = Usage::Now();
  Clock::time_point start = Clock::now();
  Usage after;
  double wall_s = 0;
  void Stop() {
    after = Usage::Now();
    wall_s = SecondsBetween(start, Clock::now());
  }
};

/// process.cpu_s and process.wall_s over a measured phase.
void ProcessMetrics(const PhaseClock& clock, Report* report);

/// Peak resident set of the process in MB: VmHWM of /proc/self/status,
/// which ResetPeakRss() restarts; the getrusage peak when /proc is
/// unavailable.
double PeakRssMb();

/// Returns freed heap to the system, then restarts the peak at the
/// current resident set (/proc/self/clear_refs 5), so PeakRssMb()
/// covers only what runs from here on. False when unsupported.
bool ResetPeakRss();

/// trace.overhead_pct: how much worse `traced` is than `untraced` for a
/// lower-is-better measure of the same phase.
void TraceOverhead(double untraced, double traced, Report* report);

/// Writes the tracer's spans under args.out_dir and records their
/// summed durations by name in the report details.
void DumpSpans(const Args& args, const Tracer& tracer, Report* report);

}  // namespace hostbench

#endif  // HOSTBENCH_COMMON_H_
