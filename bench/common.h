#ifndef CAGRA_BENCH_COMMON_H_
#define CAGRA_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <string>

#include "core/search.h"
#include "dataset/profile.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"
#include "gpusim/device_spec.h"
#include "knn/bruteforce.h"
#include "util/timer.h"

namespace cagra::bench {

/// A generated dataset + queries + exact ground truth, the unit every
/// figure bench starts from.
struct Workbench {
  const DatasetProfile* profile;
  SyntheticData data;
  Matrix<uint32_t> gt;  ///< ground truth, gt_k columns
  size_t gt_k;
};

inline Workbench MakeWorkbench(const std::string& profile_name,
                               size_t num_queries = 500, size_t gt_k = 100,
                               size_t size_override = 0) {
  Workbench wb;
  wb.profile = FindProfile(profile_name);
  if (wb.profile == nullptr) {
    std::fprintf(stderr, "unknown profile %s\n", profile_name.c_str());
    std::abort();
  }
  const size_t n = size_override != 0 ? size_override : ScaledSize(*wb.profile);
  wb.data = GenerateDataset(*wb.profile, n, num_queries);
  wb.gt_k = gt_k;
  wb.gt = ComputeGroundTruth(wb.data.base, wb.data.queries, gt_k,
                             wb.profile->metric);
  return wb;
}

/// Rescales a measured SearchResult to a target (paper-sized) batch: the
/// per-query counters are linear in the batch, so we extrapolate them and
/// re-run the cost model at the target occupancy. This lets a 500-query
/// functional run report the modeled QPS of the paper's 10k-query batch.
inline double ModeledQpsAtBatch(const SearchResult& result,
                                size_t target_batch,
                                const DeviceSpec& device = DeviceSpec{}) {
  const double factor = static_cast<double>(target_batch) /
                        static_cast<double>(result.counters.queries);
  KernelCounters scaled = result.counters;
  auto scale = [&](size_t v) {
    return static_cast<size_t>(std::llround(static_cast<double>(v) * factor));
  };
  scaled.distance_computations = scale(scaled.distance_computations);
  scaled.distance_elements = scale(scaled.distance_elements);
  scaled.device_vector_bytes = scale(scaled.device_vector_bytes);
  scaled.device_graph_bytes = scale(scaled.device_graph_bytes);
  scaled.hash_probes_shared = scale(scaled.hash_probes_shared);
  scaled.hash_probes_device = scale(scaled.hash_probes_device);
  scaled.hash_table_device_bytes = scale(scaled.hash_table_device_bytes);
  scaled.sort_exchanges = scale(scaled.sort_exchanges);
  scaled.radix_scatters = scale(scaled.radix_scatters);
  scaled.iterations = scale(scaled.iterations);
  scaled.queries = target_batch;
  KernelLaunchConfig launch = result.launch;
  launch.batch = target_batch;
  return EstimateQps(device, launch, scaled);
}

/// Modeled single-query QPS: runs `count` queries one at a time (each its
/// own launch) and averages the modeled per-query time.
template <typename SearchFn>
double AverageSingleQueryQps(const Matrix<float>& queries, size_t count,
                             SearchFn&& search_one) {
  double total_seconds = 0;
  const size_t n = std::min(count, queries.rows());
  for (size_t q = 0; q < n; q++) {
    total_seconds += search_one(q);  // returns modeled seconds
  }
  return total_seconds > 0 ? static_cast<double>(n) / total_seconds : 0.0;
}

/// CPU baseline scaling (README "Measured vs modeled time"): measured
/// single-thread batch QPS x the modeled 64-core parallel efficiency of
/// the paper's EPYC 7742.
inline double ScaledCpuBatchQps(double measured_seconds, size_t batch,
                                const CpuSpec& cpu = CpuSpec{}) {
  if (measured_seconds <= 0) return 0.0;
  return static_cast<double>(batch) / measured_seconds * cpu.BatchScale();
}

/// Construction-time platform scaling (README "Measured vs modeled
/// time"): builds here run on one host core; the paper's GPU builders
/// (CAGRA, GGNN, GANNS) ran on an A100 and its CPU builders (HNSW,
/// NSSG) on 64 EPYC cores. The modeled columns divide measured wall
/// time by a documented speedup:
/// A100 vs one Zen-2 core on distance-bound parallel kernels ~400x
/// (fp32 FLOP ratio ~780x derated to ~50% achievable), 64-core CPU
/// ~54.4x (cores x 0.85 efficiency).
constexpr double kGpuBuildSpeedup = 400.0;
inline double ModeledGpuBuildSeconds(double measured) {
  return measured / kGpuBuildSpeedup;
}
inline double ModeledCpuBuildSeconds(double measured,
                                     const CpuSpec& cpu = CpuSpec{}) {
  return measured / cpu.BatchScale();
}

/// Ground truth truncated to k columns for recall@k.
inline Matrix<uint32_t> GtAtK(const Workbench& wb, size_t k) {
  Matrix<uint32_t> gt(wb.gt.rows(), k);
  for (size_t q = 0; q < wb.gt.rows(); q++) {
    for (size_t i = 0; i < k; i++) {
      gt.MutableRow(q)[i] = wb.gt.Row(q)[i];
    }
  }
  return gt;
}

inline void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----\n");
}

inline void PrintSeriesHeader(const char* figure, const char* dataset,
                              const char* extra = "") {
  PrintRule();
  std::printf("%s | dataset=%s %s\n", figure, dataset, extra);
  PrintRule();
}

}  // namespace cagra::bench

#endif  // CAGRA_BENCH_COMMON_H_
