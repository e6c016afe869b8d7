#ifndef CAGRA_GPUSIM_COST_MODEL_H_
#define CAGRA_GPUSIM_COST_MODEL_H_

#include <cstddef>

#include "gpusim/counters.h"
#include "gpusim/device_spec.h"

namespace cagra {

/// Static configuration of one kernel launch — everything that shapes
/// occupancy and per-instruction efficiency but is not a dynamic counter.
struct KernelLaunchConfig {
  size_t batch = 1;              ///< queries in the launch
  size_t ctas_per_query = 1;     ///< 1 for single-CTA mode, >1 for multi-CTA
  size_t threads_per_cta = 128;
  size_t shared_mem_per_cta = 0; ///< bytes (hash table + buffers)
  size_t team_size = 8;          ///< software warp split (§IV-B1)
  size_t dim = 128;              ///< dataset dimensionality
  size_t elem_bytes = 4;         ///< 4 = fp32, 2 = fp16 storage
  size_t candidates_per_iter = 64;  ///< p*d (single-CTA) or d (multi-CTA)
};

/// Cost estimate decomposition (seconds). `total` is the modeled wall
/// time of the launch; `occupancy` in [0,1] is the achieved fraction of
/// device residency.
struct CostBreakdown {
  double memory = 0.0;    ///< device-memory bandwidth term
  double compute = 0.0;   ///< fp32 distance arithmetic term
  double hash = 0.0;      ///< visited-set probe term
  double sort = 0.0;      ///< bitonic/radix term
  double launch = 0.0;    ///< kernel-launch overhead
  double serial = 0.0;    ///< per-query iteration latency chain floor
  double total = 0.0;
  double occupancy = 0.0;
  double load_efficiency = 0.0;   ///< team-size load-lane utilization
  double round_efficiency = 0.0;  ///< team count vs candidate count fit
};

/// Occupancy/efficiency analysis of a launch configuration (exposed
/// separately for tests and for the Fig. 8 team-size study).
struct OccupancyInfo {
  double occupancy;        ///< resident threads / max threads, in [0,1]
  double device_fill;      ///< fraction of SMs holding at least one CTA
  size_t regs_per_thread;  ///< modeled register demand
  double load_efficiency;
  double round_efficiency;
};

/// Computes the occupancy model for a launch on `dev`: register demand
/// (base + query-fragment registers that grow as dim/team_size),
/// shared-memory residency limits, and the team-size lane/round
/// efficiencies described in §IV-B1.
OccupancyInfo AnalyzeOccupancy(const DeviceSpec& dev,
                               const KernelLaunchConfig& cfg);

/// Converts counters + launch config into modeled kernel time.
CostBreakdown EstimateKernelTime(const DeviceSpec& dev,
                                 const KernelLaunchConfig& cfg,
                                 const KernelCounters& counters);

/// Queries per second for a batch whose counters/config are given.
double EstimateQps(const DeviceSpec& dev, const KernelLaunchConfig& cfg,
                   const KernelCounters& counters);

// --- §IV-B2 sort kernels, charged by closed form. The kernel's sort
// networks are data-oblivious, so their work depends on the sizes alone;
// the host sorts with std::sort and charges these counts.

/// Candidate-list length above which the kernel switches from the
/// warp-level bitonic sort to the CTA-level radix sort.
constexpr size_t kMaxBitonicCandidates = 512;

/// Compare-exchanges of a bitonic sort of n entries, padded to
/// P = nextpow2(n): P/2 per stage over log2 P * (log2 P + 1) / 2 stages.
size_t BitonicSortExchanges(size_t n);

/// Compare-exchanges of the bitonic merge of c sorted candidates into a
/// sorted m-entry top-M: log2 P stages of P/2, P = nextpow2(m + c).
size_t BitonicMergeExchanges(size_t m, size_t c);

/// Scatters of the CTA radix sort of n entries: four 8-bit digit passes
/// over 32-bit keys, one scatter per entry each.
size_t RadixSortScatters(size_t n);

}  // namespace cagra

#endif  // CAGRA_GPUSIM_COST_MODEL_H_
