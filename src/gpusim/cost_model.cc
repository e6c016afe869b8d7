#include "gpusim/cost_model.h"

#include <algorithm>
#include <cmath>

namespace cagra {

namespace {

double Ceil(double a, double b) { return std::ceil(a / b); }

/// Cycles the dependent per-iteration sort chain costs: a bitonic merge
/// over the top-M + candidate buffer is ~log^2 stages of a few cycles of
/// shuffle + compare each.
double SerialSortCycles(const KernelLaunchConfig& cfg) {
  const double len = std::max(2.0, static_cast<double>(
                                       cfg.candidates_per_iter * 2));
  const double stages = std::log2(len);
  return stages * (stages + 1.0) * 0.5 * 8.0;
}

/// log2 of nextpow2(n); 0 for n <= 1.
size_t CeilLog2(size_t n) {
  size_t log = 0;
  while ((size_t{1} << log) < n) log++;
  return log;
}

}  // namespace

OccupancyInfo AnalyzeOccupancy(const DeviceSpec& dev,
                               const KernelLaunchConfig& cfg) {
  OccupancyInfo info{};

  // --- Register demand (§IV-B1: "when the team size is too small ... the
  // number of registers per thread becomes too large"). Each thread keeps
  // its dim/team_size query fragment plus ~40 registers of kernel state.
  const size_t frag_elems = (cfg.dim + cfg.team_size - 1) / cfg.team_size;
  info.regs_per_thread = std::min<size_t>(
      dev.max_registers_per_thread, 40 + frag_elems);

  // --- Residency limits: registers, shared memory, CTA slots, threads.
  const size_t threads_by_regs = dev.registers_per_sm / info.regs_per_thread;
  size_t ctas_by_regs =
      std::max<size_t>(1, threads_by_regs / cfg.threads_per_cta);
  // Register spilling: if the demand exceeds the per-thread cap the
  // kernel still runs but each distance touches local memory; modeled
  // below through load efficiency.
  size_t ctas_by_smem = dev.max_ctas_per_sm;
  if (cfg.shared_mem_per_cta > 0) {
    ctas_by_smem = std::max<size_t>(
        1, dev.shared_mem_per_sm / cfg.shared_mem_per_cta);
  }
  const size_t ctas_by_threads =
      std::max<size_t>(1, dev.max_threads_per_sm / cfg.threads_per_cta);
  const size_t resident_ctas_per_sm =
      std::min({ctas_by_regs, ctas_by_smem, ctas_by_threads,
                dev.max_ctas_per_sm});

  // --- How much of the device does this launch actually cover?
  const size_t total_ctas = cfg.batch * cfg.ctas_per_query;
  const double sm_fill =
      std::min(1.0, static_cast<double>(total_ctas) /
                        static_cast<double>(dev.sm_count));
  const double resident_threads =
      std::min(static_cast<double>(total_ctas),
               static_cast<double>(dev.sm_count * resident_ctas_per_sm)) *
      static_cast<double>(cfg.threads_per_cta);
  const double max_threads =
      static_cast<double>(dev.sm_count * dev.max_threads_per_sm);
  info.occupancy = std::min(1.0, resident_threads / max_threads);
  info.device_fill = sm_fill;

  // --- Team-size load efficiency (§IV-B1 example: dim 96 fp32 = 3072
  // bits < 4096 bits a full warp loads; a team of 8 loads 1024 bits per
  // instruction and wastes nothing).
  const double row_bytes = static_cast<double>(cfg.dim * cfg.elem_bytes);
  const double bytes_per_instr =
      static_cast<double>(cfg.team_size * dev.load_bytes_per_thread);
  const double instrs = Ceil(row_bytes, bytes_per_instr);
  info.load_efficiency = row_bytes / (instrs * bytes_per_instr);
  // Register spill penalty folds into load efficiency: spilled fragments
  // are re-read from local memory.
  if (40 + frag_elems > dev.max_registers_per_thread) {
    const double spill =
        static_cast<double>(40 + frag_elems) /
        static_cast<double>(dev.max_registers_per_thread);
    info.load_efficiency /= spill;
  }

  // --- Round efficiency: teams per CTA vs. candidates per iteration.
  // With t teams and c candidates, distance rounds = ceil(c/t); lanes are
  // idle in the last round when t does not divide c.
  const size_t teams_per_cta =
      std::max<size_t>(1, cfg.threads_per_cta / cfg.team_size);
  const double rounds = Ceil(static_cast<double>(cfg.candidates_per_iter),
                             static_cast<double>(teams_per_cta));
  info.round_efficiency =
      static_cast<double>(cfg.candidates_per_iter) /
      (rounds * static_cast<double>(teams_per_cta));

  return info;
}

CostBreakdown EstimateKernelTime(const DeviceSpec& dev,
                                 const KernelLaunchConfig& cfg,
                                 const KernelCounters& counters) {
  CostBreakdown cost{};
  const OccupancyInfo occ = AnalyzeOccupancy(dev, cfg);
  cost.occupancy = occ.occupancy;
  cost.load_efficiency = occ.load_efficiency;
  cost.round_efficiency = occ.round_efficiency;

  // Effective utilization: a launch cannot use more of the device than it
  // has CTAs to cover, and within a CTA the team layout wastes some lanes.
  const double util = std::max(1.0 / static_cast<double>(dev.sm_count),
                               occ.occupancy * occ.round_efficiency);

  // --- Memory: dataset rows are loaded in full transactions, so the
  // team-size padding inflates traffic; adjacency loads are contiguous.
  const double vector_traffic =
      static_cast<double>(counters.device_vector_bytes) /
      std::max(0.05, occ.load_efficiency);
  // Device-memory hash tables cost bandwidth twice: each table is zeroed
  // at query start, and every probe is an uncoalesced 4-byte access that
  // occupies a full 32-byte sector.
  const double hash_traffic =
      static_cast<double>(counters.hash_table_device_bytes) +
      static_cast<double>(counters.hash_probes_device) * 32.0;
  const double traffic = vector_traffic + hash_traffic +
                         static_cast<double>(counters.device_graph_bytes);
  // Achievable bandwidth scales with device fill (a single resident CTA
  // cannot saturate HBM; ~1/32 of peak per fully-occupied SM is a
  // reasonable per-SM ceiling).
  const double bw =
      dev.mem_bandwidth *
      std::min(1.0, std::max(occ.device_fill * occ.occupancy,
                             1.0 / static_cast<double>(dev.sm_count)));
  cost.memory = traffic / bw;

  // --- Compute: ~3 flops per element (sub, fma) plus log-depth reduce.
  const double flops = static_cast<double>(counters.distance_elements) * 3.0;
  cost.compute = flops / (dev.PeakFlops() * util);

  // --- Hash probes: shared-memory probes cost shared_latency amortized
  // across resident warps; device-memory probes are random accesses
  // hidden by ~8 in-flight requests per active warp.
  const double active_warps = std::max(
      1.0, util * static_cast<double>(dev.sm_count * dev.max_threads_per_sm) /
               static_cast<double>(dev.warp_size));
  // Device probes are dependent atomicCAS round-trips on the kernel's
  // critical path; only a few overlap per warp (divisor calibrated to 4
  // in-flight), unlike the coalesced vector stream.
  cost.hash =
      static_cast<double>(counters.hash_probes_shared) * dev.shared_latency /
          active_warps +
      static_cast<double>(counters.hash_probes_device) * dev.mem_latency /
          (active_warps * 4.0);

  // --- Sorting: bitonic exchanges run one per lane-pair per cycle across
  // active warps; radix scatters hit shared memory.
  const double lane_rate = dev.clock_hz * active_warps *
                           static_cast<double>(dev.warp_size);
  cost.sort = static_cast<double>(counters.sort_exchanges) / lane_rate +
              static_cast<double>(counters.radix_scatters) *
                  dev.shared_latency / active_warps;

  cost.launch = static_cast<double>(std::max<size_t>(
                    counters.kernel_launches, 1)) *
                dev.kernel_launch_overhead;

  // --- Serial floor: iterations of one query are dependent; each
  // iteration must at minimum fetch neighbor vectors (one device-memory
  // round trip) and run the top-M merge. When the batch is large this
  // chain is hidden by other queries; when it is 1, it IS the runtime.
  const double iter_latency =
      dev.mem_latency * 2.0 + SerialSortCycles(cfg) / dev.clock_hz;
  cost.serial = static_cast<double>(counters.max_iterations) * iter_latency;

  const double throughput_time =
      std::max(cost.memory, cost.compute) + cost.hash + cost.sort;
  cost.total = cost.launch + std::max(throughput_time, cost.serial);
  return cost;
}

double EstimateQps(const DeviceSpec& dev, const KernelLaunchConfig& cfg,
                   const KernelCounters& counters) {
  const CostBreakdown cost = EstimateKernelTime(dev, cfg, counters);
  if (cost.total <= 0.0) return 0.0;
  return static_cast<double>(std::max<size_t>(counters.queries, 1)) /
         cost.total;
}

size_t BitonicSortExchanges(size_t n) {
  const size_t log_p = CeilLog2(n);
  return (size_t{1} << log_p) / 2 * (log_p * (log_p + 1) / 2);
}

size_t BitonicMergeExchanges(size_t m, size_t c) {
  const size_t log_p = CeilLog2(m + c);
  return log_p * ((size_t{1} << log_p) / 2);
}

size_t RadixSortScatters(size_t n) { return 4 * n; }

}  // namespace cagra
