#ifndef CAGRA_GPUSIM_DEVICE_SPEC_H_
#define CAGRA_GPUSIM_DEVICE_SPEC_H_

#include <cstddef>
#include <string>

namespace cagra {

/// Parameters of the modeled GPU. Defaults approximate the NVIDIA A100
/// 80GB used by the paper (108 SMs, ~2 TB/s HBM2e, 164 KB shared memory
/// per SM, 1.41 GHz). The cost model (cost_model.h) converts hardware
/// counters collected during a functionally-executed search into a time
/// estimate on this device; see README "Measured vs modeled time" for why this
/// substitution preserves the paper's comparisons.
struct DeviceSpec {
  std::string name = "A100-80GB (modeled)";
  size_t sm_count = 108;
  size_t warp_size = 32;
  size_t max_threads_per_sm = 2048;
  size_t max_ctas_per_sm = 32;
  size_t registers_per_sm = 65536;       ///< 32-bit registers.
  size_t max_registers_per_thread = 255;
  size_t shared_mem_per_sm = 164 * 1024; ///< bytes
  double clock_hz = 1.41e9;
  double mem_bandwidth = 1.9e12;         ///< bytes/s, effective HBM
  double mem_latency = 450e-9;           ///< s, device-memory round trip
  double shared_latency = 22e-9;         ///< s, shared-memory op
  double kernel_launch_overhead = 4e-6;  ///< s per launch
  size_t fp32_lanes_per_sm = 64;         ///< FMA units (2 flops/cycle each)
  size_t load_bytes_per_thread = 16;     ///< 128-bit vectorized load

  /// Peak fp32 flops/s across the device.
  double PeakFlops() const {
    return static_cast<double>(sm_count) *
           static_cast<double>(fp32_lanes_per_sm) * 2.0 * clock_hz;
  }
};

/// Parameters of the modeled baseline CPU (paper: AMD EPYC 7742, 64
/// cores). CPU baselines are *measured* single-threaded on the host; the
/// model only supplies the multi-core scaling the paper's best-OpenMP
/// configuration would reach for batch workloads.
struct CpuSpec {
  std::string name = "EPYC-7742 (modeled scaling)";
  size_t cores = 64;
  double parallel_efficiency = 0.85;  ///< batch search scales near-linearly

  /// Factor to multiply measured single-thread batch QPS by.
  double BatchScale() const {
    return static_cast<double>(cores) * parallel_efficiency;
  }
};

}  // namespace cagra

#endif  // CAGRA_GPUSIM_DEVICE_SPEC_H_
