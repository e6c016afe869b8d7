// Reproduces Table I: the dataset inventory used across the evaluation,
// alongside the scaled synthetic stand-in sizes this repo benches with.
#include <cstdio>

#include "bench/common.h"

int main() {
  using namespace cagra;
  std::printf("Table I: datasets used in the evaluations\n");
  bench::PrintRule();
  std::printf("%-12s %6s %12s %12s %8s %-13s\n", "Dataset", "Dim", "Paper N",
              "Repro N", "Degree", "Metric");
  bench::PrintRule();
  for (const auto& p : AllProfiles()) {
    std::printf("%-12s %6zu %12zu %12zu %8zu %-13s\n", p.name.c_str(), p.dim,
                p.paper_size, ScaledSize(p), p.cagra_degree,
                MetricName(p.metric).c_str());
  }
  bench::PrintRule();
  std::printf(
      "Repro N is the synthetic stand-in size (README, \"Synthetic profile\n"
      "scaling\"); set CAGRA_BENCH_SCALE=large to x4 every dataset.\n");
  return 0;
}
