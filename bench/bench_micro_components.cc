// Component microbenchmarks (google-benchmark): the §IV-B building
// blocks — visited-set probing, distance kernels fp32 vs fp16, and
// NN-descent vs exact kNN-graph construction.
#include <benchmark/benchmark.h>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "distance/distance.h"
#include "knn/bruteforce.h"
#include "knn/nn_descent.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace {

using namespace cagra;

void BM_VisitedSetInsert(benchmark::State& state) {
  Pcg32 rng(7);
  for (auto _ : state) {
    VisitedSet set(8192);
    for (int i = 0; i < 4096; i++) {
      benchmark::DoNotOptimize(set.InsertIfAbsent(rng.Next()));
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_VisitedSetInsert);

void BM_VisitedSetResetCycle(benchmark::State& state) {
  VisitedSet set(1024);
  Pcg32 rng(9);
  for (auto _ : state) {
    for (int i = 0; i < 512; i++) set.InsertIfAbsent(rng.Next());
    set.Reset();
  }
}
BENCHMARK(BM_VisitedSetResetCycle);

void BM_DistanceFp32(benchmark::State& state) {
  const size_t dim = state.range(0);
  Pcg32 rng(3);
  std::vector<float> a(dim), b(dim);
  for (size_t i = 0; i < dim; i++) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDistance(Metric::kL2, a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DistanceFp32)->Arg(96)->Arg(128)->Arg(200)->Arg(960);

void BM_DistanceFp16(benchmark::State& state) {
  const size_t dim = state.range(0);
  Pcg32 rng(3);
  std::vector<float> a(dim);
  std::vector<Half> b(dim);
  for (size_t i = 0; i < dim; i++) {
    a[i] = rng.NextFloat();
    b[i] = Half(rng.NextFloat());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeDistance(Metric::kL2, a.data(), b.data(), dim));
  }
  state.SetItemsProcessed(state.iterations() * dim);
}
BENCHMARK(BM_DistanceFp16)->Arg(96)->Arg(960);

void BM_NnDescentBuild(benchmark::State& state) {
  const size_t n = state.range(0);
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), n, 1, 5);
  for (auto _ : state) {
    NnDescentParams params;
    params.k = 32;
    benchmark::DoNotOptimize(
        BuildKnnGraphNnDescent(data.base, params, Metric::kL2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NnDescentBuild)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_ExactKnnGraphBuild(benchmark::State& state) {
  const size_t n = state.range(0);
  auto data = GenerateDataset(*FindProfile("DEEP-1M"), n, 1, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactKnnGraph(data.base, 32, Metric::kL2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactKnnGraphBuild)->Arg(1000)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
