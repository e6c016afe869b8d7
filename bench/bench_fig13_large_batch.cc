// Reproduces Fig. 13: large-batch (10k) QPS-recall for CAGRA (FP32 and
// FP16), GGNN, GANNS on the modeled A100, and HNSW / NSSG on the modeled
// 64-core EPYC. GPU QPS comes from the device cost model over real
// execution counters; CPU QPS is measured single-thread time scaled by
// the parallel-efficiency model (README "Measured vs modeled time").
// Recall is real everywhere.
#include <cstdio>

#include "baselines/ganns/ganns.h"
#include "baselines/ggnn/ggnn.h"
#include "baselines/hnsw/hnsw.h"
#include "baselines/nssg/nssg.h"
#include "bench/common.h"

namespace {

using namespace cagra;

constexpr size_t kPaperBatch = 10000;

void CagraCurves(const bench::Workbench& wb) {
  BuildParams bp;
  bp.graph_degree = wb.profile->cagra_degree;
  bp.metric = wb.profile->metric;
  auto index = CagraIndex::Build(wb.data.base, bp);
  if (!index.ok()) return;
  index->EnableHalfPrecision();
  const auto gt10 = bench::GtAtK(wb, 10);

  for (const Precision prec : {Precision::kFp32, Precision::kFp16}) {
    std::printf("  %-14s GPU ",
                prec == Precision::kFp32 ? "CAGRA (FP32)" : "CAGRA (FP16)");
    for (size_t itopk : {16, 32, 64, 128, 256}) {
      SearchParams sp;
      sp.k = 10;
      sp.itopk = itopk;
      sp.algo = SearchAlgo::kSingleCta;
      sp.precision = prec;
      auto r = Search(*index, wb.data.queries, sp);
      if (!r.ok()) continue;
      std::printf("  %.3f/%.2e", ComputeRecall(r->neighbors, gt10),
                  bench::ModeledQpsAtBatch(*r, kPaperBatch));
    }
    std::printf("\n");
  }
}

void GgnnCurve(const bench::Workbench& wb) {
  GgnnParams gp;
  gp.degree = wb.profile->cagra_degree;
  gp.metric = wb.profile->metric;
  GgnnIndex index = GgnnIndex::Build(wb.data.base, gp);
  const auto gt10 = bench::GtAtK(wb, 10);
  DeviceSpec dev;
  std::printf("  %-14s GPU ", "GGNN");
  for (size_t ef : {20, 40, 80, 160, 320}) {
    KernelCounters counters;
    const NeighborList r = index.Search(wb.data.queries, 10, ef, &counters);
    auto launch = index.LaunchConfig(kPaperBatch);
    // Scale counters to the paper batch.
    SearchResult fake;
    fake.counters = counters;
    fake.launch = launch;
    fake.launch.batch = wb.data.queries.rows();
    std::printf("  %.3f/%.2e", ComputeRecall(r, gt10),
                bench::ModeledQpsAtBatch(fake, kPaperBatch, dev));
  }
  std::printf("\n");
}

void GannsCurve(const bench::Workbench& wb) {
  GannsParams ap;
  ap.m = wb.profile->cagra_degree / 2;
  ap.metric = wb.profile->metric;
  GannsIndex index = GannsIndex::Build(wb.data.base, ap);
  const auto gt10 = bench::GtAtK(wb, 10);
  DeviceSpec dev;
  std::printf("  %-14s GPU ", "GANNS");
  for (size_t ef : {20, 40, 80, 160, 320}) {
    KernelCounters counters;
    const NeighborList r = index.Search(wb.data.queries, 10, ef, &counters);
    SearchResult fake;
    fake.counters = counters;
    fake.launch = index.LaunchConfig(wb.data.queries.rows());
    std::printf("  %.3f/%.2e", ComputeRecall(r, gt10),
                bench::ModeledQpsAtBatch(fake, kPaperBatch, dev));
  }
  std::printf("\n");
}

void HnswCurve(const bench::Workbench& wb) {
  HnswParams hp;
  hp.m = wb.profile->cagra_degree / 2;
  hp.metric = wb.profile->metric;
  HnswIndex index = HnswIndex::Build(wb.data.base, hp);
  const auto gt10 = bench::GtAtK(wb, 10);
  std::printf("  %-14s CPU ", "HNSW");
  for (size_t ef : {20, 40, 80, 160, 320}) {
    Timer t;
    const NeighborList r = index.Search(wb.data.queries, 10, ef);
    const double qps =
        bench::ScaledCpuBatchQps(t.Seconds(), wb.data.queries.rows());
    std::printf("  %.3f/%.2e", ComputeRecall(r, gt10), qps);
  }
  std::printf("\n");
}

void NssgCurve(const bench::Workbench& wb) {
  // Fig. 13 note: NSSG is searched with the HNSW bottom-layer (flat)
  // multi-threaded implementation for fairness; we reuse its graph with
  // the flat ef-search.
  NssgParams np;
  np.degree = wb.profile->cagra_degree;
  np.knn_k = wb.profile->cagra_degree;
  np.metric = wb.profile->metric;
  NssgIndex index = NssgIndex::Build(wb.data.base, np);
  const auto gt10 = bench::GtAtK(wb, 10);
  std::printf("  %-14s CPU ", "NSSG");
  for (size_t pool : {20, 40, 80, 160, 320}) {
    Timer t;
    const NeighborList r = index.Search(wb.data.queries, 10, pool);
    const double qps =
        bench::ScaledCpuBatchQps(t.Seconds(), wb.data.queries.rows());
    std::printf("  %.3f/%.2e", ComputeRecall(r, gt10), qps);
  }
  std::printf("\n");
}

void RunDataset(const char* name) {
  const auto wb = bench::MakeWorkbench(name, 250, 10);
  bench::PrintSeriesHeader("Fig. 13", name,
                           "(recall@10 / QPS across 5 breadth settings)");
  CagraCurves(wb);
  GgnnCurve(wb);
  GannsCurve(wb);
  HnswCurve(wb);
  NssgCurve(wb);
}

}  // namespace

int main() {
  for (const char* name : {"SIFT-1M", "GIST-1M", "GloVe-200", "NYTimes"}) {
    RunDataset(name);
  }
  std::printf(
      "\nExpected shape (paper): CAGRA dominates everything at 90-95%%\n"
      "recall (33-77x over HNSW, 3.8-8.8x over the GPU baselines); FP16\n"
      "adds throughput at no recall cost, most visibly on GIST.\n");
  return 0;
}
