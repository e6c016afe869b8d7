// Reproduces Fig. 14: single-query (online) QPS-recall. CAGRA uses the
// multi-CTA mapping at the width that fills the modeled A100 (passed
// explicitly: Search's auto plan caps it for the host); GGNN/GANNS run one CTA per query (their large-batch
// design, which is why the paper shows them far below even the CPU
// methods here); HNSW/NSSG are single-thread CPU measurements (no
// multi-core scaling — one query cannot use 64 cores).
//
// Output is a single JSON object (same schema family as bench_dispatch)
// so the bench-json CI artifact can accumulate the trajectory across
// commits: per dataset, per method, recall@10 + QPS at each breadth.
// A series flagged "saturated" already reads recall 1.0 at the smallest
// breadth, so at this scale it shows no recall-throughput trade-off.
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/ganns/ganns.h"
#include "baselines/ggnn/ggnn.h"
#include "baselines/hnsw/hnsw.h"
#include "baselines/nssg/nssg.h"
#include "bench/common.h"

namespace {

using namespace cagra;

constexpr size_t kQueries = 16;
constexpr size_t kBreadths[] = {32, 64, 128, 256};

struct Point {
  size_t breadth = 0;
  double recall = 0;
  double qps = 0;
};

struct Series {
  std::string method;
  const char* device = "GPU";
  std::vector<Point> points;

  /// Recall is already 1.0 at the smallest breadth, so the curve shows
  /// no recall-throughput trade-off at this dataset scale.
  bool Saturated() const {
    return !points.empty() && points.front().recall >= 1.0;
  }
};

struct DatasetResult {
  std::string name;
  std::vector<Series> series;
};

void CagraRows(const bench::Workbench& wb, std::vector<Series>* out) {
  BuildParams bp;
  bp.graph_degree = wb.profile->cagra_degree;
  bp.metric = wb.profile->metric;
  auto index = CagraIndex::Build(wb.data.base, bp);
  if (!index.ok()) return;
  index->EnableHalfPrecision();

  for (const Precision prec : {Precision::kFp32, Precision::kFp16}) {
    Series s;
    s.method = prec == Precision::kFp32 ? "CAGRA (FP32)" : "CAGRA (FP16)";
    s.device = "GPU";
    for (size_t itopk : kBreadths) {
      SearchParams sp;
      sp.k = 10;
      sp.itopk = itopk;
      sp.algo = SearchAlgo::kMultiCta;  // Table II: small batch
      sp.cta_per_query = bench::A100FillCtaPerQuery(1, itopk);
      sp.precision = prec;
      Matrix<float> one(1, wb.data.queries.dim());
      double recall_sum = 0;
      const double qps = bench::AverageSingleQueryQps(
          wb.data.queries, kQueries, [&](size_t q) {
            std::copy(wb.data.queries.Row(q),
                      wb.data.queries.Row(q) + one.dim(), one.MutableRow(0));
            auto r = Search(*index, one, sp);
            if (!r.ok()) return 1.0;
            Matrix<uint32_t> gt(1, 10);
            for (size_t i = 0; i < 10; i++) {
              gt.MutableRow(0)[i] = wb.gt.Row(q)[i];
            }
            recall_sum += ComputeRecall(r->neighbors, gt);
            return r->modeled_seconds;
          });
      s.points.push_back({itopk, recall_sum / kQueries, qps});
    }
    out->push_back(std::move(s));
  }
}

template <typename Index>
void GpuBaselineRow(const char* label, const Index& index,
                    const bench::Workbench& wb, std::vector<Series>* out) {
  DeviceSpec dev;
  Series s;
  s.method = label;
  s.device = "GPU";
  for (size_t ef : kBreadths) {
    Matrix<float> one(1, wb.data.queries.dim());
    double recall_sum = 0;
    double total_seconds = 0;
    for (size_t q = 0; q < kQueries; q++) {
      std::copy(wb.data.queries.Row(q), wb.data.queries.Row(q) + one.dim(),
                one.MutableRow(0));
      KernelCounters counters;
      const NeighborList r = index.Search(one, 10, ef, &counters);
      Matrix<uint32_t> gt(1, 10);
      for (size_t i = 0; i < 10; i++) gt.MutableRow(0)[i] = wb.gt.Row(q)[i];
      recall_sum += ComputeRecall(r, gt);
      total_seconds += EstimateKernelTime(dev, index.LaunchConfig(1),
                                          counters).total;
    }
    s.points.push_back({ef, recall_sum / kQueries, kQueries / total_seconds});
  }
  out->push_back(std::move(s));
}

template <typename SearchOneFn>
void CpuRow(const char* label, const bench::Workbench& wb,
            SearchOneFn&& search_one, std::vector<Series>* out) {
  Series s;
  s.method = label;
  s.device = "CPU";
  for (size_t ef : kBreadths) {
    double recall_sum = 0;
    Timer t;
    for (size_t q = 0; q < kQueries; q++) {
      auto r = search_one(q, ef);
      Matrix<uint32_t> gt(1, 10);
      for (size_t i = 0; i < 10; i++) gt.MutableRow(0)[i] = wb.gt.Row(q)[i];
      NeighborList nl;
      nl.k = 10;
      nl.ids.assign(10, 0xffffffffu);
      for (size_t i = 0; i < r.size() && i < 10; i++) nl.ids[i] = r[i].second;
      recall_sum += ComputeRecall(nl, gt);
    }
    // Single query cannot exploit 64 cores: measured 1-thread QPS as-is.
    s.points.push_back({ef, recall_sum / kQueries, kQueries / t.Seconds()});
  }
  out->push_back(std::move(s));
}

DatasetResult RunDataset(const char* name) {
  const auto wb = bench::MakeWorkbench(name, 64, 10);
  DatasetResult result;
  result.name = name;
  CagraRows(wb, &result.series);

  GgnnParams gp;
  gp.degree = wb.profile->cagra_degree;
  gp.metric = wb.profile->metric;
  const GgnnIndex ggnn = GgnnIndex::Build(wb.data.base, gp);
  GpuBaselineRow("GGNN", ggnn, wb, &result.series);

  GannsParams ap;
  ap.m = wb.profile->cagra_degree / 2;
  ap.metric = wb.profile->metric;
  const GannsIndex ganns = GannsIndex::Build(wb.data.base, ap);
  GpuBaselineRow("GANNS", ganns, wb, &result.series);

  HnswParams hp;
  hp.m = wb.profile->cagra_degree / 2;
  hp.metric = wb.profile->metric;
  const HnswIndex hnsw = HnswIndex::Build(wb.data.base, hp);
  CpuRow("HNSW", wb, [&](size_t q, size_t ef) {
    return hnsw.SearchOne(wb.data.queries.Row(q), 10, ef);
  }, &result.series);

  NssgParams np;
  np.degree = wb.profile->cagra_degree;
  np.knn_k = wb.profile->cagra_degree;
  np.metric = wb.profile->metric;
  const NssgIndex nssg = NssgIndex::Build(wb.data.base, np);
  CpuRow("NSSG", wb, [&](size_t q, size_t ef) {
    return nssg.SearchOne(wb.data.queries.Row(q), 10, ef);
  }, &result.series);
  return result;
}

}  // namespace

int main() {
  std::vector<DatasetResult> datasets;
  for (const char* name : {"SIFT-1M", "GIST-1M", "GloVe-200", "NYTimes"}) {
    datasets.push_back(RunDataset(name));
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"fig14_single_query\",\n");
  std::printf("  \"k\": 10,\n");
  std::printf("  \"queries_per_point\": %zu,\n", kQueries);
  // Paper expectation: CAGRA multi-CTA leads (3.4-53x over HNSW at 95%
  // recall); GGNN/GANNS single-query throughput falls below even the
  // CPU methods.
  std::printf("  \"datasets\": [\n");
  for (size_t d = 0; d < datasets.size(); d++) {
    const auto& ds = datasets[d];
    std::printf("    {\"name\": \"%s\", \"series\": [\n", ds.name.c_str());
    for (size_t i = 0; i < ds.series.size(); i++) {
      const auto& s = ds.series[i];
      std::printf("      {\"method\": \"%s\", \"device\": \"%s\", "
                  "\"saturated\": %s, \"points\": [",
                  s.method.c_str(), s.device,
                  s.Saturated() ? "true" : "false");
      for (size_t p = 0; p < s.points.size(); p++) {
        std::printf("%s{\"breadth\": %zu, \"recall\": %.3f, \"qps\": %.2e}",
                    p == 0 ? "" : ", ", s.points[p].breadth,
                    s.points[p].recall, s.points[p].qps);
      }
      std::printf("]}%s\n", i + 1 < ds.series.size() ? "," : "");
    }
    std::printf("    ]}%s\n", d + 1 < datasets.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
