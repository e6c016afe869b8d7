#include "common.h"

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <random>

#include "dataset/profile.h"
#include "dataset/synthetic.h"
#include "knn/bruteforce.h"

namespace hostbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order of BENCHMARK.json's per_layer.
constexpr LayerMetric kLayerMetrics[] = {
    {"knn.nn_descent_s", "s"},
    {"knn.distances", "count"},
    {"knn.iterations", "count"},
    {"optimize.reorder_s", "s"},
    {"optimize.reverse_s", "s"},
    {"optimize.merge_s", "s"},
    {"search.us_per_query", "us"},
    {"search.iterations_pq", "count/query"},
    {"search.distances_pq", "count/query"},
    {"search.hash_probes_pq", "count/query"},
    {"search.hash_resets_pq", "count/query"},
    {"search.sort_exchanges_pq", "count/query"},
    {"search.probe_miss_frac", "ratio"},
    {"serving.queue_wait_ms.p50", "ms"},
    {"serving.queue_wait_ms.p99", "ms"},
    {"serving.execute_ms.p50", "ms"},
    {"serving.execute_ms.p99", "ms"},
    {"serving.batch_rows_mean", "rows"},
    {"serving.shed", "count"},
    {"serving.deadline_expired", "count"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.lag_ms.max", "ms"},
    {"pq.train_s", "s"},
    {"pq.adc_table_us", "us"},
    {"ooc.load_s", "s"},
    {"ooc.major_faults", "count"},
    {"ooc.minor_faults", "count"},
    {"sharded.search_ms", "ms"},
    {"sharded.rows_examined_pq", "count/query"},
    {"index.add_ms.p50", "ms"},
    {"index.add_ms.p99", "ms"},
    {"index.remove_ms.p50", "ms"},
    {"index.remove_ms.p99", "ms"},
    {"index.dead_frac_max", "ratio"},
    {"index.compactions_observed", "count"},
    {"index.compact_s", "s"},
    {"gpusim.modeled_us_per_query", "modeled_us"},
    {"process.cpu_s", "s"},
    {"process.wall_s", "s"},
    {"trace.overhead_pct", "%"},
};

double PerQuery(double total, size_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

}  // namespace

const cagra::DatasetProfile& Profile() {
  return *cagra::FindProfile("DEEP-1M");
}

cagra::BuildParams MakeBuildParams() {
  cagra::BuildParams p;
  p.graph_degree = kDegree;
  p.metric = Profile().metric;
  return p;
}

namespace {

cagra::Matrix<float> Gather(const cagra::Matrix<float>& m,
                            const std::vector<size_t>& rows) {
  cagra::Matrix<float> out(rows.size(), m.dim());
  for (size_t i = 0; i < rows.size(); i++) {
    std::copy(m.Row(rows[i]), m.Row(rows[i]) + m.dim(), out.MutableRow(i));
  }
  return out;
}

std::vector<size_t> Shuffled(size_t n, std::mt19937_64* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), *rng);
  return order;
}

}  // namespace

Inputs MakeInputs(size_t rows, size_t queries, size_t extra, uint64_t seed) {
  cagra::SyntheticData corpus =
      cagra::GenerateDataset(Profile(), rows + extra, 2 * queries, kCorpusSeed);
  std::mt19937_64 rng(seed);
  Inputs in;
  std::vector<size_t> picked = Shuffled(corpus.queries.rows(), &rng);
  picked.resize(queries);
  in.queries = Gather(corpus.queries, picked);
  std::vector<size_t> order = Shuffled(extra, &rng);
  for (size_t& r : order) r += rows;
  in.extra = Gather(corpus.base, order);
  in.base = SliceRows(corpus.base, 0, rows);
  return in;
}

cagra::Matrix<float> SliceRows(const cagra::Matrix<float>& m, size_t begin,
                               size_t count) {
  cagra::Matrix<float> out(count, m.dim());
  std::copy(m.data().begin() + begin * m.dim(),
            m.data().begin() + (begin + count) * m.dim(),
            out.mutable_data()->begin());
  return out;
}

cagra::Matrix<uint32_t> GroundTruth(const cagra::Matrix<float>& base,
                                    const cagra::Matrix<float>& queries) {
  return cagra::ComputeGroundTruth(base, queries, kK, Profile().metric);
}

double RowRecall(const uint32_t* got, const uint32_t* truth, size_t k) {
  size_t hit = 0;
  for (size_t i = 0; i < k; i++) {
    if (std::find(truth, truth + k, got[i]) != truth + k) hit++;
  }
  return static_cast<double>(hit) / static_cast<double>(k);
}

void SearchTally::Add(const cagra::SearchResult& r, double seconds) {
  counters.Add(r.counters);
  host_seconds += seconds;
  modeled_seconds += r.modeled_seconds;
  const size_t n = r.neighbors.num_queries();
  queries += n;
  if (r.algo_used == cagra::SearchAlgo::kMultiCta) multi_cta_queries += n;
  for (uint64_t e : r.rows_examined) rows_examined += e;
}

void SearchTally::Merge(const SearchTally& o) {
  counters.Add(o.counters);
  host_seconds += o.host_seconds;
  modeled_seconds += o.modeled_seconds;
  queries += o.queries;
  multi_cta_queries += o.multi_cta_queries;
  rows_examined += o.rows_examined;
}

void ZeroLayerMetrics(Report* report) {
  for (const LayerMetric& m : kLayerMetrics) report->Metric(m.name, 0, m.unit);
}

void BuildLayerMetrics(const std::vector<cagra::BuildStats>& builds,
                       Report* report) {
  double knn_s = 0, reorder_s = 0, reverse_s = 0, merge_s = 0;
  double distances = 0, iterations = 0;
  for (const cagra::BuildStats& b : builds) {
    knn_s += b.knn.seconds;
    distances += static_cast<double>(b.knn.distance_computations);
    iterations += static_cast<double>(b.knn.iterations);
    reorder_s += b.optimize.reorder_seconds;
    reverse_s += b.optimize.reverse_seconds;
    merge_s += b.optimize.merge_seconds;
  }
  report->Metric("knn.nn_descent_s", knn_s, "s");
  report->Metric("knn.distances", distances, "count");
  report->Metric("knn.iterations", iterations, "count");
  report->Metric("optimize.reorder_s", reorder_s, "s");
  report->Metric("optimize.reverse_s", reverse_s, "s");
  report->Metric("optimize.merge_s", merge_s, "s");
}

void SearchLayerMetrics(const SearchTally& t, Report* report) {
  const cagra::KernelCounters& c = t.counters;
  const double probes =
      static_cast<double>(c.hash_probes_shared + c.hash_probes_device);
  report->Metric("search.us_per_query", PerQuery(t.host_seconds * 1e6, t.queries), "us");
  report->Metric("search.iterations_pq", PerQuery(c.iterations, t.queries), "count/query");
  report->Metric("search.distances_pq",
                 PerQuery(c.distance_computations, t.queries), "count/query");
  report->Metric("search.hash_probes_pq", PerQuery(probes, t.queries), "count/query");
  report->Metric("search.hash_resets_pq", PerQuery(c.hash_resets, t.queries), "count/query");
  report->Metric("search.sort_exchanges_pq",
                 PerQuery(c.sort_exchanges, t.queries), "count/query");
  report->Metric("search.probe_miss_frac",
                 probes == 0 ? 0.0 : static_cast<double>(c.distance_computations) / probes,
                 "ratio");
  report->Metric("gpusim.modeled_us_per_query",
                 PerQuery(t.modeled_seconds * 1e6, t.queries), "modeled_us");
  report->Detail("search.multi_cta_query_frac",
                 PerQuery(static_cast<double>(t.multi_cta_queries), t.queries));
  report->Detail("search.queries_traced", static_cast<double>(t.queries));
}

void EndToEndMetrics(const EndToEnd& e2e, Report* report) {
  report->Metric("setup_s", e2e.setup_s, "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Metric("recall_at_10", e2e.recall_at_10, "ratio");
  report->Metric("search_qps", e2e.search_qps, "1/s");
  report->Metric("search_p50_ms", e2e.search_p50_ms, "ms");
}

void WorkloadMetric(const std::string& name, double value,
                    const std::string& unit, Report* report,
                    const std::string& status) {
  std::string json = "{\"value\": " + JsonNumber(value) +
                     ", \"unit\": " + JsonString(unit);
  if (!status.empty()) json += ", \"status\": " + JsonString(status);
  report->Detail("workload_metrics." + name, json + "}");
}

void ProcessMetrics(const PhaseClock& clock, Report* report) {
  report->Metric("process.cpu_s", clock.after.cpu_s() - clock.before.cpu_s(), "s");
  report->Metric("process.wall_s", clock.wall_s, "s");
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      if (f >> kb) return kb / 1024.0;
      break;
    }
    f.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return Usage::Now().max_rss_mb;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

void TraceOverhead(double untraced, double traced, Report* report) {
  const double pct = untraced > 0 ? (traced - untraced) / untraced * 100.0 : 0.0;
  report->Metric("trace.overhead_pct", pct, "%");
  report->Detail("trace.untraced", untraced);
  report->Detail("trace.traced", traced);
}

void DumpSpans(const Args& args, const Tracer& tracer, Report* report) {
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string path = args.out_dir + "/spans-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  report->Check(tracer.Dump(path), "write span dump " + path);
  std::string busy = "{";
  for (const auto& [name, s] : tracer.SecondsByName()) {
    busy += (busy.size() > 1 ? ", " : "") + JsonString(name) + ": " + JsonNumber(s);
  }
  report->Detail("span_seconds", busy + "}");
  report->DetailString("span_dump", path);
  report->Detail("spans", static_cast<double>(tracer.size()));
}

}  // namespace hostbench
