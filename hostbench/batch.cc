// `batch`: offline large-batch search. One closed-loop client issues
// 10k-query batches against a RAM-resident fp32 index of 50k rows,
// sweeping itopk from k upward; QPS@recall is interpolated on the
// sweep's Pareto frontier (the ann-benchmarks convention), and most of
// the run goes to the operating point itopk 32, whose calls give the
// end-to-end throughput and latency. The Fig. 7
// rule resolves single-CTA at this batch size, so the single-CTA loop
// (sort/merge, forgettable hash, distance) carries the load while
// serving, sharding, PQ and the write path do no work.
#include <algorithm>
#include <string>
#include <vector>

#include "common.h"
#include "dataset/recall.h"

namespace hostbench {

namespace {

constexpr size_t kRows = 50000;
constexpr size_t kQueries = 10000;
/// itopk sweep (k upward). The fixed-recall point is kRecallItopk.
const std::vector<size_t> kSweep = {10, 12, 16, 24, 32, 48, 64};
constexpr size_t kRecallItopk = 32;
/// Share of a measured phase the sweep passes take; the operating
/// point gets the rest.
constexpr double kSweepShare = 0.25;
/// Recall floor of the fixed point; below it the search is broken.
constexpr double kRecallFloor = 0.95;
const double kTargets[] = {0.95, 0.99};

struct Point {
  size_t itopk = 0;
  double recall = 0;
  std::vector<double> qps;  ///< one per timed sweep pass
  double median_qps() const { return Median(qps); }
};

cagra::SearchParams ParamsFor(size_t itopk) {
  cagra::SearchParams p;
  p.k = kK;
  p.itopk = itopk;
  p.num_threads = kHostThreads;
  return p;
}

/// QPS at `target` recall, interpolated linearly between the two Pareto
/// frontier points that bracket it. Outside the sweep nothing is
/// extrapolated: a target below every frontier recall is "saturated"
/// (the fastest point already meets it; its QPS is a floor), one above
/// every recall is "unreached".
struct QpsAtRecall {
  double qps = 0;
  std::string status;
};
QpsAtRecall Interpolate(const std::vector<Point>& points, double target) {
  std::vector<std::pair<double, double>> frontier;  // (recall, qps)
  for (const Point& p : points) {
    bool dominated = false;
    for (const Point& o : points) {
      if (&o == &p) continue;
      const bool ge = o.recall >= p.recall && o.median_qps() >= p.median_qps();
      const bool gt = o.recall > p.recall || o.median_qps() > p.median_qps();
      if (ge && gt) dominated = true;
    }
    if (!dominated) frontier.push_back({p.recall, p.median_qps()});
  }
  std::sort(frontier.begin(), frontier.end());
  if (target <= frontier.front().first) return {frontier.front().second, "saturated"};
  if (target > frontier.back().first) return {0, "unreached"};
  for (size_t i = 1; i < frontier.size(); i++) {
    const auto [r0, q0] = frontier[i - 1];
    const auto [r1, q1] = frontier[i];
    if (target <= r1) {
      return {q0 + (q1 - q0) * (target - r0) / (r1 - r0), "interpolated"};
    }
  }
  return {0, "unreached"};
}

struct Measured {
  std::vector<Point> points;
  /// The operating point's calls, run after the sweep passes.
  std::vector<double> fixed_qps, fixed_call_ms;
  SearchTally tally;  ///< traced phases only
  PhaseClock clock;
};

/// One timed Search call over the whole query batch, checked against the
/// warm-up reference ids. Returns the call's seconds, or 0 when it failed
/// (which fails the run).
double TimedCall(const cagra::CagraIndex& index, const cagra::Matrix<float>& queries,
                 size_t itopk, const std::vector<uint32_t>& reference,
                 Tracer& tracer, SearchTally* tally, Report* report) {
  const Clock::time_point t0 = Clock::now();
  auto r = cagra::Search(index, queries, ParamsFor(itopk));
  const Clock::time_point t1 = Clock::now();
  tracer.Record("core.Search", t0, t1);
  if (!r.ok()) {
    report->Check(false, "batch search: " + r.status().ToString());
    return 0;
  }
  report->Check(r->neighbors.ids == reference,
                "batch results repeat exactly at itopk " + std::to_string(itopk));
  if (tracer.enabled()) tally->Add(*r, SecondsBetween(t0, t1));
  return SecondsBetween(t0, t1);
}

/// One measured phase of `seconds`. First, sweep passes for
/// kSweepShare of it (at least two): every point once per pass, in an
/// order rotated by the pass, for the QPS@recall frontier. Then the
/// operating point (itopk kRecallItopk) call after call for the rest:
/// search_qps and the call latency are medians over these calls, so
/// they rest on most of the phase rather than on a few calls per point.
Measured MeasurePhase(const cagra::CagraIndex& index,
                      const cagra::Matrix<float>& queries,
                      const std::vector<std::vector<uint32_t>>& reference,
                      const std::vector<Point>& points, double seconds,
                      Tracer& tracer, Report* report) {
  Measured m;
  m.points = points;
  const double rows = static_cast<double>(queries.rows());
  double swept = 0;
  for (size_t pass = 0; pass < 2 || swept < seconds * kSweepShare; pass++) {
    for (size_t j = 0; j < points.size(); j++) {
      const size_t i = (j + pass) % points.size();
      const double s = TimedCall(index, queries, points[i].itopk, reference[i],
                                 tracer, &m.tally, report);
      if (s == 0) return m;
      swept += s;
      m.points[i].qps.push_back(rows / s);
    }
  }
  size_t fixed = 0;
  while (points[fixed].itopk != kRecallItopk) fixed++;
  for (double spent = 0; spent < seconds - swept;) {
    const double s = TimedCall(index, queries, kRecallItopk, reference[fixed],
                               tracer, &m.tally, report);
    if (s == 0) break;
    spent += s;
    m.fixed_qps.push_back(rows / s);
    m.fixed_call_ms.push_back(s * 1e3);
  }
  m.clock.Stop();
  return m;
}

}  // namespace

void RunBatch(const Args& args, Report* report) {
  const Inputs data = MakeInputs(kRows, kQueries, 0, args.seed);

  const Clock::time_point s0 = Clock::now();
  cagra::BuildStats build_stats;
  auto built = cagra::CagraIndex::Build(data.base, MakeBuildParams(), &build_stats);
  const double setup_s = SecondsBetween(s0, Clock::now());
  report->Check(built.ok(), "build: " + (built.ok() ? "" : built.status().ToString()));
  if (!built.ok()) return;
  const cagra::CagraIndex& index = *built;

  const cagra::Matrix<uint32_t> gt = GroundTruth(data.base, data.queries);

  // Warm-up pass (untimed): fills the per-thread search scratch and the
  // dedicated pool, and records each point's recall and reference ids.
  std::vector<Point> points;
  std::vector<std::vector<uint32_t>> reference;
  for (size_t itopk : kSweep) {
    auto r = cagra::Search(index, data.queries, ParamsFor(itopk));
    report->Check(r.ok(), "warm-up search");
    if (!r.ok()) return;
    points.push_back(Point{itopk, cagra::ComputeRecall(r->neighbors, gt), {}});
    reference.push_back(r->neighbors.ids);
  }

  double recall_fixed = 0;
  for (const Point& p : points) {
    if (p.itopk == kRecallItopk) recall_fixed = p.recall;
  }
  report->Check(recall_fixed >= kRecallFloor,
                "recall@10 at itopk 32 = " + std::to_string(recall_fixed) +
                    " below floor " + std::to_string(kRecallFloor));

  Tracer off(false);
  const Measured untraced = MeasurePhase(index, data.queries, reference, points,
                                         args.seconds, off, report);
  const std::vector<Point>& measured = untraced.points;

  std::string sweep = "[";
  for (size_t i = 0; i < measured.size(); i++) {
    const Point& p = measured[i];
    sweep += (i ? ", " : "") + std::string("{\"itopk\": ") +
             std::to_string(p.itopk) + ", \"recall\": " + JsonNumber(p.recall) +
             ", \"qps_median\": " + JsonNumber(p.median_qps()) +
             ", \"passes\": " + std::to_string(p.qps.size()) + "}";
  }
  report->Detail("sweep", sweep + "]");

  std::vector<QpsAtRecall> at(std::size(kTargets));
  for (size_t t = 0; t < std::size(kTargets); t++) {
    at[t] = Interpolate(measured, kTargets[t]);
    report->Check(at[t].status != "unreached",
                  "recall target " + std::to_string(kTargets[t]) +
                      " unreached by the itopk sweep");
  }

  if (!args.trace) {
    // search_qps, the latencies and recall_at_10 are those of the
    // operating point: 10k-query batch calls at itopk kRecallItopk.
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.recall_at_10 = recall_fixed;
    e2e.search_qps = Median(untraced.fixed_qps);
    e2e.search_p50_ms = Median(untraced.fixed_call_ms);
    EndToEndMetrics(e2e, report);
    WorkloadMetric("search_p95_ms", Quantile(untraced.fixed_call_ms, 0.95), "ms",
                   report);
    report->Detail("operating_point_calls",
                   static_cast<double>(untraced.fixed_call_ms.size()));
    WorkloadMetric("qps_at_r95", at[0].qps, "1/s", report, at[0].status);
    WorkloadMetric("qps_at_r99", at[1].qps, "1/s", report, at[1].status);
    return;
  }

  // Traced phase: same passes with a span per Search call and the
  // library's counters summed; per-layer metrics come from here only.
  Tracer tracer(true);
  const Measured traced = MeasurePhase(index, data.queries, reference, points,
                                       args.seconds, tracer, report);

  ZeroLayerMetrics(report);
  BuildLayerMetrics({build_stats}, report);
  SearchLayerMetrics(traced.tally, report);
  ProcessMetrics(traced.clock, report);
  TraceOverhead(Median(untraced.fixed_call_ms), Median(traced.fixed_call_ms), report);
  DumpSpans(args, tracer, report);
}

}  // namespace hostbench
