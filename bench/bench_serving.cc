// Serving-layer bench: open-loop Poisson arrivals against the
// micro-batching scheduler (src/serving/). Production traffic reaches
// an ANN service one query at a time; every fast path in this repo
// wants batches. This bench measures how much of the batch throughput
// the scheduler recovers, and what latency SLO it buys it with:
//
//   - saturation: single-query-at-a-time (max_batch=1) vs micro-batched
//     (max_batch=64, 1 ms collect window) capacity under unbounded
//     offered load — the acceptance number is the QPS speedup.
//   - load sweep: offered-load fractions of the micro-batched capacity,
//     reporting p50/p95/p99 latency, achieved QPS, mean batch size, and
//     shed count per point — the latency/QPS curve later PRs move.
//   - deadline sweep: the same open-loop client stamping a per-request
//     deadline (1/5/20 ms) on every Submit, reporting what fraction of
//     requests actually met it end-to-end, with deadline-truncated
//     partials, formation-time sheds, and queue sheds counted
//     separately — the SLO view of the scheduler.
//
// Emits one JSON object on stdout (CI uploads it with the other bench
// artifacts). `bench_serving smoke` shrinks the dataset and request
// counts for the CI smoke job.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/searcher.h"
#include "dataset/pq.h"
#include "distance/distance.h"
#include "serving/serving.h"
#include "util/timer.h"

namespace {

using namespace cagra;

struct LoadPointSample {
  double offered_qps = 0;   ///< 0 = unbounded (saturating)
  double achieved_qps = 0;  ///< completed / wall time (host, functional)
  double modeled_qps = 0;   ///< completed / modeled device seconds
  double p50_us = 0, p95_us = 0, p99_us = 0;
  double mean_batch_rows = 0;
  size_t submitted = 0, completed = 0, shed = 0;
};

/// Drives one scheduler instance open-loop: a single client thread
/// draws Exp(offered_qps) inter-arrival gaps (offered_qps <= 0 =
/// back-to-back, i.e. saturating) and submits `num_requests` random
/// queries, then waits for every future. Latency percentiles come from
/// the scheduler's own snapshot — queue wait + batched search, the
/// number an SLO is written against.
LoadPointSample RunLoadPoint(const Searcher& searcher,
                             const ServingOptions& options,
                             const Matrix<float>& queries, size_t k,
                             double offered_qps, size_t num_requests,
                             uint64_t seed) {
  ServingOptions opt = options;
  opt.latency_window = num_requests;  // percentiles over the whole run
  ServingScheduler sched(searcher, opt);

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_seconds(
      offered_qps > 0 ? offered_qps : 1.0);
  std::uniform_int_distribution<size_t> pick_row(0, queries.rows() - 1);

  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(num_requests);
  auto next_arrival = ServingScheduler::Clock::now();
  Timer wall;
  for (size_t i = 0; i < num_requests; i++) {
    if (offered_qps > 0) {
      next_arrival += std::chrono::duration_cast<
          ServingScheduler::Clock::duration>(
          std::chrono::duration<double>(gap_seconds(rng)));
      std::this_thread::sleep_until(next_arrival);
    }
    futures.push_back(sched.Submit(queries.Row(pick_row(rng)), k));
  }
  size_t completed = 0;
  for (auto& f : futures) {
    if (f.get().ok()) completed++;
  }
  const double elapsed = wall.Seconds();
  sched.Shutdown();
  const ServingStats stats = sched.Snapshot();

  LoadPointSample sample;
  sample.offered_qps = offered_qps;
  sample.achieved_qps =
      elapsed > 0 ? static_cast<double>(completed) / elapsed : 0.0;
  sample.modeled_qps = stats.modeled_qps;
  sample.p50_us = stats.p50_us;
  sample.p95_us = stats.p95_us;
  sample.p99_us = stats.p99_us;
  sample.mean_batch_rows = stats.mean_batch_rows;
  sample.submitted = stats.submitted;
  sample.completed = stats.completed;
  sample.shed = stats.shed;
  return sample;
}

struct DeadlinePointSample {
  double deadline_ms = 0;
  double offered_qps = 0;
  size_t requests = 0;
  size_t met = 0;            ///< complete response delivered by the deadline
  size_t late_complete = 0;  ///< complete, but past the deadline
  size_t partial = 0;        ///< deadline truncated the search mid-flight
  size_t expired_shed = 0;   ///< kDeadlineExceeded at batch formation
  size_t queue_shed = 0;     ///< kUnavailable admission shed
  size_t failed = 0;         ///< anything else (should be zero)
  double met_fraction = 0;
};

/// Open-loop client as in RunLoadPoint, but every Submit carries
/// deadline = its own arrival + `deadline`. A request "meets" the
/// deadline only if its complete response was ready within the budget
/// (QueryResponse::total_us measures enqueue -> response ready, the
/// client-visible latency); best-effort partials and sheds are the
/// degraded outcomes the deadline machinery exists to make explicit,
/// so they are counted per class instead of folded into a mean.
DeadlinePointSample RunDeadlinePoint(const Searcher& searcher,
                                     const ServingOptions& options,
                                     const Matrix<float>& queries, size_t k,
                                     double offered_qps,
                                     std::chrono::microseconds deadline,
                                     size_t num_requests, uint64_t seed) {
  ServingOptions opt = options;
  opt.latency_window = num_requests;
  ServingScheduler sched(searcher, opt);

  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap_seconds(
      offered_qps > 0 ? offered_qps : 1.0);
  std::uniform_int_distribution<size_t> pick_row(0, queries.rows() - 1);

  std::vector<std::future<Result<QueryResponse>>> futures;
  futures.reserve(num_requests);
  auto next_arrival = ServingScheduler::Clock::now();
  for (size_t i = 0; i < num_requests; i++) {
    if (offered_qps > 0) {
      next_arrival += std::chrono::duration_cast<
          ServingScheduler::Clock::duration>(
          std::chrono::duration<double>(gap_seconds(rng)));
      std::this_thread::sleep_until(next_arrival);
    }
    futures.push_back(sched.Submit(queries.Row(pick_row(rng)), k,
                                   ServingScheduler::Clock::now() + deadline));
  }

  DeadlinePointSample sample;
  sample.deadline_ms =
      std::chrono::duration<double, std::milli>(deadline).count();
  sample.offered_qps = offered_qps;
  sample.requests = num_requests;
  const double budget_us =
      std::chrono::duration<double, std::micro>(deadline).count();
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.ok()) {
      switch (r.status().code()) {
        case StatusCode::kDeadlineExceeded: sample.expired_shed++; break;
        case StatusCode::kUnavailable: sample.queue_shed++; break;
        default: sample.failed++; break;
      }
    } else if (!r->complete) {
      sample.partial++;
    } else if (r->total_us <= budget_us) {
      sample.met++;
    } else {
      sample.late_complete++;
    }
  }
  sched.Shutdown();
  sample.met_fraction = num_requests > 0
                            ? static_cast<double>(sample.met) /
                                  static_cast<double>(num_requests)
                            : 0.0;
  return sample;
}

void PrintDeadlineSample(const char* indent, const DeadlinePointSample& s,
                         bool last) {
  std::printf(
      "%s{\"deadline_ms\": %.0f, \"offered_qps\": %.1f, \"requests\": %zu, "
      "\"met\": %zu, \"met_fraction\": %.4f, \"late_complete\": %zu, "
      "\"partial\": %zu, \"expired_shed\": %zu, \"queue_shed\": %zu, "
      "\"failed\": %zu}%s\n",
      indent, s.deadline_ms, s.offered_qps, s.requests, s.met, s.met_fraction,
      s.late_complete, s.partial, s.expired_shed, s.queue_shed, s.failed,
      last ? "" : ",");
}

void PrintSample(const char* indent, const LoadPointSample& s, bool last) {
  std::printf(
      "%s{\"offered_qps\": %.1f, \"host_wall_qps\": %.1f, "
      "\"modeled_qps\": %.1f, "
      "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
      "\"mean_batch_rows\": %.2f, \"completed\": %zu, \"shed\": %zu}%s\n",
      indent, s.offered_qps, s.achieved_qps, s.modeled_qps, s.p50_us,
      s.p95_us, s.p99_us, s.mean_batch_rows, s.completed, s.shed,
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "smoke") == 0;
  const size_t rows = smoke ? 6000 : 12000;
  const size_t saturate_requests = smoke ? 1500 : 6000;
  const size_t sweep_requests = smoke ? 1000 : 4000;

  const auto wb = bench::MakeWorkbench("DEEP-1M", 256, 10, rows);
  BuildParams bp;
  bp.graph_degree = wb.profile->cagra_degree;
  bp.metric = wb.profile->metric;
  auto index = CagraIndex::Build(wb.data.base, bp);
  if (!index.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  IndexSearcher searcher(*index);

  const size_t k = 10;
  ServingOptions base;
  base.params.itopk = 64;
  base.max_queue_depth = 1024;
  base.num_workers = 1;

  ServingOptions single = base;
  single.max_batch = 1;  // no coalescing: one Search call per request
  single.collect_window_us = 0;

  ServingOptions micro = base;
  micro.max_batch = 64;
  micro.collect_window_us = 1000;

  std::printf("{\n");
  std::printf("  \"bench\": \"serving\",\n");
  std::printf("  \"dataset\": \"DEEP-1M\",\n");
  std::printf("  \"rows\": %zu,\n", wb.data.base.rows());
  std::printf("  \"k\": %zu,\n", k);
  std::printf("  \"itopk\": 64,\n");
  std::printf("  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::printf("  \"scheduler\": {\"collect_window_us\": %zu, "
              "\"max_batch\": %zu, \"max_queue_depth\": %zu, "
              "\"num_workers\": %zu},\n",
              micro.collect_window_us, micro.max_batch, micro.max_queue_depth,
              micro.num_workers);

  // --- Saturation: unbounded offered load, shed what doesn't fit.
  const LoadPointSample sat_single = RunLoadPoint(
      searcher, single, wb.data.queries, k, 0.0, saturate_requests, 1);
  const LoadPointSample sat_micro = RunLoadPoint(
      searcher, micro, wb.data.queries, k, 0.0, saturate_requests, 2);
  // The headline speedup is on the modeled A100 timeline: the host runs
  // every query functionally one row at a time (README "Measured vs
  // modeled time"), so wall clock cannot show the batch effect — the
  // device cost model, which
  // amortizes the serial per-query latency floor and the launch overhead
  // across every row the scheduler coalesced, is the throughput a real
  // deployment buys with this batch mix.
  const double speedup = sat_single.modeled_qps > 0
                             ? sat_micro.modeled_qps / sat_single.modeled_qps
                             : 0.0;
  const double wall_speedup =
      sat_single.achieved_qps > 0
          ? sat_micro.achieved_qps / sat_single.achieved_qps
          : 0.0;
  std::printf("  \"saturation\": {\n");
  std::printf("    \"single_query\": ");
  PrintSample("", sat_single, true);
  std::printf("    ,\"microbatch\": ");
  PrintSample("", sat_micro, true);
  std::printf("    ,\"microbatch_qps_speedup\": %.3f,\n", speedup);
  std::printf("    \"microbatch_host_wall_speedup\": %.3f\n", wall_speedup);
  std::printf("  },\n");

  // --- Open-loop Poisson sweep below the micro-batched capacity.
  std::printf("  \"load_sweep\": [\n");
  const double fractions[] = {0.25, 0.5, 0.75, 0.9};
  const size_t num_points = sizeof(fractions) / sizeof(fractions[0]);
  for (size_t i = 0; i < num_points; i++) {
    const double offered = fractions[i] * sat_micro.achieved_qps;
    const LoadPointSample s =
        RunLoadPoint(searcher, micro, wb.data.queries, k, offered,
                     sweep_requests, 100 + i);
    PrintSample("    ", s, i + 1 == num_points);
  }
  std::printf("  ],\n");

  // --- Deadline sweep: the SLO view. Each point stamps every request
  // with arrival + {1, 5, 20} ms and reports the outcome mix at two
  // offered loads. The 1 ms column is expected to be mostly partials
  // and sheds with the default 1 ms collect window — the documented
  // collect_window_us x deadline interaction, measured.
  std::printf("  \"deadline_sweep\": [\n");
  const double deadline_ms[] = {1.0, 5.0, 20.0};
  const double deadline_fractions[] = {0.5, 0.9};
  const size_t num_deadlines = sizeof(deadline_ms) / sizeof(deadline_ms[0]);
  const size_t num_loads =
      sizeof(deadline_fractions) / sizeof(deadline_fractions[0]);
  const size_t deadline_requests = smoke ? 400 : 2000;
  for (size_t d = 0; d < num_deadlines; d++) {
    for (size_t l = 0; l < num_loads; l++) {
      const double offered = deadline_fractions[l] * sat_micro.achieved_qps;
      const DeadlinePointSample s = RunDeadlinePoint(
          searcher, micro, wb.data.queries, k, offered,
          std::chrono::microseconds(
              static_cast<int64_t>(deadline_ms[d] * 1000.0)),
          deadline_requests, 200 + d * num_loads + l);
      PrintDeadlineSample("    ", s,
                          d + 1 == num_deadlines && l + 1 == num_loads);
    }
  }
  std::printf("  ],\n");

  // --- ADC-table scratch reuse. A serving worker used to rebuild its
  // per-query ADC scratch from a cold allocation on every Submit; the
  // per-worker scratch cache in Search keeps the M x 256 table (and the
  // OPQ rotated-query buffer) allocated across calls, so only the
  // query-dependent table *contents* are recomputed. This measures that
  // delta in isolation: BuildAdcTable into a fresh PqAdcTable per call
  // vs into one reused buffer, over the same query stream.
  index->EnablePq();
  const PqDataset& pq = index->pq_dataset();
  const size_t adc_iters = smoke ? 2000 : 10000;
  const Matrix<float>& qs = wb.data.queries;
  double fresh_seconds = 0;
  {
    Timer t;
    for (size_t i = 0; i < adc_iters; i++) {
      PqAdcTable table;
      BuildAdcTable(pq, qs.Row(i % qs.rows()), wb.profile->metric, &table);
    }
    fresh_seconds = t.Seconds();
  }
  double reused_seconds = 0;
  {
    Timer t;
    PqAdcTable table;
    for (size_t i = 0; i < adc_iters; i++) {
      BuildAdcTable(pq, qs.Row(i % qs.rows()), wb.profile->metric, &table);
    }
    reused_seconds = t.Seconds();
  }
  const double fresh_us = fresh_seconds / adc_iters * 1e6;
  const double reused_us = reused_seconds / adc_iters * 1e6;
  // And the end-to-end view: PQ-precision saturation throughput through
  // the scheduler, whose workers hit the reused path on every Submit.
  ServingOptions pq_micro = micro;
  pq_micro.params.precision = Precision::kPq;
  const LoadPointSample sat_pq = RunLoadPoint(
      searcher, pq_micro, wb.data.queries, k, 0.0, saturate_requests, 3);
  std::printf("  \"adc_scratch\": {\n");
  std::printf("    \"iterations\": %zu,\n", adc_iters);
  std::printf("    \"num_subspaces\": %zu,\n", pq.num_subspaces());
  std::printf("    \"build_us_fresh\": %.3f,\n", fresh_us);
  std::printf("    \"build_us_reused\": %.3f,\n", reused_us);
  std::printf("    \"reuse_speedup\": %.3f,\n",
              reused_us > 0 ? fresh_us / reused_us : 0.0);
  std::printf("    \"pq_saturation\": ");
  PrintSample("", sat_pq, true);
  std::printf("  },\n");

  std::printf(
      "  \"notes\": \"open-loop Poisson client; latency percentiles are "
      "scheduler-side (queue wait + batched search). single_query executes "
      "every request as its own Search call; microbatch coalesces under a "
      "%zu us deadline. Results are identical either way (uniform_seed + "
      "batch-shape pinned at 1) — batching trades a bounded queue delay "
      "for throughput. modeled_qps is the device cost model over the "
      "batches the scheduler actually formed; host_wall_qps is the "
      "functional host simulation and carries no batch effect.\"\n",
      micro.collect_window_us);
  std::printf("}\n");
  return 0;
}
