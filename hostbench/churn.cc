// `churn`: a 4-shard ShardedCagraIndex (RAM fp32, default compaction
// options) under concurrent reads and writes. One open-loop writer
// issues paired Add/Remove batches on a fixed schedule that keep the
// live size constant and cross the compaction trigger several times a
// run; beside it one closed-loop reader issues 64-query batches. This
// is the only workload that uses sharded fan-out/merge, snapshot
// publish and background compaction, and it puts writes beside the
// same search layer `batch` uses.
#include <algorithm>
#include <atomic>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/sharded.h"

namespace hostbench {

namespace {

constexpr size_t kRows = 6000;
constexpr size_t kShards = 4;
constexpr size_t kQueryPool = 2000;
constexpr size_t kReaderBatch = 64;
/// Writer schedule: kWriteRate pairs per second, each an Add of
/// kWriteRows fresh rows then a Remove of the kWriteRows oldest live
/// ones. At 600 rows/s the dead fraction of every shard crosses the
/// default 0.25 trigger about every 3.3 s. Compaction's share of the
/// CPU grows with the removal rate; at twice this rate on twice the
/// rows it fell behind whenever the host was contended (dead fraction
/// overshot the trigger, reads slowed), which doubled the run-to-run
/// spread of the reader's throughput.
constexpr double kWriteRate = 20;
constexpr size_t kWriteRows = 30;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;
constexpr double kRecallFloor = 0.9;

cagra::SearchParams ReaderParams() {
  cagra::SearchParams p;
  p.k = kK;
  p.itopk = 32;
  // The single-CTA loop `batch` measures; the Fig. 7 rule would pick
  // multi-CTA at 64 rows, which `serve` already covers.
  p.algo = cagra::SearchAlgo::kSingleCta;
  // The reader's share of the host: the writer and background
  // compaction take the rest.
  p.num_threads = kHostThreads / 2;
  return p;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Phase {
  // Writer side.
  std::vector<double> write_ms;  ///< pair latency from its scheduled time
  std::vector<double> add_ms, remove_ms, lag_ms;
  double dead_frac_max = 0;
  size_t compactions = 0;
  size_t write_ops = 0, write_failed = 0;
  // Reader side.
  std::vector<double> search_ms;
  size_t search_ops = 0, search_failed = 0;
  size_t rows_searched = 0;
  size_t stale_hits = 0;  ///< ids returned after their Remove returned
  double reader_wall_s = 0;
  SearchTally tally;  ///< traced phases only
  PhaseClock clock;
};

/// One measured phase: `seconds` of churn, which spans several
/// compaction cycles. `next_extra` indexes the next unused row of
/// `extra`; `live` is the FIFO of live global ids.
Phase MeasureChurn(cagra::ShardedCagraIndex& index, const Inputs& data,
                   double seconds, Tracer& tracer, size_t* next_extra,
                   std::deque<uint32_t>* live,
                   std::vector<std::atomic<int64_t>>* removed_at,
                   Report* report) {
  tracer.Clear();
  Phase ph;
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();

  std::thread reader([&] {
    const cagra::SearchParams params = ReaderParams();
    // Warm-up (untimed): the reader thread's first search creates its
    // dedicated pool and search scratch.
    if (!index.Search(SliceRows(data.queries, 0, kReaderBatch), params).ok()) {
      ph.search_failed++;
    }
    size_t offset = 0;
    const Clock::time_point r0 = Clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      const cagra::Matrix<float> batch =
          SliceRows(data.queries, offset, kReaderBatch);
      offset = (offset + kReaderBatch) % (data.queries.rows() - kReaderBatch);
      const int64_t started = NowNs();
      const Clock::time_point t0 = Clock::now();
      auto r = index.Search(batch, params);
      const Clock::time_point t1 = Clock::now();
      tracer.Record("sharded.Search", t0, t1);
      ph.search_ops++;
      if (!r.ok()) {
        ph.search_failed++;
        continue;
      }
      ph.search_ms.push_back(MsBetween(t0, t1));
      ph.rows_searched += kReaderBatch;
      if (tracer.enabled()) ph.tally.Add(*r, SecondsBetween(t0, t1));
      for (uint32_t id : r->neighbors.ids) {
        if (id >= removed_at->size()) continue;  // padding
        const int64_t gone = (*removed_at)[id].load(std::memory_order_acquire);
        if (gone != 0 && gone < started) ph.stale_hits++;
      }
    }
    ph.reader_wall_s = SecondsBetween(r0, Clock::now());
  });

  // Writer (this thread): pair j is due at start + j / kWriteRate.
  const size_t pairs = static_cast<size_t>(seconds * kWriteRate);
  size_t last_dead = index.tombstone_count();
  for (size_t j = 0; j < pairs; j++) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(j / kWriteRate));
    std::this_thread::sleep_until(due);
    ph.lag_ms.push_back(MsBetween(due, Clock::now()));

    const size_t first = *next_extra;
    if (first + kWriteRows > data.extra.rows()) {  // pool sized too small
      ph.write_ops++;
      ph.write_failed++;
      break;
    }
    const cagra::Matrix<float> rows = SliceRows(data.extra, first, kWriteRows);
    *next_extra += kWriteRows;
    std::vector<uint32_t> ids;
    const Clock::time_point a0 = Clock::now();
    const cagra::Status added = index.Add(rows, &ids);
    const Clock::time_point a1 = Clock::now();
    tracer.Record("index.Add", a0, a1);
    ph.write_ops++;
    ph.add_ms.push_back(MsBetween(a0, a1));
    // Global ids continue the round-robin layout: extra row i becomes
    // id kRows + i, which the final recall check relies on.
    bool ids_ok = added.ok() && ids.size() == kWriteRows;
    for (size_t i = 0; ids_ok && i < kWriteRows; i++) {
      ids_ok = ids[i] == kRows + first + i;
    }
    if (!ids_ok) {
      ph.write_failed++;
      continue;
    }
    live->insert(live->end(), ids.begin(), ids.end());

    std::vector<uint32_t> victims(live->begin(), live->begin() + kWriteRows);
    const Clock::time_point d0 = Clock::now();
    const cagra::Status removed = index.Remove(victims);
    const Clock::time_point d1 = Clock::now();
    tracer.Record("index.Remove", d0, d1);
    ph.write_ops++;
    ph.remove_ms.push_back(MsBetween(d0, d1));
    if (!removed.ok()) {
      ph.write_failed++;
      continue;
    }
    const int64_t gone = NowNs();
    for (uint32_t id : victims) (*removed_at)[id].store(gone, std::memory_order_release);
    live->erase(live->begin(), live->begin() + kWriteRows);
    ph.write_ms.push_back(MsBetween(due, d1));

    const size_t dead = index.tombstone_count();
    if (dead < last_dead) ph.compactions++;
    last_dead = dead;
    const double rows_now = static_cast<double>(index.live_size() + dead);
    ph.dead_frac_max = std::max(ph.dead_frac_max, static_cast<double>(dead) / rows_now);
  }
  // Keep the reader running until the end of the measured phase.
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)));
  stop.store(true, std::memory_order_release);
  reader.join();
  ph.clock.Stop();
  report->Ops(ph.write_ops, ph.write_failed);
  report->Ops(ph.search_ops, ph.search_failed);
  report->Check(ph.stale_hits == 0,
                std::to_string(ph.stale_hits) +
                    " result ids were removed before their search started");
  return ph;
}

/// The reader's throughput: the median over every reader batch of the
/// phase of its rows per second. A median, like batch's over its calls:
/// the mean (rows over reader wall time, in the details) also counts the
/// few batches a disturbance of the host stalls, and on a shared 4-vCPU
/// VM it spread twice as wide as the median from run to run.
double ReaderQps(const Phase& ph) {
  std::vector<double> rates;
  rates.reserve(ph.search_ms.size());
  for (double ms : ph.search_ms) rates.push_back(kReaderBatch * 1e3 / ms);
  return Median(rates);
}

}  // namespace

void RunChurn(const Args& args, Report* report) {
  // The writer consumes kWriteRate * kWriteRows rows a second, in one
  // measured phase (two when traced).
  const size_t phases = args.trace ? 2 : 1;
  const size_t extra =
      phases * static_cast<size_t>(args.seconds * kWriteRate + 1) * kWriteRows;
  const Inputs data = MakeInputs(kRows, kQueryPool, extra, args.seed);

  // Set-up, several times: setup_s is the median; the last index serves.
  std::vector<double> setups;
  cagra::ShardedCagraIndex index;
  cagra::ShardedBuildStats build_stats;
  for (size_t i = 0; i < kSetups; i++) {
    const Clock::time_point s0 = Clock::now();
    auto built = cagra::ShardedCagraIndex::Build(data.base, MakeBuildParams(),
                                                 kShards, &build_stats);
    setups.push_back(SecondsBetween(s0, Clock::now()));
    report->Check(built.ok(), "sharded build");
    if (!built.ok()) return;
    index = std::move(built).value();
  }

  std::deque<uint32_t> live;
  for (uint32_t id = 0; id < kRows; id++) live.push_back(id);
  std::vector<std::atomic<int64_t>> removed_at(kRows + extra);
  for (auto& a : removed_at) a.store(0, std::memory_order_relaxed);
  size_t next_extra = 0;

  Tracer off(false);
  const Phase untraced = MeasureChurn(index, data, args.seconds, off,
                                     &next_extra, &live, &removed_at, report);
  const double search_qps = ReaderQps(untraced);
  report->Detail("reader_rows_per_s_mean",
                 static_cast<double>(untraced.rows_searched) / untraced.reader_wall_s);
  report->Detail("compactions_observed", static_cast<double>(untraced.compactions));
  report->Detail("dead_frac_max", untraced.dead_frac_max);
  report->Detail("writer_lag_p99_ms", Quantile(untraced.lag_ms, 0.99));
  report->Detail("writer_lag_max_ms", Quantile(untraced.lag_ms, 1.0));
  report->Detail("reader_batches", static_cast<double>(untraced.search_ms.size()));
  report->Detail("write_pairs", static_cast<double>(untraced.write_ms.size()));

  Tracer tracer(true);
  if (args.trace) {
    const Phase traced = MeasureChurn(index, data, args.seconds, tracer,
                                      &next_extra, &live, &removed_at, report);
    ZeroLayerMetrics(report);
    BuildLayerMetrics(build_stats.per_shard, report);
    SearchLayerMetrics(traced.tally, report);
    ProcessMetrics(traced.clock, report);
    report->Metric("sharded.search_ms", Median(traced.search_ms), "ms");
    report->Metric("sharded.rows_examined_pq",
                   traced.tally.queries == 0
                       ? 0.0
                       : static_cast<double>(traced.tally.rows_examined) /
                             static_cast<double>(traced.tally.queries),
                   "count/query");
    report->Metric("index.add_ms.p50", Quantile(traced.add_ms, 0.5), "ms");
    report->Metric("index.add_ms.p99", Quantile(traced.add_ms, 0.99), "ms");
    report->Metric("index.remove_ms.p50", Quantile(traced.remove_ms, 0.5), "ms");
    report->Metric("index.remove_ms.p99", Quantile(traced.remove_ms, 0.99), "ms");
    report->Metric("index.dead_frac_max", traced.dead_frac_max, "ratio");
    report->Metric("index.compactions_observed",
                   static_cast<double>(traced.compactions), "count");
    report->Metric("loadgen.lag_ms.p99", Quantile(traced.lag_ms, 0.99), "ms");
    report->Metric("loadgen.lag_ms.max", Quantile(traced.lag_ms, 1.0), "ms");
    const double traced_qps = ReaderQps(traced);
    // Lower-is-better form of search_qps: seconds per million rows.
    TraceOverhead(1e6 / search_qps, 1e6 / traced_qps, report);
  }

  // Final synchronous compaction, then recall against exact search over
  // the live set, in global ids.
  index.WaitForCompaction();
  const Clock::time_point c0 = Clock::now();
  const cagra::Status compacted = index.Compact();
  const double compact_s = SecondsBetween(c0, Clock::now());
  tracer.Record("index.Compact", c0, Clock::now());
  report->Check(compacted.ok(), "final Compact: " + compacted.ToString());
  report->Check(index.tombstone_count() == 0 && index.live_size() == kRows,
                "live set after Compact holds exactly the expected rows");

  std::vector<uint32_t> live_ids(live.begin(), live.end());
  cagra::Matrix<float> live_rows(live_ids.size(), data.base.dim());
  for (size_t i = 0; i < live_ids.size(); i++) {
    const uint32_t id = live_ids[i];
    const float* src = id < kRows ? data.base.Row(id) : data.extra.Row(id - kRows);
    std::copy(src, src + data.base.dim(), live_rows.MutableRow(i));
  }
  const cagra::Matrix<float>& final_queries = data.queries;
  const cagra::Matrix<uint32_t> gt = GroundTruth(live_rows, final_queries);
  auto r = index.Search(final_queries, ReaderParams());
  report->Check(r.ok(), "final search");
  double recall = 0;
  if (r.ok()) {
    std::vector<bool> is_live(removed_at.size(), false);
    for (uint32_t id : live_ids) is_live[id] = true;
    size_t dead_hits = 0;
    for (uint32_t id : r->neighbors.ids) {
      if (id < is_live.size() && !is_live[id]) dead_hits++;
    }
    report->Check(dead_hits == 0, std::to_string(dead_hits) +
                                      " removed ids returned after the final Compact");
    for (size_t q = 0; q < final_queries.rows(); q++) {
      uint32_t truth[kK];
      for (size_t j = 0; j < kK; j++) truth[j] = live_ids[gt.Row(q)[j]];
      recall += RowRecall(r->neighbors.Row(q), truth, kK);
    }
    recall /= static_cast<double>(final_queries.rows());
  }
  report->Check(recall >= kRecallFloor,
                "churn recall@10 after Compact " + std::to_string(recall) +
                    " below floor");

  if (!args.trace) {
    // search_qps is the reader's rows per second under writes; the
    // latencies are the reader's 64-query batch calls; recall is after
    // the final Compact.
    EndToEnd e2e;
    e2e.setup_s = Median(setups);
    e2e.recall_at_10 = recall;
    e2e.search_qps = search_qps;
    e2e.search_p50_ms = Quantile(untraced.search_ms, 0.5);
    EndToEndMetrics(e2e, report);
    WorkloadMetric("search_p95_ms", Quantile(untraced.search_ms, 0.95), "ms", report);
    WorkloadMetric("write_p50_ms", Quantile(untraced.write_ms, 0.5), "ms", report);
    WorkloadMetric("write_p99_ms", Quantile(untraced.write_ms, 0.99), "ms", report);
    WorkloadMetric("search_p99_ms", Quantile(untraced.search_ms, 0.99), "ms", report);
    return;
  }
  report->Metric("index.compact_s", compact_s, "s");
  DumpSpans(args, tracer, report);
}

}  // namespace hostbench
