// `serve`: open-loop Poisson single-query traffic through the
// micro-batching ServingScheduler (1 worker, max_batch 64, 1 ms collect
// window) over an out-of-core index: built, EnablePq, saved, then
// LoadOutOfCore. Traversal is PQ through per-query ADC tables and the
// top-64 rerank reads fp32 rows from the mmap. Offered rates climb a
// fixed doubling ladder above the 50 QPS reference rung and stop at the
// first rung that misses the latency objective, then bursts measure
// capacity; the reference rung's windows are spread between these
// steps. This is the only workload where the batch-1 multi-CTA plan,
// queueing and micro-batching, the PQ ADC and the mmap rerank do most
// of the work; it runs no writes and no sharding.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <limits>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/searcher.h"
#include "dataset/pq.h"
#include "serving/serving.h"

namespace hostbench {

namespace {

constexpr size_t kRows = 50000;
constexpr size_t kQueryPool = 2000;
/// The reference rung is light load: about a tenth of the ~500 QPS
/// Poisson capacity measured on a shared 4-vCPU x86 VM. Nearer the knee
/// (the 200 QPS rung) a few percent of host CPU steal there doubled the
/// latency.
constexpr double kReferenceRate = 50;
/// The reference rung gets this share of --seconds, as kReferenceWindows
/// windows spread over the whole ladder: one before each rung above it
/// and each burst, the rest at the end (56 requests a window at 20 s).
constexpr double kReferenceShare = 0.45;
constexpr size_t kReferenceWindows = 8;
/// The rungs above the reference, each one window of the given share of
/// --seconds; the ladder takes ~0.3x --seconds when every rung runs.
struct RungSpec {
  double rate;
  double share;
};
constexpr RungSpec kLadder[] = {{100, 0.075}, {200, 0.075},  {400, 0.075},
                                {800, 0.04},  {1600, 0.02}, {3200, 0.01}};
/// Capacity bursts: each submits kBurstRequests back to back (a quarter
/// of the admission queue, so nothing is shed). Bursts repeat until they
/// have taken kBurstShare of --seconds and at least kMinBursts ran; the
/// capacity is their median, so it rests on a dozen bursts rather than
/// on the few a disturbance of the host would slow.
constexpr double kBurstShare = 0.25;
constexpr size_t kMinBursts = 3;
constexpr size_t kBurstRequests = 256;
/// Share of --seconds the untimed warm-up rung runs for.
constexpr double kWarmUpShare = 0.1;
/// Latency objective on a rung's p95 (the median over its windows),
/// timed from each request's scheduled send.
constexpr double kSloMs = 50;
/// Client timeout: each request carries deadline = scheduled + this.
constexpr double kClientDeadlineMs = 1000;
constexpr double kRecallFloor = 0.95;
constexpr double kInf = std::numeric_limits<double>::infinity();

cagra::ServingOptions MakeServingOptions() {
  cagra::ServingOptions o;
  o.num_workers = 1;
  o.max_batch = 64;
  o.collect_window_us = 1000;
  o.params.k = kK;
  o.params.precision = cagra::Precision::kPq;
  o.params.itopk = 64;
  o.params.rerank = 64;
  // The worker plus three pool threads. The generator and collector
  // threads sleep between requests and are runnable only briefly.
  o.params.num_threads = kHostThreads;
  return o;
}

/// Forwards to cagra::Search and, when tracing, records one core.Search
/// span per micro-batch and sums the library's counters.
class TracingSearcher : public cagra::Searcher {
 public:
  TracingSearcher(const cagra::CagraIndex& index, Tracer* tracer)
      : index_(index), tracer_(tracer) {}

  cagra::Result<cagra::SearchResult> Search(
      const cagra::Matrix<float>& queries,
      const cagra::SearchParams& params) const override {
    if (!tracer_->enabled()) return cagra::Search(index_, queries, params);
    const Clock::time_point t0 = Clock::now();
    auto r = cagra::Search(index_, queries, params);
    const Clock::time_point t1 = Clock::now();
    tracer_->Record("core.Search", t0, t1);
    if (r.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      tally_.Add(*r, SecondsBetween(t0, t1));
    }
    return r;
  }
  size_t dim() const override { return index_.dim(); }

  SearchTally TakeTally() {
    std::lock_guard<std::mutex> lock(mu_);
    SearchTally out = tally_;
    tally_ = SearchTally{};
    return out;
  }

 private:
  const cagra::CagraIndex& index_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  mutable SearchTally tally_;  // guarded by mu_
};

struct Request {
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point done;
  size_t query = 0;
  std::future<cagra::Result<cagra::QueryResponse>> future;
  cagra::StatusCode code = cagra::StatusCode::kOk;
  bool complete = false;
  cagra::QueryResponse response;
};

/// Outcome of requests sent open-loop at one rate: the raw samples of
/// one measurement window, or of a whole rung once its windows append.
struct Samples {
  size_t requests = 0;
  size_t misses = 0;  ///< shed, expired, failed or partial
  size_t shed = 0;
  size_t expired = 0;
  size_t errors = 0;  ///< any other error status: a program failure
  std::vector<double> latency_ms;  ///< from the scheduled send; misses +inf
  std::vector<double> lag_ms, queue_ms, execute_ms;
  double recall_sum = 0;
  size_t recall_n = 0;
  double drain_ms = 0;  ///< last completion after the last scheduled send
  double batch_rows = 0;
  size_t batches = 0;
  SearchTally tally;

  void Append(const Samples& o) {
    requests += o.requests;
    misses += o.misses;
    shed += o.shed;
    expired += o.expired;
    errors += o.errors;
    for (auto [dst, src] : {std::pair{&latency_ms, &o.latency_ms},
                            std::pair{&lag_ms, &o.lag_ms},
                            std::pair{&queue_ms, &o.queue_ms},
                            std::pair{&execute_ms, &o.execute_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    recall_sum += o.recall_sum;
    recall_n += o.recall_n;
    drain_ms = std::max(drain_ms, o.drain_ms);
    batch_rows += o.batch_rows;
    batches += o.batches;
    tally.Merge(o.tally);
  }
};

/// One measurement window: this thread sends each request at its
/// scheduled time and a collector thread resolves the futures in order
/// (one worker completes batches in FIFO order), stamping completions.
/// The window drains before it returns.
Samples RunWindow(cagra::ServingScheduler& sched, TracingSearcher& searcher,
                  Tracer& tracer, const Inputs& data,
                  const cagra::Matrix<uint32_t>& gt, double rate,
                  double seconds, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<size_t> pick(0, data.queries.rows() - 1);
  std::vector<Request> reqs;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  double t = 0;
  while (true) {
    t += gap(rng);
    if (t > seconds) break;
    Request r;
    r.scheduled = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(t));
    r.query = pick(rng);
    reqs.push_back(std::move(r));
  }

  (void)searcher.TakeTally();
  const cagra::ServingStats before = sched.Snapshot();
  std::mutex mu;
  std::condition_variable cv;
  size_t sent = 0;  // guarded by mu
  std::thread collector([&] {
    for (size_t i = 0; i < reqs.size(); i++) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return sent > i; });
      }
      Request& r = reqs[i];
      auto result = r.future.get();
      r.done = Clock::now();
      if (result.ok()) {
        r.complete = result->complete;
        r.response = std::move(result).value();
      } else {
        r.code = result.status().code();
      }
    }
  });
  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kClientDeadlineMs));
  for (size_t i = 0; i < reqs.size(); i++) {
    Request& r = reqs[i];
    std::this_thread::sleep_until(r.scheduled);
    r.sent = Clock::now();
    r.future = sched.Submit(data.queries.Row(r.query), kK, r.scheduled + deadline);
    {
      std::lock_guard<std::mutex> lock(mu);
      sent = i + 1;
    }
    cv.notify_one();
  }
  collector.join();
  const cagra::ServingStats after = sched.Snapshot();

  Samples out;
  out.requests = reqs.size();
  Clock::time_point last_done = start;
  for (const Request& r : reqs) {
    tracer.Record("serving.request", r.scheduled, r.done,
                  static_cast<uint64_t>(&r - reqs.data()) + 1);
    out.lag_ms.push_back(MsBetween(r.scheduled, r.sent));
    if (r.done > last_done) last_done = r.done;
    if (r.code == cagra::StatusCode::kUnavailable) {
      out.shed++;
    } else if (r.code == cagra::StatusCode::kDeadlineExceeded) {
      out.expired++;
    } else if (r.code != cagra::StatusCode::kOk) {
      out.errors++;
    }
    if (r.code != cagra::StatusCode::kOk || !r.complete) {
      out.misses++;
      out.latency_ms.push_back(kInf);
      continue;
    }
    out.latency_ms.push_back(MsBetween(r.scheduled, r.done));
    out.queue_ms.push_back(r.response.queue_us * 1e-3);
    out.execute_ms.push_back(r.response.search_us * 1e-3);
    out.recall_sum += RowRecall(r.response.ids.data(), gt.Row(r.query), kK);
    out.recall_n++;
  }
  out.drain_ms = reqs.empty() ? 0 : MsBetween(reqs.back().scheduled, last_done);
  out.batch_rows = after.mean_batch_rows * static_cast<double>(after.batches) -
                   before.mean_batch_rows * static_cast<double>(before.batches);
  out.batches = after.batches - before.batches;
  out.tally = searcher.TakeTally();
  return out;
}

struct Rung {
  double rate = 0;
  Samples s;
  /// p50 and p95 are medians over the rung's windows of each window's
  /// percentile, so a window the host disturbed cannot move them (the
  /// rungs above the reference run a single window); p99 pools every
  /// request of the rung.
  std::vector<double> window_p50_ms;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  bool pass = false;
  double recall = 0;
  double batch_rows_mean = 0;
};

/// Summarises a rung from its measurement windows.
Rung MakeRung(double rate, const std::vector<Samples>& windows) {
  Rung rung;
  rung.rate = rate;
  std::vector<double> p95;
  for (const Samples& w : windows) {
    rung.window_p50_ms.push_back(Quantile(w.latency_ms, 0.5));
    p95.push_back(Quantile(w.latency_ms, 0.95));
    rung.s.Append(w);
  }
  rung.p50_ms = Median(rung.window_p50_ms);
  rung.p95_ms = Median(p95);
  rung.p99_ms = Quantile(rung.s.latency_ms, 0.99);
  rung.pass = rung.p95_ms <= kSloMs && rung.s.drain_ms <= kSloMs;
  rung.recall = rung.s.recall_n == 0
                    ? 0
                    : rung.s.recall_sum / static_cast<double>(rung.s.recall_n);
  rung.batch_rows_mean = rung.s.batches == 0
                             ? 0
                             : rung.s.batch_rows / static_cast<double>(rung.s.batches);
  return rung;
}

/// Untimed rung at the reference rate: creates the scheduler worker's
/// dedicated pool and search scratch, and lets the host settle after
/// set-up, before anything is timed.
void WarmUp(cagra::ServingScheduler& sched, TracingSearcher& searcher,
            const Inputs& data, const cagra::Matrix<uint32_t>& gt,
            const Args& args, Report* report) {
  Tracer off(false);
  const Samples s = RunWindow(sched, searcher, off, data, gt, kReferenceRate,
                              args.seconds * kWarmUpShare, args.seed ^ 0x5eedu);
  report->Ops(s.requests, s.errors);
}

struct Ladder {
  std::vector<Rung> rungs;
  double max_qps = 0;
  std::string status;
  std::vector<double> burst_qps;  ///< completed requests/s per burst
  PhaseClock clock;
  const Rung* at(double rate) const {
    for (const Rung& r : rungs) {
      if (r.rate == rate) return &r;
    }
    return nullptr;
  }
  const Rung* reference() const { return at(kReferenceRate); }
};

/// Capacity: kBurstRequests submitted back to back, timed from the first
/// submit to the last completion.
struct Burst {
  double qps = 0;
  double seconds = 0;
  size_t failed = 0;
};
Burst RunBurst(cagra::ServingScheduler& sched, const Inputs& data,
               uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick(0, data.queries.rows() - 1);
  std::vector<std::future<cagra::Result<cagra::QueryResponse>>> futures;
  futures.reserve(kBurstRequests);
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < kBurstRequests; i++) {
    futures.push_back(sched.Submit(data.queries.Row(pick(rng)), kK));
  }
  Burst b;
  for (auto& f : futures) {
    if (!f.get().ok()) b.failed++;
  }
  b.seconds = SecondsBetween(t0, Clock::now());
  b.qps = static_cast<double>(kBurstRequests - b.failed) / b.seconds;
  return b;
}

/// Climbs the rate ladder above the reference rung until a rung misses
/// the objective, then measures capacity in bursts; a reference window
/// runs before each of these steps and the remaining ones at the end.
/// Interpolates the p95-vs-rate line between the first failing rung and
/// the rung below it to where it crosses the objective. Every request
/// is an operation: shed, expired and partial requests are measured
/// overload outcomes (SLO misses), any other error is a program failure.
Ladder RunLadder(cagra::ServingScheduler& sched, TracingSearcher& searcher,
                 Tracer& tracer, const Inputs& data,
                 const cagra::Matrix<uint32_t>& gt, double seconds,
                 uint64_t seed, Report* report) {
  tracer.Clear();
  Ladder ladder;
  std::vector<Samples> reference;
  auto reference_window = [&] {
    if (reference.size() == kReferenceWindows) return;
    reference.push_back(RunWindow(sched, searcher, tracer, data, gt, kReferenceRate,
                                  seconds * kReferenceShare / kReferenceWindows,
                                  seed * 64 + reference.size()));
    report->Ops(reference.back().requests, reference.back().errors);
  };
  std::vector<Rung> above;
  for (size_t i = 0; i < std::size(kLadder); i++) {
    reference_window();
    const Samples win = RunWindow(sched, searcher, tracer, data, gt, kLadder[i].rate,
                                  seconds * kLadder[i].share, seed * 1000 + i);
    report->Ops(win.requests, win.errors);
    above.push_back(MakeRung(kLadder[i].rate, {win}));
    if (!above.back().pass) break;
  }
  double burst_s = 0;
  for (size_t b = 0; b < kMinBursts || burst_s < seconds * kBurstShare; b++) {
    reference_window();
    const Burst burst = RunBurst(sched, data, seed * 1000 + 100 + b);
    report->Ops(kBurstRequests, burst.failed);
    ladder.burst_qps.push_back(burst.qps);
    burst_s += burst.seconds;
  }
  while (reference.size() < kReferenceWindows) reference_window();
  ladder.clock.Stop();
  ladder.rungs.push_back(MakeRung(kReferenceRate, reference));
  ladder.rungs.insert(ladder.rungs.end(), above.begin(), above.end());
  size_t fail = 0;
  while (fail < ladder.rungs.size() && ladder.rungs[fail].pass) fail++;
  if (fail == ladder.rungs.size()) {
    ladder.max_qps = ladder.rungs.back().rate;
    ladder.status = "saturated";  // every rung met the objective
  } else if (fail == 0) {
    ladder.max_qps = 0;
    ladder.status = "below_ladder";
  } else {
    const Rung& lo = ladder.rungs[fail - 1];
    const Rung& hi = ladder.rungs[fail];
    double frac = 0;
    if (hi.p95_ms > kSloMs && hi.p95_ms != kInf) {
      frac = (kSloMs - lo.p95_ms) / (hi.p95_ms - lo.p95_ms);
    }
    ladder.max_qps = lo.rate + (hi.rate - lo.rate) * frac;
    ladder.status = "interpolated";
  }
  return ladder;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string s = "[";
  for (double x : v) s += (s.size() > 1 ? ", " : "") + JsonNumber(x);
  return s + "]";
}

std::string LadderJson(const Ladder& ladder) {
  std::string s = "[";
  for (size_t i = 0; i < ladder.rungs.size(); i++) {
    const Rung& r = ladder.rungs[i];
    s += (i ? ", " : "") + std::string("{\"rate\": ") + JsonNumber(r.rate) +
         ", \"requests\": " + std::to_string(r.s.requests) +
         ", \"misses\": " + std::to_string(r.s.misses) +
         ", \"p50_ms\": " + JsonNumber(r.p50_ms) +
         ", \"window_p50_ms\": " + JsonArray(r.window_p50_ms) +
         ", \"p95_ms\": " + JsonNumber(r.p95_ms) +
         ", \"p99_ms\": " + JsonNumber(r.p99_ms) +
         ", \"drain_ms\": " + JsonNumber(r.s.drain_ms) +
         ", \"lag_p99_ms\": " + JsonNumber(Quantile(r.s.lag_ms, 0.99)) +
         ", \"batch_rows_mean\": " + JsonNumber(r.batch_rows_mean) +
         ", \"recall\": " + JsonNumber(r.recall) +
         ", \"pass\": " + (r.pass ? "true" : "false") + "}";
  }
  return s + "]";
}

}  // namespace

void RunServe(const Args& args, Report* report) {
  const Inputs data = MakeInputs(kRows, kQueryPool, 0, args.seed);
  ::mkdir(args.out_dir.c_str(), 0755);
  const std::string path =
      args.out_dir + "/serve-" + std::to_string(args.seed) + ".cagra";
  // The index file lives only as long as the run, whatever path it ends by.
  struct RemoveOnExit {
    const std::string& path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } remove_index{path};

  // Set-up: data in memory -> out-of-core index ready to answer. The
  // resident build is dropped once saved; only the mapped index serves.
  const Clock::time_point s0 = Clock::now();
  cagra::BuildStats build_stats;
  double pq_train_s = 0;
  {
    auto built = cagra::CagraIndex::Build(data.base, MakeBuildParams(), &build_stats);
    report->Check(built.ok(), "build");
    if (!built.ok()) return;
    const Clock::time_point p0 = Clock::now();
    built->EnablePq();
    pq_train_s = SecondsBetween(p0, Clock::now());
    const cagra::Status saved = built->Save(path);
    report->Check(saved.ok(), "save " + path + ": " + saved.ToString());
    if (!saved.ok()) return;
    // Write the file back now, so its writeback does not run under the
    // timed ladder.
    const int fd = ::open(path.c_str(), O_RDONLY);
    report->Check(fd >= 0 && ::fsync(fd) == 0, "fsync " + path);
    if (fd >= 0) ::close(fd);
  }
  const Clock::time_point l0 = Clock::now();
  auto loaded = cagra::CagraIndex::LoadOutOfCore(path);
  const double load_s = SecondsBetween(l0, Clock::now());
  const double setup_s = SecondsBetween(s0, Clock::now());
  report->Check(loaded.ok(), "LoadOutOfCore " + path);
  if (!loaded.ok()) return;
  const cagra::CagraIndex& index = *loaded;
  report->Check(index.out_of_core() && index.HasPq(), "index is out-of-core with PQ");

  const cagra::Matrix<uint32_t> gt = GroundTruth(data.base, data.queries);

  // Warm-up: touch every mapped row once (pbbsbench's visit_point); then
  // each scheduler gets an untimed rung before its ladder.
  const cagra::MmapMatrix* mapped = index.out_of_core_dataset();
  volatile float sink = 0;
  for (size_t i = 0; i < mapped->rows(); i++) sink = sink + mapped->Row(i)[0];

  // peak_rss_mb is the serving footprint: resident graph and PQ codes,
  // the mapped rows, the schedulers and the benchmark's own inputs —
  // not the peak of the in-RAM Build before LoadOutOfCore.
  report->Check(ResetPeakRss(), "restart the peak RSS after set-up");

  Tracer tracer(false);
  TracingSearcher searcher(index, &tracer);
  cagra::ServingScheduler sched(searcher, MakeServingOptions());
  WarmUp(sched, searcher, data, gt, args, report);

  const Ladder untraced =
      RunLadder(sched, searcher, tracer, data, gt, args.seconds, args.seed, report);
  sched.Shutdown();
  report->Detail("ladder", LadderJson(untraced));
  report->Detail("burst_qps", JsonArray(untraced.burst_qps));
  std::vector<double> lag;
  for (const Rung& r : untraced.rungs) {
    lag.insert(lag.end(), r.s.lag_ms.begin(), r.s.lag_ms.end());
  }
  report->Detail("loadgen_lag_p99_ms", Quantile(lag, 0.99));
  report->Detail("loadgen_lag_max_ms", Quantile(lag, 1.0));
  report->Check(untraced.reference() != nullptr, "reference rung ran");
  if (untraced.reference() == nullptr) return;
  const Rung& ref = *untraced.reference();
  report->Check(ref.recall >= kRecallFloor,
                "serve recall@10 " + std::to_string(ref.recall) + " below floor");

  if (!args.trace) {
    // search_qps is the median burst capacity; recall and latencies
    // come from the reference rung.
    EndToEnd e2e;
    e2e.setup_s = setup_s;
    e2e.recall_at_10 = ref.recall;
    e2e.search_qps = Median(untraced.burst_qps);
    e2e.search_p50_ms = ref.p50_ms;
    EndToEndMetrics(e2e, report);
    WorkloadMetric("search_p95_ms", ref.p95_ms, "ms", report);
    WorkloadMetric("max_qps_under_slo", untraced.max_qps, "1/s", report,
                   untraced.status);
    WorkloadMetric("search_p99_ms", ref.p99_ms, "ms", report);
    if (const Rung* r200 = untraced.at(200)) {
      WorkloadMetric("search_p50_ms_at_200qps", r200->p50_ms, "ms", report);
      WorkloadMetric("search_p99_ms_at_200qps", r200->p99_ms, "ms", report);
    }
    return;
  }

  // Traced phase: the same ladder with request spans and one core.Search
  // span per micro-batch; per-layer metrics come from here only.
  Tracer traced_tracer(true);
  TracingSearcher traced_searcher(index, &traced_tracer);
  cagra::ServingScheduler traced_sched(traced_searcher, MakeServingOptions());
  WarmUp(traced_sched, traced_searcher, data, gt, args, report);
  const Ladder traced = RunLadder(traced_sched, traced_searcher, traced_tracer,
                                 data, gt, args.seconds, args.seed, report);
  report->Check(traced.reference() != nullptr, "traced reference rung ran");
  if (traced.reference() == nullptr) return;
  const Rung& tref = *traced.reference();
  const Usage& u0 = traced.clock.before;
  const Usage& u1 = traced.clock.after;

  // ADC table construction, timed around the public call per query.
  cagra::PqAdcTable table;
  const Clock::time_point a0 = Clock::now();
  for (size_t q = 0; q < data.queries.rows(); q++) {
    cagra::BuildAdcTable(index.pq_dataset(), data.queries.Row(q),
                         index.metric(), &table);
  }
  const double adc_us =
      MsBetween(a0, Clock::now()) * 1e3 / static_cast<double>(data.queries.rows());

  ZeroLayerMetrics(report);
  BuildLayerMetrics({build_stats}, report);
  SearchLayerMetrics(tref.s.tally, report);
  report->Metric("serving.queue_wait_ms.p50", Quantile(tref.s.queue_ms, 0.5), "ms");
  report->Metric("serving.queue_wait_ms.p99", Quantile(tref.s.queue_ms, 0.99), "ms");
  report->Metric("serving.execute_ms.p50", Quantile(tref.s.execute_ms, 0.5), "ms");
  report->Metric("serving.execute_ms.p99", Quantile(tref.s.execute_ms, 0.99), "ms");
  report->Metric("serving.batch_rows_mean", tref.batch_rows_mean, "rows");
  size_t shed = 0, expired = 0;
  lag.clear();
  for (const Rung& r : traced.rungs) {
    shed += r.s.shed;
    expired += r.s.expired;
    lag.insert(lag.end(), r.s.lag_ms.begin(), r.s.lag_ms.end());
  }
  report->Metric("serving.shed", static_cast<double>(shed), "count");
  report->Metric("serving.deadline_expired", static_cast<double>(expired), "count");
  report->Metric("loadgen.lag_ms.p99", Quantile(lag, 0.99), "ms");
  report->Metric("loadgen.lag_ms.max", Quantile(lag, 1.0), "ms");
  report->Metric("pq.train_s", pq_train_s, "s");
  report->Metric("pq.adc_table_us", adc_us, "us");
  report->Metric("ooc.load_s", load_s, "s");
  report->Metric("ooc.major_faults", static_cast<double>(u1.major_faults - u0.major_faults), "count");
  report->Metric("ooc.minor_faults", static_cast<double>(u1.minor_faults - u0.minor_faults), "count");
  ProcessMetrics(traced.clock, report);
  // Tracing adds a span and a tally update to every micro-batch's
  // search, inside the time the scheduler reports as execute time.
  TraceOverhead(Quantile(ref.s.execute_ms, 0.5), Quantile(tref.s.execute_ms, 0.5),
                report);
  report->Detail("traced_ladder", LadderJson(traced));
  DumpSpans(args, traced_tracer, report);
}

}  // namespace hostbench
