// Host wall-clock benchmark of the CAGRA CPU library.
//
//   hostbench --workload batch|serve|churn --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--commit SHA]
//
// Generates the workload's inputs from the seed, sets the index up,
// warms it, measures for S seconds, checks every answer against exact
// search, and prints two JSON lines on stdout: a details/stamp line and,
// last, the result {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// measures twice (untraced, then traced) and reports the per-layer
// metrics plus the tracing overhead. hostbench/run.py builds this
// binary and is the entry point named in BENCHMARK.json.
//
// Every workload reports the same end-to-end metrics: setup_s,
// peak_rss_mb, recall_at_10, search_qps, search_p50_ms.
// What search_qps and the latencies measure is the workload's own:
//   batch  QPS and latency of 10k-query batch calls at the itopk 32
//          operating point (where recall is measured); QPS at recall
//          0.95/0.99 on the itopk-sweep frontier goes to the details.
//   serve  capacity (requests/s completed in back-to-back bursts);
//          per-request latency from the scheduled send at the 50 QPS
//          Poisson reference rung; peak RSS from LoadOutOfCore on.
//   churn  reader query rows per second under the writer (median over
//          its batches); latency of one 64-query reader batch; recall
//          after the final Compact.
// Latency tails (p95, p99) and the workload-specific headlines
// (qps_at_r95/r99, max_qps_under_slo and the 200 QPS rung,
// write_p50/p99_ms) go to the details line.
//
// The end-to-end throughput and latency rest on most of the measured
// phase, never on a few short calls: batch's on the operating point's
// calls, serve's on reference windows and capacity bursts interleaved
// with the ladder, churn's on every reader batch of a phase that spans
// several compaction cycles.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"

namespace {

bool ParseArgs(int argc, char** argv, hostbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) return false;
      args->trace = value[0] == '1';
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload batch|serve|churn --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n");
    return 2;
  }
  hostbench::Report report;
  if (args.workload == "batch") {
    hostbench::RunBatch(args, &report);
  } else if (args.workload == "serve") {
    hostbench::RunServe(args, &report);
  } else if (args.workload == "churn") {
    hostbench::RunChurn(args, &report);
  } else {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  report.Print(args);
  return report.correct() ? 0 : 1;
}
