#include "core/search.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "core/search_internal.h"
#include "util/bounded_heap.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {

using internal_search::DatasetView;
using internal_search::ResolveConfig;
using internal_search::ResolvedConfig;
using internal_search::SearchScratch;

/// Threads per CTA used by the two kernels (matches the cuVS defaults:
/// wide CTAs for single-CTA mode, slimmer CTAs in multi-CTA mode so many
/// fit per query).
constexpr size_t kSingleCtaThreads = 256;
constexpr size_t kMultiCtaThreads = 128;
constexpr size_t kMultiCtaLocalTopM = 32;

/// Per-thread scratch reused across Search() calls. The serving
/// scheduler's workers call Search once per micro-batch on the same
/// thread, and before this cache every call re-allocated the visited
/// tables, search buffers, and — the expensive one for PQ — the M x 256
/// ADC-table storage that DatasetView::Prepare rebuilds per query.
/// Reuse is invisible to results (every query fully reinitializes the
/// state it reads; the ADC table *contents* are still rebuilt per
/// query, only the allocation persists). Safety: slot entries are
/// handed to pool workers only for the duration of one
/// ParallelForSlotted, which guarantees distinct slots for concurrent
/// iterations of one call; concurrent Search calls come from distinct
/// calling threads and therefore distinct thread_local caches.
std::vector<std::unique_ptr<SearchScratch>>& ScratchCache(size_t slots) {
  static thread_local std::vector<std::unique_ptr<SearchScratch>> cache;
  if (cache.size() < slots) cache.resize(slots);
  return cache;
}

size_t ResolveCtaPerQuery(const SearchParams& params, const DeviceSpec& dev,
                          size_t batch, size_t itopk) {
  if (params.cta_per_query != 0) return params.cta_per_query;
  // Enough CTAs to cover the requested breadth (each holds a 32-entry
  // local list) and to saturate the device at small batch sizes. An
  // empty batch launches nothing; resolve it like batch 1 so the
  // division below cannot fault.
  if (batch == 0) batch = 1;
  size_t by_breadth = (itopk + kMultiCtaLocalTopM - 1) / kMultiCtaLocalTopM;
  size_t by_fill = batch < dev.sm_count
                       ? (2 * dev.sm_count + batch - 1) / batch
                       : 1;
  return std::clamp<size_t>(std::max(by_breadth, by_fill), 2, 64);
}

}  // namespace

Matrix<float> SliceQueries(const Matrix<float>& queries, size_t begin,
                           size_t count) {
  Matrix<float> out(count, queries.dim());
  for (size_t r = 0; r < count; r++) {
    const float* src = queries.Row(begin + r);
    std::copy(src, src + queries.dim(), out.MutableRow(r));
  }
  return out;
}

SearchParams ResolveBatchShape(const SearchParams& params,
                               const DeviceSpec& device, size_t batch) {
  SearchParams out = params;
  ModeThresholds thresholds;
  thresholds.max_batch_for_multi = device.sm_count;
  const size_t itopk = internal_search::ResolveItopk(params);
  if (out.algo == SearchAlgo::kAuto) {
    out.algo = ChooseAlgo(batch, itopk, thresholds);
  }
  if (out.algo == SearchAlgo::kMultiCta && out.cta_per_query == 0) {
    out.cta_per_query = ResolveCtaPerQuery(params, device, batch, itopk);
  }
  return out;
}

size_t PickTeamSize(const DeviceSpec& device, size_t dim, size_t elem_bytes,
                    size_t threads_per_cta, size_t candidates_per_iter) {
  size_t best = device.warp_size;
  double best_score = -1.0;
  for (size_t ts : {2, 4, 8, 16, 32}) {
    KernelLaunchConfig cfg;
    cfg.batch = device.sm_count;  // occupancy probe at full fill
    cfg.ctas_per_query = 1;
    cfg.threads_per_cta = threads_per_cta;
    cfg.team_size = ts;
    cfg.dim = dim;
    cfg.elem_bytes = elem_bytes;
    cfg.candidates_per_iter = candidates_per_iter;
    const OccupancyInfo info = AnalyzeOccupancy(device, cfg);
    const double score =
        info.load_efficiency * info.occupancy * info.round_efficiency;
    if (score > best_score) {
      best_score = score;
      best = ts;
    }
  }
  return best;
}

Status ValidateSearchParams(const SearchParams& params) {
  if (params.k == 0) return Status::InvalidArgument("k must be >= 1");
  // itopk == 0 is the auto default (ResolveItopk widens it past k); an
  // *explicit* itopk below k is a degenerate request — the old check
  // here compared k against max(itopk, k) and could never fire.
  if (params.itopk != 0 && params.k > params.itopk) {
    return Status::InvalidArgument("k must be <= itopk");
  }
  return Status::Ok();
}

Result<SearchResult> Search(const CagraIndex& index,
                            const Matrix<float>& queries,
                            const SearchParams& params,
                            const DeviceSpec& device) {
  const Precision precision = params.precision;
  // The whole search consumes ONE pinned version of the index: every
  // read below — validation, kernels, rerank, id translation — goes
  // through `snap`, so a concurrent Add/Remove/Compact (which publishes
  // a successor snapshot) can never change or tear this call's view.
  const std::shared_ptr<const IndexSnapshot> snap = index.snapshot();
  if (snap->size() == 0) return Status::InvalidArgument("index is empty");
  if (queries.dim() != snap->dim()) {
    return Status::InvalidArgument("query dim does not match index dim");
  }
  Status valid = ValidateSearchParams(params);
  if (!valid.ok()) return valid;
  if (precision == Precision::kFp16 && !snap->HasHalf()) {
    return Status::InvalidArgument(
        "fp16 search requires EnableHalfPrecision() on the index");
  }
  if (precision == Precision::kInt8 && !snap->HasInt8()) {
    return Status::InvalidArgument(
        "int8 search requires EnableInt8Quantization() on the index");
  }
  if (precision == Precision::kPq && !snap->HasPq()) {
    return Status::InvalidArgument(
        "PQ search requires EnablePq() on the index");
  }

  const size_t batch = queries.rows();
  const size_t d = snap->degree();

  // --- Mode selection (Fig. 7 rule; thresholds track the device).
  // ResolveBatchShape is the single owner of the batch-shape auto
  // choices, so callers that pin them up front (serving, sharded
  // search) get exactly what this call would pick.
  const SearchParams shaped = ResolveBatchShape(params, device, batch);
  const SearchAlgo algo = shaped.algo;

  ResolvedConfig cfg = ResolveConfig(params, algo, d, snap->size());
  cfg.cta_per_query =
      algo == SearchAlgo::kMultiCta ? shaped.cta_per_query : 1;
  cfg.cancel = params.cancel;

  // --- Exact-fp32 rerank depth (params.rerank doc). The kernels consume
  // cfg.k only at output emission (see search_single_cta.cc /
  // search_multi_cta.cc), so widening it to r keeps the traversal — and
  // therefore the candidate frontier — identical to a plain top-k
  // search; the search just emits more of the frontier it already had.
  const size_t out_k = cfg.k;
  size_t rerank_n = 0;
  if (params.rerank != 0) {
    rerank_n = std::min(std::max(params.rerank, out_k), cfg.itopk);
    if (algo == SearchAlgo::kMultiCta) {
      // The merged multi-CTA list holds at most ctas x 32 entries;
      // asking past that only pads.
      rerank_n = std::min(rerank_n, cfg.cta_per_query * kMultiCtaLocalTopM);
    }
    rerank_n = std::max(rerank_n, out_k);
    cfg.k = rerank_n;
  }

  const DatasetView dataset(*snap, precision);

  // --- Functional execution, one query at a time (parallel on the host;
  // counters are accumulated per query then reduced).
  SearchResult result;
  result.neighbors.k = out_k;
  result.neighbors.ids.assign(batch * out_k, internal_search::kInvalidEntry);
  result.neighbors.distances.assign(batch * out_k,
                                    std::numeric_limits<float>::infinity());
  // With rerank on, the kernels emit their top-r into a staging buffer
  // and the rescore below writes the final top-k into the result.
  std::vector<uint32_t> cand_ids;
  std::vector<float> cand_dists;
  if (rerank_n != 0) {
    cand_ids.assign(batch * rerank_n, internal_search::kInvalidEntry);
    cand_dists.assign(batch * rerank_n,
                      std::numeric_limits<float>::infinity());
  }
  uint32_t* const emit_ids =
      rerank_n != 0 ? cand_ids.data() : result.neighbors.ids.data();
  float* const emit_dists =
      rerank_n != 0 ? cand_dists.data() : result.neighbors.distances.data();
  std::vector<KernelCounters> per_query(batch);
  // Per-query cancellation marks (uint8_t, not vector<bool>: distinct
  // queries write distinct slots concurrently).
  std::vector<uint8_t> truncated(batch, 0);

  // Queries are independent (the "one CTA per query" mapping, executed
  // as host threads): each worker slot keeps its own scratch — visited
  // table + search buffers — allocated lazily on first use, so results
  // are byte-identical to a serial run at any thread count.
  auto run_query = [&](SearchScratch* scratch, size_t q) {
    KernelCounters& counters = per_query[q];
    // uniform_seed: every row samples like a batch-of-one (row 0 gets
    // cfg.seed either way) so coalescing requests into micro-batches
    // cannot change any request's result.
    const uint64_t query_seed =
        params.uniform_seed ? cfg.seed : cfg.seed + 0x1000003ULL * q;
    uint32_t* ids = emit_ids + q * cfg.k;
    float* dists = emit_dists + q * cfg.k;
    bool cut = false;
    size_t iters;
    if (algo == SearchAlgo::kMultiCta) {
      iters = internal_search::SearchMultiCta(dataset, snap->GraphRef(),
                                              queries.Row(q), cfg, query_seed,
                                              ids, dists, &counters, scratch,
                                              &cut);
    } else {
      iters = internal_search::SearchSingleCta(dataset, snap->GraphRef(),
                                               queries.Row(q), cfg,
                                               query_seed, ids, dists,
                                               &counters, scratch, &cut);
    }
    if (cut) truncated[q] = 1;
    counters.iterations = iters;
    counters.max_iterations = iters;
    counters.queries = 1;
  };

  Timer timer;
  size_t host_threads = 1;
  ThreadPool* pool = nullptr;
  if (params.num_threads != 1) {
    // Dedicated pool when an explicit width was requested (bench
    // scaling sweeps); the process-wide pool otherwise. The calling
    // thread drains chunks alongside the workers (see ParallelForSlotted),
    // so it counts toward the width: a dedicated pool gets
    // num_threads - 1 workers, and host_threads reports workers + 1.
    // The pool is cached per calling thread and reused while the width
    // matches: callers that repeat explicit-width searches (for example
    // a benchmark's batch loop) would otherwise spawn and join a fresh
    // set of threads on every call.
    pool = &GlobalThreadPool();
    if (params.num_threads > 1) {
      static thread_local std::unique_ptr<ThreadPool> dedicated;
      if (dedicated == nullptr ||
          dedicated->num_threads() != params.num_threads - 1) {
        dedicated = std::make_unique<ThreadPool>(params.num_threads - 1);
      }
      pool = dedicated.get();
    }
  }
  if (pool == nullptr) {
    auto& scratch = ScratchCache(1);
    if (scratch[0] == nullptr) scratch[0] = std::make_unique<SearchScratch>();
    for (size_t q = 0; q < batch; q++) run_query(scratch[0].get(), q);
  } else {
    // Report the threads the batch can actually occupy, not the pool's
    // configured width: ParallelForSlotted runs at most one thread per
    // iteration (a 1-query batch is serial whatever the pool size), so
    // the width is clamped to the batch.
    host_threads = std::min(batch, pool->num_threads() + 1);
    if (host_threads == 0) host_threads = 1;  // empty batch ran (trivially)
    auto& scratch = ScratchCache(pool->num_slots());
    pool->ParallelForSlotted(0, batch, [&](size_t slot, size_t q) {
      if (scratch[slot] == nullptr) {
        scratch[slot] = std::make_unique<SearchScratch>();
      }
      run_query(scratch[slot].get(), q);
    });
  }

  // --- Exact-fp32 rerank over the emitted top-r candidates.
  if (rerank_n != 0) {
    // Lookahead prefetch (out-of-core only): tell the kernel which
    // pages the rescore is about to fault in, one sorted+coalesced
    // MADV_WILLNEED pass per query, so the reads overlap the rescoring
    // of earlier queries instead of serializing behind it.
    if (const MmapMatrix* mapped = snap->mmap.get()) {
      auto prefetch_query = [&](size_t q) {
        mapped->PrefetchRows(cand_ids.data() + q * rerank_n, rerank_n);
      };
      if (pool == nullptr) {
        for (size_t q = 0; q < batch; q++) prefetch_query(q);
      } else {
        pool->ParallelFor(0, batch, prefetch_query);
      }
    }
    const float* base = snap->Fp32Data();
    constexpr size_t kRerankBlock = 256;
    auto rerank_query = [&](size_t q) {
      uint32_t* out_ids = result.neighbors.ids.data() + q * out_k;
      float* out_dists = result.neighbors.distances.data() + q * out_k;
      const uint32_t* cids = cand_ids.data() + q * rerank_n;
      const float* cdists = cand_dists.data() + q * rerank_n;
      size_t n = 0;  // kernels pad past the frontier with kInvalidEntry
      while (n < rerank_n && cids[n] != internal_search::kInvalidEntry) n++;
      KernelCounters& counters = per_query[q];
      // Deadline/cancellation at rerank-block granularity: checked
      // before each block of row fetches — the unit of I/O an
      // out-of-core rescore cannot abandon midway.
      CancelCheck check(cfg.cancel, /*stride=*/1);
      std::vector<float> exact(n);
      bool cut = false;
      for (size_t i0 = 0; i0 < n; i0 += kRerankBlock) {
        if (check.ExpiredNow()) {
          cut = true;
          break;
        }
        const size_t b = std::min(kRerankBlock, n - i0);
        ComputeDistanceGather(snap->metric, queries.Row(q), base,
                              snap->dim(), cids + i0, b, exact.data() + i0);
        counters.distance_computations += b;
        counters.distance_elements += b * snap->dim();
        counters.device_vector_bytes += b * snap->dim() * sizeof(float);
      }
      if (cut) {
        // Partial per the SearchResult::complete contract: fall back to
        // the approximate-ranked candidates (already sorted, deduped,
        // padded) — well-formed, just un-rescored.
        truncated[q] = 1;
        const size_t have = std::min(out_k, n);
        std::copy(cids, cids + have, out_ids);
        std::copy(cdists, cdists + have, out_dists);
        return;
      }
      // (distance, id) order matches the kernels' emission tiebreak, so
      // the final top-k is deterministic under duplicate distances.
      BoundedHeap top(out_k);
      for (size_t i = 0; i < n; i++) top.Push(exact[i], cids[i]);
      const auto best = top.ExtractSorted();
      for (size_t i = 0; i < best.size(); i++) {
        out_ids[i] = best[i].id;
        out_dists[i] = best[i].distance;
      }
    };
    if (pool == nullptr) {
      for (size_t q = 0; q < batch; q++) rerank_query(q);
    } else {
      pool->ParallelFor(0, batch, rerank_query);
    }
  }
  // Translate internal row ids to stable external ids. A no-op (null
  // map) until compaction has renumbered rows, so unmutated indexes
  // return exactly the pre-refactor ids. This runs after the rerank,
  // which fetches rows by internal id.
  if (snap->id_map != nullptr) {
    const std::vector<uint32_t>& map = *snap->id_map;
    for (uint32_t& id : result.neighbors.ids) {
      if (id != internal_search::kInvalidEntry) id = map[id];
    }
  }
  result.host_seconds = timer.Seconds();
  result.host_threads = host_threads;
  result.host_qps = result.host_seconds > 0
                        ? static_cast<double>(batch) / result.host_seconds
                        : 0.0;

  for (const auto& c : per_query) result.counters.Add(c);
  result.counters.kernel_launches = 1;  // single fused kernel (§IV-C1)

  // Partial-result bookkeeping: per-query rows scored (the counters
  // already track exactly that) and the batch-level completion flag.
  result.rows_examined.resize(batch);
  for (size_t q = 0; q < batch; q++) {
    result.rows_examined[q] = per_query[q].distance_computations;
    if (truncated[q] != 0) result.complete = false;
  }

  // --- Launch configuration for the cost model.
  KernelLaunchConfig launch;
  launch.batch = batch;
  launch.ctas_per_query = cfg.cta_per_query;
  launch.threads_per_cta = algo == SearchAlgo::kMultiCta ? kMultiCtaThreads
                                                         : kSingleCtaThreads;
  // The cost model prices row traffic as dim * elem_bytes: PQ rows are
  // M one-byte code lookups, not dim decoded elements, so the launch
  // reports the per-distance element count (M for PQ, dim otherwise).
  launch.dim = dataset.ElementsPerDistance();
  launch.elem_bytes = dataset.ElemBytes();
  launch.candidates_per_iter =
      algo == SearchAlgo::kMultiCta ? d : cfg.search_width * d;
  launch.team_size =
      params.team_size != 0
          ? params.team_size
          : PickTeamSize(device, launch.dim, launch.elem_bytes,
                         launch.threads_per_cta, launch.candidates_per_iter);

  // Shared memory per CTA: search buffer + query staging, plus the
  // visited table when it lives in shared memory (Table II).
  const size_t buffer_entries =
      (algo == SearchAlgo::kMultiCta ? kMultiCtaLocalTopM : cfg.itopk) +
      launch.candidates_per_iter;
  launch.shared_mem_per_cta =
      buffer_entries * sizeof(KeyValue) + snap->dim() * sizeof(float);
  if (cfg.hash_in_shared && algo != SearchAlgo::kMultiCta) {
    launch.shared_mem_per_cta += (1ull << cfg.hash_bits) * sizeof(uint32_t);
  }

  result.launch = launch;
  result.cost = EstimateKernelTime(device, launch, result.counters);
  result.modeled_seconds = result.cost.total;
  result.modeled_qps =
      result.modeled_seconds > 0
          ? static_cast<double>(batch) / result.modeled_seconds
          : 0.0;
  result.algo_used = algo;
  result.team_size_used = launch.team_size;
  return result;
}

}  // namespace cagra
