#include "core/sharded.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/bounded_heap.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/mpsc_queue.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {
/// Host-side cost of gathering and merging S sorted k-lists for one
/// query (PCIe transfer of k entries per shard + merge).
constexpr double kMergeOverheadPerQueryShard = 2e-7;  // 200ns

constexpr float kInf = std::numeric_limits<float>::infinity();

/// How long the merger waits for already-cancelling tasks after it
/// observes expiry, before abandoning whoever still hasn't published.
/// Cooperative cancellation inside a search is observed within a few
/// iterations (tens of microseconds here), so a small grace drains every
/// well-behaved task; only a genuinely stalled one gets abandoned.
constexpr std::chrono::milliseconds kCancelDrainGrace{2};

/// Poll period of the cancelable merger wait: bounds how late a manual
/// Cancel() from another thread is forwarded into the search.
constexpr std::chrono::milliseconds kCancelPollPeriod{1};

/// The marker a task records when it skips its scan because the token
/// expired first. Not an error of the search — the merger folds the
/// shards that did run and marks the result incomplete.
Status CancelMarker(const CancelToken& token) {
  return token.has_deadline()
             ? Status::DeadlineExceeded(
                   "deadline expired before this shard scan started")
             : Status::Cancelled("cancelled before this shard scan started");
}

bool IsCancelMarker(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded ||
         s.code() == StatusCode::kCancelled;
}

/// Heap-owned state of one sharded search, shared (shared_ptr) between
/// the merging caller and every shard task. In cancelable mode the
/// merger may return before every task has run — abandoned tasks keep
/// the state alive and finish against it harmlessly, so nothing here
/// may reference the caller's stack or the index. The token-free and
/// inline paths keep the zero-copy reference to the caller's queries,
/// which is safe because their merger always waits for every shard.
///
/// Synchronization contract (queue-published, not mutex-guarded — so
/// outside CAGRA_GUARDED_BY's vocabulary; the mutex+2cv protocol lives
/// inside the annotated MpscBoundedQueue member `ready`):
///  - `results[s]` is written by exactly one task, which then pushes s
///    into `ready`; the consumer's pop acquires, so a popped shard's
///    slot is ordered-before the read. Slots of never-popped shards
///    still belong to (possibly abandoned) tasks and must not be read —
///    Search tracks popped shards explicitly.
///  - Everything else is set before the first task is submitted and
///    read-only afterwards (`token` is internally atomic).
struct SearchState {
  SearchState(const std::vector<CagraIndex>& shards_in,
              const CancelToken* parent)
      : shards(shards_in),
        results(shards_in.size()),
        ready(shards_in.size()),
        // The derived token tasks consult: the caller's deadline is
        // copied in (so tasks observe it on their own clock reads), a
        // cancel requested before the call is inherited here, and later
        // manual cancels are forwarded by the merger while it is still
        // around. Tasks never touch the caller's token, whose lifetime
        // ends with the call.
        token(parent != nullptr && parent->has_deadline()
                  ? CancelToken(parent->deadline())
                  : CancelToken()) {
    if (parent != nullptr && parent->Expired()) token.Cancel();
  }

  /// Copies of the index's shards, taken on the caller's thread. Each
  /// copy is one atomic snapshot load sharing every tier: it pins one
  /// version per shard for the whole request and keeps that version
  /// alive for an abandoned task even after the index is destroyed.
  const std::vector<CagraIndex> shards;
  /// Points at the caller's matrix (token-free and inline modes) or
  /// owned_queries (cancelable pool mode).
  const Matrix<float>* queries = nullptr;
  Matrix<float> owned_queries;
  SearchParams task_params;
  DeviceSpec device;

  std::vector<std::optional<Result<SearchResult>>> results;
  /// Carries shard indices only (results are preallocated above), sized
  /// to hold every shard, so neither a finishing nor an abandoned task
  /// can ever block on its push.
  MpscBoundedQueue<size_t> ready;
  CancelToken token;
};

/// One shard's search over the whole batch. Owns a reference to the
/// shared state (and nothing else), so it runs correctly even after a
/// cancelled merger has returned and the index is gone.
void RunShardTask(const std::shared_ptr<SearchState>& st, size_t s) {
  // Shed the scan once the search is cancelled: an expired deadline
  // means nobody is waiting for this shard anymore. The task's token is
  // the derived one on the pool path, the caller's own on the inline
  // path — whatever task_params carries. Decided on entry, so a task
  // stalled past this point still scans once it wakes, possibly after
  // an abandoning merger returned — against the state's own shard
  // copy, never the index.
  const CancelToken* task_token = st->task_params.cancel;
  const bool shed = task_token != nullptr && task_token->Expired();
  CAGRA_FAULT_POINT("shard_scan_stall");
  Status injected = CAGRA_FAULT_STATUS("shard_scan_fail");
  std::optional<Result<SearchResult>>& slot = st->results[s];
  if (!injected.ok()) {
    slot.emplace(injected);
  } else if (shed) {
    slot.emplace(CancelMarker(*task_token));
  } else {
    slot.emplace(cagra::Search(st->shards[s], *st->queries, st->task_params,
                               st->device));
  }
  CAGRA_FAULT_POINT("queue_push_stall");
  st->ready.Push(s);
}

/// The merger's wait in cancelable mode. Polls so a manual Cancel() on
/// the caller's token is forwarded into the search's derived token; on
/// expiry grants kCancelDrainGrace for in-flight shards to publish,
/// then reports nullopt — the signal to abandon the stragglers.
std::optional<size_t> PopCancelable(SearchState* st,
                                    const CancelToken* caller) {
  while (true) {
    if (st->token.Expired()) {
      return st->ready.PopUntil(CancelToken::Clock::now() + kCancelDrainGrace);
    }
    auto until = CancelToken::Clock::now() + kCancelPollPeriod;
    if (st->token.has_deadline() && st->token.deadline() < until) {
      until = st->token.deadline();
    }
    std::optional<size_t> s = st->ready.PopUntil(until);
    if (s.has_value()) return s;
    if (caller->Expired()) st->token.Cancel();
  }
}

}  // namespace

void MergeShardTopK(const ShardMergeList* lists, size_t num_lists, size_t k,
                    uint32_t* out_ids, float* out_distances) {
  BoundedHeap heap(k);
  for (size_t l = 0; l < num_lists; l++) {
    const ShardMergeList& list = lists[l];
    for (size_t i = 0; i < list.len; i++) {
      if (list.ids[i] == kInvalidShardEntry) continue;  // padding
      const auto id =
          static_cast<uint32_t>(list.ids[i] * list.num_shards + list.shard);
      const float d = list.distances[i];
      // Lists are sorted ascending by distance, so once the heap is full
      // and this entry is strictly worse than the retained worst, the
      // rest of the list cannot qualify either. Equal distances still
      // enter — a smaller id can displace the worst under the
      // (distance, id) order.
      if (heap.Full() && d > heap.WorstDistance()) break;
      heap.Push(d, id);
    }
  }
  const auto sorted = heap.ExtractSorted();
  for (size_t i = 0; i < k; i++) {
    out_ids[i] = i < sorted.size() ? sorted[i].id : kInvalidShardEntry;
    out_distances[i] = i < sorted.size() ? sorted[i].distance : kInf;
  }
}

Result<ShardedCagraIndex> ShardedCagraIndex::Build(
    const Matrix<float>& dataset, const BuildParams& params,
    size_t num_shards, ShardedBuildStats* stats) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (dataset.rows() < num_shards * (params.graph_degree + 1)) {
    return Status::InvalidArgument(
        "dataset too small for the requested shard count and degree");
  }

  Timer total;
  ShardedCagraIndex index;
  index.shards_.resize(num_shards);
  index.next_id_ = dataset.rows();
  ShardedBuildStats local;
  local.per_shard.resize(num_shards);

  // Round-robin split: row i goes to shard i % num_shards as local row
  // i / num_shards (the paper notes real shard assignment involves
  // shuffling/splitting the indices; round-robin on a shuffled-identity
  // synthetic set is equivalent in distribution). Shard builds run in
  // parallel, mirroring the one-GPU-per-shard build. Each build is
  // seeded and touches only its own slot, so the graphs and
  // deterministic stats are identical to a sequential build (pinned by
  // tests/sharded_test.cc); nested build parallelism composes via the
  // re-entrant pool.
  std::vector<Status> shard_status(num_shards);
  GlobalThreadPool().ParallelFor(0, num_shards, [&](size_t s) {
    Matrix<float> shard_data(
        (dataset.rows() - s + num_shards - 1) / num_shards, dataset.dim());
    for (size_t local_row = 0; local_row < shard_data.rows(); local_row++) {
      const float* row = dataset.Row(local_row * num_shards + s);
      std::copy(row, row + dataset.dim(), shard_data.MutableRow(local_row));
    }
    auto shard = CagraIndex::Build(shard_data, params, &local.per_shard[s]);
    if (!shard.ok()) {
      shard_status[s] = shard.status();
      return;
    }
    index.shards_[s] = std::move(shard.value());
  });
  for (const Status& s : shard_status) {
    CAGRA_RETURN_IF_ERROR(s);
  }

  local.total_seconds = total.Seconds();
  if (stats != nullptr) *stats = local;
  return index;
}

void ShardedCagraIndex::EnableHalfPrecision() {
  for (auto& shard : shards_) shard.EnableHalfPrecision();
}

void ShardedCagraIndex::EnableInt8Quantization() {
  for (auto& shard : shards_) shard.EnableInt8Quantization();
}

void ShardedCagraIndex::EnablePq(const PqTrainParams& params) {
  for (auto& shard : shards_) shard.EnablePq(params);
}

Status ShardedCagraIndex::Add(const Matrix<float>& rows,
                              std::vector<uint32_t>* global_ids) {
  if (shards_.empty()) {
    return Status::FailedPrecondition(
        "Add on an unbuilt sharded index: Build() first");
  }
  if (rows.rows() == 0) {
    if (global_ids != nullptr) global_ids->clear();
    return Status::Ok();
  }
  if (rows.dim() != dim()) {
    return Status::InvalidArgument("row dim does not match index dim");
  }
  const size_t num_shards = shards_.size();
  const size_t end = next_id_ + rows.rows();  // one past the last new id

  // Pre-validate so the per-shard loop below cannot fail halfway: the
  // only remaining CagraIndex::Add failure is capacity. Shard 0 holds
  // the most ever-assigned rows (ids below `end` that are 0 mod
  // num_shards), which bound each shard's internal rows; every new id
  // must also stay below the merge's padding sentinel.
  for (const CagraIndex& shard : shards_) {
    // Pinned: background compaction publishes without this writer.
    if (shard.snapshot()->out_of_core()) {
      return Status::FailedPrecondition(
          "Add on an out-of-core sharded index: the mapped fp32 tiers "
          "cannot grow in place");
    }
  }
  if ((end + num_shards - 1) / num_shards > CagraIndex::kMaxDatasetSize) {
    return Status::CapacityExceeded("shard would exceed 2^31 - 1 rows");
  }
  if (end > kInvalidShardEntry) {
    return Status::CapacityExceeded(
        "global ids would reach the 0xffffffff padding sentinel");
  }

  // Route each row to its shard, preserving input order within a shard:
  // shard s receives its global ids in increasing order, which keeps
  // shard-local external ids equal to global / num_shards.
  for (size_t s = 0; s < num_shards; s++) {
    // Row j lands on shard (next_id_ + j) % num_shards; `first` is the
    // first row that does.
    const size_t first =
        (s + num_shards - next_id_ % num_shards) % num_shards;
    if (first >= rows.rows()) continue;
    Matrix<float> shard_rows(
        (rows.rows() - first + num_shards - 1) / num_shards, rows.dim());
    for (size_t w = 0; w < shard_rows.rows(); w++) {
      const float* row = rows.Row(first + w * num_shards);
      std::copy(row, row + rows.dim(), shard_rows.MutableRow(w));
    }
    CAGRA_RETURN_IF_ERROR(shards_[s].Add(shard_rows));
  }
  if (global_ids != nullptr) {
    global_ids->clear();
    for (size_t g = next_id_; g < end; g++) {
      global_ids->push_back(static_cast<uint32_t>(g));
    }
  }
  next_id_ = end;
  return Status::Ok();
}

Status ShardedCagraIndex::Remove(const uint32_t* global_ids, size_t n) {
  if (shards_.empty()) {
    return Status::FailedPrecondition(
        "Remove on an unbuilt sharded index: Build() first");
  }
  const size_t num_shards = shards_.size();
  // Validate everything against the current per-shard snapshots before
  // any shard mutates (all-or-nothing across shards, matching the
  // single-index contract within one).
  std::vector<std::shared_ptr<const IndexSnapshot>> snaps(num_shards);
  for (size_t s = 0; s < num_shards; s++) snaps[s] = shards_[s].snapshot();
  std::vector<std::vector<uint32_t>> per_shard(num_shards);
  for (size_t i = 0; i < n; i++) {
    const uint32_t g = global_ids[i];
    const size_t s = g % num_shards;
    const uint32_t local = g / num_shards;
    const uint32_t internal = snaps[s]->InternalId(local);
    if (internal == IndexSnapshot::kNoInternal || snaps[s]->Deleted(internal)) {
      return Status::NotFound("global id " + std::to_string(g) +
                              " is not a live row");
    }
    per_shard[s].push_back(local);
  }
  for (size_t s = 0; s < num_shards; s++) {
    if (per_shard[s].empty()) continue;
    CAGRA_RETURN_IF_ERROR(
        shards_[s].Remove(per_shard[s].data(), per_shard[s].size()));
  }
  return Status::Ok();
}

Status ShardedCagraIndex::Compact() {
  for (auto& shard : shards_) {
    CAGRA_RETURN_IF_ERROR(shard.Compact());
  }
  return Status::Ok();
}

void ShardedCagraIndex::SetCompactionOptions(const CompactionOptions& options) {
  for (auto& shard : shards_) shard.SetCompactionOptions(options);
}

void ShardedCagraIndex::WaitForCompaction() const {
  for (const auto& shard : shards_) shard.WaitForCompaction();
}

// Both read pinned snapshots, as dim() does: callers may count while a
// background compaction publishes a shard's next version.
size_t ShardedCagraIndex::live_size() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.snapshot()->live_rows();
  return total;
}

size_t ShardedCagraIndex::tombstone_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard.snapshot()->num_dead;
  return total;
}

void ShardedCagraIndex::MergeRows(
    const std::vector<std::pair<size_t, const SearchResult*>>& shard_results,
    size_t batch, size_t k, NeighborList* out) const {
  const size_t num_lists = shard_results.size();
  std::vector<ShardMergeList> lists(num_lists);
  for (size_t q = 0; q < batch; q++) {
    for (size_t l = 0; l < num_lists; l++) {
      const NeighborList& n = shard_results[l].second->neighbors;
      lists[l] = {n.distances.data() + q * k, n.ids.data() + q * k, k,
                  shard_results[l].first, shards_.size()};
    }
    MergeShardTopK(lists.data(), num_lists, k, out->ids.data() + q * k,
                   out->distances.data() + q * k);
  }
}

Result<SearchResult> ShardedCagraIndex::Search(const Matrix<float>& queries,
                                               const SearchParams& params) const {
  if (shards_.empty()) return Status::InvalidArgument("no shards built");
  // Shared with the single-index front door so identical bad inputs
  // fail identically on either path (pinned by tests/searcher_test.cc).
  CAGRA_RETURN_IF_ERROR(ValidateSearchParams(params));

  const size_t k = params.k;
  const size_t batch = queries.rows();
  const size_t num_shards = shards_.size();
  const CancelToken* caller_token = params.cancel;
  auto st = std::make_shared<SearchState>(shards_, caller_token);
  st->device = device();
  // Batch-shape auto choices (execution mode, multi-CTA width) are
  // resolved once on the full batch and shared by every shard.
  st->task_params = ResolveBatchShape(params, st->device, batch);
  st->queries = &queries;
  const bool detachable = caller_token != nullptr && params.num_threads == 0;
  if (detachable) {
    // Pool-scheduled tasks may outlive this call (abandonment), so they
    // must not reference the caller's stack: queries are copied into
    // the shared state once, and tasks consult the derived token, never
    // the caller's. Inline tasks run to completion on this stack, so
    // they keep the caller's token (already copied into task_params) —
    // which also lets a manual Cancel() land mid-search.
    st->owned_queries = queries;
    st->queries = &st->owned_queries;
    st->task_params.cancel = &st->token;
  }

  SearchResult out;
  out.neighbors.k = k;
  out.neighbors.ids.assign(batch * k, kInvalidShardEntry);
  out.neighbors.distances.assign(batch * k, kInf);
  out.rows_examined.assign(batch, 0);

  // Which shards the merger has popped. A popped shard's result slot is
  // written and ordered-before the pop, so only popped shards may be
  // read below — under abandonment the other slots belong to live tasks.
  std::vector<uint8_t> popped(num_shards, 0);

  Timer host;
  if (params.num_threads != 0) {
    // An explicit width is a total budget: shards run inline one after
    // another and each per-shard search uses the full width
    // (num_threads == 1 is then fully serial). Fanning shards out here
    // too would multiply the budget by num_shards.
    for (size_t s = 0; s < num_shards; s++) RunShardTask(st, s);
  } else {
    // Shards search the whole batch in parallel on the pool, one task
    // each, as each GPU would search its own sub-graph (§V-F).
    ThreadPool& pool = GlobalThreadPool();
    for (size_t s = 0; s < num_shards; s++) {
      pool.Submit([st, s] { RunShardTask(st, s); });
    }
  }
  for (size_t m = 0; m < num_shards; m++) {
    std::optional<size_t> s = detachable
                                  ? PopCancelable(st.get(), caller_token)
                                  : st->ready.Pop();
    if (!s.has_value()) {
      // Deadline passed and the grace drain went dry: abandon the
      // stragglers. They hold the shared state (and observe the
      // cancelled derived token at their next boundary), so they
      // finish harmlessly after we return.
      st->token.Cancel();
      out.complete = false;
      break;
    }
    popped[*s] = 1;
  }

  // One merge over the whole batch, of the shards that finished: a shed
  // or abandoned shard leaves every row merged from the others. Errors
  // surface in shard order. Result metadata aggregates over the
  // finished shards: counters sum (additive work), host_threads takes
  // the widest shard, and the modeled cost/launch come from the slowest
  // shard — the one the parallel execution actually waits for.
  std::vector<std::pair<size_t, const SearchResult*>> finished;
  finished.reserve(num_shards);
  const SearchResult* slowest = nullptr;
  out.host_threads = 0;
  for (size_t s = 0; s < num_shards; s++) {
    if (popped[s] == 0) continue;  // abandoned: complete is false already
    const Result<SearchResult>& r = *st->results[s];
    if (!r.ok()) {
      if (!IsCancelMarker(r.status())) return r.status();
      out.complete = false;  // this shard shed its scan
      continue;
    }
    if (slowest == nullptr || r->modeled_seconds > slowest->modeled_seconds) {
      slowest = &r.value();
    }
    out.counters.Add(r->counters);
    out.host_threads = std::max(out.host_threads, r->host_threads);
    // A shard truncated by the token makes the merged batch incomplete;
    // rows-examined sums over shards (each scanned its own sub-dataset
    // for the query).
    if (!r->complete) out.complete = false;
    for (size_t q = 0; q < batch && q < r->rows_examined.size(); q++) {
      out.rows_examined[q] += r->rows_examined[q];
    }
    finished.emplace_back(s, &r.value());
  }
  MergeRows(finished, batch, k, &out.neighbors);
  out.host_seconds = host.Seconds();
  out.host_qps = out.host_seconds > 0
                     ? static_cast<double>(batch) / out.host_seconds
                     : 0.0;

  double slowest_seconds = 0.0;
  if (slowest != nullptr) {
    slowest_seconds = slowest->modeled_seconds;
    out.cost = slowest->cost;
    out.launch = slowest->launch;
    out.algo_used = slowest->algo_used;
    out.team_size_used = slowest->team_size_used;
  }
  // Shards execute on independent devices in parallel; the batch pays
  // the slowest shard plus the host merge of the whole batch, which
  // starts once every shard is in.
  out.modeled_seconds =
      slowest_seconds + kMergeOverheadPerQueryShard *
                            static_cast<double>(batch * num_shards);
  out.modeled_qps = out.modeled_seconds > 0
                        ? static_cast<double>(batch) / out.modeled_seconds
                        : 0.0;
  return out;
}

}  // namespace cagra
