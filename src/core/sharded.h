#ifndef CAGRA_CORE_SHARDED_H_
#define CAGRA_CORE_SHARDED_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/search.h"
#include "core/searcher.h"

namespace cagra {

/// Multi-GPU sharding extension (§IV-C2 closing discussion and §V-E:
/// "the sharding technique could be well-suited for extending
/// graph-based ANNS to a multi-GPU environment, where each GPU is
/// assigned to process one sub-graph independently").
///
/// The dataset is split round-robin into `num_shards` sub-datasets; an
/// independent CAGRA index is built per shard. A search runs on every
/// shard (each modeled on its own device, as the paper proposes) and the
/// per-shard top-k lists are merged. Global id g lives on shard
/// g % num_shards as local id g / num_shards, for built and added rows
/// alike, so the merge translates local ids back by arithmetic alone.
struct ShardedBuildStats {
  std::vector<BuildStats> per_shard;
  double total_seconds = 0.0;  ///< wall time of the (parallel) build
};

/// Padding sentinel in neighbor lists entering/leaving the shard merge.
constexpr uint32_t kInvalidShardEntry = 0xffffffffu;

/// One sorted candidate list entering the k-way shard merge: `len`
/// (distance, id) pairs sorted ascending by (distance, id), holding the
/// local ids of shard `shard` of `num_shards`. The merge drops the
/// kInvalidShardEntry padding the per-shard searches append, then
/// translates each local id by the round-robin rule global = local *
/// num_shards + shard (the identity at the default one shard).
struct ShardMergeList {
  const float* distances = nullptr;
  const uint32_t* ids = nullptr;
  size_t len = 0;
  size_t shard = 0;
  size_t num_shards = 1;
};

/// Folds `num_lists` per-shard top-k lists into the global top-k of one
/// query — the host-side gather/merge step of the paper's multi-GPU
/// evaluation (§V-F). Padding is filtered, ties break by distance then
/// id, and the output is padded with (inf, kInvalidShardEntry) past the
/// valid candidates. Exactly equivalent to sorting the concatenation of
/// the valid candidates and taking the first k (the property
/// tests/property_test.cc pins against a std::sort reference), and
/// independent of list order.
void MergeShardTopK(const ShardMergeList* lists, size_t num_lists, size_t k,
                    uint32_t* out_ids, float* out_distances);

class ShardedCagraIndex : public Searcher {
 public:
  ShardedCagraIndex() = default;

  /// Splits `dataset` into `num_shards` round-robin shards and builds a
  /// CAGRA index per shard, shard builds running in parallel on the
  /// global pool (each build is internally parallel too; the pool is
  /// re-entrant). Per-shard graphs and deterministic BuildStats are
  /// identical to a sequential build — builds are seeded and
  /// independent. num_shards must be >= 1 and small enough that every
  /// shard keeps >= graph_degree + 1 rows.
  [[nodiscard]] static Result<ShardedCagraIndex> Build(const Matrix<float>& dataset,
                                         const BuildParams& params,
                                         size_t num_shards,
                                         ShardedBuildStats* stats = nullptr);

  size_t num_shards() const { return shards_.size(); }
  const CagraIndex& shard(size_t i) const { return shards_[i]; }
  /// Read from a pinned snapshot: a background compaction may publish
  /// (and a reader free) shard 0's previous version at any time.
  size_t dim() const override {
    return shards_.empty() ? 0 : shards_[0].snapshot()->dim();
  }

  /// Materializes the reduced-precision dataset copy on every shard so
  /// sharded searches can run at the matching Precision.
  void EnableHalfPrecision();
  void EnableInt8Quantization();
  void EnablePq(const PqTrainParams& params = PqTrainParams{});

  // ------------------------------------------------------------------
  // Write path. Mutations follow the per-shard snapshot model: each
  // shard publishes a new version and concurrent searches keep reading
  // the versions they pinned. Searches may run concurrently with these;
  // *mutators themselves* must be externally serialized (single
  // writer), because the round-robin id assignment below spans shards.

  /// Inserts `rows`, continuing the round-robin layout: row j becomes
  /// global id next_id + j and lands on shard (next_id + j) %
  /// num_shards, so ids keep the invariant global = local * num_shards
  /// + shard that the merge's id translation relies on. When non-null,
  /// `global_ids` receives exactly the global ids this call assigned
  /// (monotone, never reused). Shapes and capacity are validated before
  /// any shard mutates.
  [[nodiscard]] Status Add(const Matrix<float>& rows,
                           std::vector<uint32_t>* global_ids = nullptr);

  /// Tombstones the rows with the given global ids (lazy deletion, per
  /// CagraIndex::Remove). Every id is validated against its shard's
  /// current snapshot before any shard mutates — an unknown or already-
  /// removed id fails the whole call with kNotFound, all-or-nothing.
  [[nodiscard]] Status Remove(const uint32_t* global_ids, size_t n);
  [[nodiscard]] Status Remove(const std::vector<uint32_t>& global_ids) {
    return Remove(global_ids.data(), global_ids.size());
  }

  /// Synchronously compacts every shard (see CagraIndex::Compact).
  [[nodiscard]] Status Compact();
  /// Forwards the auto-compaction knobs to every shard.
  void SetCompactionOptions(const CompactionOptions& options);
  /// Blocks until no shard has a background compaction in flight.
  void WaitForCompaction() const;

  size_t live_size() const;
  size_t tombstone_count() const;

  /// Sharded search (§V-F): every shard searches the whole batch as one
  /// task on the global pool, as each GPU would search its own
  /// sub-graph, and once every shard is in the calling thread merges
  /// the per-shard top-k lists into the global top-k, translating
  /// shard-local ids back to global ids by the round-robin rule. Each
  /// shard is modeled on device() (the default DeviceSpec); the modeled
  /// time charges the slowest shard plus the host merge of the whole
  /// batch. The storage mode comes from params.precision (the Searcher
  /// front door).
  ///
  /// params.num_threads != 0 is a total host budget, so the shards run
  /// inline one after another and each per-shard search uses the full
  /// width. Results are byte-identical at every thread count.
  ///
  /// Deadline/cancellation (params.cancel): every shard task checks the
  /// token before scanning and the per-shard searches check it at
  /// iteration boundaries, so an expired token drains the search
  /// cooperatively. A straggler that cannot observe the token (a
  /// stalled shard) is *abandoned*: after a short grace the call
  /// returns the merge of the shards that did finish — every row
  /// merged from them — marked SearchResult::complete == false.
  /// Abandoned tasks run to completion against detached heap-owned
  /// state that owns its own copies of the shards (pinning one version
  /// per shard for the whole request), so they never reference the
  /// caller's stack or the index, which may be destroyed as soon as the
  /// call returns. Those copies are all a request pins: every row a
  /// pinned shard returns translates to its global id.
  [[nodiscard]] Result<SearchResult> Search(
      const Matrix<float>& queries,
      const SearchParams& params) const override;

 private:
  /// Merges the `batch` queries of the per-shard results
  /// `shard_results` — (shard index, result) pairs so a cancelled
  /// search can merge the subset of shards that finished — into `out`,
  /// translating shard-local ids to global ids.
  void MergeRows(
      const std::vector<std::pair<size_t, const SearchResult*>>& shard_results,
      size_t batch, size_t k, NeighborList* out) const;

  std::vector<CagraIndex> shards_;
  /// The global id the next Add assigns: Build sets it to the dataset
  /// size and a successful Add advances it. Removals never lower it, so
  /// ids are never reused.
  size_t next_id_ = 0;
};

}  // namespace cagra

#endif  // CAGRA_CORE_SHARDED_H_
