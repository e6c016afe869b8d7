#ifndef CAGRA_CORE_SEARCH_INTERNAL_H_
#define CAGRA_CORE_SEARCH_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/params.h"
#include "core/snapshot.h"
#include "gpusim/counters.h"
#include "util/visited_set.h"

namespace cagra {

/// A (distance, index) pair as held in the CAGRA search buffer. The index
/// carries the MSB "has been a parent" flag (§IV-B4), so entries order by
/// the distance key; the index only breaks ties (SortByKey).
struct KeyValue {
  float key;
  uint32_t value;
};

namespace internal_search {

/// MSB parent flag on buffer entries (§IV-B4): set once a node has been
/// expanded, checked with one bit-test instead of a second hash lookup.
constexpr uint32_t kParentFlag = 0x80000000u;
constexpr uint32_t kIndexMask = 0x7fffffffu;
constexpr uint32_t kInvalidEntry = 0xffffffffu;

/// Counter-instrumented accessor over the fp32/fp16/int8/PQ dataset
/// copy; every distance charges the device bytes + flops the GPU kernel
/// would spend.
///
/// PQ is the one mode with per-query state: the ADC lookup tables.
/// Callers obtain a QueryView once per query via Prepare() (which
/// builds the tables into worker-owned scratch and charges the codebook
/// traffic) and pass it to every Distance/DistanceBatch call; for the
/// other modes Prepare is a free passthrough.
class DatasetView {
 public:
  /// Views one immutable index version: everything a kernel touches —
  /// rows, graph-adjacent tiers, tombstones — resolves through `snap`,
  /// so a view taken at Search entry is immune to concurrent writers.
  /// The snapshot must outlive the view (Search pins it by shared_ptr).
  DatasetView(const IndexSnapshot& snap, Precision precision)
      : snap_(snap), precision_(precision) {}

  /// A query prepared for this view: the raw fp32 query plus, for PQ,
  /// the per-query ADC tables (owned by the caller's scratch).
  struct QueryView {
    const float* query = nullptr;
    const PqAdcTable* adc = nullptr;
  };

  QueryView Prepare(const float* query, PqAdcTable* adc_storage,
                    KernelCounters* counters) const {
    if (precision_ != Precision::kPq) return {query, nullptr};
    const PqDataset& pq = snap_.PqRef();
    BuildAdcTable(pq, query, snap_.metric, adc_storage);
    // Building the tables scores every centroid once (kNumCentroids
    // full-dim distance equivalents) and streams the codebook.
    counters->distance_computations += PqDataset::kNumCentroids;
    counters->distance_elements += PqDataset::kNumCentroids * snap_.dim();
    counters->device_vector_bytes += pq.CodebookBytes();
    return {query, adc_storage};
  }

  float Distance(const QueryView& q, uint32_t id,
                 KernelCounters* counters) const {
    counters->distance_computations++;
    counters->distance_elements += ElementsPerDistance();
    counters->device_vector_bytes += RowBytes();
    switch (precision_) {
      case Precision::kFp16:
        return ComputeDistance(snap_.metric, q.query,
                               snap_.HalfRef().Row(id), snap_.dim());
      case Precision::kInt8: {
        const QuantizedDataset& i8 = snap_.Int8Ref();
        return ComputeDistance(snap_.metric, q.query, i8.codes.Row(id),
                               i8.scale.data(), i8.offset.data(),
                               snap_.dim());
      }
      case Precision::kPq:
        return ComputeDistanceAdc(*q.adc, snap_.PqRef().codes.Row(id), id);
      case Precision::kFp32:
        break;
    }
    // Fp32Row reads through the active storage tier: the RAM-resident
    // matrix, or the mmap view when the index is out-of-core. Same
    // bytes either way, so every dispatch tier stays bit-identical.
    return ComputeDistance(snap_.metric, q.query, snap_.Fp32Row(id),
                           snap_.dim());
  }

  /// Batched variant of Distance: out[i] = distance(query, row ids[i]).
  /// All storage types go through the SIMD-dispatched gather primitives
  /// (multi-row kernels inside) so the candidate-expansion hot loop
  /// prices one function call per batch, not per pair — int8 decodes in
  /// vector registers, PQ scans the per-query ADC tables. Counters
  /// charge the same bytes/flops either way.
  void DistanceBatch(const QueryView& q, const uint32_t* ids, size_t n,
                     float* out, KernelCounters* counters) const {
    counters->distance_computations += n;
    counters->distance_elements += n * ElementsPerDistance();
    counters->device_vector_bytes += n * RowBytes();
    switch (precision_) {
      case Precision::kFp16:
        ComputeDistanceGather(snap_.metric, q.query,
                              snap_.HalfRef().data().data(), snap_.dim(),
                              ids, n, out);
        return;
      case Precision::kInt8: {
        const QuantizedDataset& i8 = snap_.Int8Ref();
        ComputeDistanceGather(snap_.metric, q.query,
                              i8.codes.data().data(), i8.scale.data(),
                              i8.offset.data(), snap_.dim(), ids, n, out);
        return;
      }
      case Precision::kPq:
        ComputeDistanceAdcGather(*q.adc, snap_.PqRef().codes.data().data(),
                                 ids, n, out);
        return;
      case Precision::kFp32:
        break;
    }
    ComputeDistanceGather(snap_.metric, q.query, snap_.Fp32Data(),
                          snap_.dim(), ids, n, out);
  }

  size_t ElemBytes() const {
    switch (precision_) {
      case Precision::kFp16: return sizeof(Half);
      case Precision::kInt8: return sizeof(int8_t);
      // PQ rows are num_subspaces one-byte codes; the launch pairs this
      // with ElementsPerDistance() (= M) as the dim so the cost model's
      // dim * elem_bytes matches the real M bytes/row.
      case Precision::kPq: return 1;
      case Precision::kFp32: break;
    }
    return sizeof(float);
  }
  size_t RowBytes() const {
    if (precision_ == Precision::kPq) {
      return snap_.PqRef().RowBytes();
    }
    return snap_.dim() * ElemBytes();
  }
  /// Work one distance computation prices into distance_elements: the
  /// summed dims for decoded modes, M table adds for ADC.
  size_t ElementsPerDistance() const {
    if (precision_ == Precision::kPq) {
      return snap_.PqRef().num_subspaces();
    }
    return snap_.dim();
  }
  size_t size() const { return snap_.size(); }
  size_t dim() const { return snap_.dim(); }

  /// The lazy tombstone filter, applied at result emission only (dead
  /// nodes still route traversal): one branch on the usually-null
  /// bitmap pointer, so unmutated indexes pay nothing.
  bool Deleted(uint32_t id) const { return snap_.Deleted(id); }

 private:
  const IndexSnapshot& snap_;
  Precision precision_;
};

/// Resolved per-search configuration shared by both execution modes.
struct ResolvedConfig {
  size_t k;
  size_t itopk;
  size_t search_width;
  size_t max_iterations;
  size_t min_iterations;
  size_t hash_bits;
  size_t hash_reset_interval;  ///< 0 = standard table (no resets)
  bool hash_in_shared;
  size_t cta_per_query;        ///< multi-CTA only
  uint64_t seed;
  /// Cooperative cancellation token (SearchParams::cancel), consulted
  /// at iteration boundaries; nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

/// Reusable per-worker workspace for the batch-parallel search: the
/// visited table and every buffer a query needs, so a worker thread
/// allocates once per Search() call instead of once per query. Results
/// are unaffected by reuse — each query fully reinitializes the state
/// it reads — which keeps parallel search byte-identical to serial.
struct SearchScratch {
  std::unique_ptr<VisitedSet> visited;

  /// Per-query ADC tables (PQ searches only); DatasetView::Prepare
  /// rebuilds them into this storage at the top of every query, reusing
  /// the allocation across the worker's queries.
  PqAdcTable adc;

  // Single-CTA buffers (Fig. 6 layout) + the step-0 seeding buffer.
  std::vector<KeyValue> topm;
  std::vector<KeyValue> candidates;
  std::vector<KeyValue> init;
  std::vector<uint32_t> parents;

  // Batched-distance staging: fresh node ids and their target slots.
  std::vector<uint32_t> batch_ids;
  std::vector<uint32_t> batch_slots;
  std::vector<float> batch_dists;

  // Multi-CTA per-CTA buffers and the final merge list.
  struct CtaState {
    std::vector<KeyValue> topm;
    std::vector<KeyValue> candidates;
    bool active = true;
  };
  std::vector<CtaState> ctas;
  std::vector<KeyValue> merged;

  /// SortAndMerge's copy of the old top-M, merged back into place.
  std::vector<KeyValue> merge_buf;

  /// Returns a wiped visited table with exactly `capacity` slots,
  /// reusing the previous allocation when the capacity matches.
  VisitedSet& EnsureVisited(size_t capacity);

  /// Runs the staged batch (batch_ids/batch_slots) through one batched
  /// distance call and scatters {distance, id} into
  /// (*buffer)[batch_slots[i]], then clears the staging vectors. The
  /// shared tail of every candidate-fill loop.
  void FlushBatch(const DatasetView& dataset,
                  const DatasetView::QueryView& query,
                  std::vector<KeyValue>* buffer, KernelCounters* counters);
};

/// Effective internal top-M length: the explicit value, or the
/// auto default (64, widened to k for large k) when itopk == 0. Shared
/// by ResolveConfig and the Fig. 7 mode-selection input so both see the
/// same breadth.
inline size_t ResolveItopk(const SearchParams& params) {
  return params.itopk != 0 ? params.itopk
                           : std::max<size_t>(64, params.k);
}

/// Resolves SearchParams defaults against an index + batch size: auto
/// max_iterations, hash sizing (§IV-B3: >= 2x expected visits, shared
/// tables clamped to 2^8..2^13 with resets), Table II hash placement.
ResolvedConfig ResolveConfig(const SearchParams& params, SearchAlgo algo,
                             size_t graph_degree, size_t dataset_size);

/// Runs one query in single-CTA mode (§IV-C1). Appends k ids/distances
/// to `out_ids`/`out_dists` (preallocated, offset q*k) and accumulates
/// counters. `scratch` is this worker's reusable workspace (never
/// shared across concurrent queries). Returns the iteration count.
/// cfg.cancel is checked once per iteration; an expired token breaks
/// out of the loop and the current (well-formed, sorted, deduplicated)
/// top-k is emitted, with *truncated set — the results are best-effort
/// partial, never malformed. `truncated` may be nullptr.
size_t SearchSingleCta(const DatasetView& dataset,
                       const FixedDegreeGraph& graph, const float* query,
                       const ResolvedConfig& cfg, uint64_t query_seed,
                       uint32_t* out_ids, float* out_dists,
                       KernelCounters* counters, SearchScratch* scratch,
                       bool* truncated = nullptr);

/// Runs one query in multi-CTA mode (§IV-C2): cfg.cta_per_query CTAs,
/// each with a 32-entry local top-M and p=1, sharing one device-memory
/// visited table. Returns the (lockstep) iteration count. Cancellation
/// follows the single-CTA contract, checked once per lockstep round.
size_t SearchMultiCta(const DatasetView& dataset,
                      const FixedDegreeGraph& graph, const float* query,
                      const ResolvedConfig& cfg, uint64_t query_seed,
                      uint32_t* out_ids, float* out_dists,
                      KernelCounters* counters, SearchScratch* scratch,
                      bool* truncated = nullptr);

/// Sorts `entries` ascending by key, then by value: a total order
/// (NaN keys sort to the ends, -0 equals +0), so the result never
/// depends on the std::sort implementation. Charges nothing; callers
/// charge the kernel's network by closed form (gpusim/cost_model.h).
void SortByKey(std::vector<KeyValue>* entries);

/// Step 1 of every iteration (§IV-B2): sorts the candidate list
/// (SortByKey) and merges it into the sorted top-M in place, keeping
/// the |topm| smallest; on equal keys the top-M entry wins. `merge_buf`
/// is reusable storage (SearchScratch::merge_buf). Charges the kernel's
/// work by closed form: a bitonic sort for <= kMaxBitonicCandidates
/// candidates, a radix sort above, then one bitonic merge.
void SortAndMerge(std::vector<KeyValue>* topm,
                  std::vector<KeyValue>* candidates,
                  std::vector<KeyValue>* merge_buf, KernelCounters* counters);

}  // namespace internal_search
}  // namespace cagra

#endif  // CAGRA_CORE_SEARCH_INTERNAL_H_
