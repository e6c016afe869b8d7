#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/search_internal.h"
#include "gpusim/cost_model.h"

namespace cagra {
namespace internal_search {

namespace {

/// A key's rank in SortByKey's order: the float's bits mapped to an
/// unsigned integer with the same ordering (flip all bits of negatives,
/// only the sign bit of positives), with -0 folded into +0 first.
uint32_t KeyRank(float key) {
  if (key == 0.0f) key = 0.0f;
  uint32_t u;
  std::memcpy(&u, &key, sizeof(u));
  return (u & 0x80000000u) != 0 ? ~u : (u | 0x80000000u);
}

}  // namespace

VisitedSet& SearchScratch::EnsureVisited(size_t capacity) {
  // Reset() and a fresh allocation are both O(capacity); reuse avoids
  // the allocator, not the wipe.
  if (visited == nullptr || visited->capacity() != capacity) {
    visited = std::make_unique<VisitedSet>(capacity);
  } else {
    visited->Reset();
  }
  return *visited;
}

void SearchScratch::FlushBatch(const DatasetView& dataset,
                               const DatasetView::QueryView& query,
                               std::vector<KeyValue>* buffer,
                               KernelCounters* counters) {
  batch_dists.resize(batch_ids.size());
  dataset.DistanceBatch(query, batch_ids.data(), batch_ids.size(),
                        batch_dists.data(), counters);
  for (size_t i = 0; i < batch_ids.size(); i++) {
    (*buffer)[batch_slots[i]] = {batch_dists[i], batch_ids[i]};
  }
  batch_ids.clear();
  batch_slots.clear();
}

ResolvedConfig ResolveConfig(const SearchParams& params, SearchAlgo algo,
                             size_t graph_degree, size_t dataset_size) {
  ResolvedConfig cfg{};
  cfg.k = params.k;
  cfg.itopk = ResolveItopk(params);
  cfg.search_width = std::max<size_t>(1, params.search_width);
  cfg.seed = params.seed;

  // Auto iteration budget: enough to refill the top-M list several times
  // over (each iteration expands `search_width` parents).
  if (params.max_iterations != 0) {
    cfg.max_iterations = params.max_iterations;
  } else {
    cfg.max_iterations = std::clamp<size_t>(
        2 * cfg.itopk / cfg.search_width, 16, 1024);
  }
  cfg.min_iterations = std::min(params.min_iterations, cfg.max_iterations);

  // Hash sizing (§IV-B3): the search touches at most
  // Imax * p * d + initial-sample nodes; a standard table is sized to 2x
  // that. A shared-memory (forgettable) table is clamped to 2^8..2^13
  // entries; if the needed size exceeds the clamp we keep the paper's
  // periodic reset interval.
  const size_t per_iter =
      (algo == SearchAlgo::kMultiCta ? 1 : cfg.search_width) * graph_degree;
  const size_t worst_visits = (cfg.max_iterations + 1) * per_iter;
  const size_t wanted = 2 * worst_visits;
  size_t bits = params.hash_bits;
  const bool forgettable =
      params.hash_mode == HashMode::kForgettable ||
      (params.hash_mode == HashMode::kAuto && algo == SearchAlgo::kSingleCta);
  if (forgettable) {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && bits < 13) bits++;
    }
    cfg.hash_in_shared = true;
    cfg.hash_reset_interval = std::max<size_t>(1, params.hash_reset_interval);
    // A table big enough for the whole search never needs resetting.
    if ((1ull << bits) >= wanted) cfg.hash_reset_interval = 0;
  } else {
    if (bits == 0) {
      bits = 8;
      while ((1ull << bits) < wanted && (1ull << bits) < 2 * dataset_size) {
        bits++;
      }
    }
    cfg.hash_in_shared = false;
    cfg.hash_reset_interval = 0;
  }
  cfg.hash_bits = bits;
  return cfg;
}

void SortByKey(std::vector<KeyValue>* entries) {
  std::sort(entries->begin(), entries->end(), [](KeyValue a, KeyValue b) {
    const uint32_t rank_a = KeyRank(a.key);
    const uint32_t rank_b = KeyRank(b.key);
    return rank_a != rank_b ? rank_a < rank_b : a.value < b.value;
  });
}

void SortAndMerge(std::vector<KeyValue>* topm,
                  std::vector<KeyValue>* candidates,
                  std::vector<KeyValue>* merge_buf, KernelCounters* counters) {
  const size_t m = topm->size();
  const size_t c = candidates->size();
  if (c <= kMaxBitonicCandidates) {
    counters->sort_exchanges += BitonicSortExchanges(c);
  } else {
    counters->radix_scatters += RadixSortScatters(c);
  }
  counters->sort_exchanges += BitonicMergeExchanges(m, c);

  SortByKey(candidates);
  // Two-way merge of the old top-M (copied aside) and the sorted
  // candidates, written back over topm until it holds m entries.
  merge_buf->assign(topm->begin(), topm->end());
  const KeyValue* old = merge_buf->data();
  const KeyValue* cand = candidates->data();
  size_t io = 0;
  size_t ic = 0;
  for (KeyValue& out : *topm) {
    const bool take_old =
        ic == c || KeyRank(old[io].key) <= KeyRank(cand[ic].key);
    out = take_old ? old[io++] : cand[ic++];
  }
}

}  // namespace internal_search
}  // namespace cagra
