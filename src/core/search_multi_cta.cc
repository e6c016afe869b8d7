#include <limits>

#include "core/search_internal.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
/// Per-CTA internal list length in multi-CTA mode: each CTA maintains a
/// small local top-M with p = 1 (§IV-C2).
constexpr size_t kLocalTopM = 32;

}  // namespace

size_t SearchMultiCta(const DatasetView& dataset,
                      const FixedDegreeGraph& graph, const float* query,
                      const ResolvedConfig& cfg, uint64_t query_seed,
                      uint32_t* out_ids, float* out_dists,
                      KernelCounters* counters, SearchScratch* scratch,
                      bool* truncated) {
  const size_t n = dataset.size();
  const size_t d = graph.degree();
  const size_t num_ctas = cfg.cta_per_query;

  // Prepared once per query, shared by every CTA (the GPU equivalent
  // keeps one ADC table per query in shared memory).
  const DatasetView::QueryView qv =
      dataset.Prepare(query, &scratch->adc, counters);

  // One visited table per *query*, shared by its CTAs, in device memory
  // (Table II). A node claimed by one CTA is never recomputed by another.
  VisitedSet& visited = scratch->EnsureVisited(1ull << cfg.hash_bits);
  counters->hash_table_device_bytes += visited.MemoryBytes();
  auto charged_insert = [&](uint32_t node) {
    const size_t before = visited.stats().probes;
    const bool fresh = visited.InsertIfAbsent(node);
    counters->hash_probes_device += visited.stats().probes - before;
    return fresh;
  };

  // Batched-distance staging shared by the seeding and expansion steps:
  // candidates[batch_slots[i]] of the CTA being filled gets batch_ids[i],
  // via SearchScratch::FlushBatch.
  std::vector<uint32_t>& batch_ids = scratch->batch_ids;
  std::vector<uint32_t>& batch_slots = scratch->batch_slots;

  std::vector<SearchScratch::CtaState>& ctas = scratch->ctas;
  ctas.resize(num_ctas);

  // --- Step 0 per CTA: d random samples into its candidate list.
  for (size_t c = 0; c < num_ctas; c++) {
    SearchScratch::CtaState& cta = ctas[c];
    cta.active = true;
    cta.topm.assign(kLocalTopM, KeyValue{kInf, kInvalidEntry});
    cta.candidates.assign(d, KeyValue{kInf, kInvalidEntry});
    Pcg32 rng(query_seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)), 0xbeef + c);
    batch_ids.clear();
    batch_slots.clear();
    for (size_t i = 0; i < d; i++) {
      const uint32_t node = rng.NextBounded(static_cast<uint32_t>(n));
      if (charged_insert(node)) {
        batch_ids.push_back(node);
        batch_slots.push_back(static_cast<uint32_t>(i));
      }
    }
    scratch->FlushBatch(dataset, qv, &cta.candidates, counters);
  }

  // --- Lockstep iterations: every active CTA merges its buffer, expands
  // its single best non-parent node (p = 1), and refills its candidates
  // with one batched distance call per CTA.
  size_t iterations = 0;
  // Cancellation boundary: one amortized check per lockstep round (a
  // round spans every active CTA, so rounds are the coarsest safe
  // granularity). Breaking leaves each CTA's local top-M sorted and
  // valid; the merge below emits the partial result unchanged.
  CancelCheck cancel(cfg.cancel, /*stride=*/4);
  while (iterations < cfg.max_iterations) {
    if (cancel.Expired()) {
      if (truncated != nullptr) *truncated = true;
      break;
    }
    bool any_active = false;
    for (SearchScratch::CtaState& cta : ctas) {
      if (!cta.active) continue;
      SortAndMerge(&cta.topm, &cta.candidates, &scratch->merge_buf,
                   counters);

      uint32_t parent = kInvalidEntry;
      for (auto& entry : cta.topm) {
        if (entry.value == kInvalidEntry || entry.key == kInf) continue;
        if ((entry.value & kParentFlag) != 0) continue;
        entry.value |= kParentFlag;
        parent = entry.value & kIndexMask;
        break;
      }
      if (parent == kInvalidEntry) {
        // This CTA's local list is fully expanded; it idles while the
        // others continue (the kernel keeps it resident but quiescent).
        cta.active = false;
        continue;
      }
      any_active = true;

      counters->device_graph_bytes += d * sizeof(uint32_t);
      const uint32_t* nbrs = graph.Neighbors(parent);
      for (size_t j = 0; j < d; j++) {
        const uint32_t node = nbrs[j];
        cta.candidates[j] = {kInf, kInvalidEntry};
        if (node >= n) continue;
        if (charged_insert(node)) {
          batch_ids.push_back(node);
          batch_slots.push_back(static_cast<uint32_t>(j));
        }
      }
      scratch->FlushBatch(dataset, qv, &cta.candidates, counters);
    }
    iterations++;
    if (!any_active && iterations >= cfg.min_iterations) break;
  }

  // --- Result merge: gather all CTA-local lists, sort, dedupe, top-k.
  std::vector<KeyValue>& merged = scratch->merged;
  merged.clear();
  merged.reserve(num_ctas * kLocalTopM);
  for (const SearchScratch::CtaState& cta : ctas) {
    for (const auto& entry : cta.topm) {
      if (entry.value == kInvalidEntry || entry.key == kInf) continue;
      merged.push_back(KeyValue{entry.key, entry.value & kIndexMask});
    }
  }
  SortByKey(&merged);

  size_t written = 0;
  uint32_t prev = kInvalidEntry;
  for (const auto& entry : merged) {
    if (written >= cfg.k) break;
    if (entry.value == prev) continue;  // sharing the hash should prevent
    prev = entry.value;                 // dupes, but stay defensive
    // Lazy-delete filter: tombstoned rows routed the traversal but are
    // dropped at emission, identically across every dispatch tier.
    if (dataset.Deleted(entry.value)) continue;
    out_ids[written] = entry.value;
    out_dists[written] = entry.key;
    written++;
  }
  for (; written < cfg.k; written++) {
    out_ids[written] = kInvalidEntry;
    out_dists[written] = kInf;
  }
  return iterations;
}

}  // namespace internal_search
}  // namespace cagra
