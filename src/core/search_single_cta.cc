#include <algorithm>
#include <limits>

#include "core/search_internal.h"
#include "gpusim/cost_model.h"
#include "util/rng.h"
#include "util/visited_set.h"

namespace cagra {
namespace internal_search {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Charges hash-probe counters to the location the table lives in.
void ChargeProbes(const VisitedSet& table, size_t before_probes,
                  bool in_shared, KernelCounters* counters) {
  const size_t delta = table.stats().probes - before_probes;
  if (in_shared) {
    counters->hash_probes_shared += delta;
  } else {
    counters->hash_probes_device += delta;
  }
}

}  // namespace

size_t SearchSingleCta(const DatasetView& dataset,
                       const FixedDegreeGraph& graph, const float* query,
                       const ResolvedConfig& cfg, uint64_t query_seed,
                       uint32_t* out_ids, float* out_dists,
                       KernelCounters* counters, SearchScratch* scratch,
                       bool* truncated) {
  const size_t n = dataset.size();
  const size_t d = graph.degree();
  const size_t num_candidates = cfg.search_width * d;

  // Per-query preparation: for PQ this builds the ADC tables every
  // subsequent distance call scans (charged like the kernel's per-query
  // codebook pass); for the decoded modes it is free.
  const DatasetView::QueryView qv =
      dataset.Prepare(query, &scratch->adc, counters);

  // Buffer layout of Fig. 6: internal top-M (sorted ascending) followed
  // by the candidate list. All buffers live in the per-worker scratch.
  std::vector<KeyValue>& topm = scratch->topm;
  std::vector<KeyValue>& candidates = scratch->candidates;
  topm.assign(cfg.itopk, KeyValue{kInf, kInvalidEntry});
  candidates.assign(num_candidates, KeyValue{kInf, kInvalidEntry});

  VisitedSet& visited = scratch->EnsureVisited(1ull << cfg.hash_bits);
  if (!cfg.hash_in_shared) {
    // A device-memory table is allocated and zeroed per query (§IV-B3);
    // the cost model charges its initialization traffic.
    counters->hash_table_device_bytes += visited.MemoryBytes();
  }
  Pcg32 rng(query_seed, 0xc0ffee);

  // Fresh nodes awaiting their (batched) distance computation: the id
  // and the buffer slot the result lands in.
  std::vector<uint32_t>& batch_ids = scratch->batch_ids;
  std::vector<uint32_t>& batch_slots = scratch->batch_slots;

  // --- Step 0: random sampling. The whole buffer (internal top-M +
  // candidate list, Fig. 6) is seeded with uniform random nodes so the
  // search starts from M + p*d basins; duplicates are filtered through
  // the visited table exactly like graph-expanded candidates. Distances
  // for the deduplicated sample run as one batched kernel call.
  {
    std::vector<KeyValue>& init = scratch->init;
    init.assign(cfg.itopk + num_candidates, KeyValue{kInf, kInvalidEntry});
    batch_ids.clear();
    batch_slots.clear();
    for (size_t slot = 0; slot < init.size(); slot++) {
      const uint32_t node = rng.NextBounded(static_cast<uint32_t>(n));
      const size_t before = visited.stats().probes;
      const bool fresh = visited.InsertIfAbsent(node);
      ChargeProbes(visited, before, cfg.hash_in_shared, counters);
      if (fresh) {
        batch_ids.push_back(node);
        batch_slots.push_back(static_cast<uint32_t>(slot));
      }
    }
    scratch->FlushBatch(dataset, qv, &init, counters);
    SortByKey(&init);
    counters->sort_exchanges += BitonicSortExchanges(init.size());
    std::copy(init.begin(), init.begin() + cfg.itopk, topm.begin());
    std::copy(init.begin() + cfg.itopk, init.end(), candidates.begin());
  }

  size_t iterations = 0;
  std::vector<uint32_t>& parents = scratch->parents;
  parents.clear();
  parents.reserve(cfg.search_width);
  // Cancellation boundary: one amortized token check per iteration
  // (an iteration already costs p*d distance computations, so the
  // stride mostly amortizes the steady_clock read). Breaking here
  // leaves topm a valid sorted prefix of the search so far — the
  // output block below emits it unchanged, just earlier.
  CancelCheck cancel(cfg.cancel, /*stride=*/4);
  while (true) {
    // --- Step 1: update internal top-M from the whole buffer.
    SortAndMerge(&topm, &candidates, &scratch->merge_buf, counters);
    iterations++;

    if (iterations >= cfg.max_iterations) break;
    if (cancel.Expired()) {
      if (truncated != nullptr) *truncated = true;
      break;
    }

    // --- Step 2: pick up to p best non-parent nodes, set their MSB flag
    // (§IV-B4), gather their adjacency rows.
    parents.clear();
    for (auto& entry : topm) {
      if (parents.size() >= cfg.search_width) break;
      if (entry.value == kInvalidEntry || entry.key == kInf) continue;
      if ((entry.value & kParentFlag) != 0) continue;
      entry.value |= kParentFlag;
      parents.push_back(entry.value & kIndexMask);
    }
    // Convergence: the top-M index set is stable once every entry has
    // been expanded — no further iteration can change it.
    if (parents.empty() && iterations >= cfg.min_iterations) break;

    // --- Forgettable management (§IV-B3): periodically wipe the table
    // and re-register only the current internal top-M.
    if (cfg.hash_reset_interval != 0 &&
        iterations % cfg.hash_reset_interval == 0) {
      visited.Reset();
      counters->hash_resets++;
      for (const auto& entry : topm) {
        if (entry.value == kInvalidEntry || entry.key == kInf) continue;
        const size_t before = visited.stats().probes;
        visited.InsertIfAbsent(entry.value & kIndexMask);
        ChargeProbes(visited, before, cfg.hash_in_shared, counters);
      }
    }

    // --- Steps 2b + 3: fill the candidate list with the parents'
    // neighbors. The visited-table pass collects first-time nodes, then
    // one batched kernel call computes all their distances (the paper's
    // team-per-candidate parallelism, expressed as SIMD lanes here).
    batch_ids.clear();
    batch_slots.clear();
    size_t slot = 0;
    for (const uint32_t parent : parents) {
      const uint32_t* nbrs = graph.Neighbors(parent);
      counters->device_graph_bytes += d * sizeof(uint32_t);
      for (size_t j = 0; j < d; j++, slot++) {
        const uint32_t node = nbrs[j];
        candidates[slot] = {kInf, kInvalidEntry};
        if (node >= n) continue;  // kInvalid padding
        const size_t before = visited.stats().probes;
        const bool fresh = visited.InsertIfAbsent(node);
        ChargeProbes(visited, before, cfg.hash_in_shared, counters);
        if (fresh) {
          batch_ids.push_back(node);
          batch_slots.push_back(static_cast<uint32_t>(slot));
        }
      }
    }
    for (; slot < num_candidates; slot++) {
      candidates[slot] = {kInf, kInvalidEntry};
    }
    scratch->FlushBatch(dataset, qv, &candidates, counters);
  }

  // --- Output: top-k of the internal list, parent flags stripped,
  // defensively deduplicated (duplicates are possible only after a
  // forgettable reset re-admits an evicted node). Tombstoned rows are
  // filtered here and only here — the lazy-delete contract: dead nodes
  // routed the traversal above but can never be returned.
  size_t written = 0;
  for (const auto& entry : topm) {
    if (written >= cfg.k) break;
    if (entry.value == kInvalidEntry || entry.key == kInf) continue;
    const uint32_t id = entry.value & kIndexMask;
    if (dataset.Deleted(id)) continue;
    bool dup = false;
    for (size_t i = 0; i < written; i++) {
      if (out_ids[i] == id) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out_ids[written] = id;
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
