// Test oracle for ShardedCagraIndex::Search, built from the public API
// alone: every shard is searched on its own, serially, with the free
// cagra::Search, and the per-shard top-k lists are folded with
// MergeShardTopK, which translates ids by the round-robin layout
// (global = local * num_shards + shard).
#ifndef CAGRA_TESTS_SHARDED_REFERENCE_H_
#define CAGRA_TESTS_SHARDED_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/search.h"
#include "core/sharded.h"

namespace cagra {

inline Result<NeighborList> ShardedReference(const ShardedCagraIndex& index,
                                             const Matrix<float>& queries,
                                             SearchParams params) {
  params.num_threads = 1;
  const size_t num_shards = index.num_shards();
  const size_t batch = queries.rows();
  const size_t k = params.k;
  std::vector<SearchResult> results;
  for (size_t s = 0; s < num_shards; s++) {
    auto r = Search(index.shard(s), queries, params);
    if (!r.ok()) return r.status();
    results.push_back(std::move(r.value()));
  }

  NeighborList out;
  out.k = k;
  out.ids.resize(batch * k);
  out.distances.resize(batch * k);
  std::vector<ShardMergeList> lists(num_shards);
  for (size_t q = 0; q < batch; q++) {
    for (size_t s = 0; s < num_shards; s++) {
      const NeighborList& n = results[s].neighbors;
      lists[s] = {n.distances.data() + q * k, n.ids.data() + q * k, k, s,
                  num_shards};
    }
    MergeShardTopK(lists.data(), num_shards, k, out.ids.data() + q * k,
                   out.distances.data() + q * k);
  }
  return out;
}

}  // namespace cagra

#endif  // CAGRA_TESTS_SHARDED_REFERENCE_H_
