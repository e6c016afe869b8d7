#ifndef CAGRA_BASELINES_HNSW_HNSW_H_
#define CAGRA_BASELINES_HNSW_HNSW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/matrix.h"
#include "dataset/recall.h"
#include "distance/distance.h"
#include "graph/fixed_degree_graph.h"
#include "util/status.h"

namespace cagra {

/// HNSW build parameters (Malkov & Yashunin '18 — reference [18]; the
/// paper's CPU state-of-the-art baseline).
struct HnswParams {
  size_t m = 16;                ///< max out-degree on upper layers
  size_t ef_construction = 200;
  Metric metric = Metric::kL2;
  uint64_t seed = 99;
  /// Level-0 degree cap; 0 = 2*m (libhnswlib convention).
  size_t m0 = 0;
};

struct HnswBuildStats {
  double seconds = 0.0;
  size_t distance_computations = 0;
  size_t max_level = 0;
};

/// Per-search instrumentation (used to report CPU work; HNSW times are
/// measured on the host, not modeled — README "Measured vs modeled time").
struct HnswSearchStats {
  size_t distance_computations = 0;
  size_t hops = 0;
};

/// Hierarchical Navigable Small World index, implemented from scratch:
/// exponential level sampling, greedy descent through upper layers, and
/// ef-bounded best-first search with the SELECT_NEIGHBORS_HEURISTIC
/// pruning rule on the bottom layer.
class HnswIndex {
 public:
  HnswIndex() = default;

  /// Builds by sequential insertion (the algorithm is inherently
  /// sequential in its original form; the paper's Fig. 11 measures this
  /// cost against CAGRA's parallel construction).
  static HnswIndex Build(const Matrix<float>& dataset,
                         const HnswParams& params,
                         HnswBuildStats* stats = nullptr);

  /// Searches one query; returns up to k (id, distance) pairs ascending.
  /// ef controls the result-set breadth (>= k).
  std::vector<std::pair<float, uint32_t>> SearchOne(
      const float* query, size_t k, size_t ef,
      HnswSearchStats* stats = nullptr) const;

  /// Batched search over all queries (host-parallel).
  NeighborList Search(const Matrix<float>& queries, size_t k, size_t ef,
                      HnswSearchStats* stats = nullptr) const;

  /// Bottom-layer adjacency — used as the multi-threaded flat-graph
  /// search substrate for NSSG in Fig. 13 (§V-C: "we measured the
  /// performance of NSSG using the search implementation for the bottom
  /// layer of the HNSW graph").
  const AdjacencyGraph& BottomLayer() const { return layers_[0]; }
  size_t max_level() const { return layers_.empty() ? 0 : layers_.size() - 1; }
  size_t size() const { return dataset_ == nullptr ? 0 : dataset_->rows(); }
  double AverageBottomDegree() const;

  /// Runs the bottom-layer ef-search over an arbitrary flat graph: the
  /// shared CPU search harness for NSSG and degree-matched graph-quality
  /// studies.
  static std::vector<std::pair<float, uint32_t>> FlatSearch(
      const Matrix<float>& dataset, Metric metric, const AdjacencyGraph& graph,
      const float* query, size_t k, size_t ef, uint32_t entry,
      HnswSearchStats* stats = nullptr);

 private:
  void Insert(uint32_t id, size_t level, HnswBuildStats* stats);
  std::vector<std::pair<float, uint32_t>> SearchLayer(
      const float* query, uint32_t entry, float entry_dist, size_t ef,
      size_t layer, HnswSearchStats* stats) const;
  void SelectNeighborsHeuristic(
      uint32_t node, std::vector<std::pair<float, uint32_t>>* candidates,
      size_t m, HnswBuildStats* stats) const;
  float Dist(uint32_t a, uint32_t b) const;
  float DistQ(const float* q, uint32_t id) const;

  const Matrix<float>* dataset_ = nullptr;  // not owned
  HnswParams params_;
  std::vector<AdjacencyGraph> layers_;
  std::vector<uint32_t> node_levels_;
  uint32_t entry_point_ = 0;
};

}  // namespace cagra

#endif  // CAGRA_BASELINES_HNSW_HNSW_H_
