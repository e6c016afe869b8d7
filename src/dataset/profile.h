#ifndef CAGRA_DATASET_PROFILE_H_
#define CAGRA_DATASET_PROFILE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "distance/distance.h"

namespace cagra {

/// Synthetic stand-in profile for one of the paper's evaluation datasets
/// (Table I). Real SIFT/GIST/GloVe/NYTimes/DEEP files are not available
/// offline, so each profile drives a clustered-Gaussian generator tuned to
/// the same dimensionality and search hardness; see
/// README "Synthetic profile scaling".
struct DatasetProfile {
  std::string name;        ///< Paper dataset this profile stands in for.
  size_t dim;              ///< Vector dimensionality (matches Table I).
  size_t paper_size;       ///< N used in the paper.
  size_t default_size;     ///< Scaled-down N used by default benches here.
  size_t cagra_degree;     ///< CAGRA graph degree d from Table I.
  Metric metric;           ///< Distance measure.
  size_t clusters;         ///< Gaussian mixture component count.
  float noise_scale;       ///< Within-cluster std-dev relative to center
                           ///< separation; larger = harder dataset.
  bool normalize;          ///< L2-normalize rows (angular-style datasets).
  size_t latent_dim;       ///< Intrinsic dimensionality: points live on a
                           ///< random linear manifold of this rank, like
                           ///< real descriptor corpora (LID << dim).
};

/// Table I profiles. `Glove-200` is flagged "harder" in the paper (§IV-D3,
/// citing [16]); its profile uses more clusters and higher noise.
const std::vector<DatasetProfile>& AllProfiles();

/// Looks up a profile by name ("SIFT-1M", "GIST-1M", "GloVe-200",
/// "NYTimes", "DEEP-1M", "DEEP-10M", "DEEP-100M"). Returns nullptr when
/// unknown.
const DatasetProfile* FindProfile(const std::string& name);

/// Bench scale selector: reads CAGRA_BENCH_SCALE ("small", "default",
/// "large") and returns the multiplier applied to profile default sizes.
double BenchScaleFactor();

/// Applies BenchScaleFactor() to a profile's default size with a floor of
/// 2k vectors so graph degrees stay meaningful.
size_t ScaledSize(const DatasetProfile& profile);

}  // namespace cagra

#endif  // CAGRA_DATASET_PROFILE_H_
