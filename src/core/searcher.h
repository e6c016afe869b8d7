#ifndef CAGRA_CORE_SEARCHER_H_
#define CAGRA_CORE_SEARCHER_H_

#include <cstddef>

#include "core/search.h"

namespace cagra {

/// The unified search front door. A Searcher answers one batched
/// request — `Search(queries, params)` with every knob (k, itopk,
/// precision, threading) folded into SearchParams — regardless of what
/// executes it underneath: a single CagraIndex (IndexSearcher), a
/// sharded index (ShardedCagraIndex, one task per shard and one merge),
/// or any future backend. The serving scheduler, and every feature
/// written on top of it, targets this interface once instead of the
/// per-backend entry points; tests inject fakes through it to script
/// execution timing.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Runs the batch. Implementations validate with ValidateSearchParams
  /// so identical bad inputs produce identical errors on every path.
  [[nodiscard]] virtual Result<SearchResult> Search(
      const Matrix<float>& queries, const SearchParams& params) const = 0;

  /// Dimensionality a query row must have.
  virtual size_t dim() const = 0;

  /// Device the implementation models kernel time on. Callers that pin
  /// batch-shape auto choices (the serving scheduler's
  /// ResolveBatchShape at batch 1) resolve against this device so their
  /// pinned params match what a direct call would pick.
  virtual DeviceSpec device() const { return DeviceSpec{}; }
};

/// Thin adapter making a CagraIndex a Searcher: forwards to the free
/// Search() with the device fixed at construction. Non-owning — the
/// index must outlive the adapter.
class IndexSearcher : public Searcher {
 public:
  explicit IndexSearcher(const CagraIndex& index,
                         const DeviceSpec& device = DeviceSpec{})
      : index_(&index), device_(device) {}

  [[nodiscard]] Result<SearchResult> Search(
      const Matrix<float>& queries,
      const SearchParams& params) const override {
    return cagra::Search(*index_, queries, params, device_);
  }

  size_t dim() const override { return index_->dim(); }
  DeviceSpec device() const override { return device_; }

 private:
  const CagraIndex* index_;
  DeviceSpec device_;
};

}  // namespace cagra

#endif  // CAGRA_CORE_SEARCHER_H_
