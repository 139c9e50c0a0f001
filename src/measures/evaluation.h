#ifndef EVOREC_MEASURES_EVALUATION_H_
#define EVOREC_MEASURES_EVALUATION_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "measures/measure.h"
#include "measures/measure_context.h"
#include "measures/registry.h"

namespace evorec::measures {

/// Counters describing the work a ReportCache performed, so tests and
/// benches can verify that serving N users over one context computes
/// every measure exactly once.
struct ReportCacheStats {
  uint64_t hits = 0;          ///< served from the memo
  uint64_t computations = 0;  ///< Compute() actually ran
  uint64_t coalesced = 0;     ///< joined an in-flight computation
};

/// A thread-safe, single-flight memo of MeasureReports keyed by
/// measure name, scoped to one EvolutionContext. Concurrent requests
/// for the same measure trigger exactly one Compute(); the losers wait
/// on the winner's result. Reports are immutable once cached and are
/// shared out as shared_ptr<const>, so they outlive cache eviction.
class ReportCache {
 public:
  ReportCache() = default;
  ReportCache(const ReportCache&) = delete;
  ReportCache& operator=(const ReportCache&) = delete;

  /// The memoized report of `measure` over `ctx`, computing it on the
  /// first request. Failed computations are not cached (a later
  /// request retries).
  Result<std::shared_ptr<const MeasureReport>> GetOrCompute(
      const EvolutionMeasure& measure, const EvolutionContext& ctx);

  /// The cached report of `name`, or nullptr when never computed.
  std::shared_ptr<const MeasureReport> Lookup(std::string_view name) const;

  /// The report of `name` when it is already computed, counted as a
  /// hit; nullptr (nothing counted) when it is absent, still being
  /// computed, or failed. Never blocks on an in-flight computation.
  std::shared_ptr<const MeasureReport> LookupReady(std::string_view name);

  /// Number of successfully cached reports.
  size_t size() const;

  ReportCacheStats stats() const;

 private:
  using SharedReport = std::shared_ptr<const MeasureReport>;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<Result<SharedReport>>>
      entries_;
  ReportCacheStats stats_;
};

/// Registry-driven batch evaluation: the report of every registered
/// measure over `ctx`, in registration order, filling `cache` as it
/// goes. Measures already cached are not recomputed. When `pool` is
/// non-null the uncached measures evaluate in parallel; cached ones are
/// collected on the calling thread, so a fully warm context never wakes
/// the pool. Fails if any measure computation fails.
Result<std::vector<std::shared_ptr<const MeasureReport>>> EvaluateAll(
    const MeasureRegistry& registry, const EvolutionContext& ctx,
    ReportCache& cache, ThreadPool* pool = nullptr);

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_EVALUATION_H_
