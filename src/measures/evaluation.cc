#include "measures/evaluation.h"

#include <chrono>
#include <utility>

namespace evorec::measures {

Result<std::shared_ptr<const MeasureReport>> ReportCache::GetOrCompute(
    const EvolutionMeasure& measure, const EvolutionContext& ctx) {
  const std::string& name = measure.info().name;
  std::promise<Result<SharedReport>> promise;
  std::shared_future<Result<SharedReport>> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end()) {
      std::shared_future<Result<SharedReport>> existing = it->second;
      const bool ready =
          existing.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready;
      if (ready) {
        ++stats_.hits;
      } else {
        ++stats_.coalesced;
      }
      lock.unlock();
      return existing.get();
    }
    ++stats_.computations;
    future = promise.get_future().share();
    entries_.emplace(name, future);
  }

  // Compute outside the lock: other measures memoize concurrently and
  // same-name requests wait on `future` instead of blocking the map.
  Result<MeasureReport> computed = measure.Compute(ctx);
  if (!computed.ok()) {
    promise.set_value(computed.status());
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(name);  // do not cache failures
    return computed.status();
  }
  SharedReport shared =
      std::make_shared<const MeasureReport>(std::move(computed).value());
  promise.set_value(shared);
  return shared;
}

std::shared_ptr<const MeasureReport> ReportCache::Lookup(
    std::string_view name) const {
  std::shared_future<Result<SharedReport>> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(std::string(name));
    if (it == entries_.end()) return nullptr;
    future = it->second;
  }
  const Result<SharedReport>& result = future.get();
  return result.ok() ? *result : nullptr;
}

std::shared_ptr<const MeasureReport> ReportCache::LookupReady(
    std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(std::string(name));
  if (it == entries_.end() ||
      it->second.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
    return nullptr;
  }
  const Result<SharedReport>& result = it->second.get();
  if (!result.ok()) return nullptr;
  ++stats_.hits;
  return *result;
}

size_t ReportCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [name, future] : entries_) {
    (void)name;
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready &&
        future.get().ok()) {
      ++count;
    }
  }
  return count;
}

ReportCacheStats ReportCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Result<std::vector<std::shared_ptr<const MeasureReport>>> EvaluateAll(
    const MeasureRegistry& registry, const EvolutionContext& ctx,
    ReportCache& cache, ThreadPool* pool) {
  const std::vector<std::unique_ptr<EvolutionMeasure>> measures =
      registry.CreateAll();
  std::vector<Result<std::shared_ptr<const MeasureReport>>> slots(
      measures.size(), Result<std::shared_ptr<const MeasureReport>>(
                           InternalError("measure not evaluated")));
  // Cached reports are collected on the calling thread and only the
  // uncached ones fan out, so re-reading a warm context (the service's
  // post-commit warm-up) wakes no pool worker.
  std::vector<size_t> uncached;
  for (size_t i = 0; i < measures.size(); ++i) {
    if (auto hit = cache.LookupReady(measures[i]->info().name)) {
      slots[i] = std::move(hit);
    } else {
      uncached.push_back(i);
    }
  }
  auto evaluate_one = [&](size_t k) {
    const size_t i = uncached[k];
    slots[i] = cache.GetOrCompute(*measures[i], ctx);
  };
  if (pool != nullptr) {
    pool->ParallelFor(uncached.size(), evaluate_one);
  } else {
    for (size_t k = 0; k < uncached.size(); ++k) evaluate_one(k);
  }

  std::vector<std::shared_ptr<const MeasureReport>> reports;
  reports.reserve(slots.size());
  for (Result<std::shared_ptr<const MeasureReport>>& slot : slots) {
    if (!slot.ok()) return slot.status();
    reports.push_back(std::move(slot).value());
  }
  return reports;
}

}  // namespace evorec::measures
