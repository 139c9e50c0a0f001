#include "engine/artefact_cache.h"

#include <chrono>
#include <iterator>
#include <optional>
#include <utility>

namespace evorec::engine {

using Scores = measures::LazyBetweenness::Scores;

struct ArtefactCache::ScoreStore {
  /// The resumable Brandes state of the pinned head.
  struct HeadSlot {
    uint64_t fingerprint = 0;
    std::shared_ptr<const graph::SchemaGraph> graph;
    graph::BetweennessPartials partials;
  };

  explicit ScoreStore(size_t tier_capacity) : capacity(tier_capacity) {}

  /// The tier's scores of `fingerprint` (touched), or nullptr when it
  /// has none for a graph of `node_count` nodes.
  Scores Find(uint64_t fingerprint, size_t node_count) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = tier.find(fingerprint);
    if (it == tier.end() || it->second.first->size() != node_count) {
      return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second.second);
    return it->second.first;
  }

  /// Files an exact result of `fingerprint`: its scores go into the
  /// tier, and its per-chunk partials into the head slot when it is
  /// the pinned head (they are freed otherwise).
  void Deposit(uint64_t fingerprint,
               std::shared_ptr<const graph::SchemaGraph> graph,
               const Scores& scores,
               std::vector<std::vector<double>> chunks) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = tier.find(fingerprint);
    if (it != tier.end()) {
      it->second.first = scores;
      lru.splice(lru.begin(), lru, it->second.second);
    } else {
      lru.push_front(fingerprint);
      tier.emplace(fingerprint, std::pair{scores, lru.begin()});
      if (lru.size() > capacity) {
        tier.erase(lru.back());
        lru.pop_back();
      }
    }
    if (pinned.has_value() && pinned->second == fingerprint) {
      slot = std::make_shared<const HeadSlot>(HeadSlot{
          fingerprint, std::move(graph),
          graph::BetweennessPartials{*scores, std::move(chunks)}});
    }
  }

  /// The slot when it holds the partials of `fingerprint`.
  std::shared_ptr<const HeadSlot> SlotOf(uint64_t fingerprint) {
    std::lock_guard<std::mutex> lock(mu);
    return slot != nullptr && slot->fingerprint == fingerprint ? slot
                                                               : nullptr;
  }

  std::mutex mu;
  const size_t capacity;
  /// (version, fingerprint) of the pinned head.
  std::optional<std::pair<version::VersionId, uint64_t>> pinned;
  std::list<uint64_t> lru;  // most-recent first
  std::unordered_map<uint64_t, std::pair<Scores, std::list<uint64_t>::iterator>>
      tier;
  // Shared so that a Refresh advances from it outside the lock while a
  // deposit replaces it.
  std::shared_ptr<const HeadSlot> slot;
};

ArtefactCache::ArtefactCache(size_t capacity, ThreadPool* pool)
    : capacity_(capacity == 0 ? 1 : capacity),
      pool_(pool),
      betweenness_runs_(std::make_shared<std::atomic<uint64_t>>(0)),
      kernel_builds_(std::make_shared<std::atomic<uint64_t>>(0)),
      scores_(std::make_shared<ScoreStore>(capacity_ * kScoreTierFactor)) {}

measures::VersionArtefacts ArtefactCache::Bundle(
    const BaseArtefacts& base,
    std::shared_ptr<const measures::LazyBetweenness> betweenness) {
  measures::VersionArtefacts artefacts;
  artefacts.snapshot = base.snapshot;
  artefacts.view = base.view;
  artefacts.graph = base.graph;
  artefacts.betweenness = std::move(betweenness);
  artefacts.kernels = base.kernels;
  return artefacts;
}

Result<measures::VersionArtefacts> ArtefactCache::Get(
    uint64_t fingerprint, const measures::ContextOptions& options,
    const Materializer& materialize) {
  Result<SharedBase> base = GetBase(fingerprint, materialize);
  if (!base.ok()) return base.status();
  return Bundle(**base, CellFor(fingerprint, *base, options));
}

Result<ArtefactCache::SharedBase> ArtefactCache::GetBase(
    uint64_t fingerprint, const Materializer& materialize) {
  std::promise<Result<SharedBase>> promise;
  std::shared_future<Result<SharedBase>> future;
  bool creator = false;
  uint64_t my_generation = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // touch
      future = it->second.base;
      const bool ready =
          future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready;
      ready ? ++stats_.hits : ++stats_.coalesced;
    } else {
      ++stats_.misses;
      creator = true;
      my_generation = ++generation_;
      future = promise.get_future().share();
      lru_.push_front(fingerprint);
      Entry entry;
      entry.base = future;
      entry.generation = my_generation;
      entry.lru_pos = lru_.begin();
      entries_.emplace(fingerprint, std::move(entry));
      std::optional<uint64_t> pinned;
      {
        std::lock_guard<std::mutex> pin_lock(scores_->mu);
        if (scores_->pinned.has_value()) pinned = scores_->pinned->second;
      }
      while (lru_.size() > capacity_) {
        // The least recent entry other than the pinned head; never the
        // entry we just inserted (it is at the front).
        auto victim = std::prev(lru_.end());
        if (*victim == pinned && victim != lru_.begin()) --victim;
        if (victim == lru_.begin()) break;
        entries_.erase(*victim);
        lru_.erase(victim);
        ++stats_.evictions;
      }
    }
  }

  if (creator) {
    // Build outside the lock: other fingerprints stay servable and
    // same-key callers wait on the future.
    auto built = [&]() -> Result<SharedBase> {
      auto snapshot = materialize();
      if (!snapshot.ok()) return snapshot.status();
      if (*snapshot == nullptr) {
        return InvalidArgumentError(
            "artefact materializer returned a null snapshot");
      }
      auto base = std::make_shared<BaseArtefacts>();
      base->snapshot = std::move(*snapshot);
      base->view = std::make_shared<const schema::SchemaView>(
          schema::SchemaView::Build(*base->snapshot));
      base->graph = std::make_shared<const graph::SchemaGraph>(
          graph::SchemaGraph::Build(*base->view, base->view->classes()));
      auto counter = kernel_builds_;
      base->kernels = std::make_shared<const measures::LazyClassKernels>(
          base->view,
          [counter] { counter->fetch_add(1, std::memory_order_relaxed); });
      return SharedBase(std::move(base));
    }();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.snapshot_loads;
      if (built.ok()) {
        ++stats_.view_builds;
        ++stats_.graph_builds;
      } else {
        // Failed builds are not cached: drop our entry (generation
        // check: it may have been evicted and re-created meanwhile) so
        // a later request retries.
        auto it = entries_.find(fingerprint);
        if (it != entries_.end() && it->second.generation == my_generation) {
          lru_.erase(it->second.lru_pos);
          entries_.erase(it);
        }
      }
    }
    promise.set_value(built);
    if (!built.ok()) return built.status();
  }

  return future.get();
}

Result<measures::VersionArtefacts> ArtefactCache::Refresh(
    uint64_t from_fingerprint, uint64_t to_fingerprint,
    const measures::ContextOptions& options, const Materializer& materialize_to,
    double churn_threshold, graph::BetweennessAdvanceStats* advance_stats) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++incremental_.refreshes;
  }
  // Only the head slot holds resumable partials, and only exact cells
  // advance. Holding the slot keeps the predecessor's state alive
  // while the advance runs, whatever the cache evicts meanwhile.
  const std::shared_ptr<const ScoreStore::HeadSlot> previous =
      options.betweenness_mode == measures::BetweennessMode::kExact
          ? scores_->SlotOf(from_fingerprint)
          : nullptr;

  Result<SharedBase> base = GetBase(to_fingerprint, materialize_to);
  if (!base.ok()) return base.status();

  // Reuse a cell someone already installed for this (version, options)
  // — it is either the advance below from a racing refresh, or an
  // ordinary lazy cell; both are observationally identical.
  const uint64_t options_fp = measures::ContextOptionsFingerprint(options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(to_fingerprint);
    if (it != entries_.end()) {
      auto cell = it->second.betweenness.find(options_fp);
      if (cell != it->second.betweenness.end()) {
        return Bundle(**base, cell->second);
      }
    }
  }

  if (previous == nullptr) {
    // Nothing to advance from: the successor starts lazy (or ready from
    // the score tier), exactly like a Get.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++incremental_.stayed_lazy;
    }
    return Bundle(**base, CellFor(to_fingerprint, *base, options));
  }

  graph::BetweennessAdvanceStats stats;
  graph::BetweennessPartials advanced = graph::BetweennessAdvance(
      previous->graph->graph(), previous->partials, (*base)->graph->graph(),
      churn_threshold, &stats, pool_);
  if (advance_stats != nullptr) *advance_stats = stats;
  const Scores scores =
      std::make_shared<const std::vector<double>>(std::move(advanced.scores));
  scores_->Deposit(to_fingerprint, (*base)->graph, scores,
                   std::move(advanced.chunks));
  auto cell = std::make_shared<const measures::LazyBetweenness>(
      (*base)->graph, options, scores);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.incremental ? ++incremental_.advanced
                      : ++incremental_.full_recomputes;
    incremental_.touched_nodes += stats.touched_nodes;
    incremental_.affected_sources += stats.affected_sources;
    incremental_.recomputed_sources += stats.recomputed_sources;
    incremental_.total_sources += (*base)->graph->graph().node_count();
    auto it = entries_.find(to_fingerprint);
    if (it != entries_.end()) {
      auto existing = it->second.betweenness.find(options_fp);
      if (existing == it->second.betweenness.end()) {
        it->second.betweenness.emplace(options_fp, cell);
      } else {
        cell = existing->second;  // a racer won; results are identical
      }
    }
  }
  if (!stats.incremental) {
    // The fallback inside the advance IS a full Brandes run — keep
    // the headline counter honest.
    betweenness_runs_->fetch_add(1, std::memory_order_relaxed);
  }
  return Bundle(**base, std::move(cell));
}

std::shared_ptr<const measures::LazyBetweenness> ArtefactCache::CellFor(
    uint64_t fingerprint, const SharedBase& base,
    const measures::ContextOptions& options) {
  const uint64_t options_fp = measures::ContextOptionsFingerprint(options);
  const bool exact =
      options.betweenness_mode == measures::BetweennessMode::kExact;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    auto cell = it->second.betweenness.find(options_fp);
    if (cell != it->second.betweenness.end()) return cell->second;
  }
  std::shared_ptr<const measures::LazyBetweenness> cell;
  // An evicted version's exact scores outlive its entry in the tier: the
  // rebuilt graph gets a ready cell, and Brandes does not run again. A
  // tier vector of another length than the graph is not its result.
  Scores remembered =
      exact ? scores_->Find(fingerprint, base->graph->graph().node_count())
            : nullptr;
  if (remembered != nullptr) {
    ++stats_.score_hits;
    cell = std::make_shared<const measures::LazyBetweenness>(
        base->graph, options, std::move(remembered));
  } else {
    // The version fingerprint salts sampled-mode pivot selection: the
    // sample becomes a stable property of the version's content, so
    // sampled results agree across engine instances, restarts, and
    // incremental vs cold rebuilds. Sampled scores are never tiered.
    auto counter = betweenness_runs_;
    std::weak_ptr<ScoreStore> store;
    if (exact) store = scores_;
    auto on_computed = [counter, store, fingerprint, graph = base->graph](
                           const Scores& scores,
                           std::vector<std::vector<double>> chunks) {
      counter->fetch_add(1, std::memory_order_relaxed);
      if (auto live = store.lock()) {
        live->Deposit(fingerprint, graph, scores, std::move(chunks));
      }
    };
    cell = std::make_shared<const measures::LazyBetweenness>(
        base->graph, options, pool_, /*sampling_salt=*/fingerprint,
        std::move(on_computed));
  }
  if (it != entries_.end()) {
    it->second.betweenness.emplace(options_fp, cell);
  }
  // Entry evicted meanwhile: hand out a detached cell (still correct,
  // just not shared with future requests).
  return cell;
}

void ArtefactCache::PinHead(version::VersionId version, uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(scores_->mu);
  if (scores_->pinned.has_value() && version < scores_->pinned->first) return;
  scores_->pinned = std::pair{version, fingerprint};
}

ArtefactCacheStats ArtefactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ArtefactCacheStats out = stats_;
  out.betweenness_runs = betweenness_runs_->load(std::memory_order_relaxed);
  out.kernel_builds = kernel_builds_->load(std::memory_order_relaxed);
  return out;
}

IncrementalStats ArtefactCache::incremental_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incremental_;
}

size_t ArtefactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void ArtefactCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  std::lock_guard<std::mutex> store_lock(scores_->mu);
  scores_->tier.clear();
  scores_->lru.clear();
  scores_->slot.reset();
}

}  // namespace evorec::engine
