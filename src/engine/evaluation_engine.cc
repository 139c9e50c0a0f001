#include "engine/evaluation_engine.h"

#include <algorithm>
#include <string>

#include "common/hash.h"

namespace evorec::engine {

size_t ContextKeyHash::operator()(const ContextKey& key) const {
  size_t seed = 0;
  HashCombine(seed, key.before_fingerprint);
  HashCombine(seed, key.after_fingerprint);
  HashCombine(seed, measures::ContextOptionsFingerprint(key.options));
  return seed;
}

SharedEvaluation::SharedEvaluation(measures::EvolutionContext ctx,
                                   const measures::MeasureRegistry& registry,
                                   ThreadPool* pool)
    : ctx_(std::move(ctx)), registry_(registry), pool_(pool) {}

Result<std::shared_ptr<const measures::MeasureReport>>
SharedEvaluation::Report(std::string_view name) const {
  if (auto cached = reports_.Lookup(name); cached != nullptr) return cached;
  auto measure = registry_.Create(name);
  if (!measure.ok()) return measure.status();
  return reports_.GetOrCompute(**measure, ctx_);
}

Result<std::vector<std::shared_ptr<const measures::MeasureReport>>>
SharedEvaluation::AllReports() const {
  return measures::EvaluateAll(registry_, ctx_, reports_, pool_);
}

size_t SharedEvaluation::StateKeyHash::operator()(const StateKey& key) const {
  size_t seed = 0;
  HashCombine(seed, static_cast<const void*>(key.registry));
  HashCombine(seed, key.top_k);
  HashCombine(seed, key.per_region);
  HashCombine(seed, key.max_regions);
  HashCombine(seed, static_cast<int>(key.diversity));
  return seed;
}

Result<std::shared_ptr<const recommend::SharedRunState>>
SharedEvaluation::SharedStateFor(const recommend::Recommender& rec) const {
  // The state's content depends on the measure set (the recommender's
  // registry), the candidate options, and the diversity kind (which
  // selects the distance matrix).
  const recommend::CandidateOptions& copts = rec.options().candidates;
  const StateKey key{&rec.registry(), copts.top_k, copts.per_region,
                     copts.max_regions, rec.options().diversity};

  std::promise<Result<SharedState>> promise;
  std::shared_future<Result<SharedState>> future;
  {
    std::unique_lock<std::mutex> lock(states_mu_);
    auto it = states_.find(key);
    if (it != states_.end()) {
      std::shared_future<Result<SharedState>> existing = it->second;
      lock.unlock();
      return existing.get();
    }
    future = promise.get_future().share();
    states_.emplace(key, future);
  }

  // The memoized reports cover the engine's registry; a recommender
  // drawing from a different registry computes its own pool directly.
  Result<recommend::SharedRunState> prepared =
      InternalError("shared state not prepared");
  if (&rec.registry() == &registry_) {
    auto reports = AllReports();
    if (!reports.ok()) {
      promise.set_value(reports.status());
      std::lock_guard<std::mutex> lock(states_mu_);
      states_.erase(key);
      return reports.status();
    }
    prepared =
        rec.PrepareShared(ctx_, registry_.List(), std::move(reports).value());
  } else {
    prepared = rec.PrepareShared(ctx_);
  }
  if (!prepared.ok()) {
    promise.set_value(prepared.status());
    std::lock_guard<std::mutex> lock(states_mu_);
    states_.erase(key);
    return prepared.status();
  }
  SharedState state = std::make_shared<const recommend::SharedRunState>(
      std::move(prepared).value());
  promise.set_value(state);
  return state;
}

EvaluationEngine::EvaluationEngine(const measures::MeasureRegistry& registry,
                                   EngineOptions options)
    : registry_(registry),
      options_(options),
      pool_(options.threads),
      artefacts_(options.artefact_cache_capacity, &pool_) {
  if (options_.context_cache_capacity == 0) {
    options_.context_cache_capacity = 1;
  }
}

Result<std::pair<measures::VersionArtefacts, measures::VersionArtefacts>>
EvaluationEngine::ArtefactPair(const version::KbView& view,
                               const version::SnapshotHandle& before,
                               const version::SnapshotHandle& after,
                               const measures::ContextOptions& context_options,
                               bool advance) {
  const auto materialize = [&view](version::VersionId v) {
    return [&view, v]() { return view.SharedSnapshot(v); };
  };
  auto before_art = artefacts_.Get(before.fingerprint, context_options,
                                   materialize(before.id));
  if (!before_art.ok()) return before_art.status();
  auto after_art =
      advance ? artefacts_.Refresh(before.fingerprint, after.fingerprint,
                                   context_options, materialize(after.id),
                                   options_.refresh_churn_threshold)
              : artefacts_.Get(after.fingerprint, context_options,
                               materialize(after.id));
  if (!after_art.ok()) return after_art.status();
  if (before_art->snapshot->shared_dictionary() !=
      after_art->snapshot->shared_dictionary()) {
    // Fingerprint-equal versions of *distinct* VersionedKnowledgeBase
    // instances (identical histories, e.g. a restored replica) carry
    // identical TermId mappings but distinct Dictionary objects, so a
    // cached artefact from one instance cannot pair with a freshly
    // materialised one from the other. Rebuild both sides cold from
    // the caller's view — correct, just uncached, and nothing cached
    // from the twin can be advanced — rather than failing the request.
    const auto rebuild = [&](const version::SnapshotHandle& handle)
        -> Result<measures::VersionArtefacts> {
      auto snapshot = materialize(handle.id)();
      if (!snapshot.ok()) return snapshot.status();
      return measures::MakeVersionArtefacts(
          std::move(*snapshot), context_options, &pool_,
          /*sampling_salt=*/handle.fingerprint);
    };
    before_art = rebuild(before);
    if (!before_art.ok()) return before_art.status();
    after_art = rebuild(after);
    if (!after_art.ok()) return after_art.status();
  }
  return std::pair{std::move(*before_art), std::move(*after_art)};
}

Result<std::shared_ptr<const SharedEvaluation>> EvaluationEngine::Evaluate(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    measures::ContextOptions context_options) {
  const Result<version::SnapshotHandle> before = view.Handle(v1);
  const Result<version::SnapshotHandle> after = view.Handle(v2);
  const version::VersionId head = view.head();
  if (!before.ok()) return before.status();
  if (!after.ok()) return after.status();
  ContextKey key{before->fingerprint, after->fingerprint, context_options};

  // Per-version artefacts come from the artefact cache (keyed by
  // snapshot fingerprint): a version shared with any previously built
  // pair contributes its snapshot copy, schema view, schema graph and
  // betweenness for free, and only the pair-level delta work runs
  // here — outside the engine lock, so other keys stay servable
  // meanwhile and same-key callers wait on the in-flight future.
  const auto build = [&]() -> Result<measures::EvolutionContext> {
    // The next commit advances from the head's partials: keep the
    // head resident however many older versions are read meanwhile.
    // (A head read before a later commit is older than the pin, and
    // the cache ignores it.)
    if (v2 == head) artefacts_.PinHead(v2, after->fingerprint);
    auto pair = ArtefactPair(view, *before, *after, context_options,
                             /*advance=*/false);
    if (!pair.ok()) return pair.status();
    auto& [before_art, after_art] = *pair;
    if (v2 != v1 + 1) {
      return measures::EvolutionContext::Build(
          std::move(before_art), std::move(after_art), context_options);
    }
    // Adjacent pair: the delta comes from v2's archived change set by
    // membership probes (equal to the store diff by contract), not an
    // O(T) store diff.
    const Result<version::ChangeSet> changes = view.Changes(v2);
    if (!changes.ok()) return changes.status();
    delta::LowLevelDelta delta =
        delta::DeltaFromCandidates(*before_art.snapshot, *changes);
    return measures::EvolutionContext::Build(
        std::move(before_art), std::move(after_art), std::move(delta),
        /*advance_from=*/nullptr, context_options);
  };
  return GetOrBuild(key, build, /*refreshed=*/false);
}

Result<EvaluationEngine::SharedEval> EvaluationEngine::GetOrBuild(
    const ContextKey& key,
    const std::function<Result<measures::EvolutionContext>()>& build_context,
    bool refreshed) {
  std::promise<Result<SharedEval>> promise;
  std::shared_future<Result<SharedEval>> future;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (auto hit = lookup_.find(key); hit != lookup_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second);  // touch
      ++stats_.context_hits;
      return hit->second->second;
    }
    if (auto flying = inflight_.find(key); flying != inflight_.end()) {
      std::shared_future<Result<SharedEval>> existing = flying->second;
      ++stats_.context_coalesced;
      lock.unlock();
      return existing.get();
    }
    ++stats_.context_misses;
    future = promise.get_future().share();
    inflight_.emplace(key, future);
  }

  Result<measures::EvolutionContext> ctx = build_context();
  if (!ctx.ok()) {
    promise.set_value(ctx.status());
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    return ctx.status();
  }
  SharedEval evaluation = std::make_shared<const SharedEvaluation>(
      std::move(ctx).value(), registry_, &pool_);
  promise.set_value(evaluation);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.contexts_built;
    if (refreshed) ++stats_.contexts_refreshed;
    inflight_.erase(key);
    lru_.emplace_front(key, evaluation);
    lookup_[key] = lru_.begin();
    while (lru_.size() > options_.context_cache_capacity) {
      lookup_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.context_evictions;
    }
  }
  return evaluation;
}

EvaluationEngine::SharedEval EvaluationEngine::Peek(
    const ContextKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto hit = lookup_.find(key);
  return hit != lookup_.end() ? hit->second->second : nullptr;
}

Result<EvaluationEngine::RefreshResult> EvaluationEngine::Refresh(
    const version::KbView& view, measures::ContextOptions context_options) {
  // Versions are immutable once published: reading the head once pins
  // every later lookup to it, however many commits land meanwhile.
  const version::VersionId head = view.head();
  if (head == 0) {
    return FailedPreconditionError(
        "refresh needs at least one committed version");
  }
  const Result<version::SnapshotHandle> prev = view.Handle(head - 1);
  const Result<version::SnapshotHandle> curr = view.Handle(head);
  if (!prev.ok()) return prev.status();
  if (!curr.ok()) return curr.status();
  uint64_t prev_prev_fingerprint = 0;
  bool have_prev_prev = false;
  if (head >= 2) {
    auto pp = view.Handle(head - 2);
    if (pp.ok()) {
      prev_prev_fingerprint = pp->fingerprint;
      have_prev_prev = true;
    }
  }
  const Result<version::ChangeSet> changes = view.Changes(head);
  if (!changes.ok()) return changes.status();
  const ContextKey key{prev->fingerprint, curr->fingerprint, context_options};

  const auto build = [&]() -> Result<measures::EvolutionContext> {
    artefacts_.PinHead(head, curr->fingerprint);
    auto pair = ArtefactPair(view, *prev, *curr, context_options,
                             /*advance=*/true);
    if (!pair.ok()) return pair.status();
    auto& [prev_art, head_art] = *pair;
    // O(|δ|): the pair delta comes from the commit's archived change
    // set via membership probes, not an O(T) store diff.
    delta::LowLevelDelta delta =
        delta::DeltaFromCandidates(*prev_art.snapshot, *changes);
    // Advance the delta index from the preceding pair's when that
    // evaluation is still warm (keep it alive across the build).
    SharedEval preceding;
    if (have_prev_prev) {
      preceding = Peek(
          ContextKey{prev_prev_fingerprint, prev->fingerprint, context_options});
    }
    return measures::EvolutionContext::Build(
        std::move(prev_art), std::move(head_art), std::move(delta),
        preceding != nullptr ? &preceding->context().delta_index() : nullptr,
        context_options);
  };
  auto evaluation = GetOrBuild(key, build, /*refreshed=*/true);
  if (!evaluation.ok()) return evaluation.status();
  RefreshResult result{head, std::move(evaluation).value()};
  {
    // Pin the refresh as the last-good serving state: if a later
    // commit fails, the service keeps answering from this evaluation
    // (flagged degraded) until a commit succeeds again.
    std::lock_guard<std::mutex> lock(mu_);
    last_good_ = result;
  }
  return result;
}

std::optional<EvaluationEngine::RefreshResult>
EvaluationEngine::LastGoodRefresh() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_good_;
}

Result<EvaluationEngine::RefreshResult> EvaluationEngine::CommitAndRefresh(
    version::KbView& view, version::ChangeSet changes, std::string author,
    std::string message, uint64_t timestamp,
    measures::ContextOptions context_options) {
  auto committed = view.Commit(std::move(changes), std::move(author),
                               std::move(message), timestamp);
  if (!committed.ok()) return committed.status();
  return Refresh(view, context_options);
}

Result<measures::EvolutionTimeline> EvaluationEngine::Timeline(
    const version::KbView& view, std::string_view measure,
    version::VersionId first, version::VersionId last,
    measures::ContextOptions context_options) {
  const version::VersionId head = view.head();
  if (head == 0) {
    return FailedPreconditionError("timeline needs at least two versions");
  }
  const version::VersionId end = std::min<version::VersionId>(last, head);
  if (first >= end) {
    return InvalidArgumentError("empty version range for timeline");
  }
  std::vector<measures::MeasureReport> reports;
  reports.reserve(end - first);
  for (version::VersionId v = first; v < end; ++v) {
    auto evaluation = Evaluate(view, v, v + 1, context_options);
    if (!evaluation.ok()) return evaluation.status();
    auto report = (*evaluation)->Report(measure);
    if (!report.ok()) return report.status();
    reports.push_back(**report);
  }
  return measures::EvolutionTimeline::FromReports(std::move(reports));
}

void EvaluationEngine::Clear() {
  artefacts_.Clear();
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  lookup_.clear();
}

EngineStats EvaluationEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t EvaluationEngine::cached_contexts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace evorec::engine
