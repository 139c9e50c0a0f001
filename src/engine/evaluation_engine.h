#ifndef EVOREC_ENGINE_EVALUATION_ENGINE_H_
#define EVOREC_ENGINE_EVALUATION_ENGINE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "engine/artefact_cache.h"
#include "measures/evaluation.h"
#include "measures/measure_context.h"
#include "measures/registry.h"
#include "measures/timeline.h"
#include "recommend/recommender.h"
#include "version/kb_view.h"

namespace evorec::engine {

/// Cache key of one shared evaluation: the content fingerprints of
/// both snapshots plus the context options. Handles with equal
/// fingerprints denote snapshots with identical content and TermId
/// mapping (see version::SnapshotHandle), so equal keys imply
/// interchangeable contexts — including across distinct
/// VersionedKnowledgeBase instances with identical histories.
struct ContextKey {
  uint64_t before_fingerprint = 0;
  uint64_t after_fingerprint = 0;
  measures::ContextOptions options;

  friend bool operator==(const ContextKey& a, const ContextKey& b) {
    return a.before_fingerprint == b.before_fingerprint &&
           a.after_fingerprint == b.after_fingerprint &&
           a.options == b.options;
  }
};

struct ContextKeyHash {
  size_t operator()(const ContextKey& key) const;
};

/// Engine configuration.
struct EngineOptions {
  /// Max contexts kept warm (least-recently-used eviction).
  size_t context_cache_capacity = 16;
  /// Max per-version artefact bundles kept warm (snapshot + schema
  /// view + schema graph + class kernels + betweenness scores).
  /// Versions are smaller than contexts and shared across pairs, so
  /// this defaults higher. The exact scores of
  /// ArtefactCache::kScoreTierFactor times as many versions outlive
  /// their bundles, so an evicted version never reruns Brandes.
  size_t artefact_cache_capacity = 64;
  /// Worker threads for parallel measure evaluation, batched serving,
  /// and the chunked parallel Brandes passes of cold context builds;
  /// 0 means ThreadPool::DefaultThreadCount().
  size_t threads = 0;
  /// Incremental-refresh fallback knob: when a commit's affected-source
  /// frontier exceeds this fraction of the schema graph, Refresh runs a
  /// full Brandes recompute instead of advancing (advancing would do
  /// comparable work with extra bookkeeping). Results are bit-identical
  /// either way — deliberately an EngineOptions field, not a
  /// ContextOptions one, so it never enters a cache key.
  double refresh_churn_threshold = 0.5;
};

/// Counters exposing the engine's cache behaviour. "Redundant context
/// builds" are exactly `contexts_built - distinct keys requested`:
/// serving any number of users over one warm pair must keep
/// contexts_built at 1.
struct EngineStats {
  uint64_t context_hits = 0;       ///< served from the LRU cache
  uint64_t context_misses = 0;     ///< triggered a build
  uint64_t contexts_built = 0;     ///< EvolutionContext::Build actually ran
  uint64_t context_coalesced = 0;  ///< joined a concurrent in-flight build
  uint64_t context_evictions = 0;  ///< LRU evictions
  uint64_t contexts_refreshed = 0; ///< built via the incremental path
};

/// One cached evaluation unit: the shared EvolutionContext of a
/// version pair plus the memo of everything derived from it — measure
/// reports (per name, single-flight) and the recommender's shared run
/// state (per pipeline configuration). Immutable from the caller's
/// perspective; all lazy state is thread-safe. Handed out as
/// shared_ptr<const>, so it survives cache eviction while in use —
/// but it borrows the owning engine's registry and thread pool, so it
/// must not outlive the EvaluationEngine that produced it.
class SharedEvaluation {
 public:
  explicit SharedEvaluation(measures::EvolutionContext ctx,
                            const measures::MeasureRegistry& registry,
                            ThreadPool* pool);

  const measures::EvolutionContext& context() const { return ctx_; }

  /// Memoized report of the registered measure `name` over this
  /// context.
  Result<std::shared_ptr<const measures::MeasureReport>> Report(
      std::string_view name) const;

  /// Memoized reports of every registered measure (registration
  /// order), evaluating uncached ones — in parallel when the engine
  /// has a pool.
  Result<std::vector<std::shared_ptr<const measures::MeasureReport>>>
  AllReports() const;

  /// Memoized user-independent run state of `rec` (candidate pool,
  /// pre-normalised reports, diversity distance matrix) over this
  /// context, built from the memoized reports. Keyed by everything the
  /// state depends on — the recommender's registry, its candidate
  /// options, and its diversity kind — single-flight.
  Result<std::shared_ptr<const recommend::SharedRunState>> SharedStateFor(
      const recommend::Recommender& rec) const;

  measures::ReportCacheStats report_stats() const {
    return reports_.stats();
  }

 private:
  using SharedState = std::shared_ptr<const recommend::SharedRunState>;

  /// Everything a SharedRunState's content depends on.
  struct StateKey {
    const measures::MeasureRegistry* registry = nullptr;
    size_t top_k = 0;
    bool per_region = false;
    size_t max_regions = 0;
    recommend::DiversityKind diversity = recommend::DiversityKind::kContent;

    friend bool operator==(const StateKey&, const StateKey&) = default;
  };
  struct StateKeyHash {
    size_t operator()(const StateKey& key) const;
  };

  measures::EvolutionContext ctx_;
  const measures::MeasureRegistry& registry_;
  ThreadPool* pool_;
  mutable measures::ReportCache reports_;
  mutable std::mutex states_mu_;
  mutable std::unordered_map<StateKey,
                             std::shared_future<Result<SharedState>>,
                             StateKeyHash>
      states_;
};

/// The shared evaluation engine: owns an LRU cache of
/// SharedEvaluations keyed by (before, after, options) and the thread
/// pool driving parallel work. Thread-safe; concurrent requests for
/// the same missing key coalesce into one build (single-flight).
///
/// Every entry point takes a version::KbView, which synchronises
/// itself (one committer at a time, any number of readers), so the
/// engine calls it without a lock of its own: readers never block on a
/// concurrent CommitAndRefresh, including its commit-log append and
/// fsync.
class EvaluationEngine {
 public:
  /// `registry` must outlive the engine.
  explicit EvaluationEngine(const measures::MeasureRegistry& registry,
                            EngineOptions options = {});

  /// The shared evaluation of versions (v1, v2) of `view`, built on
  /// first request and cached under its snapshot fingerprints. An
  /// adjacent pair (v2 == v1 + 1) takes its delta from v2's archived
  /// ChangeSet in O(|δ|); other pairs diff the two stores. `view` only
  /// needs to live for the duration of the call (builds run
  /// synchronously on the calling thread). The returned evaluation
  /// stays valid across eviction but must be dropped before the engine
  /// is destroyed.
  Result<std::shared_ptr<const SharedEvaluation>> Evaluate(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, measures::ContextOptions context_options = {});

  /// Outcome of an incremental refresh: the version refreshed to and
  /// the (now cached) shared evaluation of its head transition.
  struct RefreshResult {
    version::VersionId version = 0;
    std::shared_ptr<const SharedEvaluation> evaluation;
  };

  /// Incrementally refreshes the caches to `view`'s current head: the
  /// head version's artefacts advance from its predecessor's (the
  /// betweenness update re-runs only chunks the commit's
  /// affected-source frontier reaches; see refresh_churn_threshold),
  /// the pair delta derives from the commit's archived ChangeSet in
  /// O(|δ|), and the delta index advances from the preceding pair's
  /// when it is warm. The resulting (head−1, head) evaluation is
  /// cached under the same key — and is bit-identical to the one
  /// Evaluate would have built cold.
  Result<RefreshResult> Refresh(const version::KbView& view,
                                measures::ContextOptions context_options = {});

  /// The serving loop's write path: commits `changes` to `view` and
  /// refreshes in one step. Safe to call while other threads serve
  /// requests through the same engine — one committer at a time. In-
  /// flight reads keep flowing while the commit lands: the view's own
  /// publish point is the only synchronisation between them.
  Result<RefreshResult> CommitAndRefresh(
      version::KbView& view, version::ChangeSet changes, std::string author,
      std::string message, uint64_t timestamp = 0,
      measures::ContextOptions context_options = {});

  /// The most recent successful Refresh/CommitAndRefresh outcome,
  /// pinned independently of cache eviction — the stale-but-consistent
  /// state the service serves (flagged) while a failed commit has it
  /// in the DEGRADED health state. Empty until the first refresh.
  std::optional<RefreshResult> LastGoodRefresh() const;

  /// The timeline of the registered measure `measure` over every
  /// consecutive version pair of `view` in [first, last] — the fast
  /// cold chain walk: every context is served through the engine's
  /// caches, so each version's snapshot, schema view, schema graph
  /// and betweenness are built exactly once (K builds for a K-version
  /// chain; the pair-keyed EvolutionTimeline::Compute performs
  /// 2·(K−1)), and reports of already-warm transitions are reused
  /// outright.
  Result<measures::EvolutionTimeline> Timeline(
      const version::KbView& view, std::string_view measure,
      version::VersionId first = 0, version::VersionId last = UINT32_MAX,
      measures::ContextOptions context_options = {});

  /// Drops every cached evaluation and artefact (in-flight builds
  /// finish normally).
  void Clear();

  EngineStats stats() const;
  ArtefactCacheStats artefact_stats() const { return artefacts_.stats(); }
  IncrementalStats incremental_stats() const {
    return artefacts_.incremental_stats();
  }
  size_t cached_contexts() const;
  ThreadPool& pool() { return pool_; }
  const measures::MeasureRegistry& registry() const { return registry_; }
  const EngineOptions& options() const { return options_; }

 private:
  using SharedEval = std::shared_ptr<const SharedEvaluation>;

  /// Shared single-flight LRU machinery of Evaluate and Refresh:
  /// serves `key` from the cache or in-flight build, otherwise runs
  /// `build_context` (outside the engine lock) and installs the
  /// result. `refreshed` marks builds that took the incremental path
  /// (for EngineStats::contexts_refreshed).
  Result<SharedEval> GetOrBuild(
      const ContextKey& key,
      const std::function<Result<measures::EvolutionContext>()>& build_context,
      bool refreshed);

  /// Cache-peek (no LRU touch) of the evaluation under `key`.
  SharedEval Peek(const ContextKey& key) const;

  /// The artefact bundles of the (before, after) pair, from the
  /// artefact cache — `after` advanced from `before` through
  /// ArtefactCache::Refresh when `advance` (a commit refresh) —
  /// materialising misses from `view`. Shared by Evaluate and Refresh.
  Result<std::pair<measures::VersionArtefacts, measures::VersionArtefacts>>
  ArtefactPair(const version::KbView& view,
               const version::SnapshotHandle& before,
               const version::SnapshotHandle& after,
               const measures::ContextOptions& context_options, bool advance);

  const measures::MeasureRegistry& registry_;
  EngineOptions options_;
  ThreadPool pool_;
  // Per-version artefacts shared across pair contexts (keyed by
  // snapshot content fingerprint, not pair).
  ArtefactCache artefacts_;

  mutable std::mutex mu_;
  // LRU: most-recent at the front; lookup_ points into lru_.
  std::list<std::pair<ContextKey, SharedEval>> lru_;
  std::unordered_map<ContextKey,
                     std::list<std::pair<ContextKey, SharedEval>>::iterator,
                     ContextKeyHash>
      lookup_;
  std::unordered_map<ContextKey, std::shared_future<Result<SharedEval>>,
                     ContextKeyHash>
      inflight_;
  EngineStats stats_;
  /// Last successful refresh, pinned for degraded-mode serving.
  std::optional<RefreshResult> last_good_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_EVALUATION_ENGINE_H_
