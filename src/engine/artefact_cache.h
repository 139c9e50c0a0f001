#ifndef EVOREC_ENGINE_ARTEFACT_CACHE_H_
#define EVOREC_ENGINE_ARTEFACT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/betweenness.h"
#include "measures/measure_context.h"
#include "version/version.h"

namespace evorec::engine {

/// Counters exposing the artefact cache's behaviour. The reuse
/// contract of the cold path reads directly off them: walking a
/// K-version chain must show `graph_builds == K` and
/// `kernel_builds == K` when the versions stay resident (the pre-cache
/// pair-keyed path performed 2·(K−1) of each, rebuilding every middle
/// version's artefacts for both pairs that touch it), and
/// `betweenness_runs == K` at any capacity, because the score tier
/// outlives eviction. A commit refresh computes the kernels of the new
/// head alone.
struct ArtefactCacheStats {
  uint64_t hits = 0;        ///< base artefacts served from the cache
  uint64_t misses = 0;      ///< triggered a base build
  uint64_t coalesced = 0;   ///< joined a concurrent in-flight build
  uint64_t evictions = 0;   ///< LRU evictions
  uint64_t snapshot_loads = 0;    ///< materializer invocations
  uint64_t view_builds = 0;       ///< SchemaView::Build runs
  uint64_t graph_builds = 0;      ///< SchemaGraph::Build runs
  uint64_t betweenness_runs = 0;  ///< full Brandes computations run
  uint64_t kernel_builds = 0;     ///< ComputeClassKernels runs
  uint64_t score_hits = 0;  ///< new cells served ready from the score tier
};

/// Counters of the incremental-refresh path. Together with
/// ArtefactCacheStats they are the proof obligations of the O(|δ|)
/// contract: below the churn threshold a commit must show `advanced`
/// ticking (never `full_recomputes`) and the cumulative
/// `recomputed_sources` staying proportional to the cumulative
/// `affected_sources` — not to `total_sources`.
struct IncrementalStats {
  uint64_t refreshes = 0;        ///< Refresh calls
  uint64_t advanced = 0;         ///< betweenness advanced incrementally
  uint64_t full_recomputes = 0;  ///< advance fell back to a full run
  /// The head slot held no partials of the predecessor (never
  /// computed, or computed while it was not the pinned head), so
  /// nothing was advanced: the successor cell stays lazy, or starts
  /// ready from the score tier (pay-for-what-you-use is preserved
  /// across refreshes).
  uint64_t stayed_lazy = 0;
  uint64_t touched_nodes = 0;      ///< cumulative adjacency-diff sizes
  uint64_t affected_sources = 0;   ///< cumulative frontier sizes
  uint64_t recomputed_sources = 0; ///< cumulative sources re-run
  uint64_t total_sources = 0;      ///< cumulative graph sizes (denominator)
};

/// An LRU cache of per-*version* cold-path artefacts (snapshot, schema
/// view, own-universe schema graph, lazy class-kernel cell, lazy
/// betweenness cell), keyed by the version's content fingerprint — NOT
/// by version pair. Contexts for the pairs (V1,V2) and (V2,V3)
/// therefore share every V2 artefact, and a timeline walk over K
/// versions builds each version's artefacts exactly once.
///
/// Below the LRU sit two stores of exact betweenness results:
/// - the *score tier*, a fingerprint-keyed LRU of every exact score
///   vector a cell computed or a refresh advanced (8n bytes per
///   version), kScoreTierFactor times as many versions as the LRU. A
///   miss whose fingerprint is in the tier gets a ready cell: only its
///   view and graph are rebuilt, and Brandes never runs twice for one
///   version while the tier remembers it;
/// - the *head slot*, the one resumable Brandes state (per-chunk
///   partials, up to 32·n doubles) the cache keeps: the pinned
///   head's, which the next commit's Refresh advances. Every other
///   computation frees its partials after the fold.
///
/// Thread-safe and single-flight: concurrent requests for one missing
/// fingerprint coalesce into a single build (the materializer runs
/// once), and the betweenness cells are single-flight per
/// (fingerprint, context-options) — sharing one cache across
/// concurrently building contexts never duplicates a Brandes run.
/// Handed-out bundles are immutable shared state and survive eviction
/// while referenced. One entry, the pinned head (see PinHead), is
/// exempt from eviction.
class ArtefactCache {
 public:
  /// Supplies the snapshot of the version being cached on a miss.
  /// Called outside the cache lock; must be safe to invoke
  /// concurrently with materializers of *other* fingerprints, as
  /// version::KbView::SharedSnapshot is.
  using Materializer =
      std::function<Result<std::shared_ptr<const rdf::KnowledgeBase>>()>;

  /// Score-tier versions per artefact entry. A tier entry holds one
  /// score vector (8n bytes, ≈7 KB at n≈900) where an entry holds a
  /// snapshot, a view and a graph, so the tier remembers 8× as many
  /// versions: 512 (≈3.7 MB) at the engine's default capacity of 64.
  static constexpr size_t kScoreTierFactor = 8;

  /// `capacity` is clamped to >= 1. `pool` (optional, must outlive the
  /// cache) parallelises the Brandes passes of the betweenness cells.
  explicit ArtefactCache(size_t capacity, ThreadPool* pool = nullptr);

  /// The artefact bundle of the version identified by `fingerprint`,
  /// building it via `materialize` on a miss. The returned bundle's
  /// betweenness cell matches `options` (per-options cells share the
  /// base artefacts).
  Result<measures::VersionArtefacts> Get(
      uint64_t fingerprint, const measures::ContextOptions& options,
      const Materializer& materialize);

  /// The incremental path: the bundle of `to_fingerprint` (a commit's
  /// successor of `from_fingerprint`), advancing the predecessor's
  /// partials in the head slot through the affected-source frontier
  /// instead of scheduling a cold Brandes run, and leaving the
  /// successor's partials there when it is the pinned head. Falls back
  /// gracefully at every step — the slot holds another version,
  /// sampled mode, or churn past `churn_threshold` — to the plain Get
  /// behaviour, so the returned bundle is always observationally
  /// identical to Get(to_fingerprint, options, materialize_to).
  /// `advance_stats` (optional) receives the per-call frontier
  /// counters when an advance was attempted.
  Result<measures::VersionArtefacts> Refresh(
      uint64_t from_fingerprint, uint64_t to_fingerprint,
      const measures::ContextOptions& options,
      const Materializer& materialize_to, double churn_threshold,
      graph::BetweennessAdvanceStats* advance_stats = nullptr);

  /// Pins version `version` (content `fingerprint`) as the head until
  /// a newer version is pinned: its entry is exempt from LRU eviction
  /// (at most one is pinned, so the cache holds at most capacity + 1
  /// entries), and an exact Brandes run over it leaves its partials in
  /// the head slot. The engine pins the head version, because every
  /// commit refresh advances from it. The pin only moves forward: a
  /// version older than the pinned one is ignored, so a reader that
  /// read the head before a commit cannot unpin the commit's
  /// successor. (Version ids order one KB's history; an engine that
  /// serves several KBs keeps the highest id pinned.)
  void PinHead(version::VersionId version, uint64_t fingerprint);

  ArtefactCacheStats stats() const;

  IncrementalStats incremental_stats() const;

  /// Number of resident base entries.
  size_t size() const;

  /// Drops every cached entry, the score tier and the head slot
  /// (in-flight builds finish normally; handed-out bundles stay valid).
  void Clear();

 private:
  /// The options-independent artefacts of one version.
  struct BaseArtefacts {
    std::shared_ptr<const rdf::KnowledgeBase> snapshot;
    std::shared_ptr<const schema::SchemaView> view;
    std::shared_ptr<const graph::SchemaGraph> graph;
    std::shared_ptr<const measures::LazyClassKernels> kernels;
  };

  /// The bundle of `base` with `betweenness` as its betweenness cell.
  static measures::VersionArtefacts Bundle(
      const BaseArtefacts& base,
      std::shared_ptr<const measures::LazyBetweenness> betweenness);

  using SharedBase = std::shared_ptr<const BaseArtefacts>;

  struct Entry {
    std::shared_future<Result<SharedBase>> base;
    /// Lazy betweenness cells keyed by ContextOptionsFingerprint.
    std::unordered_map<uint64_t,
                       std::shared_ptr<const measures::LazyBetweenness>>
        betweenness;
    std::list<uint64_t>::iterator lru_pos;
    /// Distinguishes re-created entries from the one a failed builder
    /// must clean up.
    uint64_t generation = 0;
  };

  /// The ready base artefacts of `fingerprint`, building them via
  /// `materialize` on a miss (single-flight).
  Result<SharedBase> GetBase(uint64_t fingerprint,
                             const Materializer& materialize);

  /// The cell for (entry, options), creating it on first request.
  std::shared_ptr<const measures::LazyBetweenness> CellFor(
      uint64_t fingerprint, const SharedBase& base,
      const measures::ContextOptions& options);

  /// The pin, the score tier and the head slot: what the cells'
  /// computations deposit into (defined in the .cc).
  struct ScoreStore;

  size_t capacity_;
  ThreadPool* pool_;
  mutable std::mutex mu_;  // taken before the store's own mutex
  std::list<uint64_t> lru_;  // most-recent first
  std::unordered_map<uint64_t, Entry> entries_;
  ArtefactCacheStats stats_;
  IncrementalStats incremental_;
  uint64_t generation_ = 0;
  // Brandes runs, kernel builds and tier deposits happen inside the
  // lazy cells, which may outlive the cache: the counters are shared,
  // and the cells hold the store weakly.
  std::shared_ptr<std::atomic<uint64_t>> betweenness_runs_;
  std::shared_ptr<std::atomic<uint64_t>> kernel_builds_;
  std::shared_ptr<ScoreStore> scores_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_ARTEFACT_CACHE_H_
