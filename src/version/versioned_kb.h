#ifndef EVOREC_VERSION_VERSIONED_KB_H_
#define EVOREC_VERSION_VERSIONED_KB_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "rdf/knowledge_base.h"
#include "storage/commit_log.h"
#include "version/kb_view.h"
#include "version/version.h"

namespace evorec::version {

/// The net effect of applying `changes` on top of `base`, with
/// ChangeSet semantics (removals win over additions of the same
/// triple): additions that are neither removed nor already present,
/// removals that were present — both SPO-sorted and deduplicated.
/// Equal to the store diff between `base` and the version `changes`
/// produce, at O(|changes| · log T) membership probes.
ChangeSet NetChanges(const rdf::KnowledgeBase& base, const ChangeSet& changes);

/// A linear-history versioned knowledge base. All versions share one
/// term dictionary so TermIds are stable across versions — the
/// invariant every evolution measure depends on.
///
/// Storage follows the configured ArchivePolicy. Every version is one
/// published entry: its metadata, chained fingerprint, archived change
/// set and, where the policy archives it or a reader asked for it, the
/// materialised store. A change-set version is replayed on first read
/// and cached in its entry.
///
/// Concurrency contract: one committer at a time, any number of
/// concurrent readers. Commit fingerprints, appends to the commit log
/// and builds the new store outside the entries mutex and publishes
/// with one append; readers copy pointers under it, so a read never
/// waits for a commit's log append or fsync. The shared dictionary must
/// only be interned into by the committer thread.
class VersionedKnowledgeBase final : public KbView {
 public:
  /// Creates a KB whose version 0 is empty. `checkpoint_interval`
  /// applies to kHybridCheckpoint only (a full snapshot every that
  /// many versions; must be >= 1).
  explicit VersionedKnowledgeBase(
      ArchivePolicy policy = ArchivePolicy::kFullMaterialization,
      size_t checkpoint_interval = 4);

  /// Creates a KB whose version 0 is `initial`.
  VersionedKnowledgeBase(ArchivePolicy policy, rdf::KnowledgeBase initial,
                         size_t checkpoint_interval = 4);

  /// Creates a KB whose version 0 is `base` with a caller-supplied
  /// content fingerprint instead of a freshly computed one. This is
  /// the recovery path: a snapshot of version N stores N's *chained*
  /// fingerprint (which recomputation from content alone cannot
  /// reproduce), and seeding the chain with it keeps every handle —
  /// and therefore every engine cache key — identical across a
  /// restart. See version/recovery.h.
  static VersionedKnowledgeBase WithBaseFingerprint(
      ArchivePolicy policy, rdf::KnowledgeBase base,
      uint64_t base_fingerprint, size_t checkpoint_interval = 4);

  VersionedKnowledgeBase(const VersionedKnowledgeBase&) = delete;
  VersionedKnowledgeBase& operator=(const VersionedKnowledgeBase&) = delete;
  /// Moves every version; the entries mutex stays behind (a moved-from
  /// or moved-to KB must not be in use by another thread).
  VersionedKnowledgeBase(VersionedKnowledgeBase&& other) noexcept;

  /// Applies `changes` on top of the head version, creating a new
  /// version. Returns the new version id. Empty change sets are legal
  /// (they record a no-op commit). The set is archived as passed, so an
  /// rvalue argument lands without copying the triple vectors.
  Result<VersionId> Commit(ChangeSet changes, std::string author,
                           std::string message,
                           uint64_t timestamp = 0) override;

  /// Attaches an append-only commit log: every subsequent Commit
  /// first appends a storage::DeltaRecord — write-ahead, so a failed
  /// append fails the commit without mutating memory — carrying the
  /// change set (original order, preserving the fingerprint chain),
  /// the commit metadata, the post-commit fingerprint, and the
  /// dictionary tail interned since the previous record. `log` must
  /// outlive the attachment. Attach immediately after saving a
  /// snapshot so the pair stays a consistent recovery unit
  /// (version/recovery.h); whether a commit is durable the moment it
  /// returns is the log's LogOptions::sync_on_append.
  void AttachCommitLog(storage::CommitLog* log);

  /// Stops logging (the log itself stays open).
  void DetachCommitLog();

  storage::CommitLog* commit_log() const { return log_; }

  /// Number of versions (head id + 1).
  size_t version_count() const override;

  /// Id of the latest version.
  VersionId head() const override;

  /// Commit metadata for `v`.
  Result<VersionInfo> Info(VersionId v) const;

  /// The change set that produced `v` from `v-1`, from the archive —
  /// never a store diff. Version 0 has no change set. Under
  /// kFullMaterialization it is reduced to its NetChanges (equal to
  /// the diff of the two stores).
  Result<ChangeSet> Changes(VersionId v) const override;

  /// The materialised store of version `v` itself — archived, or
  /// replayed and cached in its entry; the reference stays valid until
  /// EvictSnapshotCache or destruction.
  Result<const rdf::KnowledgeBase*> Snapshot(VersionId v) const;

  /// Version `v`'s published store itself, pinned by the returned
  /// pointer: every reader shares one frozen, immutable store, and the
  /// caller may hold it across EvictSnapshotCache and later commits. A
  /// change-set version is replayed outside the lock on a miss and
  /// cached in its entry.
  Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const override;

  /// Cheap handle to version `v` for cache keys — O(1), never
  /// materialises the snapshot (fingerprints are maintained
  /// incrementally at commit time).
  Result<SnapshotHandle> Handle(VersionId v) const override;

  /// Reconstructs `v` from its nearest archived ancestor without
  /// touching the cache — used by benches to measure reconstruction
  /// cost under kDeltaChain.
  Result<rdf::KnowledgeBase> MaterializeUncached(VersionId v) const;

  /// Drops cached replays (keeps version 0, hybrid checkpoints and,
  /// under full materialisation, every version).
  void EvictSnapshotCache() const;

  /// Approximate resident bytes of version storage: every materialised
  /// store, archived or cached (its segments), and the archived change
  /// sets.
  size_t StorageBytes() const;

  /// Same accounting with a caller-owned dedup set, so callers holding
  /// several stores that share frozen segments (the shards of a
  /// ShardedKnowledgeBase plus its pinned union snapshots) bill each
  /// immutable run once across the whole ensemble.
  size_t StorageBytes(std::unordered_set<const void*>& seen) const;

  ArchivePolicy policy() const { return policy_; }

  const std::shared_ptr<rdf::Dictionary>& shared_dictionary() const {
    return dictionary_;
  }
  rdf::Dictionary& dictionary() { return *dictionary_; }
  const rdf::Vocabulary& vocabulary() const { return vocabulary_; }

 private:
  /// Shared delegate of the public constructors and the recovery
  /// factory: seeds the fingerprint chain with `base_fingerprint`
  /// when provided, otherwise hashes the base content.
  VersionedKnowledgeBase(ArchivePolicy policy, rdf::KnowledgeBase initial,
                         size_t checkpoint_interval,
                         std::optional<uint64_t> base_fingerprint);

  /// One published version. Immutable once published, except that a
  /// change-set version caches its replay in `snapshot` (the first fill
  /// wins; EvictSnapshotCache drops it again).
  struct VersionEntry {
    VersionInfo info;
    /// Chains the base-content hash with every change set up to this
    /// version (see SnapshotHandle).
    uint64_t fingerprint = 0;
    /// The set that produced this version, as committed (so Changes()
    /// never diffs stores); null for version 0.
    std::shared_ptr<const ChangeSet> changes;
    /// The materialised store: archived for version 0, for every
    /// version under kFullMaterialization and for hybrid checkpoints;
    /// otherwise a cached replay, or null.
    mutable std::shared_ptr<const rdf::KnowledgeBase> snapshot;
  };

  /// Whether the policy archives version `v`'s store (never evicted).
  bool Archived(VersionId v) const;

  /// Both StorageBytes accountings: gross, or deduplicated across
  /// `seen` when it is non-null.
  size_t SumStorage(std::unordered_set<const void*>* seen) const;

  /// Content hash of one term (memoized per TermId; terms are
  /// immutable once interned).
  uint64_t TermContentHash(rdf::TermId id);
  /// Folds `triples` into `seed`, hashing term content.
  uint64_t HashTriples(uint64_t seed, const std::vector<rdf::Triple>& triples);
  /// Content hash of one change set chained onto `parent`.
  uint64_t ChainFingerprint(uint64_t parent, const ChangeSet& changes);

  ArchivePolicy policy_;
  size_t checkpoint_interval_;
  std::shared_ptr<rdf::Dictionary> dictionary_;
  rdf::Vocabulary vocabulary_;
  // Committer-only state: memoized per-term content hashes (0 = not
  // yet computed), the attached log (unused until AttachCommitLog) and
  // the dictionary watermark of its last record — terms with ids >=
  // logged_terms_ still need shipping.
  std::vector<uint64_t> term_hashes_;
  storage::CommitLog* log_ = nullptr;
  rdf::TermId logged_terms_ = 0;
  // Guards entries_ — the publish point between the committer and
  // readers. Held only to read or append entries and to fill a cached
  // replay, never while fingerprinting, logging or replaying.
  mutable std::mutex mu_;
  std::vector<VersionEntry> entries_;
};

/// Former name of the adapter VersionedKnowledgeBase now makes
/// unnecessary; kept so `SingleKbView(vkb).SharedSnapshot(v)` still
/// compiles.
using SingleKbView = const VersionedKnowledgeBase&;

}  // namespace evorec::version

#endif  // EVOREC_VERSION_VERSIONED_KB_H_
