#ifndef EVOREC_VERSION_VERSIONED_KB_H_
#define EVOREC_VERSION_VERSIONED_KB_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
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
/// Storage follows the configured ArchivePolicy; snapshots are
/// materialised lazily and cached. Not thread-safe: as a KbView it
/// reports InternallySynchronized() == false, so the engine serialises
/// every call under its vkb lock.
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
  VersionedKnowledgeBase(VersionedKnowledgeBase&&) = default;
  VersionedKnowledgeBase& operator=(VersionedKnowledgeBase&&) = default;

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
  size_t version_count() const override { return infos_.size(); }

  /// Id of the latest version.
  VersionId head() const override {
    return static_cast<VersionId>(infos_.size() - 1);
  }

  /// Commit metadata for `v`.
  Result<VersionInfo> Info(VersionId v) const;

  /// The change set that produced `v` from `v-1`, from the archive —
  /// never a store diff. Version 0 has no change set. Under
  /// kFullMaterialization it is reduced to its NetChanges (equal to
  /// the diff of the two stores).
  Result<ChangeSet> Changes(VersionId v) const override;

  /// Materialised snapshot of version `v` (cached; the reference stays
  /// valid until EvictSnapshotCache or destruction).
  Result<const rdf::KnowledgeBase*> Snapshot(VersionId v) const;

  /// A copy of Snapshot(v) the caller owns. A segmented store copy
  /// shares frozen segments — O(#segments), not O(triples) — and
  /// detaches the snapshot from the lazy cache, so the caller may hold
  /// it across EvictSnapshotCache and later commits.
  Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const override;

  /// Cheap handle to version `v` for cache keys — O(1), never
  /// materialises the snapshot (fingerprints are maintained
  /// incrementally at commit time).
  Result<SnapshotHandle> Handle(VersionId v) const override;

  bool InternallySynchronized() const override { return false; }

  /// Reconstructs `v` without touching the cache — used by benches to
  /// measure reconstruction cost under kDeltaChain.
  Result<rdf::KnowledgeBase> MaterializeUncached(VersionId v) const;

  /// Drops cached snapshots (keeps version 0 and, under full
  /// materialisation, all stored versions).
  void EvictSnapshotCache() const;

  /// Approximate resident bytes of version storage: base/materialised
  /// stores and checkpoints (counting only the permutation indexes
  /// each store has actually built), the snapshot cache, and archived
  /// change sets.
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
  std::vector<VersionInfo> infos_;
  // fingerprints_[v] chains the base-content hash with every change
  // set up to v (see SnapshotHandle).
  std::vector<uint64_t> fingerprints_;
  // Memoized per-term content hashes (0 = not yet computed).
  std::vector<uint64_t> term_hashes_;
  // kFullMaterialization: stores_[v] is version v; change_sets_[v] is
  // the set that produced it, as committed (so Changes() never diffs
  // stores).
  // kDeltaChain / kHybridCheckpoint: stores_[0] is the base; later
  // versions live in change_sets_ (and, for hybrid, checkpoints_).
  std::vector<rdf::KnowledgeBase> stores_;
  std::vector<ChangeSet> change_sets_;  // change_sets_[v] produced v; [0] empty
  // kHybridCheckpoint: full snapshots at versions that are multiples
  // of checkpoint_interval_.
  std::unordered_map<VersionId, rdf::KnowledgeBase> checkpoints_;
  mutable std::unordered_map<VersionId, rdf::KnowledgeBase> cache_;
  // Durability (both unused until AttachCommitLog): the attached log
  // and the dictionary watermark of the last appended record — terms
  // with ids >= logged_terms_ still need shipping.
  storage::CommitLog* log_ = nullptr;
  rdf::TermId logged_terms_ = 0;
};

/// Former name of the adapter VersionedKnowledgeBase now makes
/// unnecessary; kept so `SingleKbView(vkb).SharedSnapshot(v)` still
/// compiles.
using SingleKbView = const VersionedKnowledgeBase&;

}  // namespace evorec::version

#endif  // EVOREC_VERSION_VERSIONED_KB_H_
