#ifndef EVOREC_VERSION_KB_VIEW_H_
#define EVOREC_VERSION_KB_VIEW_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "rdf/knowledge_base.h"
#include "version/version.h"

namespace evorec::version {

/// A cheap, copyable reference to one version of a KbView — the
/// cache-key currency of the engine layer. The fingerprint is a hash
/// chained over the base snapshot and every committed change set,
/// folding the *serialised term content* of each triple in TermId
/// order. Equal fingerprints therefore denote snapshots with identical
/// content AND an identical TermId mapping — exactly the equivalence
/// cached evaluations need, since their consumers (profiles, reports)
/// speak TermIds. Distinct VersionedKnowledgeBase instances share
/// fingerprints when their histories are identical (same operations,
/// same intern order, e.g. regenerated from one seed); content-equal
/// KBs interned in a different order fingerprint differently, which is
/// a safe cache miss, never a wrong hit.
struct SnapshotHandle {
  VersionId id = 0;
  uint64_t fingerprint = 0;

  friend bool operator==(const SnapshotHandle& a, const SnapshotHandle& b) {
    return a.fingerprint == b.fingerprint;
  }
};

/// The engine-facing surface of a versioned knowledge base: everything
/// EvaluationEngine / RecommendationService need to serve and commit —
/// cheap fingerprint handles for cache keys, pinned immutable
/// snapshots, archived change sets, and the head pointer. Implemented
/// by VersionedKnowledgeBase (durable through its commit log) and by
/// ShardedKnowledgeBase (N segmented shards).
///
/// Concurrency contract, shared by every implementation: one committer
/// at a time and any number of concurrent readers. Each view publishes
/// immutable versions under its own brief lock, so readers never wait
/// for a commit to land and callers need no lock of their own.
class KbView {
 public:
  virtual ~KbView() = default;

  /// Number of versions (head id + 1).
  virtual size_t version_count() const = 0;

  /// Id of the latest version.
  virtual VersionId head() const = 0;

  /// Cheap content-fingerprint handle to version `v` for cache keys.
  virtual Result<SnapshotHandle> Handle(VersionId v) const = 0;

  /// The published snapshot of version `v`, pinned for the caller: the
  /// returned KB is frozen and immutable, every reader shares it, and
  /// it stays valid and readable while later commits land.
  virtual Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const = 0;

  /// The change set that produced `v` from `v-1` (version 0 has none).
  virtual Result<ChangeSet> Changes(VersionId v) const = 0;

  /// Applies `changes` on top of the head, creating a new version, and
  /// returns its id. Empty change sets are legal (a no-op commit).
  /// Pass an rvalue to archive the change set without copying it.
  virtual Result<VersionId> Commit(ChangeSet changes, std::string author,
                                   std::string message,
                                   uint64_t timestamp = 0) = 0;

 protected:
  KbView() = default;
  KbView(const KbView&) = default;
  KbView& operator=(const KbView&) = default;
  KbView(KbView&&) = default;
  KbView& operator=(KbView&&) = default;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_KB_VIEW_H_
