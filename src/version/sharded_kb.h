#ifndef EVOREC_VERSION_SHARDED_KB_H_
#define EVOREC_VERSION_SHARDED_KB_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "rdf/knowledge_base.h"
#include "version/kb_view.h"
#include "version/version.h"
#include "version/versioned_kb.h"

namespace evorec::version {

/// A versioned knowledge base partitioned by subject hash into N
/// independent VersionedKnowledgeBase shards that share one term
/// dictionary. Commits split the change set by shard and land the
/// per-shard pieces independently (in parallel when a ThreadPool is
/// supplied); because subjects partition the triple space, the shards
/// never contend on data.
///
/// Reads are served from pinned *union snapshots*: at commit time the
/// shards' frozen segment lists are concatenated into one
/// TripleStore::FromSegments store — an O(#segments) pointer splice,
/// never a triple copy — and published under a brief mutex. A reader
/// that pins a snapshot keeps reading that exact version while any
/// number of later commits land: readers never block on the writer and
/// the writer never blocks on readers. The k-way segment merge
/// restores global SPO order, so scans over a union snapshot are
/// byte-identical to the same scans over an unsharded store.
///
/// Concurrency contract (see KbView): one committer at a time, any
/// number of concurrent readers. The shared dictionary must only be
/// interned into by the committer thread (intern terms before Commit;
/// readers resolve ids against the dictionary snapshot-free because
/// interning is append-only).
///
/// Not supported: commit logs (attach them to an unsharded KB; the
/// shard split is an in-memory serving arrangement, not a durability
/// format).
class ShardedKnowledgeBase final : public KbView {
 public:
  struct Options {
    /// Number of subject-hash shards (>= 1).
    size_t shards = 4;
    /// Archive policy applied per shard.
    ArchivePolicy policy = ArchivePolicy::kFullMaterialization;
    /// Optional pool for committing shards in parallel. Not owned;
    /// must outlive the KB. nullptr commits shards sequentially.
    ThreadPool* pool = nullptr;
  };

  /// Creates a sharded KB whose version 0 is empty, with a fresh
  /// shared dictionary and default options.
  ShardedKnowledgeBase();

  /// Creates a sharded KB whose version 0 is empty, with a fresh
  /// shared dictionary.
  explicit ShardedKnowledgeBase(Options options);

  /// Creates a sharded KB whose version 0 is `initial`, splitting its
  /// triples across shards (the shards adopt `initial`'s dictionary).
  ShardedKnowledgeBase(Options options, rdf::KnowledgeBase initial);

  ShardedKnowledgeBase(const ShardedKnowledgeBase&) = delete;
  ShardedKnowledgeBase& operator=(const ShardedKnowledgeBase&) = delete;

  // KbView interface. version_count/head/Handle/Changes/SharedSnapshot
  // take the brief entries mutex; Commit does its heavy work outside
  // it and only appends under it.
  size_t version_count() const override;
  VersionId head() const override;
  Result<SnapshotHandle> Handle(VersionId v) const override;
  Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      VersionId v) const override;
  Result<ChangeSet> Changes(VersionId v) const override;
  Result<VersionId> Commit(ChangeSet changes, std::string author,
                           std::string message,
                           uint64_t timestamp = 0) override;

  /// Commit metadata for `v`.
  Result<VersionInfo> Info(VersionId v) const;

  size_t shard_count() const { return shards_.size(); }

  /// The shard a subject hashes to — exposed for tests and benches.
  size_t ShardOf(rdf::TermId subject) const;

  /// Direct access to one shard (tests/benches; do not commit through
  /// it — per-shard histories must only advance via Commit above).
  const VersionedKnowledgeBase& shard(size_t i) const { return shards_[i]; }

  /// Resident bytes across shards, pinned union snapshots and archived
  /// change sets, counting each shared frozen segment once.
  size_t StorageBytes() const;

  const std::shared_ptr<rdf::Dictionary>& shared_dictionary() const {
    return dictionary_;
  }
  rdf::Dictionary& dictionary() { return *dictionary_; }

 private:
  /// One published version: its chained fingerprint, the unsplit
  /// change set that produced it, and the pinned immutable union
  /// snapshot readers share.
  struct VersionEntry {
    uint64_t fingerprint = 0;
    ChangeSet changes;
    std::shared_ptr<const rdf::KnowledgeBase> snapshot;
    VersionInfo info;
  };

  /// Folds the shards' fingerprints for version `v` (must exist on
  /// every shard) into one chain-stable union fingerprint.
  uint64_t FoldFingerprints(VersionId v) const;

  /// Concatenates the shards' head-store segment lists into a pinned
  /// union snapshot (O(total segment count), zero triple copies).
  std::shared_ptr<const rdf::KnowledgeBase> BuildUnionSnapshot() const;

  Options options_;
  std::shared_ptr<rdf::Dictionary> dictionary_;
  // Committed only by Commit (one committer at a time); readers go
  // through the pinned union snapshots instead.
  std::vector<VersionedKnowledgeBase> shards_;
  // Guards entries_ only — the publish point between the committer
  // and readers. Held for O(1) appends and lookups, never while
  // splitting, committing shards, or building the union snapshot.
  mutable std::mutex mu_;
  std::vector<VersionEntry> entries_;
};

}  // namespace evorec::version

#endif  // EVOREC_VERSION_SHARDED_KB_H_
