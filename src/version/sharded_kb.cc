#include "version/sharded_kb.h"

#include <algorithm>

#include "common/hash.h"
#include "rdf/segment.h"

namespace evorec::version {

namespace {

// splitmix64 finaliser: TermIds are dense (0, 1, 2, ...), so taking
// them mod N directly would stripe related subjects across shards in
// intern order; the mixer decorrelates shard choice from id
// assignment while staying deterministic across runs.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

ShardedKnowledgeBase::ShardedKnowledgeBase()
    : ShardedKnowledgeBase(Options()) {}

ShardedKnowledgeBase::ShardedKnowledgeBase(Options options)
    : ShardedKnowledgeBase(options, rdf::KnowledgeBase()) {}

ShardedKnowledgeBase::ShardedKnowledgeBase(Options options,
                                           rdf::KnowledgeBase initial)
    : options_(options), dictionary_(initial.shared_dictionary()) {
  options_.shards = std::max<size_t>(1, options_.shards);

  // Split the base snapshot by subject shard. The full scan emits in
  // SPO order and the split preserves relative order, so each shard's
  // slice is already sorted-unique — FromSorted adopts it as one
  // frozen segment without re-sorting.
  std::vector<std::vector<rdf::Triple>> split(options_.shards);
  initial.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    split[ShardOf(t.subject)].push_back(t);
    return true;
  });
  shards_.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shards_.emplace_back(
        options_.policy,
        rdf::KnowledgeBase(dictionary_,
                           rdf::TripleStore::FromSorted(std::move(split[i]))));
  }

  VersionEntry base;
  base.fingerprint = FoldFingerprints(0);
  base.snapshot = BuildUnionSnapshot();
  base.info.id = 0;
  base.info.author = "system";
  base.info.message = "base version";
  entries_.push_back(std::move(base));
}

size_t ShardedKnowledgeBase::ShardOf(rdf::TermId subject) const {
  return static_cast<size_t>(Mix64(subject) % options_.shards);
}

size_t ShardedKnowledgeBase::version_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

VersionId ShardedKnowledgeBase::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<VersionId>(entries_.size() - 1);
}

Result<SnapshotHandle> ShardedKnowledgeBase::Handle(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  SnapshotHandle handle;
  handle.id = v;
  handle.fingerprint = entries_[v].fingerprint;
  return handle;
}

Result<std::shared_ptr<const rdf::KnowledgeBase>>
ShardedKnowledgeBase::SharedSnapshot(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  return entries_[v].snapshot;
}

Result<ChangeSet> ShardedKnowledgeBase::Changes(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  if (v == 0) {
    return FailedPreconditionError("version 0 has no change set");
  }
  return entries_[v].changes;
}

Result<VersionInfo> ShardedKnowledgeBase::Info(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  return entries_[v].info;
}

Result<VersionId> ShardedKnowledgeBase::Commit(ChangeSet changes,
                                               std::string author,
                                               std::string message,
                                               uint64_t timestamp) {
  // Stable split by subject shard: relative order within each shard's
  // slice matches the input, so per-shard last-wins replay composes to
  // exactly the unsharded replay semantics.
  const size_t n = shards_.size();
  std::vector<ChangeSet> split(n);
  for (const rdf::Triple& t : changes.additions) {
    split[ShardOf(t.subject)].additions.push_back(t);
  }
  for (const rdf::Triple& t : changes.removals) {
    split[ShardOf(t.subject)].removals.push_back(t);
  }

  // Land the per-shard commits — in parallel when a pool is attached.
  // Safe: shards are disjoint, and the per-shard fingerprint fold only
  // *reads* the shared dictionary (the caller interned all terms
  // before Commit, per the class contract).
  std::vector<Status> statuses(n, OkStatus());
  auto commit_shard = [&](size_t i) {
    auto result = shards_[i].Commit(std::move(split[i]), author, message,
                                    timestamp);
    statuses[i] = result.status();
  };
  if (options_.pool != nullptr && n > 1) {
    options_.pool->ParallelFor(n, commit_shard);
  } else {
    for (size_t i = 0; i < n; ++i) commit_shard(i);
  }
  for (const Status& s : statuses) {
    // Shards have no commit logs attached, so per-shard commits cannot
    // fail in practice; surface the first error defensively anyway.
    if (!s.ok()) return s;
  }

  VersionEntry entry;
  entry.fingerprint = FoldFingerprints(shards_[0].head());
  entry.snapshot = BuildUnionSnapshot();
  entry.changes = std::move(changes);
  entry.info.author = std::move(author);
  entry.info.message = std::move(message);
  entry.info.timestamp = timestamp;
  entry.info.additions = entry.changes.additions.size();
  entry.info.removals = entry.changes.removals.size();

  // Publish: the only point the committer touches reader-visible
  // state, held just long enough for one vector append.
  std::lock_guard<std::mutex> lock(mu_);
  const VersionId new_id = static_cast<VersionId>(entries_.size());
  entry.info.id = new_id;
  entries_.push_back(std::move(entry));
  return new_id;
}

uint64_t ShardedKnowledgeBase::FoldFingerprints(VersionId v) const {
  // Seed + shard count + per-shard chained fingerprints: equal folds
  // denote identical content, identical TermId mapping AND identical
  // sharding layout, so handles stay valid engine cache keys.
  size_t h = static_cast<size_t>(Fnv1a64("evorec-sharded-kb"));
  HashCombine(h, shards_.size());
  for (const VersionedKnowledgeBase& shard : shards_) {
    auto handle = shard.Handle(v);
    HashCombine(h, handle.value().fingerprint);
  }
  return static_cast<uint64_t>(h);
}

std::shared_ptr<const rdf::KnowledgeBase>
ShardedKnowledgeBase::BuildUnionSnapshot() const {
  // Concatenate the shards' frozen segment lists. Subject partitions
  // are disjoint, so no triple appears in two shards and the k-way
  // merged scans of the union store cannot mis-resolve a last-wins
  // tie across sub-lists; the merge restores global SPO order.
  std::vector<std::shared_ptr<const rdf::Segment>> segments;
  size_t total = 0;
  for (const VersionedKnowledgeBase& shard : shards_) {
    auto kb = shard.Snapshot(shard.head());
    const rdf::TripleStore& store = kb.value()->store();
    const auto& segs = store.segments();
    segments.insert(segments.end(), segs.begin(), segs.end());
    total += store.size();
  }
  return std::make_shared<const rdf::KnowledgeBase>(
      dictionary_, rdf::TripleStore::FromSegments(std::move(segments), total));
}

size_t ShardedKnowledgeBase::StorageBytes() const {
  std::unordered_set<const void*> seen;
  size_t bytes = 0;
  for (const VersionedKnowledgeBase& shard : shards_) {
    bytes += shard.StorageBytes(seen);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const VersionEntry& entry : entries_) {
    bytes += entry.snapshot->store().MemoryBytesDedup(seen);
    bytes += entry.changes.size() * sizeof(rdf::Triple);
  }
  return bytes;
}

}  // namespace evorec::version
