#include "version/versioned_kb.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"

namespace evorec::version {

uint64_t VersionedKnowledgeBase::TermContentHash(rdf::TermId id) {
  if (id >= dictionary_->size()) {
    // Raw id never interned (id-level callers build triples without a
    // dictionary); the id itself is the only identity available.
    return (0x9E3779B97F4A7C15ULL ^ id) | 1;
  }
  if (term_hashes_.size() <= id) {
    term_hashes_.resize(dictionary_->size(), 0);
  }
  uint64_t& hash = term_hashes_[id];
  if (hash == 0) {
    // Hash the canonical serialisation, not just the dense id: two
    // KBs whose histories assign the same ids to *different* labels
    // must not collide (a wrong cache hit would serve evaluations
    // about the wrong data). |1 keeps 0 as the "unset" sentinel.
    hash = Fnv1a64(dictionary_->term(id).ToNTriples()) | 1;
  }
  return hash;
}

uint64_t VersionedKnowledgeBase::HashTriples(
    uint64_t seed, const std::vector<rdf::Triple>& triples) {
  for (const rdf::Triple& t : triples) {
    size_t h = static_cast<size_t>(seed);
    HashCombine(h, TermContentHash(t.subject));
    HashCombine(h, TermContentHash(t.predicate));
    HashCombine(h, TermContentHash(t.object));
    seed = static_cast<uint64_t>(h);
  }
  return seed;
}

// Content hash of one change set, chained onto the parent fingerprint.
// Additions and removals are salted differently so that moving a
// triple between the two lists changes the hash.
uint64_t VersionedKnowledgeBase::ChainFingerprint(uint64_t parent,
                                                  const ChangeSet& changes) {
  uint64_t fp = HashTriples(parent ^ 0x9E3779B97F4A7C15ULL,
                            changes.additions);
  return HashTriples(fp ^ 0xC2B2AE3D27D4EB4FULL, changes.removals);
}

VersionedKnowledgeBase::VersionedKnowledgeBase(ArchivePolicy policy,
                                               size_t checkpoint_interval)
    : VersionedKnowledgeBase(policy, rdf::KnowledgeBase(),
                             checkpoint_interval) {}

VersionedKnowledgeBase::VersionedKnowledgeBase(ArchivePolicy policy,
                                               rdf::KnowledgeBase initial,
                                               size_t checkpoint_interval)
    : VersionedKnowledgeBase(policy, std::move(initial), checkpoint_interval,
                             std::nullopt) {}

VersionedKnowledgeBase VersionedKnowledgeBase::WithBaseFingerprint(
    ArchivePolicy policy, rdf::KnowledgeBase base, uint64_t base_fingerprint,
    size_t checkpoint_interval) {
  return VersionedKnowledgeBase(policy, std::move(base), checkpoint_interval,
                                base_fingerprint);
}

VersionedKnowledgeBase::VersionedKnowledgeBase(
    ArchivePolicy policy, rdf::KnowledgeBase initial,
    size_t checkpoint_interval, std::optional<uint64_t> base_fingerprint)
    : policy_(policy),
      checkpoint_interval_(std::max<size_t>(1, checkpoint_interval)),
      dictionary_(initial.shared_dictionary()),
      vocabulary_(rdf::Vocabulary::Intern(*dictionary_)) {
  VersionInfo base;
  base.id = 0;
  base.author = "system";
  base.message = "base version";
  infos_.push_back(base);
  stores_.push_back(std::move(initial));
  change_sets_.emplace_back();
  // Base fingerprint: content hash of the canonical (SPO-sorted)
  // triples, so equal base snapshots fingerprint equally — unless the
  // caller (recovery) supplies the chained value a snapshot recorded.
  fingerprints_.push_back(base_fingerprint.has_value()
                              ? *base_fingerprint
                              : HashTriples(0xCBF29CE484222325ULL,
                                            stores_[0].store().triples()));
}

void VersionedKnowledgeBase::AttachCommitLog(storage::CommitLog* log) {
  log_ = log;
  logged_terms_ = static_cast<rdf::TermId>(dictionary_->size());
}

void VersionedKnowledgeBase::DetachCommitLog() { log_ = nullptr; }

namespace {

std::vector<rdf::Triple> SortedUnique(std::vector<rdf::Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  return triples;
}

rdf::KnowledgeBase ApplyChanges(rdf::KnowledgeBase base,
                                const ChangeSet& changes) {
  base.store().AddAll(changes.additions);
  base.store().RemoveAll(changes.removals);
  base.store().Compact();
  return base;
}

}  // namespace

ChangeSet NetChanges(const rdf::KnowledgeBase& base, const ChangeSet& changes) {
  const std::vector<rdf::Triple> additions = SortedUnique(changes.additions);
  const std::vector<rdf::Triple> removals = SortedUnique(changes.removals);
  ChangeSet net;
  // Removals are applied after additions, so a triple in both lists
  // nets to absent: it is never an addition, and it is a removal
  // exactly when `base` held it.
  for (const rdf::Triple& t : additions) {
    if (std::binary_search(removals.begin(), removals.end(), t)) continue;
    if (!base.store().Contains(t)) net.additions.push_back(t);
  }
  for (const rdf::Triple& t : removals) {
    if (base.store().Contains(t)) net.removals.push_back(t);
  }
  return net;
}

Result<VersionId> VersionedKnowledgeBase::Commit(ChangeSet changes,
                                                 std::string author,
                                                 std::string message,
                                                 uint64_t timestamp) {
  const VersionId new_id = static_cast<VersionId>(infos_.size());
  const size_t additions = changes.additions.size();
  const size_t removals = changes.removals.size();
  const uint64_t fingerprint =
      ChainFingerprint(fingerprints_.back(), changes);

  if (log_ != nullptr) {
    // Write-ahead: the record must be on the log before any in-memory
    // state changes, so a failed append fails the whole commit and a
    // recovered replica can never be *ahead* of the log.
    storage::DeltaRecord record;
    record.version_id = new_id;
    record.timestamp = timestamp;
    record.author = author;
    record.message = message;
    record.fingerprint = fingerprint;
    record.first_term_id = logged_terms_;
    const rdf::TermId dict_size =
        static_cast<rdf::TermId>(dictionary_->size());
    record.new_terms.reserve(dict_size - logged_terms_);
    for (rdf::TermId id = logged_terms_; id < dict_size; ++id) {
      record.new_terms.push_back(dictionary_->term(id));
    }
    record.additions = changes.additions;
    record.removals = changes.removals;
    EVOREC_RETURN_IF_ERROR(log_->Append(record));
    logged_terms_ = dict_size;
  }

  switch (policy_) {
    case ArchivePolicy::kFullMaterialization:
      stores_.push_back(ApplyChanges(stores_.back(), changes));
      change_sets_.push_back(std::move(changes));
      break;
    case ArchivePolicy::kDeltaChain:
      change_sets_.push_back(std::move(changes));
      break;
    case ArchivePolicy::kHybridCheckpoint: {
      if (new_id % checkpoint_interval_ == 0) {
        // Materialise this version once and keep it as a checkpoint;
        // reuse the previous checkpoint (or base) as the replay start.
        auto materialized = MaterializeUncached(new_id - 1);
        if (!materialized.ok()) return materialized.status();
        checkpoints_.emplace(
            new_id, ApplyChanges(std::move(materialized).value(), changes));
      }
      change_sets_.push_back(std::move(changes));
      break;
    }
  }

  VersionInfo info;
  info.id = new_id;
  info.author = std::move(author);
  info.message = std::move(message);
  info.timestamp = timestamp;
  info.additions = additions;
  info.removals = removals;
  infos_.push_back(std::move(info));
  fingerprints_.push_back(fingerprint);
  return new_id;
}

Result<SnapshotHandle> VersionedKnowledgeBase::Handle(VersionId v) const {
  if (v >= infos_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  SnapshotHandle handle;
  handle.id = v;
  handle.fingerprint = fingerprints_[v];
  return handle;
}

Result<VersionInfo> VersionedKnowledgeBase::Info(VersionId v) const {
  if (v >= infos_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  return infos_[v];
}

Result<ChangeSet> VersionedKnowledgeBase::Changes(VersionId v) const {
  if (v >= infos_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  if (v == 0) {
    return FailedPreconditionError("version 0 has no change set");
  }
  if (policy_ == ArchivePolicy::kFullMaterialization) {
    // The archived set as committed, reduced to its net effect — the
    // diff of the adjacent stores, by membership probes.
    return NetChanges(stores_[v - 1], change_sets_[v]);
  }
  return change_sets_[v];
}

Result<rdf::KnowledgeBase> VersionedKnowledgeBase::MaterializeUncached(
    VersionId v) const {
  if (v >= infos_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  if (policy_ == ArchivePolicy::kFullMaterialization) {
    return stores_[v];
  }
  // Find the nearest materialised ancestor: a hybrid checkpoint or the
  // base snapshot.
  VersionId start = 0;
  const rdf::KnowledgeBase* base = &stores_[0];
  if (policy_ == ArchivePolicy::kHybridCheckpoint && !checkpoints_.empty()) {
    const VersionId candidate =
        (v / static_cast<VersionId>(checkpoint_interval_)) *
        static_cast<VersionId>(checkpoint_interval_);
    auto it = checkpoints_.find(candidate);
    if (it != checkpoints_.end()) {
      start = candidate;
      base = &it->second;
    }
  }
  // Batched replay: the copy drops the base's stale secondary
  // indexes; the whole chain's additions and removals accumulate in
  // the store's last-wins pending buffer and are applied by a single
  // incremental merge at the end instead of one re-index per version.
  rdf::KnowledgeBase kb = *base;
  for (VersionId i = start + 1; i <= v; ++i) {
    kb.store().AddAll(change_sets_[i].additions);
    kb.store().RemoveAll(change_sets_[i].removals);
  }
  kb.store().Compact();
  return kb;
}

Result<const rdf::KnowledgeBase*> VersionedKnowledgeBase::Snapshot(
    VersionId v) const {
  if (v >= infos_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  if (policy_ == ArchivePolicy::kFullMaterialization) {
    return &stores_[v];
  }
  if (v == 0) {
    return &stores_[0];
  }
  if (policy_ == ArchivePolicy::kHybridCheckpoint) {
    auto checkpoint = checkpoints_.find(v);
    if (checkpoint != checkpoints_.end()) {
      return &checkpoint->second;
    }
  }
  auto it = cache_.find(v);
  if (it == cache_.end()) {
    auto materialized = MaterializeUncached(v);
    if (!materialized.ok()) return materialized.status();
    it = cache_.emplace(v, std::move(materialized).value()).first;
  }
  return &it->second;
}

Result<std::shared_ptr<const rdf::KnowledgeBase>>
VersionedKnowledgeBase::SharedSnapshot(VersionId v) const {
  auto kb = Snapshot(v);
  if (!kb.ok()) return kb.status();
  return std::make_shared<const rdf::KnowledgeBase>(**kb);
}

void VersionedKnowledgeBase::EvictSnapshotCache() const { cache_.clear(); }

size_t VersionedKnowledgeBase::StorageBytes() const {
  // Asks each store for its actual footprint (only the permutation
  // indexes it has really materialised, plus pending buffers) and
  // includes the lazily-filled snapshot cache. Gross accounting: a
  // frozen segment shared by several versions is billed by each
  // holder, which is how the archive-policy comparison has always
  // been scored (full materialization pays per version even though
  // the segmented store shares the bytes underneath).
  size_t bytes = 0;
  for (const rdf::KnowledgeBase& kb : stores_) {
    bytes += kb.store().MemoryBytes();
  }
  for (const auto& [v, kb] : checkpoints_) {
    (void)v;
    bytes += kb.store().MemoryBytes();
  }
  for (const auto& [v, kb] : cache_) {
    (void)v;
    bytes += kb.store().MemoryBytes();
  }
  for (const ChangeSet& cs : change_sets_) {
    bytes += cs.size() * sizeof(rdf::Triple);
  }
  return bytes;
}

size_t VersionedKnowledgeBase::StorageBytes(
    std::unordered_set<const void*>& seen) const {
  // Dedup accounting for ensembles: versions of a segmented store
  // share frozen segments, and the shards of a ShardedKnowledgeBase
  // share them with the pinned union snapshots — each immutable run
  // is billed once across every store probed with the same `seen`.
  size_t bytes = 0;
  for (const rdf::KnowledgeBase& kb : stores_) {
    bytes += kb.store().MemoryBytesDedup(seen);
  }
  for (const auto& [v, kb] : checkpoints_) {
    (void)v;
    bytes += kb.store().MemoryBytesDedup(seen);
  }
  for (const auto& [v, kb] : cache_) {
    (void)v;
    bytes += kb.store().MemoryBytesDedup(seen);
  }
  for (const ChangeSet& cs : change_sets_) {
    bytes += cs.size() * sizeof(rdf::Triple);
  }
  return bytes;
}

}  // namespace evorec::version
