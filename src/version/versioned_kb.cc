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
  VersionEntry base;
  base.info.author = "system";
  base.info.message = "base version";
  // Base fingerprint: content hash of the canonical (SPO-sorted)
  // triples, so equal base snapshots fingerprint equally — unless the
  // caller (recovery) supplies the chained value a snapshot recorded.
  base.fingerprint =
      base_fingerprint.has_value()
          ? *base_fingerprint
          : HashTriples(0xCBF29CE484222325ULL, initial.store().Match({}));
  // Frozen before it is shared: concurrent readers all read this one
  // store, and const reads of a store with buffered mutations would
  // compact it in place.
  initial.store().Compact();
  base.snapshot =
      std::make_shared<const rdf::KnowledgeBase>(std::move(initial));
  entries_.push_back(std::move(base));
}

VersionedKnowledgeBase::VersionedKnowledgeBase(
    VersionedKnowledgeBase&& other) noexcept
    : policy_(other.policy_),
      checkpoint_interval_(other.checkpoint_interval_),
      dictionary_(std::move(other.dictionary_)),
      vocabulary_(std::move(other.vocabulary_)),
      term_hashes_(std::move(other.term_hashes_)),
      log_(other.log_),
      logged_terms_(other.logged_terms_),
      entries_(std::move(other.entries_)) {}

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
  // One committer at a time: only Commit appends entries, so the head
  // read here stays the head until the publish below.
  VersionId new_id = 0;
  uint64_t parent_fingerprint = 0;
  std::shared_ptr<const rdf::KnowledgeBase> parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    new_id = static_cast<VersionId>(entries_.size());
    parent_fingerprint = entries_.back().fingerprint;
    parent = entries_.back().snapshot;
  }
  VersionEntry entry;
  entry.fingerprint = ChainFingerprint(parent_fingerprint, changes);

  if (log_ != nullptr) {
    // Write-ahead: the record must be on the log before the version is
    // published, so a failed append fails the whole commit and a
    // recovered replica can never be *ahead* of the log.
    storage::DeltaRecord record;
    record.version_id = new_id;
    record.timestamp = timestamp;
    record.author = author;
    record.message = message;
    record.fingerprint = entry.fingerprint;
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

  if (policy_ == ArchivePolicy::kFullMaterialization) {
    entry.snapshot = std::make_shared<const rdf::KnowledgeBase>(
        ApplyChanges(*parent, changes));
  } else if (Archived(new_id)) {
    // A hybrid checkpoint: materialise this version once, replaying
    // from the previous checkpoint (or base).
    auto materialized = MaterializeUncached(new_id - 1);
    if (!materialized.ok()) return materialized.status();
    entry.snapshot = std::make_shared<const rdf::KnowledgeBase>(
        ApplyChanges(std::move(materialized).value(), changes));
  }
  entry.info.id = new_id;
  entry.info.author = std::move(author);
  entry.info.message = std::move(message);
  entry.info.timestamp = timestamp;
  entry.info.additions = changes.additions.size();
  entry.info.removals = changes.removals.size();
  entry.changes = std::make_shared<const ChangeSet>(std::move(changes));

  // Publish: the only point the committer touches reader-visible
  // state, held just long enough for one vector append.
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
  return new_id;
}

size_t VersionedKnowledgeBase::version_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

VersionId VersionedKnowledgeBase::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<VersionId>(entries_.size() - 1);
}

Result<SnapshotHandle> VersionedKnowledgeBase::Handle(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  SnapshotHandle handle;
  handle.id = v;
  handle.fingerprint = entries_[v].fingerprint;
  return handle;
}

Result<VersionInfo> VersionedKnowledgeBase::Info(VersionId v) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (v >= entries_.size()) {
    return NotFoundError("unknown version " + std::to_string(v));
  }
  return entries_[v].info;
}

Result<ChangeSet> VersionedKnowledgeBase::Changes(VersionId v) const {
  std::shared_ptr<const ChangeSet> changes;
  std::shared_ptr<const rdf::KnowledgeBase> parent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (v >= entries_.size()) {
      return NotFoundError("unknown version " + std::to_string(v));
    }
    if (v == 0) {
      return FailedPreconditionError("version 0 has no change set");
    }
    changes = entries_[v].changes;
    if (policy_ == ArchivePolicy::kFullMaterialization) {
      parent = entries_[v - 1].snapshot;
    }
  }
  if (policy_ == ArchivePolicy::kFullMaterialization) {
    // The archived set as committed, reduced to its net effect — the
    // diff of the adjacent stores, by membership probes.
    return NetChanges(*parent, *changes);
  }
  return *changes;
}

bool VersionedKnowledgeBase::Archived(VersionId v) const {
  return v == 0 || policy_ == ArchivePolicy::kFullMaterialization ||
         (policy_ == ArchivePolicy::kHybridCheckpoint &&
          v % checkpoint_interval_ == 0);
}

Result<rdf::KnowledgeBase> VersionedKnowledgeBase::MaterializeUncached(
    VersionId v) const {
  // Copy the pointers of the nearest archived ancestor and the change
  // sets after it; the replay itself runs outside the lock.
  std::shared_ptr<const rdf::KnowledgeBase> base;
  std::vector<std::shared_ptr<const ChangeSet>> chain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (v >= entries_.size()) {
      return NotFoundError("unknown version " + std::to_string(v));
    }
    VersionId start = v;
    while (!Archived(start)) --start;
    base = entries_[start].snapshot;
    for (VersionId i = start + 1; i <= v; ++i) {
      chain.push_back(entries_[i].changes);
    }
  }
  // Batched replay: the whole chain's additions and removals
  // accumulate in the copy's last-wins pending buffer and are frozen
  // by a single Compact at the end instead of one freeze per version.
  rdf::KnowledgeBase kb = *base;
  for (const std::shared_ptr<const ChangeSet>& changes : chain) {
    kb.store().AddAll(changes->additions);
    kb.store().RemoveAll(changes->removals);
  }
  kb.store().Compact();
  return kb;
}

Result<std::shared_ptr<const rdf::KnowledgeBase>>
VersionedKnowledgeBase::SharedSnapshot(VersionId v) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (v >= entries_.size()) {
      return NotFoundError("unknown version " + std::to_string(v));
    }
    if (entries_[v].snapshot != nullptr) return entries_[v].snapshot;
  }
  auto replayed = MaterializeUncached(v);
  if (!replayed.ok()) return replayed.status();
  auto kb = std::make_shared<const rdf::KnowledgeBase>(
      std::move(replayed).value());
  // Readers replaying one version concurrently all return the first
  // fill, so every caller shares one cached store.
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const rdf::KnowledgeBase>& cached = entries_[v].snapshot;
  if (cached == nullptr) cached = std::move(kb);
  return cached;
}

Result<const rdf::KnowledgeBase*> VersionedKnowledgeBase::Snapshot(
    VersionId v) const {
  auto kb = SharedSnapshot(v);
  if (!kb.ok()) return kb.status();
  return kb->get();
}

void VersionedKnowledgeBase::EvictSnapshotCache() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (VersionId v = 0; v < entries_.size(); ++v) {
    if (!Archived(v)) entries_[v].snapshot.reset();
  }
}

size_t VersionedKnowledgeBase::StorageBytes() const {
  // Asks each store for its actual footprint (its segments) and
  // includes the cached replays. Gross accounting: a frozen segment
  // shared by several versions is billed by each holder, which is how
  // the archive-policy comparison has always been scored (full
  // materialization pays per version even though the segmented store
  // shares the bytes underneath).
  return SumStorage(nullptr);
}

size_t VersionedKnowledgeBase::StorageBytes(
    std::unordered_set<const void*>& seen) const {
  // Dedup accounting for ensembles: versions of a segmented store
  // share frozen segments, and the shards of a ShardedKnowledgeBase
  // share them with the pinned union snapshots — each immutable run
  // is billed once across every store probed with the same `seen`.
  return SumStorage(&seen);
}

size_t VersionedKnowledgeBase::SumStorage(
    std::unordered_set<const void*>* seen) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const VersionEntry& entry : entries_) {
    if (entry.snapshot != nullptr) {
      const rdf::TripleStore& store = entry.snapshot->store();
      bytes += seen != nullptr ? store.MemoryBytesDedup(*seen)
                               : store.MemoryBytes();
    }
    if (entry.changes != nullptr) {
      bytes += entry.changes->size() * sizeof(rdf::Triple);
    }
  }
  return bytes;
}

}  // namespace evorec::version
