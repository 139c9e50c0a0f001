#ifndef EVOREC_RDF_TRIPLE_STORE_H_
#define EVOREC_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "rdf/segment.h"
#include "rdf/triple.h"

namespace evorec::rdf {

/// Counters describing the work a store has performed, so benches and
/// tests can verify that freezes stay incremental and that the serving
/// path never materialises a whole-store flat copy. Copies start from
/// zero.
struct TripleStoreStats {
  uint64_t compactions = 0;      ///< pending-buffer freezes
  uint64_t segments_frozen = 0;  ///< freezes that produced a segment
  uint64_t segment_merges = 0;   ///< size-tiered pairwise segment merges
  /// Whole-store flat SPO copies. No store operation flattens the
  /// stack, so this stays zero; the concurrent-serving contract
  /// asserts it on the read-serving path.
  uint64_t materializations = 0;
};

/// A segmented (terichdb-style) in-memory triple store.
///
/// Canonical storage is a stack of immutable, shared frozen segments
/// plus a small writable head (the pending buffers). Mutations are
/// buffered with last-wins semantics per triple (Add(t) after
/// Remove(t) leaves t present, and vice versa — exactly the sequential
/// semantics delta-chain replay depends on). Compact() *freezes* the
/// head into a new immutable segment in O(d log d) for a delta of d
/// ops — it never rewrites the frozen stack — and then applies a
/// size-tiered merge policy that keeps the stack depth logarithmic
/// and amortises total merge work to O(n log n).
///
/// Because segments are immutable and held by shared_ptr, copying a
/// store copies the segment *list* (O(#segments) pointer copies), not
/// the triples. That is what makes versioned snapshots cheap: every
/// version pins the segment list it was born with and the writer's
/// later freezes/merges never touch it.
///
/// Reads resolve last-wins across the stack: for each triple the
/// newest segment mentioning it decides (live run → present,
/// tombstone run → absent). Scans k-way-merge the per-segment sorted
/// runs, so every pattern shape emits in SPO order. The stack is the
/// only index: subject-bound patterns seek their SPO prefix, and
/// every other shape filters one merged walk.
///
/// Thread safety: a *frozen* store (no buffered mutations, as left by
/// Compact()) is immutable. Every const member only reads it, so any
/// number of threads may read and copy one frozen store concurrently,
/// and a version publishes its store to all readers as is. The one
/// write behind `const` is Compact() freezing the writer's own dirty
/// head; a store with buffered mutations, like any mutation, belongs
/// to one thread.
class TripleStore {
 public:
  TripleStore() = default;

  /// Bulk sorted-load: adopts `sorted_spo` (strictly ascending SPO
  /// order, no duplicates — the caller's contract) as a single frozen
  /// base segment, bypassing the pending buffer entirely. This is the
  /// snapshot-loading fast path of the storage layer: decoding a saved
  /// snapshot yields the SPO run already in canonical order, so "load"
  /// is a move instead of an O(n log n) re-sort.
  static TripleStore FromSorted(std::vector<Triple> sorted_spo);

  /// Adopts an existing frozen segment stack whose effective triple
  /// count is `effective_size`. This is the zero-copy union view the
  /// sharded KB uses: concatenating the segment lists of stores over
  /// *disjoint* triple sets (shards partition by subject) yields a
  /// valid stack, because no triple of one sublist can shadow a triple
  /// of another. The segments stay shared with their owning stores.
  static TripleStore FromSegments(
      std::vector<std::shared_ptr<const Segment>> segments,
      size_t effective_size);

  // Copies share the frozen segment stack (pointer copies) and copy
  // only the pending buffers, so a snapshot copy is O(#segments),
  // independent of the triple count. A copy's stats start from zero.
  TripleStore(const TripleStore& other);
  TripleStore& operator=(const TripleStore& other);
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  /// Inserts `t`; duplicates are absorbed.
  void Add(const Triple& t);

  /// Removes `t` if present.
  void Remove(const Triple& t);

  /// Bulk-inserts a batch.
  void AddAll(const std::vector<Triple>& triples);

  /// Bulk-removes a batch.
  void RemoveAll(const std::vector<Triple>& triples);

  /// True iff the store contains `t`.
  bool Contains(const Triple& t) const;

  /// Returns all triples matching `pattern`, in SPO order.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Invokes `fn` for every triple matching `pattern`, in SPO order;
  /// stops early if `fn` returns false. Statically-typed hot path: the
  /// callable is inlined into the merged walk of the segment stack.
  template <class Fn>
  void ScanT(const TriplePattern& pattern, Fn&& fn) const {
    const bool has_s = pattern.subject != kAnyTerm;
    const bool has_p = pattern.predicate != kAnyTerm;
    const bool has_o = pattern.object != kAnyTerm;
    Compact();

    if (!has_s && !has_p && !has_o) {
      // (*,*,*): full merged scan.
      detail::WalkSegments(segments_, Triple{0, 0, 0}, [&](const Triple& t) {
        return static_cast<bool>(fn(t));
      });
      return;
    }
    // (s,·,·) shapes seek the SPO prefix on s (and p, o) and stop past
    // it; (*,p,·) and (*,*,o) filter the whole merged walk.
    const Triple lo{has_s ? pattern.subject : 0,
                    has_s && has_p ? pattern.predicate : 0,
                    has_s && has_p && has_o ? pattern.object : 0};
    detail::WalkSegments(segments_, lo, [&](const Triple& t) {
      if (has_s && t.subject != pattern.subject) return false;
      if (has_p && t.predicate != pattern.predicate) {
        return !has_s || t.predicate < pattern.predicate;
      }
      if (has_o && t.object != pattern.object) return true;
      return static_cast<bool>(fn(t));
    });
  }

  /// Type-erased convenience wrapper over ScanT.
  void Scan(const TriplePattern& pattern,
            const std::function<bool(const Triple&)>& fn) const;

  /// Number of distinct triples. O(1) on a frozen store: freezes
  /// maintain the effective count incrementally.
  size_t size() const;

  bool empty() const { return size() == 0; }

  /// Set difference: triples of `a` not in `b` (both need not be
  /// compacted; result is SPO-sorted). This is the primitive behind
  /// low-level deltas (δ+ = After − Before, δ− = Before − After).
  /// Streams both segment stacks — no flattening.
  static std::vector<Triple> Difference(const TripleStore& a,
                                        const TripleStore& b);

  /// Freezes buffered mutations into a new immutable segment
  /// (O(d log d + d·log n·depth) for a delta of d ops — independent of
  /// the store size n except for binary-search probes), then runs the
  /// size-tiered merge policy. Called automatically by every const
  /// accessor, and a no-op on a frozen store; call it before sharing a
  /// store with other threads.
  void Compact() const;

  /// The frozen segment stack, oldest → newest (freezes pending
  /// mutations first). Segments are immutable and shared; holding the
  /// returned pointers pins this store's current state for free.
  const std::vector<std::shared_ptr<const Segment>>& segments() const;

  /// Approximate resident bytes of this store's current state
  /// (segments plus pending buffers). Never triggers a compact.
  /// Shared segments are counted in full by every holder; use
  /// MemoryBytesDedup for fleet-wide accounting.
  size_t MemoryBytes() const;

  /// Like MemoryBytes, but counts each shared segment only once across
  /// every store probed with the same `seen` set — the honest
  /// footprint of a version chain whose snapshots share segments.
  size_t MemoryBytesDedup(std::unordered_set<const void*>& seen) const;

  /// Work counters for this instance.
  const TripleStoreStats& stats() const { return stats_; }

 private:
  /// Last-wins probe of the frozen stack only (ignores pending).
  bool ContainsFrozen(const Triple& t) const;
  /// Size-tiered merge: collapses the newest segments while one is at
  /// least half its older neighbour, dropping tombstones when a merge
  /// reaches the bottom of the stack.
  void MaybeMergeSegments() const;

  // Every mutable member below is written behind `const` only by
  // Compact() freezing a dirty head.
  //
  // Canonical storage: immutable frozen segments, oldest → newest
  // (valid after Compact()). The vector itself is per-store; the
  // segments are shared across stores.
  mutable std::vector<std::shared_ptr<const Segment>> segments_;
  // Effective triple count of the stack (maintained at freeze time).
  mutable size_t size_ = 0;
  // The writable head: mutations buffered since the last freeze. A
  // triple lives in at most one of the two sets (the most recent
  // operation wins).
  mutable std::unordered_set<Triple, TripleHash> pending_adds_;
  mutable std::unordered_set<Triple, TripleHash> pending_removes_;
  mutable bool dirty_ = false;
  mutable TripleStoreStats stats_;
};

}  // namespace evorec::rdf

#endif  // EVOREC_RDF_TRIPLE_STORE_H_
