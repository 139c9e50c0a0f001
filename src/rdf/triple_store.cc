#include "rdf/triple_store.h"

#include <algorithm>
#include <utility>

namespace evorec::rdf {

TripleStore TripleStore::FromSorted(std::vector<Triple> sorted_spo) {
  TripleStore store;
  store.size_ = sorted_spo.size();
  if (!sorted_spo.empty()) {
    store.segments_.push_back(std::make_shared<const Segment>(
        std::move(sorted_spo), std::vector<Triple>{}));
  }
  return store;
}

TripleStore TripleStore::FromSegments(
    std::vector<std::shared_ptr<const Segment>> segments,
    size_t effective_size) {
  TripleStore store;
  store.segments_ = std::move(segments);
  store.size_ = effective_size;
  return store;
}

TripleStore::TripleStore(const TripleStore& other)
    : segments_(other.segments_),
      size_(other.size_),
      pending_adds_(other.pending_adds_),
      pending_removes_(other.pending_removes_),
      dirty_(other.dirty_) {}

TripleStore& TripleStore::operator=(const TripleStore& other) {
  if (this != &other) {
    TripleStore tmp(other);
    *this = std::move(tmp);
  }
  return *this;
}

void TripleStore::Add(const Triple& t) {
  pending_removes_.erase(t);
  pending_adds_.insert(t);
  dirty_ = true;
}

void TripleStore::Remove(const Triple& t) {
  pending_adds_.erase(t);
  pending_removes_.insert(t);
  dirty_ = true;
}

void TripleStore::AddAll(const std::vector<Triple>& triples) {
  if (triples.empty()) return;
  pending_adds_.reserve(pending_adds_.size() + triples.size());
  for (const Triple& t : triples) {
    pending_removes_.erase(t);
    pending_adds_.insert(t);
  }
  dirty_ = true;
}

void TripleStore::RemoveAll(const std::vector<Triple>& triples) {
  if (triples.empty()) return;
  pending_removes_.reserve(pending_removes_.size() + triples.size());
  for (const Triple& t : triples) {
    pending_adds_.erase(t);
    pending_removes_.insert(t);
  }
  dirty_ = true;
}

bool TripleStore::ContainsFrozen(const Triple& t) const {
  // Newest segment mentioning the triple decides (last-wins).
  for (size_t i = segments_.size(); i-- > 0;) {
    const Segment& seg = *segments_[i];
    if (seg.ContainsLive(t)) return true;
    if (seg.ContainsTombstone(t)) return false;
  }
  return false;
}

void TripleStore::Compact() const {
  if (!dirty_) return;
  dirty_ = false;
  if (pending_adds_.empty() && pending_removes_.empty()) return;

  // The buffers are disjoint (Add/Remove keep a triple in the set of
  // its most recent operation), so adds and removes can be applied in
  // either order.
  std::vector<Triple> adds(pending_adds_.begin(), pending_adds_.end());
  std::vector<Triple> removes(pending_removes_.begin(),
                              pending_removes_.end());
  pending_adds_.clear();
  pending_removes_.clear();
  std::sort(adds.begin(), adds.end());
  std::sort(removes.begin(), removes.end());

  // Freeze the head: filter the delta down to the *effective* state
  // transition against the frozen stack (an add of a visible triple or
  // a remove of an absent one changes nothing), so segments carry
  // exactly the net change — which also keeps size() O(1).
  std::vector<Triple> live;
  live.reserve(adds.size());
  for (const Triple& t : adds) {
    if (!ContainsFrozen(t)) live.push_back(t);
  }
  std::vector<Triple> tombstones;
  tombstones.reserve(removes.size());
  for (const Triple& t : removes) {
    if (ContainsFrozen(t)) tombstones.push_back(t);
  }

  if (!live.empty() || !tombstones.empty()) {
    size_ += live.size();
    size_ -= tombstones.size();
    if (segments_.empty()) tombstones.clear();  // nothing older to shadow
    segments_.push_back(std::make_shared<const Segment>(
        std::move(live), std::move(tombstones)));
    ++stats_.segments_frozen;
    MaybeMergeSegments();
  }
  ++stats_.compactions;
}

void TripleStore::MaybeMergeSegments() const {
  // Size-tiered policy: keep entry counts geometrically decreasing
  // newest-to-oldest. Whenever a freeze (or a previous merge) leaves
  // the newest segment at least half its older neighbour, merge the
  // pair; tombstones are garbage-collected when a merge reaches the
  // bottom of the stack. Bounds the stack depth at O(log n) and
  // amortises total merge work to O(n log n) over any op sequence.
  while (segments_.size() >= 2) {
    const size_t k = segments_.size() - 1;
    if (segments_[k - 1]->entry_count() > 2 * segments_[k]->entry_count()) {
      break;
    }
    auto merged = Segment::Merge(*segments_[k - 1], *segments_[k],
                                 /*drop_tombstones=*/k - 1 == 0);
    segments_.pop_back();
    segments_.back() = std::move(merged);
    ++stats_.segment_merges;
    if (segments_.back()->entry_count() == 0) {
      segments_.pop_back();  // adds and removes annihilated completely
    }
  }
}

const std::vector<std::shared_ptr<const Segment>>& TripleStore::segments()
    const {
  Compact();
  return segments_;
}

size_t TripleStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& seg : segments_) bytes += seg->MemoryBytes();
  bytes += (pending_adds_.size() + pending_removes_.size()) * sizeof(Triple);
  return bytes;
}

size_t TripleStore::MemoryBytesDedup(
    std::unordered_set<const void*>& seen) const {
  size_t bytes = 0;
  for (const auto& seg : segments_) {
    if (seen.insert(seg.get()).second) bytes += seg->MemoryBytes();
  }
  bytes += (pending_adds_.size() + pending_removes_.size()) * sizeof(Triple);
  return bytes;
}

bool TripleStore::Contains(const Triple& t) const {
  Compact();
  return ContainsFrozen(t);
}

size_t TripleStore::size() const {
  Compact();
  return size_;
}

void TripleStore::Scan(const TriplePattern& pattern,
                       const std::function<bool(const Triple&)>& fn) const {
  ScanT(pattern, fn);
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ScanT(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::vector<Triple> TripleStore::Difference(const TripleStore& a,
                                            const TripleStore& b) {
  a.Compact();
  b.Compact();
  std::vector<Triple> out;
  detail::EffectiveCursor ca(a.segments_, Triple{0, 0, 0});
  detail::EffectiveCursor cb(b.segments_, Triple{0, 0, 0});
  Triple ta, tb;
  bool ha = ca.Next(&ta);
  bool hb = cb.Next(&tb);
  while (ha) {
    if (!hb || ta < tb) {
      out.push_back(ta);
      ha = ca.Next(&ta);
    } else if (tb < ta) {
      hb = cb.Next(&tb);
    } else {
      ha = ca.Next(&ta);
      hb = cb.Next(&tb);
    }
  }
  return out;
}

}  // namespace evorec::rdf
