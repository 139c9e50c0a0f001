#include "delta/low_level_delta.h"

#include <algorithm>

#include "version/versioned_kb.h"

namespace evorec::delta {

LowLevelDelta ComputeLowLevelDelta(const rdf::KnowledgeBase& before,
                                   const rdf::KnowledgeBase& after) {
  LowLevelDelta delta;
  delta.added = rdf::TripleStore::Difference(after.store(), before.store());
  delta.removed = rdf::TripleStore::Difference(before.store(), after.store());
  return delta;
}

LowLevelDelta DeltaFromCandidates(const rdf::KnowledgeBase& before,
                                  const version::ChangeSet& changes) {
  version::ChangeSet net = version::NetChanges(before, changes);
  LowLevelDelta delta;
  delta.added = std::move(net.additions);
  delta.removed = std::move(net.removals);
  return delta;
}

namespace {

void AccumulateTriple(const rdf::Triple& t,
                      std::unordered_map<rdf::TermId, size_t>& counts) {
  ++counts[t.subject];
  if (t.predicate != t.subject) ++counts[t.predicate];
  if (t.object != t.subject && t.object != t.predicate) ++counts[t.object];
}

}  // namespace

std::unordered_map<rdf::TermId, size_t> PerTermChangeCounts(
    const LowLevelDelta& delta) {
  std::unordered_map<rdf::TermId, size_t> counts;
  for (const rdf::Triple& t : delta.added) AccumulateTriple(t, counts);
  for (const rdf::Triple& t : delta.removed) AccumulateTriple(t, counts);
  return counts;
}

size_t ChangesInvolving(const LowLevelDelta& delta, rdf::TermId term) {
  size_t count = 0;
  auto involves = [term](const rdf::Triple& t) {
    return t.subject == term || t.predicate == term || t.object == term;
  };
  for (const rdf::Triple& t : delta.added) {
    if (involves(t)) ++count;
  }
  for (const rdf::Triple& t : delta.removed) {
    if (involves(t)) ++count;
  }
  return count;
}

}  // namespace evorec::delta
