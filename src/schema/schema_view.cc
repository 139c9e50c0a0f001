#include "schema/schema_view.h"

#include <algorithm>
#include <array>
#include <tuple>

namespace evorec::schema {

namespace {

using IdPair = std::pair<rdf::TermId, rdf::TermId>;
using RowPair = std::pair<uint32_t, rdf::TermId>;

constexpr uint32_t kNoRow = UINT32_MAX;

/// Dense id → row scratch for the sorted ids in `sorted`, over ids
/// below `bound`.
std::vector<uint32_t> RowsOf(const std::vector<rdf::TermId>& sorted,
                             size_t bound) {
  std::vector<uint32_t> rows(bound, kNoRow);
  for (size_t i = 0; i < sorted.size(); ++i) {
    rows[sorted[i]] = static_cast<uint32_t>(i);
  }
  return rows;
}

std::vector<rdf::TermId> ToVector(std::span<const rdf::TermId> row) {
  return {row.begin(), row.end()};
}

}  // namespace

SchemaView SchemaView::Build(const rdf::KnowledgeBase& kb) {
  const rdf::Vocabulary& voc = kb.vocabulary();

  // One merged SPO scan (a segmented snapshot is never flattened) sorts
  // the triples the view needs into flat lists. Class and property
  // membership depend on the whole store, so everything derived from
  // them is resolved after the scan.
  std::vector<IdPair> typings;         // (s rdf:type o)
  std::vector<IdPair> subclass_edges;  // (s rdfs:subClassOf o)
  std::vector<IdPair> domain_pairs;    // (s rdfs:domain o)
  std::vector<IdPair> range_pairs;     // (s rdfs:range o)
  std::vector<rdf::Triple> instance_edges;  // non-schema predicates
  rdf::TermId max_id = 0;
  kb.store().ScanT(rdf::TriplePattern{}, [&](const rdf::Triple& t) {
    max_id = std::max({max_id, t.subject, t.predicate, t.object});
    if (t.predicate == voc.rdf_type) {
      typings.emplace_back(t.subject, t.object);
    } else if (t.predicate == voc.rdfs_subclass_of) {
      subclass_edges.emplace_back(t.subject, t.object);
    } else if (t.predicate == voc.rdfs_domain) {
      domain_pairs.emplace_back(t.subject, t.object);
    } else if (t.predicate == voc.rdfs_range) {
      range_pairs.emplace_back(t.subject, t.object);
    } else if (!voc.IsSchemaPredicate(t.predicate)) {
      instance_edges.push_back(t);
    }
    return true;
  });

  // Id-indexed scratch is transient and sized from the ids the scan
  // saw — never from the shared, growing dictionary.
  const size_t bound = static_cast<size_t>(max_id) + 1;
  enum : uint8_t { kClass = 1, kProperty = 2 };
  std::vector<uint8_t> role(bound, 0);
  for (const auto& [s, o] : typings) {
    if (o == voc.rdfs_class || o == voc.owl_class) {
      role[s] |= kClass;
    } else if (o == voc.rdf_property) {
      role[s] |= kProperty;
    } else {
      role[o] |= kClass;  // instance typing: the object is a class
    }
  }
  for (const auto& [s, o] : subclass_edges) {
    role[s] |= kClass;
    role[o] |= kClass;
  }
  // Ranges may be datatypes; they are recorded as classes all the same.
  for (const auto* pairs : {&domain_pairs, &range_pairs}) {
    for (const auto& [s, o] : *pairs) {
      role[s] |= kProperty;
      role[o] |= kClass;
    }
  }
  for (const rdf::Triple& t : instance_edges) role[t.predicate] |= kProperty;

  SchemaView view;
  for (size_t id = 0; id < bound; ++id) {
    if (role[id] & kClass) view.classes_.push_back(static_cast<rdf::TermId>(id));
    if (role[id] & kProperty) {
      view.properties_.push_back(static_cast<rdf::TermId>(id));
    }
  }
  const std::vector<uint32_t> class_row = RowsOf(view.classes_, bound);
  const std::vector<uint32_t> property_row = RowsOf(view.properties_, bound);
  const size_t class_count = view.classes_.size();

  view.hierarchy_ =
      ClassHierarchy::FromEdges(std::move(subclass_edges), view.classes_);

  // A typing makes its subject an instance when the object is a class
  // and the subject is not. TypeOf is the first such type in SPO order.
  std::vector<rdf::TermId> type_of(bound, rdf::kAnyTerm);
  std::vector<RowPair> instance_rows;
  instance_rows.reserve(typings.size());
  for (const auto& [s, o] : typings) {
    if (!(role[o] & kClass) || (role[s] & kClass)) continue;
    instance_rows.emplace_back(class_row[o], s);
    if (type_of[s] == rdf::kAnyTerm) {
      type_of[s] = o;
      view.instance_types_.emplace_back(s, o);
    }
  }
  view.instances_ = RowRuns::FromPairs(class_count, instance_rows);

  // Instance-level connection statistics per (property, subject class,
  // object class), counted by sorting row keys.
  std::vector<std::array<uint32_t, 3>> keys;
  keys.reserve(instance_edges.size());
  view.total_connections_.assign(class_count, 0);
  for (const rdf::Triple& t : instance_edges) {
    const rdf::TermId from = type_of[t.subject];
    const rdf::TermId to = type_of[t.object];
    if (from == rdf::kAnyTerm || to == rdf::kAnyTerm) continue;
    const uint32_t a = class_row[from];
    const uint32_t b = class_row[to];
    keys.push_back({property_row[t.predicate], a, b});
    ++view.total_connections_[a];
    if (a != b) ++view.total_connections_[b];
  }
  std::sort(keys.begin(), keys.end());
  std::vector<RowPair> adjacent;
  for (size_t i = 0; i < keys.size();) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    const auto [p, a, b] = keys[i];
    view.connections_.push_back(PropertyConnection{
        view.properties_[p], ClassPair{view.classes_[a], view.classes_[b]},
        j - i});
    if (a != b) {
      adjacent.emplace_back(a, view.classes_[b]);
      adjacent.emplace_back(b, view.classes_[a]);
    }
    i = j;
  }

  // Declared domains/ranges: per-property runs, class→property
  // incidence, and class adjacency for every domain × range pair.
  std::vector<RowPair> domain_rows, range_rows, touching;
  for (const auto& [p, d] : domain_pairs) {
    domain_rows.emplace_back(property_row[p], d);
    touching.emplace_back(class_row[d], p);
  }
  for (const auto& [p, r] : range_pairs) {
    range_rows.emplace_back(property_row[p], r);
    touching.emplace_back(class_row[r], p);
  }
  view.domains_ = RowRuns::FromPairs(view.properties_.size(), domain_rows);
  view.ranges_ = RowRuns::FromPairs(view.properties_.size(), range_rows);
  for (size_t p = 0; p < view.properties_.size(); ++p) {
    for (rdf::TermId d : view.domains_.Row(p)) {
      for (rdf::TermId r : view.ranges_.Row(p)) {
        if (d == r) continue;
        adjacent.emplace_back(class_row[d], r);
        adjacent.emplace_back(class_row[r], d);
      }
    }
  }
  view.property_adjacent_ = RowRuns::FromPairs(class_count, adjacent);
  view.property_adjacent_.SortAndDedupRows();
  view.properties_touching_ = RowRuns::FromPairs(class_count, touching);
  view.properties_touching_.SortAndDedupRows();
  return view;
}

std::vector<rdf::TermId> SchemaView::DomainsOf(rdf::TermId property) const {
  return ToVector(domains_.Row(rdf::SortedIndexOf(properties_, property)));
}

std::vector<rdf::TermId> SchemaView::RangesOf(rdf::TermId property) const {
  return ToVector(ranges_.Row(rdf::SortedIndexOf(properties_, property)));
}

size_t SchemaView::InstanceCount(rdf::TermId cls) const {
  return instances_.Row(rdf::SortedIndexOf(classes_, cls)).size();
}

std::vector<rdf::TermId> SchemaView::InstancesOf(rdf::TermId cls) const {
  return ToVector(instances_.Row(rdf::SortedIndexOf(classes_, cls)));
}

rdf::TermId SchemaView::TypeOf(rdf::TermId instance) const {
  auto it = std::lower_bound(
      instance_types_.begin(), instance_types_.end(), instance,
      [](const auto& entry, rdf::TermId id) { return entry.first < id; });
  if (it == instance_types_.end() || it->first != instance) {
    return rdf::kAnyTerm;
  }
  return it->second;
}

size_t SchemaView::ConnectionCount(rdf::TermId property, rdf::TermId from,
                                   rdf::TermId to) const {
  const auto key = std::make_tuple(property, from, to);
  const auto key_of = [](const PropertyConnection& c) {
    return std::make_tuple(c.property, c.classes.from, c.classes.to);
  };
  auto it = std::lower_bound(
      connections_.begin(), connections_.end(), key,
      [&](const PropertyConnection& c, const auto& k) { return key_of(c) < k; });
  if (it == connections_.end() || key_of(*it) != key) return 0;
  return it->instance_count;
}

size_t SchemaView::TotalConnectionsOf(rdf::TermId cls) const {
  const size_t i = rdf::SortedIndexOf(classes_, cls);
  return i == rdf::kNotInUniverse ? 0 : total_connections_[i];
}

std::vector<rdf::TermId> SchemaView::Neighborhood(rdf::TermId n) const {
  std::vector<rdf::TermId> out;
  for (std::span<const rdf::TermId> part :
       {hierarchy_.Parents(n), hierarchy_.Children(n),
        property_adjacent_.Row(rdf::SortedIndexOf(classes_, n))}) {
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::erase(out, n);
  return out;
}

const std::vector<std::vector<rdf::TermId>>& SchemaView::NeighborhoodLists()
    const {
  NeighborhoodMemo& memo = *neighborhood_memo_;
  std::call_once(memo.once, [&] {
    memo.lists.resize(classes_.size());
    for (size_t i = 0; i < classes_.size(); ++i) {
      memo.lists[i] = Neighborhood(classes_[i]);
    }
  });
  return memo.lists;
}

std::vector<rdf::TermId> SchemaView::PropertyNeighbors(rdf::TermId n) const {
  return ToVector(property_adjacent_.Row(rdf::SortedIndexOf(classes_, n)));
}

std::vector<rdf::TermId> SchemaView::PropertiesTouching(rdf::TermId n) const {
  return ToVector(properties_touching_.Row(rdf::SortedIndexOf(classes_, n)));
}

}  // namespace evorec::schema
