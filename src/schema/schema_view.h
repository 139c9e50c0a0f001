#ifndef EVOREC_SCHEMA_SCHEMA_VIEW_H_
#define EVOREC_SCHEMA_SCHEMA_VIEW_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "rdf/knowledge_base.h"
#include "schema/hierarchy.h"

namespace evorec::schema {

/// Key for class-pair statistics (ordered pair: subject class, object
/// class).
struct ClassPair {
  rdf::TermId from = rdf::kAnyTerm;
  rdf::TermId to = rdf::kAnyTerm;
  friend bool operator==(const ClassPair&, const ClassPair&) = default;
};

/// Connection statistics of one property between one class pair —
/// the raw input to relative cardinality (paper §II.d).
struct PropertyConnection {
  rdf::TermId property = rdf::kAnyTerm;
  ClassPair classes;
  /// Number of instance-level edges (x p y) with x ∈ classes.from and
  /// y ∈ classes.to.
  size_t instance_count = 0;
};

/// A derived, read-only view over one KB snapshot exposing exactly the
/// schema-level structures the evolution measures need:
///   - the class set and subsumption hierarchy,
///   - the property set with declared domains/ranges,
///   - per-class instance counts,
///   - instance-level connection counts per (property, class-pair),
///   - per-class total instance-connection counts,
///   - class neighborhoods N(n) (subsumption- or property-adjacent,
///     paper §II.b).
///
/// Construction is one merged SPO scan of the snapshot into flat
/// tables: sorted id vectors plus per-class and per-property RowRuns
/// (compressed sparse rows), no hash containers. Id-indexed scratch
/// during the build is transient and sized from the largest id the
/// scan sees, never from the shared (growing) dictionary. The view
/// holds no reference to the KB afterwards except the dictionary ids.
class SchemaView {
 public:
  /// Extracts the view from `kb`.
  static SchemaView Build(const rdf::KnowledgeBase& kb);

  /// Sorted ids of all classes (declared or inferred from usage).
  const std::vector<rdf::TermId>& classes() const { return classes_; }

  /// Sorted ids of all properties (declared rdf:Property or used as a
  /// non-schema predicate).
  const std::vector<rdf::TermId>& properties() const { return properties_; }

  /// True iff `id` is in classes().
  bool IsClass(rdf::TermId id) const {
    return rdf::SortedIndexOf(classes_, id) != rdf::kNotInUniverse;
  }

  /// True iff `id` is in properties().
  bool IsProperty(rdf::TermId id) const {
    return rdf::SortedIndexOf(properties_, id) != rdf::kNotInUniverse;
  }

  /// The subsumption hierarchy.
  const ClassHierarchy& hierarchy() const { return hierarchy_; }

  /// Declared domains of `property` (may be empty).
  std::vector<rdf::TermId> DomainsOf(rdf::TermId property) const;

  /// Declared ranges of `property` (may be empty).
  std::vector<rdf::TermId> RangesOf(rdf::TermId property) const;

  /// Number of direct instances of `cls` (rdf:type assertions).
  size_t InstanceCount(rdf::TermId cls) const;

  /// Direct instances of `cls`.
  std::vector<rdf::TermId> InstancesOf(rdf::TermId cls) const;

  /// First declared type of instance `x`, or kAnyTerm.
  rdf::TermId TypeOf(rdf::TermId instance) const;

  /// All (property, class-pair) connection statistics.
  const std::vector<PropertyConnection>& connections() const {
    return connections_;
  }

  /// Number of instance edges (x p y) with x ∈ from, y ∈ to, for
  /// `property`; 0 when unseen.
  size_t ConnectionCount(rdf::TermId property, rdf::TermId from,
                         rdf::TermId to) const;

  /// Total instance-level connections incident to instances of `cls`
  /// (incoming + outgoing, all properties). The denominator of
  /// relative cardinality.
  size_t TotalConnectionsOf(rdf::TermId cls) const;

  /// The neighborhood N(n) of class `n` in this snapshot: classes
  /// related to `n` by a subsumption edge (either direction) or
  /// connected to `n` through a property whose domain/range pair links
  /// them (paper §II.b). Sorted, excludes `n`.
  std::vector<rdf::TermId> Neighborhood(rdf::TermId n) const;

  /// All class neighborhoods at once, memoized: lists()[i] equals
  /// Neighborhood(classes()[i]). The scan runs once per view
  /// (thread-safe) and the memo is shared by every copy, so the many
  /// version *pairs* that include one version — a timeline chain walk,
  /// or consecutive incremental refreshes sharing views through the
  /// engine's artefact cache — pay for the version's neighborhood
  /// extraction exactly once instead of once per pair.
  const std::vector<std::vector<rdf::TermId>>& NeighborhoodLists() const;

  /// Classes adjacent to `n` through a property: a declared
  /// domain/range pair or an observed instance connection. Sorted,
  /// excludes `n`.
  std::vector<rdf::TermId> PropertyNeighbors(rdf::TermId n) const;

  /// Properties whose declared domain or range is `n`.
  std::vector<rdf::TermId> PropertiesTouching(rdf::TermId n) const;

 private:
  std::vector<rdf::TermId> classes_;
  std::vector<rdf::TermId> properties_;
  ClassHierarchy hierarchy_;
  // Rows aligned to properties_.
  RowRuns domains_;
  RowRuns ranges_;
  // Rows aligned to classes_.
  RowRuns instances_;
  RowRuns property_adjacent_;  // sorted, excludes the class itself
  RowRuns properties_touching_;
  std::vector<size_t> total_connections_;
  // (instance, first type), sorted by instance.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> instance_types_;
  std::vector<PropertyConnection> connections_;
  // Lazily filled per-class neighborhood memo, shared between copies.
  struct NeighborhoodMemo {
    std::once_flag once;
    std::vector<std::vector<rdf::TermId>> lists;
  };
  std::shared_ptr<NeighborhoodMemo> neighborhood_memo_ =
      std::make_shared<NeighborhoodMemo>();
};

}  // namespace evorec::schema

#endif  // EVOREC_SCHEMA_SCHEMA_VIEW_H_
