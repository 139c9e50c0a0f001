#ifndef EVOREC_SCHEMA_HIERARCHY_H_
#define EVOREC_SCHEMA_HIERARCHY_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rdf/term.h"

namespace evorec::schema {

/// Per-row id lists in compressed-sparse-row form: row i holds
/// values[offsets[i], offsets[i+1]). Rows are dense indices into a
/// sorted id list kept beside the runs — the flat layout of the
/// per-class and per-property tables of ClassHierarchy and SchemaView.
struct RowRuns {
  std::vector<uint32_t> offsets = {0};
  std::vector<rdf::TermId> values;

  /// The values of `row`; empty for rows past the end (including
  /// rdf::kNotInUniverse).
  std::span<const rdf::TermId> Row(size_t row) const {
    if (offsets.empty() || row >= offsets.size() - 1) return {};
    return {values.data() + offsets[row], values.data() + offsets[row + 1]};
  }

  /// Groups (row, value) pairs into `rows` rows by a stable counting
  /// sort: each row keeps its values in input order.
  static RowRuns FromPairs(
      size_t rows, const std::vector<std::pair<uint32_t, rdf::TermId>>& pairs);

  /// Sorts every row and drops duplicate values within it.
  void SortAndDedupRows();
};

/// The subsumption DAG of a snapshot (rdfs:subClassOf edges), with
/// reachability and depth utilities. Consumed by:
///  - interest propagation in the relatedness scorer (interests flow to
///    sub/superclasses with decay),
///  - generalisation hierarchies for k-anonymity,
///  - semantic diversity distances (hierarchy distance between foci).
///
/// Flat storage: the sorted class list plus parent and child runs per
/// class (RowRuns), each run sorted ascending.
class ClassHierarchy {
 public:
  ClassHierarchy() = default;

  /// Builds from explicit child→parent edges in one pass. Self-edges
  /// and duplicates are ignored; `classes` registers further classes
  /// without edges (as Touch does).
  static ClassHierarchy FromEdges(
      std::vector<std::pair<rdf::TermId, rdf::TermId>> child_parent,
      std::vector<rdf::TermId> classes = {});

  /// Adds one subclass edge (child rdfs:subClassOf parent). Rebuilds
  /// the flat arrays, O(classes + edges): for hand-built hierarchies —
  /// bulk builders use FromEdges.
  void AddEdge(rdf::TermId child, rdf::TermId parent);

  /// Direct superclasses of `cls`, ascending (empty when unknown).
  std::span<const rdf::TermId> Parents(rdf::TermId cls) const;

  /// Direct subclasses of `cls`, ascending (empty when unknown).
  std::span<const rdf::TermId> Children(rdf::TermId cls) const;

  /// All transitive superclasses (not including `cls` itself).
  std::vector<rdf::TermId> Ancestors(rdf::TermId cls) const;

  /// All transitive subclasses (not including `cls` itself).
  std::vector<rdf::TermId> Descendants(rdf::TermId cls) const;

  /// True iff `cls` ⊑ `ancestor` (transitively, reflexively).
  bool IsSubclassOf(rdf::TermId cls, rdf::TermId ancestor) const;

  /// Classes with no parents (among classes that appear in any edge or
  /// were registered via Touch).
  std::vector<rdf::TermId> Roots() const;

  /// Length of the longest upward path from `cls` to a root; 0 for
  /// roots and unknown classes.
  size_t DepthOf(rdf::TermId cls) const;

  /// Shortest undirected distance between two classes through
  /// subsumption edges; returns SIZE_MAX when disconnected.
  size_t UndirectedDistance(rdf::TermId a, rdf::TermId b) const;

  /// Registers a class with no edges (so it appears in Roots()).
  /// Rebuilds like AddEdge.
  void Touch(rdf::TermId cls);

  /// True iff the subsumption relation is cycle-free.
  bool IsAcyclic() const;

  /// All registered classes (sorted).
  const std::vector<rdf::TermId>& AllClasses() const { return classes_; }

  size_t edge_count() const { return parents_.values.size(); }

 private:
  /// Position of `cls` in classes_, or rdf::kNotInUniverse.
  size_t IndexOf(rdf::TermId cls) const;

  /// Every edge as (child, parent), sorted.
  std::vector<std::pair<rdf::TermId, rdf::TermId>> Edges() const;

  /// Sorted transitive closure of `start` over `runs` (not including
  /// `start`).
  std::vector<rdf::TermId> Reach(rdf::TermId start,
                                 const RowRuns& runs) const;

  std::vector<rdf::TermId> classes_;
  RowRuns parents_;   // row i: parents of classes_[i]
  RowRuns children_;  // row i: children of classes_[i]
};

}  // namespace evorec::schema

#endif  // EVOREC_SCHEMA_HIERARCHY_H_
