#include "schema/hierarchy.h"

#include <algorithm>
#include <deque>
#include <limits>

namespace evorec::schema {

RowRuns RowRuns::FromPairs(
    size_t rows, const std::vector<std::pair<uint32_t, rdf::TermId>>& pairs) {
  RowRuns runs;
  runs.offsets.assign(rows + 1, 0);
  for (const auto& [row, value] : pairs) {
    (void)value;
    ++runs.offsets[row + 1];
  }
  for (size_t r = 0; r < rows; ++r) runs.offsets[r + 1] += runs.offsets[r];
  runs.values.resize(pairs.size());
  std::vector<uint32_t> cursor(runs.offsets.begin(), runs.offsets.end() - 1);
  for (const auto& [row, value] : pairs) runs.values[cursor[row]++] = value;
  return runs;
}

void RowRuns::SortAndDedupRows() {
  uint32_t out = 0;
  for (size_t r = 0; r + 1 < offsets.size(); ++r) {
    const auto first = values.begin() + offsets[r];
    const auto last = values.begin() + offsets[r + 1];
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    // Compact left: the destination starts before the row, which a
    // forward copy allows.
    if (out != offsets[r]) std::copy(first, unique_end, values.begin() + out);
    offsets[r] = out;
    out += static_cast<uint32_t>(unique_end - first);
  }
  offsets.back() = out;
  values.resize(out);
}

ClassHierarchy ClassHierarchy::FromEdges(
    std::vector<std::pair<rdf::TermId, rdf::TermId>> child_parent,
    std::vector<rdf::TermId> classes) {
  std::erase_if(child_parent, [](const auto& e) { return e.first == e.second; });
  std::sort(child_parent.begin(), child_parent.end());
  child_parent.erase(std::unique(child_parent.begin(), child_parent.end()),
                     child_parent.end());
  for (const auto& [child, parent] : child_parent) {
    classes.push_back(child);
    classes.push_back(parent);
  }
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());

  ClassHierarchy h;
  h.classes_ = std::move(classes);
  std::vector<std::pair<uint32_t, rdf::TermId>> up, down;
  up.reserve(child_parent.size());
  down.reserve(child_parent.size());
  // Edges are sorted by (child, parent), so the stable grouping leaves
  // every parent run and every child run ascending.
  for (const auto& [child, parent] : child_parent) {
    up.emplace_back(static_cast<uint32_t>(h.IndexOf(child)), parent);
    down.emplace_back(static_cast<uint32_t>(h.IndexOf(parent)), child);
  }
  h.parents_ = RowRuns::FromPairs(h.classes_.size(), up);
  h.children_ = RowRuns::FromPairs(h.classes_.size(), down);
  return h;
}

void ClassHierarchy::AddEdge(rdf::TermId child, rdf::TermId parent) {
  if (child == parent) return;
  auto edges = Edges();
  edges.emplace_back(child, parent);
  *this = FromEdges(std::move(edges), std::move(classes_));
}

void ClassHierarchy::Touch(rdf::TermId cls) {
  if (IndexOf(cls) != rdf::kNotInUniverse) return;
  auto classes = classes_;
  classes.push_back(cls);
  *this = FromEdges(Edges(), std::move(classes));
}

size_t ClassHierarchy::IndexOf(rdf::TermId cls) const {
  return rdf::SortedIndexOf(classes_, cls);
}

std::vector<std::pair<rdf::TermId, rdf::TermId>> ClassHierarchy::Edges()
    const {
  std::vector<std::pair<rdf::TermId, rdf::TermId>> edges;
  edges.reserve(edge_count());
  for (size_t i = 0; i < classes_.size(); ++i) {
    for (rdf::TermId parent : parents_.Row(i)) {
      edges.emplace_back(classes_[i], parent);
    }
  }
  return edges;
}

std::span<const rdf::TermId> ClassHierarchy::Parents(rdf::TermId cls) const {
  return parents_.Row(IndexOf(cls));
}

std::span<const rdf::TermId> ClassHierarchy::Children(rdf::TermId cls) const {
  return children_.Row(IndexOf(cls));
}

std::vector<rdf::TermId> ClassHierarchy::Reach(rdf::TermId start,
                                               const RowRuns& runs) const {
  std::vector<rdf::TermId> out;
  const size_t first = IndexOf(start);
  if (first == rdf::kNotInUniverse) return out;
  std::vector<char> seen(classes_.size(), 0);
  seen[first] = 1;
  std::deque<size_t> queue{first};
  while (!queue.empty()) {
    const size_t node = queue.front();
    queue.pop_front();
    for (rdf::TermId next : runs.Row(node)) {
      const size_t j = IndexOf(next);
      if (j == rdf::kNotInUniverse || seen[j]) continue;
      seen[j] = 1;
      out.push_back(next);
      queue.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<rdf::TermId> ClassHierarchy::Ancestors(rdf::TermId cls) const {
  return Reach(cls, parents_);
}

std::vector<rdf::TermId> ClassHierarchy::Descendants(rdf::TermId cls) const {
  return Reach(cls, children_);
}

bool ClassHierarchy::IsSubclassOf(rdf::TermId cls, rdf::TermId ancestor) const {
  if (cls == ancestor) return true;
  const std::vector<rdf::TermId> ancestors = Ancestors(cls);
  return std::binary_search(ancestors.begin(), ancestors.end(), ancestor);
}

std::vector<rdf::TermId> ClassHierarchy::Roots() const {
  std::vector<rdf::TermId> roots;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (parents_.Row(i).empty()) roots.push_back(classes_[i]);
  }
  return roots;
}

size_t ClassHierarchy::DepthOf(rdf::TermId cls) const {
  // Counts upward BFS levels (each class visited once); hierarchies
  // here are shallow (depth < 20).
  const size_t start = IndexOf(cls);
  if (start == rdf::kNotInUniverse) return 0;
  std::vector<char> seen(classes_.size(), 0);
  seen[start] = 1;
  std::vector<size_t> frontier{start};
  size_t depth = 0;
  while (true) {
    std::vector<size_t> next;
    for (size_t node : frontier) {
      for (rdf::TermId parent : parents_.Row(node)) {
        const size_t j = IndexOf(parent);
        if (!seen[j]) {
          seen[j] = 1;
          next.push_back(j);
        }
      }
    }
    if (next.empty()) break;
    ++depth;
    frontier.swap(next);
  }
  return depth;
}

size_t ClassHierarchy::UndirectedDistance(rdf::TermId a, rdf::TermId b) const {
  if (a == b) return 0;
  const size_t from = IndexOf(a);
  const size_t to = IndexOf(b);
  constexpr size_t kUnreached = std::numeric_limits<size_t>::max();
  if (from == rdf::kNotInUniverse || to == rdf::kNotInUniverse) {
    return kUnreached;
  }
  std::vector<size_t> dist(classes_.size(), kUnreached);
  dist[from] = 0;
  std::deque<size_t> queue{from};
  while (!queue.empty()) {
    const size_t node = queue.front();
    queue.pop_front();
    for (const RowRuns* runs : {&parents_, &children_}) {
      for (rdf::TermId next : runs->Row(node)) {
        const size_t j = IndexOf(next);
        if (j == rdf::kNotInUniverse || dist[j] != kUnreached) continue;
        if (j == to) return dist[node] + 1;
        dist[j] = dist[node] + 1;
        queue.push_back(j);
      }
    }
  }
  return kUnreached;
}

bool ClassHierarchy::IsAcyclic() const {
  // Kahn's algorithm over child→parent edges.
  std::vector<size_t> indegree(classes_.size(), 0);
  for (rdf::TermId parent : parents_.values) ++indegree[IndexOf(parent)];
  std::deque<size_t> queue;
  for (size_t i = 0; i < classes_.size(); ++i) {
    if (indegree[i] == 0) queue.push_back(i);
  }
  size_t processed = 0;
  while (!queue.empty()) {
    const size_t node = queue.front();
    queue.pop_front();
    ++processed;
    for (rdf::TermId parent : parents_.Row(node)) {
      const size_t j = IndexOf(parent);
      if (--indegree[j] == 0) queue.push_back(j);
    }
  }
  return processed == classes_.size();
}

}  // namespace evorec::schema
