#include "anonymity/generalization.h"

#include <algorithm>

namespace evorec::anonymity {

void ValueHierarchy::AddParent(const std::string& value,
                               const std::string& parent) {
  if (value == parent || value == kRoot) return;
  parent_[value] = parent;
}

ValueHierarchy ValueHierarchy::FromClassHierarchy(
    const schema::ClassHierarchy& hierarchy,
    const rdf::Dictionary& dictionary) {
  ValueHierarchy vh;
  for (rdf::TermId cls : hierarchy.AllClasses()) {
    const auto parents = hierarchy.Parents(cls);
    if (parents.empty()) continue;
    const rdf::TermId parent =
        *std::min_element(parents.begin(), parents.end());
    vh.AddParent(dictionary.term(cls).lexical,
                 dictionary.term(parent).lexical);
  }
  return vh;
}

std::string ValueHierarchy::Generalize(const std::string& value,
                                       size_t steps) const {
  std::string current = value;
  for (size_t i = 0; i < steps; ++i) {
    if (current == kRoot) break;
    auto it = parent_.find(current);
    current = it == parent_.end() ? std::string(kRoot) : it->second;
  }
  return current;
}

size_t ValueHierarchy::HeightOf(const std::string& value) const {
  size_t height = 0;
  std::string current = value;
  while (current != kRoot) {
    auto it = parent_.find(current);
    current = it == parent_.end() ? std::string(kRoot) : it->second;
    ++height;
    if (height > parent_.size() + 1) break;  // cycle guard
  }
  return height;
}

size_t ValueHierarchy::MaxHeight() const {
  size_t max_height = 1;
  for (const auto& [value, parent] : parent_) {
    (void)parent;
    max_height = std::max(max_height, HeightOf(value));
  }
  return max_height;
}

}  // namespace evorec::anonymity
