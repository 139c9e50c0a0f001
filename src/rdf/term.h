#ifndef EVOREC_RDF_TERM_H_
#define EVOREC_RDF_TERM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace evorec::rdf {

/// Dense identifier assigned by a Dictionary to an interned Term.
using TermId = uint32_t;

/// Sentinel meaning "no term" / "any term" (pattern wildcard).
inline constexpr TermId kAnyTerm = UINT32_MAX;

/// Sentinel returned by SortedIndexOf for ids outside the universe.
inline constexpr size_t kNotInUniverse = SIZE_MAX;

/// Position of `id` in the sorted id list `universe`, or
/// kNotInUniverse. The dense-id primitive of the flat measure kernels:
/// sorted term universes (union classes/properties, a view's classes)
/// double as contiguous index spaces, so per-term scores live in plain
/// vectors instead of hash maps.
inline size_t SortedIndexOf(std::span<const TermId> universe, TermId id) {
  if (universe.empty()) return kNotInUniverse;
  // Branchless lower bound: the halving step compiles to a conditional
  // move, so a lookup pays no branch mispredictions — on a few hundred
  // ids about as fast as a hash probe, where std::lower_bound is ~5×
  // slower.
  const TermId* base = universe.data();
  for (size_t n = universe.size(); n > 1; n -= n / 2) {
    base = base[n / 2] < id ? base + n / 2 : base;
  }
  base += *base < id;
  const size_t i = static_cast<size_t>(base - universe.data());
  return i < universe.size() && *base == id ? i : kNotInUniverse;
}

/// RDF term kinds. Blank nodes are carried with a local label; literal
/// language tags and datatypes are kept verbatim.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

/// An RDF term value. Terms are immutable once interned into a
/// Dictionary; the struct itself is a plain value type.
struct Term {
  TermKind kind = TermKind::kIri;
  /// IRI string, literal lexical form, or blank node label.
  std::string lexical;
  /// Datatype IRI for typed literals; empty otherwise.
  std::string datatype;
  /// Language tag for language-tagged literals; empty otherwise.
  std::string language;

  /// Factory for an IRI term.
  static Term Iri(std::string_view iri);
  /// Factory for a plain / typed / language-tagged literal.
  static Term Literal(std::string_view value, std::string_view datatype = "",
                      std::string_view language = "");
  /// Factory for a blank node with a local label.
  static Term Blank(std::string_view label);

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  /// Canonical N-Triples serialisation; also the dictionary
  /// deduplication key.
  std::string ToNTriples() const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind == b.kind && a.lexical == b.lexical &&
           a.datatype == b.datatype && a.language == b.language;
  }
};

}  // namespace evorec::rdf

#endif  // EVOREC_RDF_TERM_H_
