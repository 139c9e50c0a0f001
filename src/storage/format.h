#ifndef EVOREC_STORAGE_FORMAT_H_
#define EVOREC_STORAGE_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "rdf/term.h"
#include "rdf/triple.h"

namespace evorec::storage {

/// Shared constants and sub-codecs of the on-disk formats. The
/// byte-level contract lives in docs/STORAGE.md; this header is the
/// single place the magic numbers and version floors are defined.

/// Snapshot file magic: ASCII "EVORECS1" (S = snapshot, 1 = era).
inline constexpr char kSnapshotMagic[8] = {'E', 'V', 'O', 'R',
                                           'E', 'C', 'S', '1'};
/// Commit-log file magic: ASCII "EVORECL1" (L = log).
inline constexpr char kLogMagic[8] = {'E', 'V', 'O', 'R',
                                      'E', 'C', 'L', '1'};
/// Per-record sync marker inside a commit log ("RECL" little-endian).
inline constexpr uint32_t kRecordMagic = 0x4C434552;

/// Current format version of both containers. Readers accept exactly
/// this version; see docs/STORAGE.md § Versioning for the compat
/// rules (bump on any incompatible layout change).
inline constexpr uint32_t kFormatVersion = 1;

/// Section ids inside a snapshot.
inline constexpr uint32_t kSectionTerms = 1;
inline constexpr uint32_t kSectionTriples = 2;

/// Appends one term: kind byte, length-prefixed lexical, and (for
/// literals) length-prefixed datatype + language.
void EncodeTerm(std::string& out, const rdf::Term& term);

/// Decodes one term; false on truncated/invalid input (bad kind byte).
bool DecodeTerm(ByteReader& reader, rdf::Term* term);

/// Appends `triples` delta-encoded against the running previous
/// triple (starting from (0,0,0)): varint Δs when the sequence is
/// sorted-ascending (`sorted` = true, snapshot SPO runs), zig-zag Δs
/// otherwise (commit-log records, which must preserve the caller's
/// order); Δp and Δo are always zig-zag. See docs/STORAGE.md.
void EncodeTripleRun(std::string& out, const std::vector<rdf::Triple>& triples,
                     bool sorted);

/// Decodes `count` triples. With `sorted`, enforces strictly
/// ascending SPO order (rejects corrupt runs); ids must fit TermId.
/// False on any violation.
bool DecodeTripleRun(ByteReader& reader, uint64_t count, bool sorted,
                     std::vector<rdf::Triple>* out);

}  // namespace evorec::storage

#endif  // EVOREC_STORAGE_FORMAT_H_
