#include "delta/delta_io.h"

#include <algorithm>

#include "common/strings.h"
#include "rdf/ntriples.h"
#include "rdf/triple_store.h"

namespace evorec::delta {

std::string WriteChangeSet(const version::ChangeSet& changes,
                           const rdf::Dictionary& dictionary) {
  std::string out;
  auto emit = [&](char op, const rdf::Triple& t) {
    out += op;
    out += ' ';
    out += dictionary.term(t.subject).ToNTriples();
    out += ' ';
    out += dictionary.term(t.predicate).ToNTriples();
    out += ' ';
    out += dictionary.term(t.object).ToNTriples();
    out += " .\n";
  };
  for (const rdf::Triple& t : changes.additions) emit('A', t);
  for (const rdf::Triple& t : changes.removals) emit('D', t);
  return out;
}

Result<version::ChangeSet> ParseChangeSet(std::string_view text,
                                          rdf::Dictionary& dictionary) {
  version::ChangeSet changes;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = (nl == std::string_view::npos)
                                ? text.substr(start)
                                : text.substr(start, nl - start);
    ++line_number;
    start = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;

    line = StripWhitespace(line);
    if (line.empty() || line[0] == '#') continue;
    if (line.size() < 2 || (line[0] != 'A' && line[0] != 'D') ||
        (line[1] != ' ' && line[1] != '\t')) {
      return InvalidArgumentError(
          "change-set line " + std::to_string(line_number) +
          ": expected 'A ' or 'D ' prefix");
    }
    const char op = line[0];
    // Reuse the N-Triples parser on the statement remainder.
    rdf::TripleStore scratch;
    Status parsed =
        rdf::ParseNTriples(line.substr(2), dictionary, scratch);
    if (!parsed.ok()) {
      return InvalidArgumentError("change-set line " +
                                  std::to_string(line_number) + ": " +
                                  parsed.message());
    }
    if (scratch.size() != 1) {
      return InvalidArgumentError(
          "change-set line " + std::to_string(line_number) +
          ": expected exactly one statement");
    }
    const rdf::Triple t = scratch.Match({})[0];
    if (op == 'A') {
      changes.additions.push_back(t);
    } else {
      changes.removals.push_back(t);
    }
  }
  std::sort(changes.additions.begin(), changes.additions.end());
  std::sort(changes.removals.begin(), changes.removals.end());
  return changes;
}

}  // namespace evorec::delta
