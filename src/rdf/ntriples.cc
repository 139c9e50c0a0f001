#include "rdf/ntriples.h"

#include <string>
#include <vector>

#include "common/strings.h"
#include "rdf/term.h"

namespace evorec::rdf {

namespace {

// Parses a single term starting at `pos` in `line`; advances `pos` past
// the term. Returns false (and fills `error`) on malformed input.
bool ParseTerm(std::string_view line, size_t& pos, Term& out,
               std::string& error) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t')) {
    ++pos;
  }
  if (pos >= line.size()) {
    error = "unexpected end of line";
    return false;
  }
  const char c = line[pos];
  if (c == '<') {
    const size_t end = line.find('>', pos + 1);
    if (end == std::string_view::npos) {
      error = "unterminated IRI";
      return false;
    }
    out = Term::Iri(line.substr(pos + 1, end - pos - 1));
    pos = end + 1;
    return true;
  }
  if (c == '_') {
    if (pos + 1 >= line.size() || line[pos + 1] != ':') {
      error = "malformed blank node";
      return false;
    }
    size_t end = pos + 2;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '.') {
      ++end;
    }
    out = Term::Blank(line.substr(pos + 2, end - pos - 2));
    pos = end;
    return true;
  }
  if (c == '"') {
    // Find the closing unescaped quote.
    size_t end = pos + 1;
    bool escaped = false;
    while (end < line.size()) {
      if (escaped) {
        escaped = false;
      } else if (line[end] == '\\') {
        escaped = true;
      } else if (line[end] == '"') {
        break;
      }
      ++end;
    }
    if (end >= line.size()) {
      error = "unterminated literal";
      return false;
    }
    const std::string value =
        UnescapeNTriples(line.substr(pos + 1, end - pos - 1));
    pos = end + 1;
    std::string datatype;
    std::string language;
    if (pos + 1 < line.size() && line[pos] == '^' && line[pos + 1] == '^') {
      pos += 2;
      if (pos >= line.size() || line[pos] != '<') {
        error = "malformed datatype IRI";
        return false;
      }
      const size_t dt_end = line.find('>', pos + 1);
      if (dt_end == std::string_view::npos) {
        error = "unterminated datatype IRI";
        return false;
      }
      datatype = std::string(line.substr(pos + 1, dt_end - pos - 1));
      pos = dt_end + 1;
    } else if (pos < line.size() && line[pos] == '@') {
      size_t lang_end = pos + 1;
      while (lang_end < line.size() && line[lang_end] != ' ' &&
             line[lang_end] != '\t' && line[lang_end] != '.') {
        ++lang_end;
      }
      language = std::string(line.substr(pos + 1, lang_end - pos - 1));
      pos = lang_end;
    }
    out = Term::Literal(value, datatype, language);
    return true;
  }
  error = "unexpected character '" + std::string(1, c) + "'";
  return false;
}

}  // namespace

Status ParseNTriples(std::string_view text, Dictionary& dictionary,
                     TripleStore& store) {
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

    size_t pos = 0;
    Term s, p, o;
    std::string error;
    if (!ParseTerm(line, pos, s, error) ||
        !ParseTerm(line, pos, p, error) ||
        !ParseTerm(line, pos, o, error)) {
      return InvalidArgumentError("N-Triples line " +
                                  std::to_string(line_number) + ": " + error);
    }
    // Expect terminating '.'.
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
    if (pos >= line.size() || line[pos] != '.') {
      return InvalidArgumentError("N-Triples line " +
                                  std::to_string(line_number) +
                                  ": missing terminating '.'");
    }
    if (s.is_literal()) {
      return InvalidArgumentError("N-Triples line " +
                                  std::to_string(line_number) +
                                  ": literal subject");
    }
    if (!p.is_iri()) {
      return InvalidArgumentError("N-Triples line " +
                                  std::to_string(line_number) +
                                  ": predicate must be an IRI");
    }
    store.Add(Triple(dictionary.Intern(s), dictionary.Intern(p),
                     dictionary.Intern(o)));
  }
  return OkStatus();
}

std::string WriteNTriples(const TripleStore& store,
                          const Dictionary& dictionary) {
  std::string out;
  for (const Triple& t : store.Match({})) {
    out += dictionary.term(t.subject).ToNTriples();
    out += " ";
    out += dictionary.term(t.predicate).ToNTriples();
    out += " ";
    out += dictionary.term(t.object).ToNTriples();
    out += " .\n";
  }
  return out;
}

}  // namespace evorec::rdf
