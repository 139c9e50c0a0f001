#ifndef EVOREC_ANONYMITY_ACCESS_POLICY_H_
#define EVOREC_ANONYMITY_ACCESS_POLICY_H_

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "measures/report.h"
#include "rdf/term.h"

namespace evorec::anonymity {

/// Strict access rules over sensitive KB regions (paper §III.e:
/// "strict rules prohibiting reach such data should apply"). Terms
/// marked sensitive are visible only to agents explicitly granted
/// access; everything else is public.
class AccessPolicy {
 public:
  AccessPolicy() = default;

  /// Marks `term` as sensitive (deny-by-default).
  void MarkSensitive(rdf::TermId term);

  /// Grants `agent` access to `term`.
  void Grant(const std::string& agent, rdf::TermId term);

  /// Grants `agent` access to every sensitive term (e.g. a data
  /// protection officer).
  void GrantAll(const std::string& agent);

  /// True iff `term` is marked sensitive.
  bool IsSensitive(rdf::TermId term) const;

  /// OK when `agent` may see `term`; PermissionDenied otherwise.
  Status CheckAccess(const std::string& agent, rdf::TermId term) const;

  /// Copy of `report` with the terms `agent` may not see removed.
  /// `redacted_out` (optional) receives the number of removed entries.
  /// Resolves the agent's grants once per report; the per-term check
  /// allocates nothing.
  measures::MeasureReport FilterReport(const std::string& agent,
                                       const measures::MeasureReport& report,
                                       size_t* redacted_out = nullptr) const;

  size_t sensitive_count() const { return sensitive_.size(); }

 private:
  /// One agent's grants, resolved once.
  struct AgentGrants {
    bool all = false;
    const std::unordered_set<rdf::TermId>* terms = nullptr;
  };

  AgentGrants GrantsOf(const std::string& agent) const;

  /// True when an agent holding `grants` may see `term`.
  bool Visible(const AgentGrants& grants, rdf::TermId term) const;

  std::unordered_set<rdf::TermId> sensitive_;
  std::unordered_map<std::string, std::unordered_set<rdf::TermId>> grants_;
  std::unordered_set<std::string> grant_all_;
};

}  // namespace evorec::anonymity

#endif  // EVOREC_ANONYMITY_ACCESS_POLICY_H_
