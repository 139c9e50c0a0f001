#include "anonymity/access_policy.h"

namespace evorec::anonymity {

void AccessPolicy::MarkSensitive(rdf::TermId term) {
  sensitive_.insert(term);
}

void AccessPolicy::Grant(const std::string& agent, rdf::TermId term) {
  grants_[agent].insert(term);
}

void AccessPolicy::GrantAll(const std::string& agent) {
  grant_all_.insert(agent);
}

bool AccessPolicy::IsSensitive(rdf::TermId term) const {
  return sensitive_.count(term) > 0;
}

AccessPolicy::AgentGrants AccessPolicy::GrantsOf(
    const std::string& agent) const {
  AgentGrants grants;
  grants.all = grant_all_.count(agent) > 0;
  if (auto it = grants_.find(agent); it != grants_.end()) {
    grants.terms = &it->second;
  }
  return grants;
}

bool AccessPolicy::Visible(const AgentGrants& grants, rdf::TermId term) const {
  return !IsSensitive(term) || grants.all ||
         (grants.terms != nullptr && grants.terms->count(term) > 0);
}

Status AccessPolicy::CheckAccess(const std::string& agent,
                                 rdf::TermId term) const {
  if (Visible(GrantsOf(agent), term)) return OkStatus();
  return PermissionDeniedError("agent '" + agent +
                               "' may not access sensitive term " +
                               std::to_string(term));
}

measures::MeasureReport AccessPolicy::FilterReport(
    const std::string& agent, const measures::MeasureReport& report,
    size_t* redacted_out) const {
  const AgentGrants grants = GrantsOf(agent);
  measures::MeasureReport filtered;
  size_t redacted = 0;
  for (const measures::ScoredTerm& s : report.scores()) {
    if (Visible(grants, s.term)) {
      filtered.Add(s.term, s.score);
    } else {
      ++redacted;
    }
  }
  if (redacted_out != nullptr) *redacted_out = redacted;
  return filtered;
}

}  // namespace evorec::anonymity
