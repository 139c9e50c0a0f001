#ifndef EVOREC_PROFILE_GROUP_H_
#define EVOREC_PROFILE_GROUP_H_

#include <string>
#include <vector>

#include "profile/profile.h"

namespace evorec::profile {

/// A group of humans receiving one shared recommendation package
/// (paper §III.d): a curators' team, a family, a research group.
class Group {
 public:
  Group() = default;
  explicit Group(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  /// Adds a member (profiles are copied in; groups own their view of
  /// the members).
  void AddMember(HumanProfile member);

  const std::vector<HumanProfile>& members() const { return members_; }
  size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

  /// Records `terms` as seen by every member (novelty bookkeeping
  /// after a group recommendation is delivered).
  void RecordSeen(const std::vector<rdf::TermId>& terms);

  /// Mean pairwise interest similarity — the group's cohesion. 1.0 for
  /// groups of fewer than two members.
  double Cohesion() const;

 private:
  std::string id_;
  std::vector<HumanProfile> members_;
};

}  // namespace evorec::profile

#endif  // EVOREC_PROFILE_GROUP_H_
