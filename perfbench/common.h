// The input set perfbench_gen writes and perfbench_run reads. Everything
// the measured process needs comes from these files: the KB in the
// system's own durable formats (a version-0 snapshot plus a commit log
// holding versions 1..80), the pending ingest commits as encoded
// DeltaRecords, the analyst profiles, the curators' group, the access
// policy and one request list per workload.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "anonymity/access_policy.h"
#include "common/binary_io.h"
#include "common/result.h"
#include "profile/group.h"
#include "profile/profile.h"

namespace perfbench {

using evorec::Result;
using evorec::Status;

// ---- Deployment under test (identical for every workload) ----

struct Deployment {
  /// The KB, the analysts, the curators' group and the access policy are
  /// one fixed deployment; the run's seed drives the request lists and
  /// the ingest commit stream.
  uint64_t scenario_seed = 11;
  size_t classes = 400;
  size_t properties = 60;
  size_t instances = 8000;
  size_t edges = 16000;
  size_t versions = 80;     ///< committed transitions after version 0
  size_t operations = 300;  ///< generator operations per transition
  size_t analysts = 256;
  double zipf_exponent = 1.1;
  size_t engine_threads = 3;
  /// Pending ingest commits; more than any run can land.
  size_t pending_commits = 640;
  /// Requests per read-only workload list (cycled when exhausted).
  size_t feed_requests = 50000;
  size_t explore_requests = 20000;
  /// Analysts reading the new head pair after every ingest commit.
  size_t analysts_per_commit = 10;
};

/// The benchmark deployment, or a tiny one for selftest.py.
inline Deployment DeploymentFor(bool tiny) {
  Deployment d;
  if (tiny) {
    d.classes = 40;
    d.properties = 12;
    d.instances = 300;
    d.edges = 600;
    d.versions = 6;
    d.operations = 30;
    d.analysts = 16;
    d.pending_commits = 60;
    d.feed_requests = 500;
    d.explore_requests = 500;
    d.analysts_per_commit = 3;
  }
  return d;
}

inline constexpr char kSnapshotFile[] = "kb.snap";
inline constexpr char kLogFile[] = "kb.log";
inline constexpr char kPendingFile[] = "pending.log";
inline constexpr char kProfilesFile[] = "profiles.txt";
inline constexpr char kPolicyFile[] = "policy.txt";

inline std::string RequestFile(const std::string& workload) {
  return workload + ".req";
}

// ---- Request lists ----

/// One closed-loop request. `commit` indexes the pending log records.
struct Request {
  enum class Kind { kRead, kGroupRead, kCommit };
  Kind kind = Kind::kRead;
  uint32_t user = 0;
  uint32_t v1 = 0;
  uint32_t v2 = 0;
  uint32_t commit = 0;
};

inline Status WriteRequests(const std::string& path,
                            const std::vector<Request>& requests) {
  std::string out;
  out.reserve(requests.size() * 16);
  for (const Request& r : requests) {
    switch (r.kind) {
      case Request::Kind::kRead:
        out += "r " + std::to_string(r.user) + " " + std::to_string(r.v1) +
               " " + std::to_string(r.v2) + "\n";
        break;
      case Request::Kind::kGroupRead:
        out += "g " + std::to_string(r.v1) + " " + std::to_string(r.v2) + "\n";
        break;
      case Request::Kind::kCommit:
        out += "c " + std::to_string(r.commit) + "\n";
        break;
    }
  }
  return evorec::WriteFileAtomic(path, out);
}

inline Result<std::vector<Request>> ReadRequests(const std::string& path) {
  auto bytes = evorec::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  std::vector<Request> requests;
  std::istringstream in(*bytes);
  std::string kind;
  while (in >> kind) {
    Request r;
    if (kind == "r") {
      r.kind = Request::Kind::kRead;
      in >> r.user >> r.v1 >> r.v2;
    } else if (kind == "g") {
      r.kind = Request::Kind::kGroupRead;
      in >> r.v1 >> r.v2;
    } else if (kind == "c") {
      r.kind = Request::Kind::kCommit;
      in >> r.commit;
    } else {
      return evorec::InvalidArgumentError(path + ": bad request kind '" +
                                          kind + "'");
    }
    if (!in) return evorec::InvalidArgumentError(path + ": truncated line");
    requests.push_back(r);
  }
  return requests;
}

// ---- Profiles: one line per profile, "<kind> <id> <n> (<term> <weight>)*"
// with weights in hex-float so they round-trip exactly. Kind "a" is an
// analyst, "m" a member of the curators' group (group id on a "G" line).

inline void AppendProfile(std::string& out, char kind,
                          const evorec::profile::HumanProfile& prof) {
  out += kind;
  out += " " + prof.id() + " " + std::to_string(prof.interests().size());
  // Sorted so the file is byte-stable across hash-map iteration orders.
  std::vector<std::pair<evorec::rdf::TermId, double>> interests(
      prof.interests().begin(), prof.interests().end());
  std::sort(interests.begin(), interests.end());
  char buf[64];
  for (const auto& [term, weight] : interests) {
    std::snprintf(buf, sizeof(buf), " %u %a", static_cast<unsigned>(term),
                  weight);
    out += buf;
  }
  out += "\n";
}

struct Population {
  std::vector<evorec::profile::HumanProfile> analysts;
  evorec::profile::Group curators;
};

inline Status WritePopulation(const std::string& path,
                              const Population& population) {
  std::string out;
  for (const auto& prof : population.analysts) AppendProfile(out, 'a', prof);
  out += "G " + population.curators.id() + "\n";
  for (const auto& member : population.curators.members()) {
    AppendProfile(out, 'm', member);
  }
  return evorec::WriteFileAtomic(path, out);
}

inline Result<Population> ReadPopulation(const std::string& path) {
  auto bytes = evorec::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  Population population;
  std::istringstream in(*bytes);
  std::string kind;
  while (in >> kind) {
    std::string id;
    in >> id;
    if (kind == "G") {
      population.curators = evorec::profile::Group(id);
      continue;
    }
    size_t n = 0;
    in >> n;
    evorec::profile::HumanProfile prof(id);
    for (size_t i = 0; i < n; ++i) {
      unsigned term = 0;
      std::string weight;
      in >> term >> weight;
      prof.SetInterest(term, std::strtod(weight.c_str(), nullptr));
    }
    if (!in) return evorec::InvalidArgumentError(path + ": truncated profile");
    if (kind == "a") {
      population.analysts.push_back(std::move(prof));
    } else if (kind == "m") {
      population.curators.AddMember(std::move(prof));
    } else {
      return evorec::InvalidArgumentError(path + ": bad profile kind");
    }
  }
  return population;
}

// ---- Access policy: sensitive class ids, then agents granted everything.

inline Status WritePolicy(const std::string& path,
                          const std::vector<evorec::rdf::TermId>& sensitive,
                          const std::vector<std::string>& grant_all) {
  std::ostringstream out;
  out << "sensitive " << sensitive.size();
  for (evorec::rdf::TermId t : sensitive) out << ' ' << t;
  out << "\ngrant_all " << grant_all.size();
  for (const std::string& agent : grant_all) out << ' ' << agent;
  out << '\n';
  return evorec::WriteFileAtomic(path, out.str());
}

inline Result<evorec::anonymity::AccessPolicy> ReadPolicy(
    const std::string& path) {
  auto bytes = evorec::ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  evorec::anonymity::AccessPolicy policy;
  std::istringstream in(*bytes);
  std::string tag;
  size_t n = 0;
  in >> tag >> n;
  for (size_t i = 0; i < n && in; ++i) {
    unsigned term = 0;
    in >> term;
    policy.MarkSensitive(term);
  }
  in >> tag >> n;
  for (size_t i = 0; i < n && in; ++i) {
    std::string agent;
    in >> agent;
    policy.GrantAll(agent);
  }
  if (!in) return evorec::InvalidArgumentError(path + ": truncated policy");
  return policy;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
