// perfbench_gen: builds one seed's benchmark inputs outside the measured
// process.
//
//   perfbench_gen --seed N --out DIR [--tiny]
//
// Writes the clinical KB as a version-0 snapshot plus a commit log of
// versions 1..V (the system's own durable formats), the pending ingest
// commits as a second commit log, the analyst population, the curators'
// group, the access policy and one request list per workload. The same
// seed always yields byte-identical files.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "storage/commit_log.h"
#include "version/recovery.h"
#include "workload/profile_generator.h"
#include "workload/scenarios.h"
#include "workload/stream_generator.h"

namespace perfbench {
namespace {

using evorec::version::VersionId;

int Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench_gen: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  return 1;
}

std::vector<Request> FeedRequests(const Deployment& d, evorec::Rng& rng) {
  std::vector<Request> out(d.feed_requests);
  for (Request& r : out) {
    r.user = static_cast<uint32_t>(rng.Zipf(d.analysts, d.zipf_exponent));
    r.v1 = static_cast<uint32_t>(d.versions - 1);
    r.v2 = static_cast<uint32_t>(d.versions);
  }
  return out;
}

std::vector<Request> ExploreRequests(const Deployment& d, evorec::Rng& rng) {
  std::vector<Request> out(d.explore_requests);
  for (Request& r : out) {
    r.user = static_cast<uint32_t>(rng.Zipf(d.analysts, d.zipf_exponent));
    r.v1 = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(d.versions) - 1));
    r.v2 = r.v1 + 1;
  }
  return out;
}

// Commit k lands version V+k+1; the curators' group and a few analysts
// then read the new head pair.
std::vector<Request> IngestRequests(const Deployment& d, evorec::Rng& rng) {
  std::vector<Request> out;
  out.reserve(d.pending_commits * (2 + d.analysts_per_commit));
  for (size_t k = 0; k < d.pending_commits; ++k) {
    Request commit;
    commit.kind = Request::Kind::kCommit;
    commit.commit = static_cast<uint32_t>(k);
    out.push_back(commit);
    Request group;
    group.kind = Request::Kind::kGroupRead;
    group.v1 = static_cast<uint32_t>(d.versions + k);
    group.v2 = group.v1 + 1;
    out.push_back(group);
    for (size_t i = 0; i < d.analysts_per_commit; ++i) {
      Request read = group;
      read.kind = Request::Kind::kRead;
      read.user = static_cast<uint32_t>(rng.Zipf(d.analysts, d.zipf_exponent));
      out.push_back(read);
    }
  }
  return out;
}

int Generate(uint64_t seed, const std::string& dir, bool tiny) {
  const auto start = std::chrono::steady_clock::now();
  const Deployment d = DeploymentFor(tiny);
  evorec::workload::ScenarioScale scale;
  scale.classes = d.classes;
  scale.properties = d.properties;
  scale.instances = d.instances;
  scale.edges = d.edges;
  scale.versions = d.versions;
  scale.operations = d.operations;
  evorec::workload::Scenario scenario =
      evorec::workload::MakeClinicalKb(d.scenario_seed, scale);

  // The ingest stream: small commits on top of the head. Generating it
  // interns the stream's fresh IRIs, so the snapshot written below
  // already holds every term any later commit references.
  evorec::workload::StreamOptions stream_options;
  stream_options.mode = evorec::workload::StreamMode::kBurstyCommits;
  stream_options.reads = 0;
  stream_options.commits = d.pending_commits;
  stream_options.population = 1;  // analysts come from the deployment
  stream_options.ops_per_commit = 2;
  stream_options.seed = seed * 7919 + 17;
  evorec::workload::WorkloadStream stream =
      evorec::workload::GenerateStream(scenario, stream_options);

  const std::string snap_path = dir + "/" + kSnapshotFile;
  if (Status s = evorec::version::SaveVersionSnapshot(*scenario.vkb, 0,
                                                      snap_path);
      !s.ok()) {
    return Fail("snapshot", s);
  }

  // Re-commit the history through a KB recovered from that snapshot
  // with a log attached: the log records are exactly what a live
  // deployment would have written, fingerprints included.
  evorec::version::RecoveryOptions recovery;
  recovery.policy = evorec::version::ArchivePolicy::kDeltaChain;
  auto replica = evorec::version::RecoverFromDisk(snap_path, "", recovery);
  if (!replica.ok()) return Fail("replica", replica.status());
  evorec::version::VersionedKnowledgeBase& vkb = *replica->vkb;

  auto log = evorec::storage::CommitLog::Open(dir + "/" + kLogFile);
  if (!log.ok()) return Fail("log", log.status());
  vkb.AttachCommitLog(&*log);
  for (VersionId v = 1; v <= d.versions; ++v) {
    auto changes = scenario.vkb->Changes(v);
    auto info = scenario.vkb->Info(v);
    if (!changes.ok()) return Fail("history", changes.status());
    if (!info.ok()) return Fail("history", info.status());
    auto committed = vkb.Commit(std::move(*changes), info->author,
                                info->message, info->timestamp);
    if (!committed.ok()) return Fail("history commit", committed.status());
    if (vkb.Handle(v)->fingerprint != scenario.vkb->Handle(v)->fingerprint) {
      return Fail("history", evorec::InternalError(
                                 "replayed fingerprint diverges at v" +
                                 std::to_string(v)));
    }
  }
  vkb.DetachCommitLog();
  if (Status s = log->Close(); !s.ok()) return Fail("log close", s);

  auto pending = evorec::storage::CommitLog::Open(dir + "/" + kPendingFile);
  if (!pending.ok()) return Fail("pending log", pending.status());
  vkb.AttachCommitLog(&*pending);
  size_t commits = 0;
  size_t triples = 0;
  for (auto& event : stream.events) {
    if (event.kind != evorec::workload::StreamEvent::Kind::kCommit) continue;
    triples += event.changes.additions.size() + event.changes.removals.size();
    auto committed = vkb.Commit(
        std::move(event.changes), "curator", "ingest " + std::to_string(commits),
        /*timestamp=*/d.versions + 1 + commits);
    if (!committed.ok()) return Fail("pending commit", committed.status());
    ++commits;
  }
  vkb.DetachCommitLog();
  if (Status s = pending->Close(); !s.ok()) return Fail("pending close", s);

  // The analysts are part of the fixed deployment, like the KB: the same
  // 256 profiles for every seed, built against the head's schema.
  Population population;
  auto head_kb = scenario.vkb->Snapshot(scenario.vkb->head());
  if (!head_kb.ok()) return Fail("head", head_kb.status());
  const evorec::schema::SchemaView head_view =
      evorec::schema::SchemaView::Build(**head_kb);
  evorec::Rng profile_rng(d.scenario_seed + 0x5EED);
  for (size_t i = 0; i < d.analysts; ++i) {
    population.analysts.push_back(evorec::workload::GenerateProfile(
        "analyst/" + std::to_string(i), head_view,
        evorec::workload::ProfileGenOptions(), profile_rng));
  }
  population.curators = scenario.curators;
  if (Status s = WritePopulation(dir + "/" + kProfilesFile, population);
      !s.ok()) {
    return Fail("profiles", s);
  }
  if (Status s = WritePolicy(dir + "/" + kPolicyFile,
                             scenario.sensitive_classes, {"dpo"});
      !s.ok()) {
    return Fail("policy", s);
  }

  evorec::Rng rng(seed ^ 0x5DEECE66DULL);
  const struct {
    const char* name;
    std::vector<Request> requests;
  } lists[] = {{"feed", FeedRequests(d, rng)},
               {"explore", ExploreRequests(d, rng)},
               {"ingest", IngestRequests(d, rng)}};
  for (const auto& list : lists) {
    if (Status s = WriteRequests(dir + "/" + RequestFile(list.name),
                                 list.requests);
        !s.ok()) {
      return Fail(list.name, s);
    }
  }

  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::fprintf(stderr,
               "perfbench_gen: seed %llu: %zu triples at v%zu, %zu terms, "
               "%zu pending commits (%.2f triples each), %.2fs\n",
               static_cast<unsigned long long>(seed),
               (*head_kb)->store().size(), d.versions,
               vkb.dictionary().size(), commits,
               commits == 0 ? 0.0 : static_cast<double>(triples) / commits,
               seconds);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  uint64_t seed = 1;
  std::string out;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--tiny") {
      tiny = true;
    } else {
      std::fprintf(stderr, "usage: perfbench_gen --seed N --out DIR [--tiny]\n");
      return 2;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "usage: perfbench_gen --seed N --out DIR [--tiny]\n");
    return 2;
  }
  return perfbench::Generate(seed, out, tiny);
}
