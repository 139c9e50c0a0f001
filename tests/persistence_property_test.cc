// Round-trip differential properties of the storage layer: randomized
// commit interleavings are made durable (snapshot + commit log),
// recovered from disk, and the recovered KB must be observationally
// byte-identical to the original — same Match results under every
// pattern shape, same triple counts, same N-Triples serialisation,
// and the same content fingerprints (so engine cache keys survive a
// restart, which the last test drives end to end).

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "evorec_persist_" + name;
}

rdf::KnowledgeBase MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 30;
  schema_options.seed = seed;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 200;
  instance_options.edge_count = 350;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  return std::move(generated.kb);
}

// Commits `versions` randomized transitions (mix/ops vary per seed and
// step) against `vkb`.
void CommitHistory(version::VersionedKnowledgeBase& vkb, uint64_t seed,
                   uint32_t versions) {
  Rng rng(seed * 977 + 13);
  for (uint32_t v = 0; v < versions; ++v) {
    auto head = vkb.Snapshot(vkb.head());
    ASSERT_TRUE(head.ok());
    workload::EvolutionOptions options;
    options.operations =
        static_cast<size_t>(rng.UniformInt(20, 90));
    options.epoch = v + 1;
    options.seed = seed + 10 + v;
    if (rng.Bernoulli(0.3)) options.mix = workload::ChangeMix::SchemaHeavy();
    workload::EvolutionOutcome outcome = workload::GenerateEvolution(
        **head, vkb.dictionary(), options);
    auto committed =
        vkb.Commit(std::move(outcome.changes), "prop-test",
                   "step " + std::to_string(v), 1700000000 + v);
    ASSERT_TRUE(committed.ok());
  }
}

// The eight pattern shapes instantiated from a concrete triple.
std::vector<rdf::TriplePattern> AllShapes(const rdf::Triple& t) {
  const rdf::TermId any = rdf::kAnyTerm;
  return {{t.subject, t.predicate, t.object},
          {t.subject, t.predicate, any},
          {t.subject, any, t.object},
          {any, t.predicate, t.object},
          {t.subject, any, any},
          {any, t.predicate, any},
          {any, any, t.object},
          {any, any, any}};
}

void ExpectVersionsIdentical(const version::VersionedKnowledgeBase& original,
                             version::VersionId v,
                             const version::VersionedKnowledgeBase& recovered,
                             version::VersionId rv) {
  auto original_handle = original.Handle(v);
  auto recovered_handle = recovered.Handle(rv);
  ASSERT_TRUE(original_handle.ok());
  ASSERT_TRUE(recovered_handle.ok());
  EXPECT_EQ(original_handle->fingerprint, recovered_handle->fingerprint)
      << "fingerprint of version " << v;

  auto original_snapshot = original.Snapshot(v);
  auto recovered_snapshot = recovered.Snapshot(rv);
  ASSERT_TRUE(original_snapshot.ok());
  ASSERT_TRUE(recovered_snapshot.ok());
  const rdf::TripleStore& original_store = (*original_snapshot)->store();
  const rdf::TripleStore& recovered_store = (*recovered_snapshot)->store();

  ASSERT_EQ(original_store.size(), recovered_store.size());
  EXPECT_EQ(original_store.Match({}), recovered_store.Match({}));
  // Byte-identical down to the term content, not just the ids.
  EXPECT_EQ(rdf::WriteNTriples(original_store,
                               (*original_snapshot)->dictionary()),
            rdf::WriteNTriples(recovered_store,
                               (*recovered_snapshot)->dictionary()));

  // All eight pattern shapes, probed at the first / middle / last
  // triple of the version (subject-bound seeks and filtered walks).
  const std::vector<rdf::Triple> triples = original_store.Match({});
  if (triples.empty()) return;
  for (size_t pick :
       {size_t{0}, triples.size() / 2, triples.size() - 1}) {
    for (const rdf::TriplePattern& pattern : AllShapes(triples[pick])) {
      EXPECT_EQ(original_store.Match(pattern), recovered_store.Match(pattern));
    }
  }
}

class PersistencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PersistencePropertyTest,
                         ::testing::Values(3, 17, 59, 211));

// Snapshot taken mid-history + log tail replay: the everyday recovery
// shape ("latest checkpoint + WAL tail").
TEST_P(PersistencePropertyTest, MidHistorySnapshotPlusTailReplay) {
  const uint64_t seed = GetParam();
  const std::string snapshot_path =
      TempPath("mid_" + std::to_string(seed) + ".evsnap");
  const std::string log_path =
      TempPath("mid_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(
      version::ArchivePolicy::kDeltaChain, MakeBase(seed));
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 6);
  const version::VersionId mid = original.head() - 2;
  ASSERT_TRUE(
      version::SaveVersionSnapshot(original, mid, snapshot_path).ok());
  ASSERT_TRUE(log->Sync().ok());

  auto recovered = version::RecoverFromDisk(snapshot_path, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->base_version, mid);
  EXPECT_EQ(recovered->skipped_records, static_cast<size_t>(mid));
  EXPECT_EQ(recovered->replayed_commits,
            static_cast<size_t>(original.head() - mid));
  ASSERT_EQ(recovered->vkb->head(), original.head() - mid);
  for (version::VersionId v = mid; v <= original.head(); ++v) {
    ExpectVersionsIdentical(original, v, *recovered->vkb, v - mid);
  }

  // The recovered KB keeps working: a fresh commit replays on top.
  auto head = recovered->vkb->Snapshot(recovered->vkb->head());
  ASSERT_TRUE(head.ok());
  workload::EvolutionOptions options;
  options.operations = 25;
  options.epoch = 99;
  options.seed = seed + 99;
  workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      **head, recovered->vkb->dictionary(), options);
  EXPECT_TRUE(recovered->vkb
                  ->Commit(std::move(outcome.changes), "post", "resume")
                  .ok());

  std::remove(snapshot_path.c_str());
  std::remove(log_path.c_str());
}

// Base snapshot + full log replay reproduces the complete fingerprint
// chain, under both recovered archive policies.
TEST_P(PersistencePropertyTest, FullLogReplayRestoresEveryFingerprint) {
  const uint64_t seed = GetParam();
  const std::string snapshot_path =
      TempPath("full_" + std::to_string(seed) + ".evsnap");
  const std::string log_path =
      TempPath("full_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(
      version::ArchivePolicy::kFullMaterialization, MakeBase(seed));
  ASSERT_TRUE(
      version::SaveVersionSnapshot(original, 0, snapshot_path).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 5);
  ASSERT_TRUE(log->Sync().ok());

  for (version::ArchivePolicy policy :
       {version::ArchivePolicy::kDeltaChain,
        version::ArchivePolicy::kHybridCheckpoint}) {
    version::RecoveryOptions options;
    options.policy = policy;
    auto recovered =
        version::RecoverFromDisk(snapshot_path, log_path, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->base_version, 0u);
    ASSERT_EQ(recovered->vkb->version_count(), original.version_count());
    for (version::VersionId v = 0; v <= original.head(); ++v) {
      ExpectVersionsIdentical(original, v, *recovered->vkb, v);
    }
  }
  std::remove(snapshot_path.c_str());
  std::remove(log_path.c_str());
}

// A torn final record (half-written commit) rolls back to the last
// complete commit instead of failing recovery.
TEST_P(PersistencePropertyTest, TornTailRecoversPrefix) {
  const uint64_t seed = GetParam();
  const std::string snapshot_path =
      TempPath("torn_" + std::to_string(seed) + ".evsnap");
  const std::string log_path =
      TempPath("torn_" + std::to_string(seed) + ".evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(
      version::ArchivePolicy::kDeltaChain, MakeBase(seed));
  ASSERT_TRUE(
      version::SaveVersionSnapshot(original, 0, snapshot_path).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, seed, 4);
  ASSERT_TRUE(log->Close().ok());

  // Tear the last record in half.
  auto bytes = ReadFileToString(log_path);
  ASSERT_TRUE(bytes.ok());
  auto records = storage::ReadLog(log_path);
  ASSERT_TRUE(records.ok());
  const std::string last_record =
      storage::EncodeDeltaRecord(records->back());
  const std::string torn =
      bytes->substr(0, bytes->size() - last_record.size() / 2);
  ASSERT_TRUE(WriteFileAtomic(log_path, torn).ok());

  auto recovered = version::RecoverFromDisk(snapshot_path, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->vkb->head(), original.head() - 1);
  for (version::VersionId v = 0; v < original.head(); ++v) {
    ExpectVersionsIdentical(original, v, *recovered->vkb, v);
  }

  // Strict mode still refuses the same file.
  version::RecoveryOptions strict;
  strict.allow_torn_tail = false;
  EXPECT_FALSE(
      version::RecoverFromDisk(snapshot_path, log_path, strict).ok());

  std::remove(snapshot_path.c_str());
  std::remove(log_path.c_str());
}

// Mixing a snapshot and a log from different histories must fail with
// a clean error, never produce a silently wrong KB.
TEST(PersistenceMismatchTest, ForeignLogIsRejected) {
  const std::string snapshot_path = TempPath("mismatch.evsnap");
  const std::string log_path = TempPath("mismatch.evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase history_a(
      version::ArchivePolicy::kDeltaChain, MakeBase(71));
  ASSERT_TRUE(
      version::SaveVersionSnapshot(history_a, 0, snapshot_path).ok());

  version::VersionedKnowledgeBase history_b(
      version::ArchivePolicy::kDeltaChain, MakeBase(72));
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  history_b.AttachCommitLog(&*log);
  CommitHistory(history_b, 72, 3);
  ASSERT_TRUE(log->Close().ok());

  auto recovered = version::RecoverFromDisk(snapshot_path, log_path);
  EXPECT_FALSE(recovered.ok());

  std::remove(snapshot_path.c_str());
  std::remove(log_path.c_str());
}

// The whole point of restoring fingerprints: an engine serving the
// original KB treats the recovered KB as the same cache key — the
// first post-restart request is a hit, not a rebuild.
TEST(PersistenceEngineTest, RecoveredKbHitsTheWarmEngineCache) {
  const std::string snapshot_path = TempPath("engine.evsnap");
  const std::string log_path = TempPath("engine.evlog");
  std::remove(log_path.c_str());

  version::VersionedKnowledgeBase original(
      version::ArchivePolicy::kDeltaChain, MakeBase(5));
  ASSERT_TRUE(
      version::SaveVersionSnapshot(original, 0, snapshot_path).ok());
  auto log = storage::CommitLog::Open(log_path);
  ASSERT_TRUE(log.ok());
  original.AttachCommitLog(&*log);
  CommitHistory(original, 5, 3);
  ASSERT_TRUE(log->Sync().ok());

  auto recovered = version::RecoverFromDisk(snapshot_path, log_path);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::RecommendationService service(registry);
  const version::VersionId head = original.head();
  ASSERT_TRUE(service.WarmStart(original, head - 1, head).ok());
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);

  // Same versions, recovered instance: cache hit, no rebuild.
  ASSERT_TRUE(
      service.WarmStart(*recovered->vkb, head - 1, head).ok());
  const engine::EngineStats stats = service.engine_stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_GE(stats.context_hits, 1u);

  // And the recommendations themselves are identical.
  profile::HumanProfile user_a("restart-user");
  profile::HumanProfile user_b("restart-user");
  auto head_kb = original.Snapshot(head);
  ASSERT_TRUE(head_kb.ok());
  const schema::SchemaView view = schema::SchemaView::Build(**head_kb);
  if (!view.classes().empty()) {
    user_a.SetInterest(view.classes()[0], 1.0);
    user_b.SetInterest(view.classes()[0], 1.0);
  }
  auto list_a = service.Recommend(original, head - 1, head, user_a);
  auto list_b =
      service.Recommend(*recovered->vkb, head - 1, head, user_b);
  ASSERT_TRUE(list_a.ok());
  ASSERT_TRUE(list_b.ok());
  ASSERT_EQ(list_a->items.size(), list_b->items.size());
  for (size_t i = 0; i < list_a->items.size(); ++i) {
    EXPECT_EQ(list_a->items[i].candidate.id, list_b->items[i].candidate.id);
    EXPECT_DOUBLE_EQ(list_a->items[i].relatedness,
                     list_b->items[i].relatedness);
  }

  std::remove(snapshot_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace evorec
