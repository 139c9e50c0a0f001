// Degraded-mode serving: when a commit fails under storage faults the
// service flips to an explicit DEGRADED health state and keeps
// answering reads from the engine's pinned last-good evaluation —
// stale but consistent, every result flagged — until a commit
// succeeds again. The threaded test races a faulting committer
// against readers and runs under TSan (see CMakePresets).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using engine::HealthState;
using engine::RecommendationService;
using engine::ServiceHealth;
using engine::ServiceOptions;
using storage::FaultInjectionEnv;
using storage::FaultPlan;

constexpr uint64_t kSeed = 424277;

rdf::KnowledgeBase MakeBase(uint64_t seed) {
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 14;
  schema_options.seed = seed;
  workload::GeneratedSchema generated = workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 50;
  instance_options.edge_count = 80;
  instance_options.seed = seed + 1;
  workload::PopulateInstances(generated, instance_options);
  return std::move(generated.kb);
}

version::ChangeSet NextChanges(version::VersionedKnowledgeBase& vkb,
                               uint32_t epoch) {
  auto head = vkb.Snapshot(vkb.head());
  EXPECT_TRUE(head.ok());
  workload::EvolutionOptions options;
  options.operations = 15;
  options.epoch = epoch;
  options.seed = kSeed + 100 + epoch;
  workload::EvolutionOutcome outcome =
      workload::GenerateEvolution(**head, vkb.dictionary(), options);
  return std::move(outcome.changes);
}

profile::HumanProfile MakeUser(const rdf::KnowledgeBase& kb,
                               const std::string& name) {
  profile::HumanProfile user(name);
  const schema::SchemaView view = schema::SchemaView::Build(kb);
  if (!view.classes().empty()) user.SetInterest(view.classes()[0], 1.0);
  return user;
}

struct DegradedFixture {
  DegradedFixture() : vkb(version::ArchivePolicy::kDeltaChain, MakeBase(kSeed)) {
    storage::LogOptions log_options;
    log_options.sync_on_append = true;
    log_options.retry.max_attempts = 2;
    log_options.retry.backoff_micros = 10;
    log_options.env = &env;
    auto opened = storage::CommitLog::Open("wal.evlog", log_options);
    EXPECT_TRUE(opened.ok());
    log = std::make_unique<storage::CommitLog>(std::move(*opened));
    vkb.AttachCommitLog(log.get());
  }

  FaultInjectionEnv env;
  version::VersionedKnowledgeBase vkb;
  std::unique_ptr<storage::CommitLog> log;
  measures::MeasureRegistry registry = measures::DefaultRegistry();
};

TEST(DegradedServiceTest, CommitFailureFlipsToDegradedAndReadsKeepFlowing) {
  DegradedFixture fx;
  ServiceOptions service_options;
  service_options.engine.threads = 2;
  RecommendationService service(fx.registry, service_options);

  // Healthy baseline: one committed transition, clean reads.
  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(service.health_state(), HealthState::kHealthy);

  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  profile::HumanProfile user = MakeUser(**base_kb, "reader");
  auto list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_FALSE(list->degraded);

  // While healthy, a nonsense request is the caller's error — no
  // fallback masks it.
  EXPECT_FALSE(service.Recommend(fx.vkb, 8, 9, user).ok());

  // The disk goes bad: the commit fails (write-ahead — history is
  // untouched) and the service degrades.
  FaultPlan plan;
  plan.fail_writes = 10;  // outlasts the retry budget
  fx.env.set_plan(plan);
  auto failed = service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "c2");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(fx.vkb.head(), 1u);
  ServiceHealth health = service.health();
  EXPECT_EQ(health.state, HealthState::kDegraded);
  EXPECT_EQ(health.failed_commits, 1u);
  EXPECT_FALSE(health.last_error.empty());

  // Reads keep flowing, flagged: the warm pair serves from cache...
  list = service.Recommend(fx.vkb, 0, 1, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_TRUE(list->degraded);
  EXPECT_FALSE(list->items.empty());

  // ...and even a request the engine cannot evaluate right now is
  // answered from the pinned last-good evaluation instead of going
  // dark (stale-but-consistent is the degraded contract).
  auto stale = service.Recommend(fx.vkb, 8, 9, user);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->degraded);
  EXPECT_GE(service.health().degraded_serves, 2u);

  // Batch results carry the flag too.
  profile::HumanProfile other = MakeUser(**base_kb, "other");
  std::vector<profile::HumanProfile*> profiles = {&user, &other};
  auto batch = service.RecommendBatch(fx.vkb, 0, 1, profiles);
  ASSERT_TRUE(batch.ok());
  for (const recommend::RecommendationList& entry : *batch) {
    EXPECT_TRUE(entry.degraded);
  }

  // The disk heals: the next successful commit is the recovery edge.
  fx.env.ClearFaults();
  auto v2 = service.Commit(fx.vkb, NextChanges(fx.vkb, 3), "svc", "c3");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  health = service.health();
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_EQ(health.recoveries, 1u);

  list = service.Recommend(fx.vkb, 1, 2, user);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_FALSE(list->degraded);
}

TEST(DegradedServiceTest, ReadersNeverGoDarkWhileCommitsFlap) {
  // A committer whose disk flaps between broken and healthy races
  // readers; every read must succeed — fresh or pinned — and the
  // service must end healthy once the last commit lands. Runs under
  // TSan via the Degraded filter in CMakePresets.
  DegradedFixture fx;
  ServiceOptions service_options;
  service_options.engine.threads = 2;
  RecommendationService service(fx.registry, service_options);
  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  const rdf::KnowledgeBase* base = *base_kb;

  // Commit vs Recommend is serialized inside the service, but
  // change-set *preparation* interns new terms into the shared
  // Dictionary, which is documented non-thread-safe for concurrent
  // interning — so generation takes the writer side of this lock and
  // reads the reader side, exactly as a real ingestion client must.
  // The flag parks readers while generation wants in: glibc rwlocks
  // prefer readers, and a tight re-acquiring read loop starves the
  // writer forever otherwise.
  std::shared_mutex intern_mu;
  std::atomic<bool> interning{false};

  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::atomic<int> degraded_reads{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      profile::HumanProfile user =
          MakeUser(*base, "reader-" + std::to_string(r));
      while (!stop.load(std::memory_order_relaxed)) {
        while (interning.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::shared_lock<std::shared_mutex> lock(intern_mu);
        auto list = service.Recommend(fx.vkb, 0, 1, user);
        if (!list.ok()) {
          ++read_failures;
        } else if (list->degraded) {
          ++degraded_reads;
        }
        (void)service.health();
      }
    });
  }

  uint32_t epoch = 2;
  int failed_commits = 0;
  for (int round = 0; round < 6; ++round) {
    version::ChangeSet changes;
    {
      interning.store(true, std::memory_order_release);
      std::unique_lock<std::shared_mutex> lock(intern_mu);
      changes = NextChanges(fx.vkb, epoch);
      lock.unlock();
      interning.store(false, std::memory_order_release);
    }
    if (round % 2 == 0) {
      FaultPlan plan;
      plan.fail_writes = 10;
      fx.env.set_plan(plan);
      auto committed =
          service.Commit(fx.vkb, std::move(changes), "svc", "flap");
      EXPECT_FALSE(committed.ok());
      ++failed_commits;
    } else {
      fx.env.ClearFaults();
      auto committed =
          service.Commit(fx.vkb, std::move(changes), "svc", "flap");
      EXPECT_TRUE(committed.ok()) << committed.status().ToString();
      ++epoch;
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_EQ(failed_commits, 3);
  const ServiceHealth health = service.health();
  EXPECT_EQ(health.state, HealthState::kHealthy);  // last commit landed
  EXPECT_GE(health.recoveries, 1u);
  EXPECT_EQ(health.failed_commits, 3u);
}

// Regression: RecommendationList::degraded must propagate through
// batch fan-outs, not just single requests — user and group batches,
// with and without a provenance store attached, all flag their results
// while degraded, and all stop flagging after recovery.
TEST(DegradedServiceTest, BatchFanOutPathsPropagateDegradedFlag) {
  DegradedFixture fx;
  ServiceOptions service_options;
  service_options.engine.threads = 4;
  RecommendationService service(fx.registry, service_options);
  provenance::ProvenanceStore store;
  service.AttachProvenance(&store);

  auto v1 = service.Commit(fx.vkb, NextChanges(fx.vkb, 1), "svc", "c1");
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  auto base_kb = fx.vkb.Snapshot(0);
  ASSERT_TRUE(base_kb.ok());
  std::vector<profile::HumanProfile> profiles;
  for (int i = 0; i < 4; ++i) {
    profiles.push_back(MakeUser(**base_kb, "reader" + std::to_string(i)));
  }
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);
  profile::Group team("team");
  team.AddMember(profiles[0]);
  team.AddMember(profiles[1]);
  profile::Group pair("pair");
  pair.AddMember(profiles[2]);
  pair.AddMember(profiles[3]);
  std::vector<profile::Group*> groups = {&team, &pair};

  // Healthy baseline: no flavour flags anything.
  auto batch = service.RecommendBatch(fx.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const recommend::RecommendationList& list : *batch) {
    EXPECT_FALSE(list.degraded);
  }
  auto group_batch = service.RecommendGroupBatch(fx.vkb, 0, 1, groups);
  ASSERT_TRUE(group_batch.ok()) << group_batch.status().ToString();
  for (const recommend::RecommendationList& list : *group_batch) {
    EXPECT_FALSE(list.degraded);
  }

  // Degrade the service.
  FaultPlan plan;
  plan.fail_writes = 10;
  fx.env.set_plan(plan);
  EXPECT_FALSE(service.Commit(fx.vkb, NextChanges(fx.vkb, 2), "svc", "c2").ok());
  ASSERT_EQ(service.health_state(), HealthState::kDegraded);
  const uint64_t degraded_before = service.health().degraded_serves;

  // Parallel batch, traces spliced into the attached store.
  batch = service.RecommendBatch(fx.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), pointers.size());
  for (const recommend::RecommendationList& list : *batch) {
    EXPECT_TRUE(list.degraded);
  }
  EXPECT_GT(store.size(), 0u);

  // Group-batch fan-out, traced.
  group_batch = service.RecommendGroupBatch(fx.vkb, 0, 1, groups);
  ASSERT_TRUE(group_batch.ok()) << group_batch.status().ToString();
  ASSERT_EQ(group_batch->size(), groups.size());
  for (const recommend::RecommendationList& list : *group_batch) {
    EXPECT_TRUE(list.degraded);
  }

  // The same fan-outs untraced (no provenance attached).
  service.AttachProvenance(nullptr);
  batch = service.RecommendBatch(fx.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const recommend::RecommendationList& list : *batch) {
    EXPECT_TRUE(list.degraded);
  }
  group_batch = service.RecommendGroupBatch(fx.vkb, 0, 1, groups);
  ASSERT_TRUE(group_batch.ok()) << group_batch.status().ToString();
  for (const recommend::RecommendationList& list : *group_batch) {
    EXPECT_TRUE(list.degraded);
  }
  // Every flagged result is counted: 4 + 2 + 4 + 2.
  EXPECT_EQ(service.health().degraded_serves, degraded_before + 12);

  // Recovery clears the flag on the same paths.
  fx.env.ClearFaults();
  auto v2 = service.Commit(fx.vkb, NextChanges(fx.vkb, 3), "svc", "c3");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  batch = service.RecommendBatch(fx.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  for (const recommend::RecommendationList& list : *batch) {
    EXPECT_FALSE(list.degraded);
  }
  group_batch = service.RecommendGroupBatch(fx.vkb, 0, 1, groups);
  ASSERT_TRUE(group_batch.ok()) << group_batch.status().ToString();
  for (const recommend::RecommendationList& list : *group_batch) {
    EXPECT_FALSE(list.degraded);
  }
}

}  // namespace
}  // namespace evorec
