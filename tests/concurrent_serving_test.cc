// The concurrent-serving contract, raced for ThreadSanitizer (the
// `tsan` preset runs every suite matching ConcurrentServing): readers
// share each version's published snapshot — of a sharded KB and of a
// durable VersionedKnowledgeBase whose commits land through a synced
// commit log — and keep serving at full fan-out while a committer
// lands new versions or a checkpoint is saved: without blocking on the
// writer (not even on its fsync), without torn reads, and with results
// byte-identical to an idle-store run. Principals are read-only, so
// concurrent requests may share one profile or group. Also covers the
// provenance path: scratch-store splicing must reproduce the
// sequential audit trail record for record, and concurrent single
// requests must keep every trail whole.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/recommendation_service.h"
#include "provenance/store.h"
#include "storage/commit_log.h"
#include "storage/fault_env.h"
#include "version/recovery.h"
#include "version/sharded_kb.h"
#include "workload/scenarios.h"

namespace evorec::engine {
namespace {

using rdf::Triple;
using version::ChangeSet;
using version::KbView;
using version::ShardedKnowledgeBase;
using version::VersionId;

constexpr char kLogPath[] = "wal.evlog";

workload::Scenario SmallScenario(uint64_t seed) {
  workload::ScenarioScale scale;
  scale.classes = 30;
  scale.properties = 12;
  scale.instances = 200;
  scale.edges = 400;
  scale.versions = 2;
  scale.operations = 80;
  return workload::MakeDbpediaLike(seed, scale);
}

// Rebuilds a scenario's versioned content as a sharded KB (adopting
// the scenario dictionary, replaying the archived change sets).
std::unique_ptr<ShardedKnowledgeBase> ShardScenario(
    const workload::Scenario& scenario, size_t shards) {
  auto base = scenario.vkb->Snapshot(0);
  EXPECT_TRUE(base.ok());
  auto sharded = std::make_unique<ShardedKnowledgeBase>(
      ShardedKnowledgeBase::Options{.shards = shards}, **base);
  for (VersionId v = 1; v <= scenario.vkb->head(); ++v) {
    auto cs = scenario.vkb->Changes(v);
    EXPECT_TRUE(cs.ok());
    auto committed = sharded->Commit(std::move(cs).value(), "replay",
                                     "v" + std::to_string(v), v);
    EXPECT_TRUE(committed.ok());
  }
  return sharded;
}

// Change sets for the committer thread: valid term ids from the
// scenario's own vocabulary (the dictionary is never touched, per the
// sharded KB's intern-before-commit contract).
std::vector<ChangeSet> CommitterChanges(const workload::Scenario& scenario,
                                        size_t count) {
  std::vector<ChangeSet> changes(count);
  for (size_t c = 0; c < count; ++c) {
    for (size_t i = 0; i < 8; ++i) {
      changes[c].additions.push_back(
          {scenario.classes[(c * 7 + i) % scenario.classes.size()],
           scenario.properties[(c + i) % scenario.properties.size()],
           scenario.classes[(c * 3 + i * 5) % scenario.classes.size()]});
    }
    if (c > 0) {
      // Retract half of what the previous commit added, so tombstones
      // flow through the segment stacks too.
      for (size_t i = 0; i < 4; ++i) {
        changes[c].removals.push_back(changes[c - 1].additions[i]);
      }
    }
  }
  return changes;
}

// The KB kinds the race tests run over.
enum class KbKind { kSharded, kDurable };
constexpr KbKind kKbKinds[] = {KbKind::kSharded, KbKind::kDurable};

const char* KindName(KbKind kind) {
  return kind == KbKind::kSharded ? "4-shard ShardedKnowledgeBase"
                                  : "VersionedKnowledgeBase + synced WAL";
}

// One raced KB: the scenario's history rebuilt as a 4-shard sharded
// KB, or the scenario's own VersionedKnowledgeBase made durable by a
// commit log that syncs every append on a FaultInjectionEnv.
struct RacedKb {
  RacedKb(KbKind kind, const workload::Scenario& scenario) {
    if (kind == KbKind::kSharded) {
      sharded = ShardScenario(scenario, 4);
      view = sharded.get();
      return;
    }
    storage::LogOptions log_options;
    log_options.sync_on_append = true;
    log_options.env = &env;
    auto opened = storage::CommitLog::Open(kLogPath, log_options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    log.emplace(std::move(opened).value());
    durable = scenario.vkb.get();
    durable->AttachCommitLog(&*log);
    view = durable;
  }
  ~RacedKb() {
    if (durable != nullptr) durable->DetachCommitLog();
  }

  // Durable kind: every commit since the log was attached must be in
  // it, in order, with the fingerprint its version published.
  void ExpectLogHolds(VersionId first, VersionId last) {
    if (durable == nullptr) return;
    storage::ReplayOptions replay;
    replay.env = &env;
    auto records = storage::ReadLog(kLogPath, replay);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), last - first + 1);
    for (VersionId v = first; v <= last; ++v) {
      const storage::DeltaRecord& record = (*records)[v - first];
      EXPECT_EQ(record.version_id, v);
      EXPECT_EQ(record.fingerprint, view->Handle(v).value().fingerprint);
    }
  }

  storage::FaultInjectionEnv env;
  std::optional<storage::CommitLog> log;
  std::unique_ptr<ShardedKnowledgeBase> sharded;
  version::VersionedKnowledgeBase* durable = nullptr;
  KbView* view = nullptr;
};

// Readers pin snapshots and read version metadata directly from the
// KB while a committer lands 12 versions; every read sees exactly the
// version it named.
TEST(ConcurrentServingTest, PinnedReadersRaceACommitterWithoutTearing) {
  for (KbKind kind : kKbKinds) {
    SCOPED_TRACE(KindName(kind));
    workload::Scenario scenario = SmallScenario(77);
    RacedKb raced(kind, scenario);
    KbView& kb = *raced.view;
    const VersionId frozen_head = kb.head();

    // Ground truth recorded before the race: per-version sizes, a
    // content sample, fingerprints and change-set sizes.
    std::vector<size_t> expected_size(frozen_head + 1);
    std::vector<std::vector<Triple>> expected_sample(frozen_head + 1);
    std::vector<uint64_t> expected_fingerprint(frozen_head + 1);
    std::vector<size_t> expected_changes(frozen_head + 1, 0);
    for (VersionId v = 0; v <= frozen_head; ++v) {
      auto snapshot = kb.SharedSnapshot(v);
      ASSERT_TRUE(snapshot.ok());
      // Every reader shares the version's one published store.
      EXPECT_EQ(kb.SharedSnapshot(v).value().get(), snapshot->get());
      expected_size[v] = (*snapshot)->size();
      expected_sample[v] =
          (*snapshot)->store().Match({rdf::kAnyTerm, scenario.properties[0],
                                      rdf::kAnyTerm});
      expected_fingerprint[v] = kb.Handle(v).value().fingerprint;
      if (v > 0) expected_changes[v] = kb.Changes(v).value().size();
    }

    std::vector<ChangeSet> changes = CommitterChanges(scenario, 12);
    std::atomic<int> failures{0};
    std::atomic<bool> done{false};
    {
      std::thread committer([&] {
        for (size_t c = 0; c < changes.size(); ++c) {
          auto id = kb.Commit(std::move(changes[c]), "committer",
                              "concurrent " + std::to_string(c),
                              frozen_head + c + 1);
          if (!id.ok()) failures.fetch_add(1);
        }
        done.store(true);
      });

      constexpr int kReaders = 4;
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&, r] {
          int rounds = 0;
          while (!done.load() || rounds < 20) {
            const VersionId v = static_cast<VersionId>(
                (r + rounds) % (frozen_head + 1));
            auto snapshot = kb.SharedSnapshot(v);
            if (!snapshot.ok()) {
              failures.fetch_add(1);
              break;
            }
            // Every read round sees exactly the pinned version: stable
            // size, stable scan results, a k-way merged full scan that
            // agrees with the effective count.
            if ((*snapshot)->size() != expected_size[v]) failures.fetch_add(1);
            if ((*snapshot)->store().Match({rdf::kAnyTerm,
                                            scenario.properties[0],
                                            rdf::kAnyTerm}) !=
                expected_sample[v]) {
              failures.fetch_add(1);
            }
            size_t count = 0;
            (*snapshot)->store().ScanT(
                {rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm},
                [&](const Triple&) {
                  ++count;
                  return true;
                });
            if (count != expected_size[v]) failures.fetch_add(1);
            // Published metadata stays put while later versions land,
            // and the head the committer just published is whole.
            for (VersionId u = 0; u <= frozen_head; ++u) {
              auto handle = kb.Handle(u);
              if (!handle.ok() ||
                  handle->fingerprint != expected_fingerprint[u]) {
                failures.fetch_add(1);
              }
              if (u == 0) continue;
              auto cs = kb.Changes(u);
              if (!cs.ok() || cs->size() != expected_changes[u]) {
                failures.fetch_add(1);
              }
            }
            const VersionId head = kb.head();
            if (!kb.Handle(head).ok() || !kb.Changes(head).ok()) {
              failures.fetch_add(1);
            }
            ++rounds;
          }
        });
      }
      for (std::thread& reader : readers) reader.join();
      committer.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(kb.head(), frozen_head + 12);
    raced.ExpectLogHolds(frozen_head + 1, frozen_head + 12);
  }
}

// A checkpoint saved while readers serve the same version reads the
// very store they share, and neither side disturbs the other.
TEST(ConcurrentServingTest, CheckpointWhileServing) {
  workload::Scenario scenario = SmallScenario(91);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  const VersionId head = vkb.head();
  auto pinned = vkb.SharedSnapshot(head);
  ASSERT_TRUE(pinned.ok());
  // Two or more segments, so the save merges the stack.
  ASSERT_GE((*pinned)->store().segments().size(), 2u);
  const std::vector<Triple> expected = (*pinned)->store().Match({});

  storage::FaultInjectionEnv env;
  storage::SnapshotOptions options;
  options.env = &env;
  constexpr char kDir[] = "checkpoints";
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      do {
        auto snapshot = vkb.SharedSnapshot(head);
        if (!snapshot.ok() || (*snapshot)->store().Match({}) != expected) {
          mismatches.fetch_add(1);
          continue;
        }
        const rdf::KnowledgeBase copy = **snapshot;
        if (copy.store().Match({}) != expected) mismatches.fetch_add(1);
      } while (!done.load());
    });
  }
  for (int i = 0; i < 20; ++i) {
    const Status saved = version::SaveCheckpoint(vkb, head, kDir, 3, options);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);

  auto loaded =
      storage::LoadSnapshot(version::CheckpointPath(kDir, head), &env);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->store.Match({}), expected);
}

TEST(ConcurrentServingTest, BatchesKeepServingWhileCommitsLand) {
  for (KbKind kind : kKbKinds) {
    SCOPED_TRACE(KindName(kind));
    workload::Scenario scenario = SmallScenario(83);
    RacedKb raced(kind, scenario);
    KbView& kb = *raced.view;
    const VersionId frozen_head = kb.head();

    measures::MeasureRegistry registry = measures::DefaultRegistry();
    ServiceOptions options;
    options.engine.threads = 2;
    RecommendationService service(registry, options);

    // Expected batch output, computed on the idle store. Every reader
    // serves the same profiles.
    std::vector<const profile::HumanProfile*> pointers;
    for (const profile::HumanProfile& prof : scenario.curators.members()) {
      pointers.push_back(&prof);
    }
    auto run_batch = [&](std::vector<recommend::RecommendationList>* out) {
      auto batch = service.RecommendBatch(kb, 0, 1, pointers);
      if (!batch.ok()) return false;
      *out = std::move(batch).value();
      return true;
    };
    std::vector<recommend::RecommendationList> expected;
    ASSERT_TRUE(run_batch(&expected));

    std::vector<ChangeSet> changes = CommitterChanges(scenario, 6);
    std::atomic<int> failures{0};
    std::atomic<bool> done{false};
    {
      std::thread committer([&] {
        for (size_t c = 0; c < changes.size(); ++c) {
          // Through the service, so each commit also refreshes the
          // engine onto the new head while readers keep serving (0,1).
          auto id = service.Commit(kb, std::move(changes[c]), "committer",
                                   "landing " + std::to_string(c),
                                   frozen_head + c + 1);
          if (!id.ok()) failures.fetch_add(1);
        }
        done.store(true);
      });

      constexpr int kReaders = 3;
      std::vector<std::thread> readers;
      readers.reserve(kReaders);
      for (int r = 0; r < kReaders; ++r) {
        readers.emplace_back([&] {
          int rounds = 0;
          while (!done.load() || rounds < 3) {
            std::vector<recommend::RecommendationList> got;
            if (!run_batch(&got) || got.size() != expected.size()) {
              failures.fetch_add(1);
              break;
            }
            // Serving during commits returns the exact idle-store
            // results: same packages, same scores, same explanations.
            for (size_t i = 0; i < got.size(); ++i) {
              if (got[i].items.size() != expected[i].items.size()) {
                failures.fetch_add(1);
                continue;
              }
              for (size_t j = 0; j < got[i].items.size(); ++j) {
                if (got[i].items[j].candidate.id !=
                        expected[i].items[j].candidate.id ||
                    got[i].items[j].relatedness !=
                        expected[i].items[j].relatedness ||
                    got[i].items[j].explanation.ToText() !=
                        expected[i].items[j].explanation.ToText()) {
                  failures.fetch_add(1);
                }
              }
            }
            ++rounds;
          }
        });
      }
      for (std::thread& reader : readers) reader.join();
      committer.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(kb.head(), frozen_head + 6);
    EXPECT_EQ(service.health_state(), HealthState::kHealthy);
    raced.ExpectLogHolds(frozen_head + 1, frozen_head + 6);
  }
}

// Parks the next commit-log fsync once armed, until released: a disk
// slow enough to hold a durable commit inside its WAL append.
class ParkingEnv : public storage::FaultInjectionEnv {
 public:
  void Arm() {
    std::lock_guard<std::mutex> lock(park_mu_);
    armed_ = true;
  }

  // Whether a Sync parked within five seconds.
  bool WaitUntilParked() {
    std::unique_lock<std::mutex> lock(park_mu_);
    return park_cv_.wait_for(lock, std::chrono::seconds(5),
                             [this] { return parked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(park_mu_);
    released_ = true;
    park_cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append) override {
    auto file = FaultInjectionEnv::NewWritableFile(path, append);
    if (!file.ok()) return file.status();
    return std::unique_ptr<WritableFile>(
        std::make_unique<ParkingFile>(this, std::move(file).value()));
  }

 private:
  class ParkingFile : public WritableFile {
   public:
    ParkingFile(ParkingEnv* env, std::unique_ptr<WritableFile> file)
        : env_(env), file_(std::move(file)) {}
    Status Append(std::string_view data) override {
      return file_->Append(data);
    }
    Status Sync() override {
      env_->MaybePark();
      return file_->Sync();
    }
    Status Close() override { return file_->Close(); }

   private:
    ParkingEnv* env_;
    std::unique_ptr<WritableFile> file_;
  };

  void MaybePark() {
    std::unique_lock<std::mutex> lock(park_mu_);
    if (!armed_) return;
    armed_ = false;
    parked_ = true;
    park_cv_.notify_all();
    park_cv_.wait(lock, [this] { return released_; });
  }

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  bool armed_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// A read of a warm pair never waits for a durable commit: with the
// commit parked inside its WAL fsync, Recommend returns the warm list,
// and the commit lands once the disk is released.
TEST(ConcurrentServingTest, ReadsDoNotWaitForADurableCommit) {
  workload::Scenario scenario = SmallScenario(71);
  ParkingEnv env;
  storage::LogOptions log_options;
  log_options.sync_on_append = true;
  log_options.env = &env;
  auto log = storage::CommitLog::Open(kLogPath, log_options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  vkb.AttachCommitLog(&*log);

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  ServiceOptions options;
  options.engine.threads = 2;
  RecommendationService service(registry, options);
  const profile::HumanProfile& prof = scenario.end_user;
  auto warm = service.Recommend(vkb, 0, 1, prof);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  const VersionId head = vkb.head();
  env.Arm();
  auto commit = std::async(std::launch::async, [&] {
    return service.Commit(vkb, CommitterChanges(scenario, 1).front(),
                          "curator", "parked in fsync", head + 1);
  });
  const bool parked = env.WaitUntilParked();
  auto read = std::async(std::launch::async,
                         [&] { return service.Recommend(vkb, 0, 1, prof); });
  const bool returned =
      read.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  env.Release();
  EXPECT_TRUE(parked) << "the commit never reached its fsync";
  EXPECT_TRUE(returned) << "the read waited for the parked commit";

  auto got = read.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->items.size(), warm->items.size());
  for (size_t i = 0; i < got->items.size(); ++i) {
    EXPECT_EQ(got->items[i].candidate.id, warm->items[i].candidate.id);
    EXPECT_EQ(got->items[i].relatedness, warm->items[i].relatedness);
    EXPECT_EQ(got->items[i].explanation.ToText(),
              warm->items[i].explanation.ToText());
  }
  auto committed = commit.get();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, head + 1);
  vkb.DetachCommitLog();
}

// Principals are read-only: concurrent requests, and every slot of one
// batch, may name one profile (or group). Each is served the
// context-path oracle's list, and no seen-history moves.
TEST(ConcurrentServingTest, SharedPrincipalsServeConcurrently) {
  workload::Scenario scenario = SmallScenario(67);
  const profile::HumanProfile& prof = scenario.end_user;
  const profile::Group& group = scenario.curators;
  const size_t seen_before = prof.seen_count();
  std::vector<size_t> members_seen;
  for (const profile::HumanProfile& member : group.members()) {
    members_seen.push_back(member.seen_count());
  }

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  ServiceOptions options;
  options.engine.threads = 2;
  RecommendationService service(registry, options);

  recommend::Recommender oracle(registry, options.recommender);
  auto ctx = measures::EvolutionContext::FromVersions(*scenario.vkb, 0, 1);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  auto user_expected = oracle.RecommendForUser(*ctx, prof);
  ASSERT_TRUE(user_expected.ok()) << user_expected.status().ToString();
  auto group_expected = oracle.RecommendForGroup(*ctx, group);
  ASSERT_TRUE(group_expected.ok()) << group_expected.status().ToString();
  auto same = [](const recommend::RecommendationList& got,
                 const recommend::RecommendationList& want) {
    if (got.items.size() != want.items.size()) return false;
    for (size_t j = 0; j < got.items.size(); ++j) {
      if (got.items[j].candidate.id != want.items[j].candidate.id ||
          got.items[j].relatedness != want.items[j].relatedness ||
          got.items[j].novelty != want.items[j].novelty) {
        return false;
      }
    }
    return true;
  };

  constexpr int kClients = 4;
  constexpr int kRounds = 50;
  constexpr size_t kRepeats = 16;
  const std::vector<const profile::HumanProfile*> repeated(kRepeats, &prof);
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRounds; ++r) {
          auto single = service.Recommend(*scenario.vkb, 0, 1, prof);
          if (!single.ok()) {
            ++failures;
          } else if (!same(*single, *user_expected)) {
            ++mismatches;
          }
          auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, repeated);
          if (!batch.ok() || batch->size() != kRepeats) {
            ++failures;
          } else {
            for (const recommend::RecommendationList& list : *batch) {
              if (!same(list, *user_expected)) ++mismatches;
            }
          }
          if (c % 2 != 0) continue;
          auto shared = service.RecommendGroup(*scenario.vkb, 0, 1, group);
          if (!shared.ok()) {
            ++failures;
          } else if (!same(*shared, *group_expected)) {
            ++mismatches;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(prof.seen_count(), seen_before);
  for (size_t m = 0; m < group.size(); ++m) {
    EXPECT_EQ(group.members()[m].seen_count(), members_seen[m]);
  }
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

// Satellite contract: with a provenance store attached the batch stays
// parallel, and the spliced audit trail is byte-identical to the
// sequential run — record ids, derivation inputs, ordering, all of it.
TEST(ConcurrentServingProvenanceTest, ParallelTrailsMatchSequentialTrails) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 3;

  // Sequential baseline: the context-path recommender tracing in place
  // into one store, one user after the other.
  workload::Scenario baseline = SmallScenario(47);
  std::vector<profile::HumanProfile> baseline_profiles(
      baseline.curators.members());
  baseline_profiles.push_back(baseline.end_user);
  provenance::ProvenanceStore sequential_store;
  recommend::Recommender sequential(registry, rec_options);
  auto baseline_ctx =
      measures::EvolutionContext::FromVersions(*baseline.vkb, 0, 1);
  ASSERT_TRUE(baseline_ctx.ok()) << baseline_ctx.status().ToString();
  std::vector<recommend::RecommendationList> expected;
  for (const profile::HumanProfile& prof : baseline_profiles) {
    auto list =
        sequential.RecommendForUser(*baseline_ctx, prof, &sequential_store);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    expected.push_back(std::move(list).value());
  }

  // Parallel run over identical inputs.
  workload::Scenario scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> profiles(scenario.curators.members());
  profiles.push_back(scenario.end_user);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);
  provenance::ProvenanceStore parallel_store;
  ServiceOptions parallel_options;
  parallel_options.recommender = rec_options;
  parallel_options.engine.threads = 4;
  RecommendationService parallel_service(registry, parallel_options);
  parallel_service.AttachProvenance(&parallel_store);
  auto batch =
      parallel_service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  // Results match, including the trail ids each list carries.
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*batch)[i].provenance_trail, expected[i].provenance_trail)
        << "user " << i;
    ASSERT_EQ((*batch)[i].items.size(), expected[i].items.size());
    for (size_t j = 0; j < (*batch)[i].items.size(); ++j) {
      EXPECT_EQ((*batch)[i].items[j].explanation.provenance_record,
                expected[i].items[j].explanation.provenance_record);
    }
  }

  // The stores match record for record.
  ASSERT_EQ(parallel_store.size(), sequential_store.size());
  ASSERT_GT(parallel_store.size(), 0u);
  for (size_t i = 0; i < parallel_store.size(); ++i) {
    const provenance::ProvRecord& a = parallel_store.records()[i];
    const provenance::ProvRecord& b = sequential_store.records()[i];
    EXPECT_EQ(a.id, b.id) << "record " << i;
    EXPECT_EQ(a.entity, b.entity) << "record " << i;
    EXPECT_EQ(a.activity, b.activity) << "record " << i;
    EXPECT_EQ(a.agent, b.agent) << "record " << i;
    EXPECT_EQ(a.timestamp, b.timestamp) << "record " << i;
    EXPECT_EQ(a.source, b.source) << "record " << i;
    EXPECT_EQ(a.inputs, b.inputs) << "record " << i;
    EXPECT_EQ(a.note, b.note) << "record " << i;
  }
}

// Group flavour of the same contract.
TEST(ConcurrentServingProvenanceTest, GroupBatchTrailsMatchSequential) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();

  workload::Scenario baseline = SmallScenario(53);
  provenance::ProvenanceStore sequential_store;
  recommend::Recommender sequential(registry);
  auto baseline_ctx =
      measures::EvolutionContext::FromVersions(*baseline.vkb, 0, 1);
  ASSERT_TRUE(baseline_ctx.ok()) << baseline_ctx.status().ToString();
  auto expected = sequential.RecommendForGroup(*baseline_ctx, baseline.curators,
                                               &sequential_store);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  workload::Scenario scenario = SmallScenario(53);
  provenance::ProvenanceStore parallel_store;
  ServiceOptions parallel_options;
  parallel_options.engine.threads = 4;
  RecommendationService parallel_service(registry, parallel_options);
  parallel_service.AttachProvenance(&parallel_store);
  std::vector<profile::Group*> groups{&scenario.curators};
  auto batch =
      parallel_service.RecommendGroupBatch(*scenario.vkb, 0, 1, groups);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].provenance_trail, expected->provenance_trail);
  ASSERT_EQ(parallel_store.size(), sequential_store.size());
  for (size_t i = 0; i < parallel_store.size(); ++i) {
    EXPECT_EQ(parallel_store.records()[i].activity,
              sequential_store.records()[i].activity);
    EXPECT_EQ(parallel_store.records()[i].inputs,
              sequential_store.records()[i].inputs);
  }
}

// Single requests trace through the same scratch-and-splice path as
// batches: concurrent Recommend and RecommendGroup calls on one service
// with a store attached must leave every run's trail whole — each
// record named for its own principal, in exactly one trail, and
// derived only from records of its own run.
TEST(ConcurrentServingProvenanceTest, ConcurrentSingleReadsKeepWholeTrails) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  workload::Scenario scenario = SmallScenario(59);
  ServiceOptions options;
  options.recommender.package_size = 3;
  RecommendationService service(registry, options);
  provenance::ProvenanceStore store;
  service.AttachProvenance(&store);

  struct Served {
    std::string run;  // the workflow name every trail record must carry
    std::vector<provenance::RecordId> trail;
  };
  constexpr int kClients = 4;
  constexpr int kRounds = 300;
  std::vector<std::vector<Served>> served(kClients);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Each client reads under its own id, so every trail record
        // names the client whose run wrote it.
        profile::HumanProfile prof = scenario.end_user;
        prof.set_id("reader-" + std::to_string(c));
        const profile::Group& group = scenario.curators;
        for (int r = 0; r < kRounds; ++r) {
          auto list = service.Recommend(*scenario.vkb, 0, 1, prof);
          if (!list.ok()) {
            ++failures;
            continue;
          }
          served[c].push_back(
              {"recommend_user/" + prof.id(), list->provenance_trail});
          if (c != 0) continue;
          auto shared = service.RecommendGroup(*scenario.vkb, 0, 1, group);
          if (!shared.ok()) {
            ++failures;
            continue;
          }
          served[c].push_back(
              {"recommend_group/" + group.id(), shared->provenance_trail});
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // owner[id] is the index of the run whose trail holds record `id`.
  std::vector<int> owner(store.size(), -1);
  size_t trail_records = 0;
  int run = 0;
  for (const std::vector<Served>& client : served) {
    for (const Served& s : client) {
      ASSERT_FALSE(s.trail.empty());
      trail_records += s.trail.size();
      for (provenance::RecordId id : s.trail) {
        ASSERT_LT(id, store.size());
        EXPECT_EQ(store.records()[id].activity.rfind(s.run + "/", 0), 0u)
            << "record " << id << " is " << store.records()[id].activity
            << ", expected a " << s.run << " stage";
        EXPECT_EQ(owner[id], -1) << "record " << id << " in two trails";
        owner[id] = run;
      }
      ++run;
    }
  }
  EXPECT_EQ(store.size(), trail_records);
  for (const provenance::ProvRecord& record : store.records()) {
    for (provenance::RecordId input : record.inputs) {
      ASSERT_LT(input, store.size());
      EXPECT_EQ(owner[input], owner[record.id])
          << "record " << record.id << " derives from another run's "
          << input;
    }
  }
}

}  // namespace
}  // namespace evorec::engine
