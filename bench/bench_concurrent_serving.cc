// E15 — concurrent serving over a sharded, segmented KB: reader
// threads keep answering RecommendBatch requests about a pinned
// version pair at full fan-out while a committer lands new versions
// through the same service. The segmented store makes every snapshot
// a segment-list share (never a triple copy), so readers never block
// on the writer; the figure table records sustained req/s during the
// commit storm, per-commit latency (commit + incremental engine
// refresh), and the zero-flat-copy counter on the serving read path,
// at 1/2/4/8 shards. The timing section times the same paths under
// Google Benchmark.
//
// Honesty note: on a single-core host the shard sweep measures
// bookkeeping overhead, not parallel fan-out — the figure printer
// reports the worker count so a reader can tell which regime a
// snapshot was recorded in.

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "version/sharded_kb.h"

namespace evorec::bench {
namespace {

workload::Scenario ConcurrentScenario(uint64_t seed = 151) {
  // Moderate serving scale: big enough that context builds dominate a
  // cold request, small enough that the commit storm finishes quickly.
  workload::ScenarioScale scale;
  scale.classes = 80;
  scale.properties = 28;
  scale.instances = 1200;
  scale.edges = 2200;
  scale.versions = 2;
  scale.operations = 300;
  return workload::MakeDbpediaLike(seed, scale);
}

// Rebuilds the scenario's history as a sharded KB sharing the
// scenario dictionary.
std::unique_ptr<version::ShardedKnowledgeBase> ShardScenario(
    const workload::Scenario& scenario, size_t shards) {
  auto base = scenario.vkb->Snapshot(0);
  if (!base.ok()) return nullptr;
  auto sharded = std::make_unique<version::ShardedKnowledgeBase>(
      version::ShardedKnowledgeBase::Options{.shards = shards}, **base);
  for (version::VersionId v = 1; v <= scenario.vkb->head(); ++v) {
    auto cs = scenario.vkb->Changes(v);
    if (!cs.ok()) return nullptr;
    if (!sharded->Commit(std::move(cs).value(), "replay", "seed", v).ok()) {
      return nullptr;
    }
  }
  return sharded;
}

// Commit payloads from the scenario's own vocabulary (the shared
// dictionary is never touched — the sharded KB's intern-before-commit
// contract). Even entries add a block of triples, odd entries retract
// it again, so the KB stays bounded under an arbitrarily long storm.
std::vector<version::ChangeSet> CommitStorm(
    const workload::Scenario& scenario, size_t count) {
  std::vector<version::ChangeSet> storm(count);
  for (size_t c = 0; c < count; ++c) {
    std::vector<rdf::Triple> block;
    const size_t wave = c / 2;
    for (size_t i = 0; i < 16; ++i) {
      block.push_back(
          {scenario.classes[(wave * 11 + i) % scenario.classes.size()],
           scenario.properties[(wave + i) % scenario.properties.size()],
           scenario.classes[(wave * 5 + i * 3) % scenario.classes.size()]});
    }
    if (c % 2 == 0) {
      storm[c].additions = std::move(block);
    } else {
      storm[c].removals = std::move(block);
    }
  }
  return storm;
}

std::vector<profile::HumanProfile> CloneUsers(
    const profile::HumanProfile& seed_user, size_t n) {
  std::vector<profile::HumanProfile> users;
  users.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    profile::HumanProfile user = seed_user;
    user.set_id("user-" + std::to_string(i));
    users.push_back(std::move(user));
  }
  return users;
}

// The serving read diet over one pinned union snapshot; returns the
// whole-store flat-copy counter, which the concurrency contract pins
// at zero (snapshots are segment lists, never copies).
uint64_t ProbeFlatCopies(const version::ShardedKnowledgeBase& sharded) {
  auto snapshot = sharded.SharedSnapshot(sharded.head());
  if (!snapshot.ok()) return ~0ull;
  const rdf::TripleStore& store = (*snapshot)->store();
  (void)store.Contains({0, 0, 0});
  (void)store.Match({1, rdf::kAnyTerm, rdf::kAnyTerm});
  size_t n = 0;
  store.ScanT({rdf::kAnyTerm, rdf::kAnyTerm, rdf::kAnyTerm},
              [&](const rdf::Triple&) {
                ++n;
                return true;
              });
  benchmark::DoNotOptimize(n);
  return store.stats().materializations;
}

struct StormResult {
  size_t requests = 0;
  double elapsed_s = 0.0;
  double commit_ms_mean = 0.0;
  double commit_ms_max = 0.0;
  bool ok = false;
};

// Races kReaders batch-serving threads at (0,1) against one committer
// landing `storm` through the service (commit + engine refresh).
StormResult RunStorm(engine::RecommendationService& service,
                     version::ShardedKnowledgeBase& sharded,
                     const workload::Scenario& scenario,
                     std::vector<version::ChangeSet> storm, size_t readers,
                     size_t users_per_batch, size_t max_rounds) {
  StormResult result;
  std::atomic<bool> done{false};
  std::atomic<size_t> requests{0};
  std::atomic<int> failures{0};
  std::vector<double> commit_ms(storm.size(), 0.0);
  const version::VersionId base_head = sharded.head();

  Stopwatch window;
  std::thread committer([&] {
    for (size_t c = 0; c < storm.size(); ++c) {
      Stopwatch latency;
      auto id = service.Commit(sharded, std::move(storm[c]), "committer",
                               "storm " + std::to_string(c),
                               base_head + c + 1);
      commit_ms[c] = latency.ElapsedMillis();
      if (!id.ok()) failures.fetch_add(1);
    }
    done.store(true);
  });
  {
    std::vector<std::thread> pool;
    pool.reserve(readers);
    for (size_t r = 0; r < readers; ++r) {
      pool.emplace_back([&] {
        std::vector<profile::HumanProfile> users =
            CloneUsers(scenario.end_user, users_per_batch);
        std::vector<profile::HumanProfile*> pointers;
        for (profile::HumanProfile& user : users) pointers.push_back(&user);
        size_t rounds = 0;
        while (!done.load() && rounds < max_rounds) {
          auto batch = service.RecommendBatch(sharded, 0, 1, pointers);
          if (!batch.ok()) {
            failures.fetch_add(1);
            break;
          }
          requests.fetch_add(pointers.size());
          ++rounds;
        }
      });
    }
    for (std::thread& t : pool) t.join();
    committer.join();
  }
  result.elapsed_s = window.ElapsedMillis() / 1000.0;
  result.requests = requests.load();
  for (double ms : commit_ms) {
    result.commit_ms_mean += ms;
    result.commit_ms_max = std::max(result.commit_ms_max, ms);
  }
  result.commit_ms_mean /= storm.empty() ? 1.0 : commit_ms.size();
  result.ok = failures.load() == 0;
  return result;
}

void PrintConcurrentServingTable() {
  PrintHeader(
      "E15 — serving at full fan-out while commits land (sharded KB)",
      "readers pin segment-list snapshots and never block on the writer: "
      "sustained req/s under a commit storm, bounded commit latency, zero "
      "whole-store copies on the serving path");

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  workload::Scenario scenario = ConcurrentScenario();
  std::printf("worker threads on this host: %zu%s\n",
              ThreadPool::DefaultThreadCount(),
              ThreadPool::DefaultThreadCount() == 1
                  ? " (single core: the shard sweep measures overhead, not "
                    "parallel fan-out — rerun on a multicore box for the "
                    "scaling figure)"
                  : "");

  TablePrinter table({"shards", "reqs", "req_s", "commits", "commit_ms_mean",
                      "commit_ms_max", "flat_copies"});
  for (size_t shards : {1u, 2u, 4u, 8u}) {
    auto sharded = ShardScenario(scenario, shards);
    if (sharded == nullptr) continue;

    engine::ServiceOptions options;
    options.engine.threads = 4;
    engine::RecommendationService service(registry, options);
    if (!service.WarmStart(*sharded, 0, 1).ok()) continue;

    StormResult result =
        RunStorm(service, *sharded, scenario, CommitStorm(scenario, 8),
                 /*readers=*/4, /*users_per_batch=*/8, /*max_rounds=*/400);
    if (!result.ok) continue;
    const uint64_t flat_copies = ProbeFlatCopies(*sharded);
    table.AddRow(
        {TablePrinter::Cell(shards), TablePrinter::Cell(result.requests),
         TablePrinter::Cell(static_cast<double>(result.requests) /
                                result.elapsed_s,
                            0),
         TablePrinter::Cell(static_cast<size_t>(8)),
         TablePrinter::Cell(result.commit_ms_mean, 2),
         TablePrinter::Cell(result.commit_ms_max, 2),
         TablePrinter::Cell(static_cast<size_t>(flat_copies))});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: req_s stays within a small factor of the idle-store "
      "rate for every shard count (reads pin snapshots, commits never stall "
      "them), commit_ms stays bounded (incremental refresh), flat_copies "
      "is 0 — the serving path never materialises a whole-store copy.\n");
}

// Timing section (Google Benchmark).

// One warm 8-user batch served while a committer thread lands commits
// in a loop: the sustained-serving rate under write pressure.
void BM_BatchDuringCommits(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  workload::Scenario scenario = ConcurrentScenario();
  auto sharded = ShardScenario(scenario, shards);
  if (sharded == nullptr) {
    state.SkipWithError("shard replay failed");
    return;
  }
  engine::ServiceOptions options;
  options.engine.threads = 4;
  engine::RecommendationService service(registry, options);
  if (!service.WarmStart(*sharded, 0, 1).ok()) {
    state.SkipWithError("warm start failed");
    return;
  }
  std::vector<profile::HumanProfile> users = CloneUsers(scenario.end_user, 8);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& user : users) pointers.push_back(&user);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::thread committer([&] {
    std::vector<version::ChangeSet> storm = CommitStorm(scenario, 64);
    size_t c = 0;
    while (!stop.load()) {
      version::ChangeSet cs = storm[c % storm.size()];
      if (!service.Commit(*sharded, std::move(cs), "committer", "storm",
                          sharded->head() + 1)
               .ok()) {
        break;
      }
      commits.fetch_add(1);
      ++c;
    }
  });
  for (auto _ : state) {
    auto batch = service.RecommendBatch(*sharded, 0, 1, pointers);
    if (!batch.ok()) state.SkipWithError("batch failed");
    benchmark::DoNotOptimize(batch.ok());
  }
  stop.store(true);
  committer.join();
  state.counters["req_per_s"] = benchmark::Counter(
      8.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["commits_landed"] =
      static_cast<double>(commits.load());
}
BENCHMARK(BM_BatchDuringCommits)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// One commit (split + per-shard land + union splice + engine refresh)
// while reader threads keep serving: the bounded-commit-latency claim.
void BM_CommitUnderReadLoad(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  workload::Scenario scenario = ConcurrentScenario();
  auto sharded = ShardScenario(scenario, shards);
  if (sharded == nullptr) {
    state.SkipWithError("shard replay failed");
    return;
  }
  engine::ServiceOptions options;
  options.engine.threads = 4;
  engine::RecommendationService service(registry, options);
  if (!service.WarmStart(*sharded, 0, 1).ok()) {
    state.SkipWithError("warm start failed");
    return;
  }

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::vector<profile::HumanProfile> users =
        CloneUsers(scenario.end_user, 4);
    std::vector<profile::HumanProfile*> pointers;
    for (profile::HumanProfile& user : users) pointers.push_back(&user);
    while (!stop.load()) {
      auto batch = service.RecommendBatch(*sharded, 0, 1, pointers);
      benchmark::DoNotOptimize(batch.ok());
    }
  });
  std::vector<version::ChangeSet> storm = CommitStorm(scenario, 64);
  size_t c = 0;
  for (auto _ : state) {
    version::ChangeSet cs = storm[c % storm.size()];
    auto id = service.Commit(*sharded, std::move(cs), "committer", "bench",
                             sharded->head() + 1);
    if (!id.ok()) state.SkipWithError("commit failed");
    ++c;
  }
  stop.store(true);
  reader.join();
}
BENCHMARK(BM_CommitUnderReadLoad)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Snapshot pin cost: O(total segment count) pointer splicing,
// independent of the triple count — the "snapshot = segment list, not
// copy" claim in one number.
void BM_SnapshotPin(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  workload::Scenario scenario = ConcurrentScenario();
  auto sharded = ShardScenario(scenario, shards);
  if (sharded == nullptr) {
    state.SkipWithError("shard replay failed");
    return;
  }
  for (auto _ : state) {
    auto snapshot = sharded->SharedSnapshot(sharded->head());
    if (!snapshot.ok()) state.SkipWithError("snapshot failed");
    benchmark::DoNotOptimize((*snapshot)->size());
  }
}
BENCHMARK(BM_SnapshotPin)->Arg(1)->Arg(8)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintConcurrentServingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
