// E11 — batched multi-user serving (engine layer): N users asking
// about one version pair share one cached EvolutionContext, one
// memoized report set, and one candidate pool. Cold = the paper's
// per-call processing model (context rebuilt per request); warm =
// RecommendationService with a hot cache. The figure table records
// req/s for 1→64 users and the thread sweep; the timing section
// times the same paths under Google Benchmark.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace evorec::bench {
namespace {

workload::Scenario ServingScenario(uint64_t seed = 111) {
  // Serving-scale KB: large enough that the shared artefacts
  // (snapshots, delta, schema graphs, betweenness) dominate a cold
  // request, as they do on real encyclopedic KBs.
  workload::ScenarioScale scale;
  scale.classes = 220;
  scale.properties = 70;
  scale.instances = 4500;
  scale.edges = 8000;
  scale.versions = 2;
  scale.operations = 700;
  return workload::MakeDbpediaLike(seed, scale);
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

// One request per user, each paying the full per-call cost: context
// build + every measure + candidate generation (the pre-engine
// serving model).
double ColdServeSeconds(const workload::Scenario& scenario,
                        const measures::MeasureRegistry& registry,
                        std::vector<profile::HumanProfile>& users) {
  const recommend::Recommender recommender(registry);
  Stopwatch timer;
  for (profile::HumanProfile& user : users) {
    auto ctx = measures::EvolutionContext::FromVersions(*scenario.vkb, 0, 1);
    if (!ctx.ok()) return -1.0;
    auto list = recommender.RecommendForUser(*ctx, user);
    if (!list.ok()) return -1.0;
    benchmark::DoNotOptimize(list->items.size());
  }
  return timer.ElapsedMillis() / 1000.0;
}

void PrintServingTable() {
  PrintHeader("E11 — batched multi-user serving over one version pair",
              "shared contexts + memoized reports amortise the expensive "
              "artefacts across every user asking about the same pair");

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  workload::Scenario scenario = ServingScenario();

  TablePrinter table({"users", "cold_s", "cold_req_s", "warm_s",
                      "warm_req_s", "speedup", "ctx_builds"});
  for (size_t n : {1u, 4u, 16u, 64u}) {
    std::vector<profile::HumanProfile> cold_users =
        CloneUsers(scenario.end_user, n);
    const double cold_s = ColdServeSeconds(scenario, registry, cold_users);
    if (cold_s < 0.0) continue;

    engine::RecommendationService service(registry);
    std::vector<profile::HumanProfile> warm_users =
        CloneUsers(scenario.end_user, n);
    std::vector<profile::HumanProfile*> pointers;
    for (profile::HumanProfile& user : warm_users) {
      pointers.push_back(&user);
    }
    // Warm the cache with one throwaway request, then time the batch.
    profile::HumanProfile warmup = scenario.end_user;
    if (!service.Recommend(*scenario.vkb, 0, 1, warmup).ok()) continue;
    Stopwatch warm_timer;
    auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
    const double warm_s = warm_timer.ElapsedMillis() / 1000.0;
    if (!batch.ok()) continue;

    const engine::EngineStats stats = service.engine_stats();
    table.AddRow({TablePrinter::Cell(n), TablePrinter::Cell(cold_s, 3),
                  TablePrinter::Cell(static_cast<double>(n) / cold_s, 0),
                  TablePrinter::Cell(warm_s, 4),
                  TablePrinter::Cell(static_cast<double>(n) / warm_s, 0),
                  TablePrinter::Cell(cold_s / warm_s, 1),
                  TablePrinter::Cell(stats.contexts_built)});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: cold req/s is flat (every request rebuilds the "
      "context); warm req/s grows with the batch while ctx_builds stays "
      "at 1 — zero redundant context builds.\n");

  // Thread sweep: one warm 64-user batch, 1→T workers.
  TablePrinter threads_table({"threads", "batch64_ms", "req_s"});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > 2 * ThreadPool::DefaultThreadCount()) break;
    engine::ServiceOptions service_options;
    service_options.engine.threads = threads;
    engine::RecommendationService service(registry, service_options);
    std::vector<profile::HumanProfile> users =
        CloneUsers(scenario.end_user, 64);
    std::vector<profile::HumanProfile*> pointers;
    for (profile::HumanProfile& user : users) pointers.push_back(&user);
    profile::HumanProfile warmup = scenario.end_user;
    if (!service.Recommend(*scenario.vkb, 0, 1, warmup).ok()) continue;
    Stopwatch timer;
    auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
    const double ms = timer.ElapsedMillis();
    if (!batch.ok()) continue;
    threads_table.AddRow({TablePrinter::Cell(threads),
                          TablePrinter::Cell(ms, 2),
                          TablePrinter::Cell(64.0 / (ms / 1000.0), 0)});
  }
  threads_table.Print(std::cout);
  std::printf(
      "expected shape: the per-user stages scale with the worker count "
      "until they are too cheap to matter.\n");
}

// Timing section — the ≥10x warm-batch speedup claim under Google
// Benchmark.

// Cold baseline: 64 sequential per-call requests, context rebuilt
// every time.
void BM_ColdServe64(benchmark::State& state) {
  workload::Scenario scenario = ServingScenario();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (auto _ : state) {
    std::vector<profile::HumanProfile> users =
        CloneUsers(scenario.end_user, 64);
    const double seconds = ColdServeSeconds(scenario, registry, users);
    if (seconds < 0.0) state.SkipWithError("cold serve failed");
  }
  state.counters["req_per_s"] = benchmark::Counter(
      64.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ColdServe64)->Unit(benchmark::kMillisecond);

// Warm batch: the engine's cache is hot; one RecommendBatch serves all
// 64 users.
void BM_WarmBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  workload::Scenario scenario = ServingScenario();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::RecommendationService service(registry);
  std::vector<profile::HumanProfile> users =
      CloneUsers(scenario.end_user, n);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& user : users) pointers.push_back(&user);
  profile::HumanProfile warmup = scenario.end_user;
  if (!service.Recommend(*scenario.vkb, 0, 1, warmup).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
    if (!batch.ok()) state.SkipWithError("batch failed");
    benchmark::DoNotOptimize(batch.ok());
  }
  if (service.engine_stats().contexts_built != 1) {
    state.SkipWithError("redundant context builds detected");
  }
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WarmBatch)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

// Thread sweep of the warm 64-user batch.
void BM_WarmBatch64Threads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  workload::Scenario scenario = ServingScenario();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::ServiceOptions service_options;
  service_options.engine.threads = threads;
  engine::RecommendationService service(registry, service_options);
  std::vector<profile::HumanProfile> users =
      CloneUsers(scenario.end_user, 64);
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& user : users) pointers.push_back(&user);
  profile::HumanProfile warmup = scenario.end_user;
  if (!service.Recommend(*scenario.vkb, 0, 1, warmup).ok()) {
    state.SkipWithError("warmup failed");
    return;
  }
  for (auto _ : state) {
    auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
    benchmark::DoNotOptimize(batch.ok());
  }
}
BENCHMARK(BM_WarmBatch64Threads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Cold engine request: cache miss end to end (context build + reports
// + pool + one user) — what a brand-new version pair costs.
void BM_ColdEngineRequest(benchmark::State& state) {
  workload::Scenario scenario = ServingScenario();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (auto _ : state) {
    engine::RecommendationService service(registry);
    profile::HumanProfile user = scenario.end_user;
    auto list = service.Recommend(*scenario.vkb, 0, 1, user);
    benchmark::DoNotOptimize(list.ok());
  }
}
BENCHMARK(BM_ColdEngineRequest)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintServingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
