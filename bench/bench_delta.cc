// E1 — low-level delta computation and archive policies (paper §II.a).
// Table 1: |δ+|, |δ−|, |δ| and delta-computation wall clock across KB
// scale and change ratio. Table 2: archive policy ablation — storage
// and snapshot reconstruction cost, full materialisation vs delta
// chain.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace evorec::bench {
namespace {

void PrintDeltaScalingTable() {
  PrintHeader("E1 — delta computation",
              "|delta| = |delta+| + |delta-| quantifies change and must "
              "scale to large KBs");
  TablePrinter table({"classes", "triples", "ops", "|d+|", "|d-|", "|d|",
                      "delta_ms"});
  for (size_t classes : {50, 200, 800}) {
    for (size_t ops : {100, 500, 2000}) {
      TwoVersionWorkload w = MakeTwoVersionWorkload(
          classes, classes * 20, classes * 35, ops, /*seed=*/17);
      Stopwatch timer;
      const delta::LowLevelDelta delta =
          delta::ComputeLowLevelDelta(w.generated.kb, w.after);
      const double ms = timer.ElapsedMillis();
      table.AddRow({TablePrinter::Cell(classes),
                    TablePrinter::Cell(w.generated.kb.size()),
                    TablePrinter::Cell(ops),
                    TablePrinter::Cell(delta.added.size()),
                    TablePrinter::Cell(delta.removed.size()),
                    TablePrinter::Cell(delta.size()),
                    TablePrinter::Cell(ms, 2)});
    }
  }
  table.Print(std::cout);
}

// Builds a version chain at the E1b default scale (200 classes, 4000
// instances, 7000 edges base; `versions` x `ops_per_version` evolution
// steps) — shared by the E1b table and the replay benchmarks so they
// measure the same workload.
version::VersionedKnowledgeBase MakeVersionChain(version::ArchivePolicy policy,
                                                 size_t versions,
                                                 size_t ops_per_version) {
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(200, 4000, 7000, 100, /*seed=*/23);
  version::VersionedKnowledgeBase vkb(policy, w.generated.kb);
  for (size_t v = 0; v < versions; ++v) {
    workload::EvolutionOptions options;
    options.operations = ops_per_version;
    options.seed = 31 + v;
    options.epoch = v + 1;
    auto head = vkb.Snapshot(vkb.head());
    const workload::EvolutionOutcome outcome =
        workload::GenerateEvolution(**head, vkb.dictionary(), options);
    (void)vkb.Commit(outcome.changes, "bench", "step");
  }
  vkb.EvictSnapshotCache();
  return vkb;
}

void PrintArchivePolicyTable() {
  PrintHeader("E1b — archive policy ablation (cf. [13])",
              "delta chains trade snapshot latency for storage");
  TablePrinter table({"policy", "versions", "storage", "snapshot_head_ms",
                      "snapshot_mid_ms"});
  for (auto policy : {version::ArchivePolicy::kFullMaterialization,
                      version::ArchivePolicy::kDeltaChain,
                      version::ArchivePolicy::kHybridCheckpoint}) {
    auto vkb = MakeVersionChain(policy, 12, 120);
    Stopwatch head_timer;
    auto head = vkb.MaterializeUncached(vkb.head());
    const double head_ms = head_timer.ElapsedMillis();
    Stopwatch mid_timer;
    auto mid = vkb.MaterializeUncached(vkb.head() / 2);
    const double mid_ms = mid_timer.ElapsedMillis();
    const char* policy_name =
        policy == version::ArchivePolicy::kFullMaterialization
            ? "full_materialization"
            : policy == version::ArchivePolicy::kDeltaChain
                  ? "delta_chain"
                  : "hybrid_checkpoint(4)";
    table.AddRow(
        {policy_name, TablePrinter::Cell(vkb.version_count()),
         HumanBytes(vkb.StorageBytes()), TablePrinter::Cell(head_ms, 2),
         TablePrinter::Cell(mid_ms, 2)});
  }
  table.Print(std::cout);
}

void BM_DeltaComputation(benchmark::State& state) {
  const size_t classes = static_cast<size_t>(state.range(0));
  TwoVersionWorkload w = MakeTwoVersionWorkload(
      classes, classes * 20, classes * 35, classes * 2, /*seed=*/17);
  for (auto _ : state) {
    auto delta = delta::ComputeLowLevelDelta(w.generated.kb, w.after);
    benchmark::DoNotOptimize(delta.added.data());
  }
  state.counters["triples"] = static_cast<double>(w.generated.kb.size());
}
BENCHMARK(BM_DeltaComputation)->Arg(50)->Arg(200)->Arg(800);

void BM_PerTermIndex(benchmark::State& state) {
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(200, 4000, 7000, 1000, /*seed=*/17);
  const delta::LowLevelDelta delta =
      delta::ComputeLowLevelDelta(w.generated.kb, w.after);
  for (auto _ : state) {
    auto counts = delta::PerTermChangeCounts(delta);
    benchmark::DoNotOptimize(counts.size());
  }
}
BENCHMARK(BM_PerTermIndex);

// The E1 replay row: reconstruct the head snapshot from the base plus
// the delta chain — the hot loop behind every historical measure.
void BM_SnapshotReplay(benchmark::State& state) {
  const auto policy = static_cast<version::ArchivePolicy>(state.range(0));
  auto vkb = MakeVersionChain(policy, 12, 120);
  for (auto _ : state) {
    auto kb = vkb.MaterializeUncached(vkb.head());
    benchmark::DoNotOptimize(kb->size());
  }
  auto head = vkb.MaterializeUncached(vkb.head());
  state.counters["triples"] = static_cast<double>(head->size());
}
BENCHMARK(BM_SnapshotReplay)
    ->Arg(static_cast<int>(version::ArchivePolicy::kDeltaChain))
    ->Arg(static_cast<int>(version::ArchivePolicy::kHybridCheckpoint));

// Repeated small-delta Compact(): the per-commit indexing cost. Each
// iteration applies a 64-triple add batch plus a 64-triple remove
// batch (steady-state size) and compacts.
void BM_RepeatedSmallDeltaCompact(benchmark::State& state) {
  const uint32_t base = static_cast<uint32_t>(state.range(0));
  rdf::TripleStore store;
  std::vector<rdf::Triple> triples;
  triples.reserve(base);
  for (uint32_t i = 0; i < base; ++i) {
    triples.push_back({i / 8, 1000000u + i % 17, i});
  }
  store.AddAll(triples);
  store.Compact();
  const uint32_t d = 64;
  uint64_t epoch = 0;
  for (auto _ : state) {
    const uint32_t add_tag = static_cast<uint32_t>(epoch % 2);
    for (uint32_t j = 0; j < d; ++j) {
      store.Add({2000000u + j, 7, add_tag});
      store.Remove({2000000u + j, 7, 1 - add_tag});
    }
    store.Compact();
    benchmark::DoNotOptimize(store.size());
    ++epoch;
  }
}
BENCHMARK(BM_RepeatedSmallDeltaCompact)->Arg(20000)->Arg(100000);

void BM_CommitThroughput(benchmark::State& state) {
  const auto policy = static_cast<version::ArchivePolicy>(state.range(0));
  TwoVersionWorkload w =
      MakeTwoVersionWorkload(100, 2000, 3500, 100, /*seed=*/29);
  for (auto _ : state) {
    state.PauseTiming();
    version::VersionedKnowledgeBase vkb(policy, w.generated.kb);
    state.ResumeTiming();
    (void)vkb.Commit(w.outcome.changes, "bench", "step");
    benchmark::DoNotOptimize(vkb.version_count());
  }
}
BENCHMARK(BM_CommitThroughput)
    ->Arg(static_cast<int>(version::ArchivePolicy::kFullMaterialization))
    ->Arg(static_cast<int>(version::ArchivePolicy::kDeltaChain));

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintDeltaScalingTable();
  evorec::bench::PrintArchivePolicyTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
