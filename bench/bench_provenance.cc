// E9 — transparency via provenance (paper §III.b): every recommended
// item must answer who/when/how; capture overhead must stay small.
// Table: end-to-end recommendation latency with and without provenance
// capture; store growth; derivation-chain query latency; trust scores
// per source kind.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace evorec::bench {
namespace {

struct PipelineSetup {
  workload::Scenario scenario;
  measures::MeasureRegistry registry;
  std::optional<measures::EvolutionContext> ctx;

  explicit PipelineSetup(uint64_t seed)
      : scenario(MakeScenario(seed)), registry(measures::DefaultRegistry()) {
    auto built = measures::EvolutionContext::FromVersions(
        *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
    if (built.ok()) ctx.emplace(std::move(built).value());
  }

  static workload::Scenario MakeScenario(uint64_t seed) {
    workload::ScenarioScale scale;
    scale.classes = 60;
    scale.instances = 700;
    scale.edges = 1200;
    scale.versions = 2;
    scale.operations = 250;
    return workload::MakeDbpediaLike(seed, scale);
  }
};

void PrintOverheadTable() {
  PrintHeader("E9 — provenance capture overhead",
              "workflow systems systematically capture provenance so "
              "who/when/how stays answerable");
  PipelineSetup setup(71);
  if (!setup.ctx.has_value()) return;

  TablePrinter table({"capture", "runs", "total_ms", "records",
                      "ms_per_run"});
  for (bool capture : {false, true}) {
    provenance::ProvenanceStore store;
    recommend::Recommender recommender(setup.registry);
    profile::HumanProfile user = setup.scenario.end_user;
    const size_t runs = 10;
    Stopwatch timer;
    for (size_t i = 0; i < runs; ++i) {
      auto list = recommender.RecommendForUser(*setup.ctx, user,
                                               capture ? &store : nullptr);
      benchmark::DoNotOptimize(list.ok());
    }
    const double total_ms = timer.ElapsedMillis();
    table.AddRow({capture ? "on" : "off", TablePrinter::Cell(runs),
                  TablePrinter::Cell(total_ms, 1),
                  TablePrinter::Cell(store.size()),
                  TablePrinter::Cell(total_ms / runs, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: capture adds 5 records/run at negligible "
      "relative cost (the pipeline itself dominates).\n");
}

void PrintTransparencyQueries() {
  PrintHeader("E9b — transparency queries and trust",
              "who created the item, when, by which process; trust per "
              "source kind");
  PipelineSetup setup(73);
  if (!setup.ctx.has_value()) return;
  provenance::ProvenanceStore store;
  recommend::Recommender recommender(setup.registry, {});
  profile::HumanProfile user = setup.scenario.end_user;
  for (int i = 0; i < 20; ++i) {
    (void)recommender.RecommendForUser(*setup.ctx, user, &store);
  }

  Stopwatch chain_timer;
  size_t chain_len = 0;
  for (const auto& record : store.records()) {
    auto chain = store.DerivationChain(record.id);
    if (chain.ok()) chain_len += chain->size();
  }
  const double chain_ms = chain_timer.ElapsedMillis();

  TablePrinter table({"metric", "value"});
  table.AddRow({"records", TablePrinter::Cell(store.size())});
  table.AddRow({"entity query (package)",
                TablePrinter::Cell(store.ForEntity("package").size())});
  table.AddRow({"agent query (evorec)",
                TablePrinter::Cell(store.ByAgent("evorec").size())});
  auto depth = store.DerivationDepth(store.size() - 1);
  table.AddRow({"max chain depth",
                TablePrinter::Cell(depth.ok() ? *depth : 0)});
  table.AddRow({"all-chains walk ms", TablePrinter::Cell(chain_ms, 2)});
  table.AddRow({"chain links visited", TablePrinter::Cell(chain_len)});
  // Trust per source kind on a synthetic chain.
  provenance::ProvenanceStore trust_store;
  provenance::ProvRecord obs;
  obs.entity = "obs";
  obs.source = provenance::SourceKind::kObservation;
  auto obs_id = trust_store.Append(obs);
  provenance::ProvRecord inf;
  inf.entity = "inf";
  inf.source = provenance::SourceKind::kInference;
  inf.inputs = {*obs_id};
  auto inf_id = trust_store.Append(inf);
  provenance::ProvRecord belief;
  belief.entity = "belief";
  belief.source = provenance::SourceKind::kBeliefAdoption;
  belief.inputs = {*inf_id};
  auto belief_id = trust_store.Append(belief);
  table.AddRow({"trust(observation)",
                TablePrinter::Cell(*provenance::TrustOf(trust_store,
                                                        *obs_id),
                                   3)});
  table.AddRow({"trust(inference<-obs)",
                TablePrinter::Cell(*provenance::TrustOf(trust_store,
                                                        *inf_id),
                                   3)});
  table.AddRow({"trust(belief<-inference)",
                TablePrinter::Cell(*provenance::TrustOf(trust_store,
                                                        *belief_id),
                                   3)});
  table.Print(std::cout);
}

void BM_ProvenanceAppend(benchmark::State& state) {
  provenance::ProvenanceStore store;
  provenance::ProvRecord record;
  record.entity = "e";
  record.agent = "a";
  record.source = provenance::SourceKind::kInference;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Append(record).ok());
  }
  state.counters["records"] = static_cast<double>(store.size());
}
BENCHMARK(BM_ProvenanceAppend);

void BM_DerivationChain(benchmark::State& state) {
  provenance::ProvenanceStore store;
  // A linear chain of the given depth.
  provenance::RecordId last = 0;
  for (int64_t i = 0; i < state.range(0); ++i) {
    provenance::ProvRecord record;
    record.entity = "e" + std::to_string(i);
    record.source = provenance::SourceKind::kInference;
    if (i > 0) record.inputs = {last};
    last = *store.Append(std::move(record));
  }
  for (auto _ : state) {
    auto chain = store.DerivationChain(last);
    benchmark::DoNotOptimize(chain.ok());
  }
}
BENCHMARK(BM_DerivationChain)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintOverheadTable();
  evorec::bench::PrintTransparencyQueries();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
