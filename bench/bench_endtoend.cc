// E10 — end-to-end processing model (paper §I/§IV): commit → context →
// candidates → recommendation at interactive cost. Per-stage wall
// clock for each scenario preset, individual and group runs.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace evorec::bench {
namespace {

void PrintEndToEndTable() {
  PrintHeader("E10 — end-to-end pipeline decomposition",
              "the processing model serves individual & group "
              "recommendations interactively");
  TablePrinter table({"scenario", "triples", "context_ms", "candidates_ms",
                      "user_rec_ms", "group_rec_ms", "pool", "items"});

  struct Preset {
    const char* name;
    workload::Scenario scenario;
  };
  workload::ScenarioScale scale;
  scale.classes = 100;
  scale.properties = 35;
  scale.instances = 2000;
  scale.edges = 3500;
  scale.versions = 3;
  scale.operations = 400;
  std::vector<Preset> presets;
  presets.push_back({"dbpedia_like", workload::MakeDbpediaLike(81, scale)});
  presets.push_back({"clinical_kb", workload::MakeClinicalKb(83, scale)});
  presets.push_back({"social_feed", workload::MakeSocialFeed(87, scale)});

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (Preset& preset : presets) {
    workload::Scenario& scenario = preset.scenario;
    Stopwatch context_timer;
    auto ctx = measures::EvolutionContext::FromVersions(
        *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
    const double context_ms = context_timer.ElapsedMillis();
    if (!ctx.ok()) continue;

    Stopwatch candidate_timer;
    auto pool = recommend::GenerateCandidates(registry, *ctx, {});
    const double candidates_ms = candidate_timer.ElapsedMillis();
    if (!pool.ok()) continue;

    recommend::Recommender recommender(registry, {});
    if (preset.name == std::string("clinical_kb")) {
      recommender.AttachAccessPolicy(&scenario.policy);
    }
    Stopwatch user_timer;
    auto user_list =
        recommender.RecommendForUser(*ctx, scenario.end_user);
    const double user_ms = user_timer.ElapsedMillis();
    Stopwatch group_timer;
    auto group_list =
        recommender.RecommendForGroup(*ctx, scenario.curators);
    const double group_ms = group_timer.ElapsedMillis();
    if (!user_list.ok() || !group_list.ok()) continue;

    const auto head = scenario.vkb->Snapshot(scenario.vkb->head());
    table.AddRow({preset.name, TablePrinter::Cell((*head)->size()),
                  TablePrinter::Cell(context_ms, 1),
                  TablePrinter::Cell(candidates_ms, 1),
                  TablePrinter::Cell(user_ms, 1),
                  TablePrinter::Cell(group_ms, 1),
                  TablePrinter::Cell(user_list->candidate_pool_size),
                  TablePrinter::Cell(user_list->items.size())});
  }
  table.Print(std::cout);
  std::printf(
      "expected shape: every stage stays interactive (well under a "
      "second at this scale); context build dominates.\n");
}

void BM_EndToEndUser(benchmark::State& state) {
  workload::ScenarioScale scale;
  scale.classes = static_cast<size_t>(state.range(0));
  scale.instances = scale.classes * 20;
  scale.edges = scale.classes * 35;
  scale.versions = 2;
  scale.operations = scale.classes * 4;
  workload::Scenario scenario = workload::MakeDbpediaLike(91, scale);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::Recommender recommender(registry);
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  for (auto _ : state) {
    auto list = recommender.RecommendForUser(*ctx, scenario.end_user);
    benchmark::DoNotOptimize(list.ok());
  }
}
BENCHMARK(BM_EndToEndUser)->Arg(50)->Arg(100);

void BM_ContextBuild(benchmark::State& state) {
  workload::ScenarioScale scale;
  scale.classes = static_cast<size_t>(state.range(0));
  scale.instances = scale.classes * 20;
  scale.edges = scale.classes * 35;
  scale.versions = 2;
  scale.operations = scale.classes * 4;
  workload::Scenario scenario = workload::MakeDbpediaLike(93, scale);
  for (auto _ : state) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
    benchmark::DoNotOptimize(ctx.ok());
  }
}
BENCHMARK(BM_ContextBuild)->Arg(50)->Arg(200);

}  // namespace
}  // namespace evorec::bench

int main(int argc, char** argv) {
  evorec::bench::PrintEndToEndTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
