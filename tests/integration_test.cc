// End-to-end integration: scenarios → versioned history → context →
// measures → recommender, with provenance and anonymity attached —
// the full processing model of the paper in one test binary.

#include <gtest/gtest.h>

#include "evorec.h"

namespace evorec {
namespace {

workload::ScenarioScale TestScale() {
  workload::ScenarioScale scale;
  scale.classes = 50;
  scale.properties = 20;
  scale.instances = 500;
  scale.edges = 900;
  scale.versions = 3;
  scale.operations = 200;
  return scale;
}

TEST(IntegrationTest, FullPipelineOnDbpediaLike) {
  workload::Scenario scenario = workload::MakeDbpediaLike(31, TestScale());
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());

  // Every default measure computes a full report over the union
  // universe.
  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (const auto& measure : registry.CreateAll()) {
    auto report = measure->Compute(*ctx);
    ASSERT_TRUE(report.ok()) << measure->info().name;
    for (const auto& scored : report->scores()) {
      EXPECT_GE(scored.score, 0.0) << measure->info().name;
    }
  }

  // Recommender with provenance produces an explained package.
  provenance::ProvenanceStore prov;
  recommend::Recommender recommender(registry, {});
  auto list = recommender.RecommendForUser(*ctx, scenario.end_user, &prov);
  ASSERT_TRUE(list.ok());
  EXPECT_FALSE(list->items.empty());
  EXPECT_GT(prov.size(), 0u);

  // Explanations are renderable and carry the measure story.
  for (const auto& item : list->items) {
    const std::string text = item.explanation.ToText();
    EXPECT_NE(text.find("measure"), std::string::npos);
    EXPECT_NE(text.find(item.candidate.measure.name), std::string::npos);
  }
}

TEST(IntegrationTest, HotClassesSurfaceInChangeCountRanking) {
  workload::Scenario scenario = workload::MakeDbpediaLike(37, TestScale());
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());

  measures::ClassChangeCountMeasure measure;
  auto report = measure.Compute(*ctx);
  ASSERT_TRUE(report.ok());
  const auto top = report->TopKTerms(10);
  size_t hits = 0;
  for (rdf::TermId hot : scenario.hot_classes) {
    if (std::find(top.begin(), top.end(), hot) != top.end()) ++hits;
  }
  // The planted hotspots dominate the ranking (at least 2 of 3 in the
  // top 10).
  EXPECT_GE(hits, 2u);
}

TEST(IntegrationTest, DeltaChainPolicyIsDropInReplacement) {
  // Build the same history under both archive policies; measures agree
  // exactly.
  workload::SchemaGenOptions schema_options;
  schema_options.class_count = 30;
  workload::GeneratedSchema generated =
      workload::GenerateSchema(schema_options);
  workload::InstanceGenOptions instance_options;
  instance_options.instance_count = 200;
  instance_options.edge_count = 300;
  workload::PopulateInstances(generated, instance_options);

  version::VersionedKnowledgeBase full(
      version::ArchivePolicy::kFullMaterialization, generated.kb);
  version::VersionedKnowledgeBase chain(version::ArchivePolicy::kDeltaChain,
                                        generated.kb);

  workload::EvolutionOptions evolution_options;
  evolution_options.operations = 120;
  const workload::EvolutionOutcome outcome = workload::GenerateEvolution(
      generated.kb, generated.kb.dictionary(), evolution_options);
  (void)full.Commit(outcome.changes, "t", "v1");
  (void)chain.Commit(outcome.changes, "t", "v1");

  auto ctx_full = measures::EvolutionContext::FromVersions(full, 0, 1);
  auto ctx_chain = measures::EvolutionContext::FromVersions(chain, 0, 1);
  ASSERT_TRUE(ctx_full.ok());
  ASSERT_TRUE(ctx_chain.ok());

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (const auto& measure : registry.CreateAll()) {
    auto a = measure->Compute(*ctx_full);
    auto b = measure->Compute(*ctx_chain);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->size(), b->size()) << measure->info().name;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_DOUBLE_EQ(a->scores()[i].score, b->scores()[i].score)
          << measure->info().name;
    }
  }
}

TEST(IntegrationTest, AnonymousAggregateReportFromEvolution) {
  // Build the §III.e flow: per-class change counts → aggregate table →
  // k-anonymised view.
  workload::Scenario scenario = workload::MakeClinicalKb(41, TestScale());
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());

  const auto head = scenario.vkb->Snapshot(scenario.vkb->head());
  ASSERT_TRUE(head.ok());
  const schema::SchemaView view = schema::SchemaView::Build(**head);

  anonymity::AggregateTable table({"class"}, "changes");
  for (rdf::TermId cls : ctx->union_classes()) {
    const size_t changes = ctx->delta_index().ExtendedChanges(cls);
    const size_t population = view.InstanceCount(cls);
    if (population == 0) continue;
    ASSERT_TRUE(table
                    .AddRow({(*head)->dictionary().term(cls).lexical},
                            static_cast<double>(changes), population)
                    .ok());
  }
  ASSERT_GT(table.row_count(), 0u);

  const anonymity::ValueHierarchy taxonomy =
      anonymity::ValueHierarchy::FromClassHierarchy(view.hierarchy(),
                                                    (*head)->dictionary());
  auto result = anonymity::Anonymize(table, 5, {taxonomy});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(anonymity::IsKAnonymous(result->table, 5));
  EXPECT_LE(anonymity::ReidentificationRisk(result->table), 1.0 / 5.0);
}

TEST(IntegrationTest, GroupPackageAvoidsAlwaysLeastSatisfiedMember) {
  workload::Scenario scenario = workload::MakeDbpediaLike(43, TestScale());
  auto ctx = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());
  const measures::MeasureRegistry registry = measures::DefaultRegistry();

  recommend::RecommenderOptions options;
  options.group.fairness_aware = true;
  options.group.diversify = false;
  recommend::Recommender recommender(registry, options);
  auto list = recommender.RecommendForGroup(*ctx, scenario.curators);
  ASSERT_TRUE(list.ok());
  // Fairness-aware packages should avoid the paper's pathological
  // pattern whenever the pool permits; at minimum the diagnostics are
  // reported.
  EXPECT_EQ(list->fairness.satisfaction.size(), scenario.curators.size());
  EXPECT_GE(list->fairness.mean_satisfaction,
            list->fairness.min_satisfaction);
}

TEST(IntegrationTest, NTriplesExportReimportPreservesMeasures) {
  workload::Scenario scenario = workload::MakeSocialFeed(47, TestScale());
  const auto v1 = scenario.vkb->Snapshot(scenario.vkb->head() - 1);
  const auto v2 = scenario.vkb->Snapshot(scenario.vkb->head());
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(v2.ok());

  // Export both snapshots, reimport into a fresh shared dictionary.
  auto dict = std::make_shared<rdf::Dictionary>();
  rdf::KnowledgeBase before(dict);
  rdf::KnowledgeBase after(dict);
  ASSERT_TRUE(rdf::ParseNTriples(
                  rdf::WriteNTriples((*v1)->store(), (*v1)->dictionary()),
                  *dict, before.store())
                  .ok());
  ASSERT_TRUE(rdf::ParseNTriples(
                  rdf::WriteNTriples((*v2)->store(), (*v2)->dictionary()),
                  *dict, after.store())
                  .ok());

  auto ctx_orig = measures::EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  auto ctx_reimported = measures::EvolutionContext::Build(before, after);
  ASSERT_TRUE(ctx_orig.ok());
  ASSERT_TRUE(ctx_reimported.ok());
  // Same |δ| and same total change-count mass (term ids differ, counts
  // must not).
  EXPECT_EQ(ctx_orig->low_level_delta().size(),
            ctx_reimported->low_level_delta().size());
  measures::ClassChangeCountMeasure measure;
  auto a = measure.Compute(*ctx_orig);
  auto b = measure.Compute(*ctx_reimported);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->TotalScore(), b->TotalScore());
}

}  // namespace
}  // namespace evorec
