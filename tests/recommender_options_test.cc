// Option-interplay coverage for the Recommender facade: package sizes,
// lambda extremes, extended registry, and group provenance.

#include <gtest/gtest.h>

#include "evorec.h"

namespace evorec::recommend {
namespace {

struct Fixture {
  workload::Scenario scenario;
  measures::MeasureRegistry registry;
  measures::EvolutionContext ctx;

  static workload::ScenarioScale Scale() {
    workload::ScenarioScale scale;
    scale.classes = 35;
    scale.properties = 12;
    scale.instances = 300;
    scale.edges = 500;
    scale.versions = 2;
    scale.operations = 120;
    return scale;
  }

  Fixture()
      : scenario(workload::MakeDbpediaLike(61, Scale())),
        registry(measures::ExtendedRegistry()),
        ctx(Build()) {}

  measures::EvolutionContext Build() {
    auto result = measures::EvolutionContext::FromVersions(
        *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST(RecommenderOptionsTest, PackageSizeLargerThanPoolClamps) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 10000;
  Recommender recommender(f.registry, options);
  auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->items.size(), list->candidate_pool_size);
}

TEST(RecommenderOptionsTest, PackageSizeZeroGivesEmptyPackage) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 0;
  Recommender recommender(f.registry, options);
  auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
  ASSERT_TRUE(list.ok());
  EXPECT_TRUE(list->items.empty());
}

TEST(RecommenderOptionsTest, LambdaExtremesBothDeliver) {
  Fixture f;
  for (double lambda : {0.0, 1.0}) {
    RecommenderOptions options;
    options.mmr_lambda = lambda;
    Recommender recommender(f.registry, options);
    auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
    ASSERT_TRUE(list.ok()) << "lambda " << lambda;
    EXPECT_FALSE(list->items.empty());
  }
}

TEST(RecommenderOptionsTest, ExtendedRegistryContributesPropertyMeasures) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 50;  // take (almost) everything
  Recommender recommender(f.registry, options);
  auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
  ASSERT_TRUE(list.ok());
  bool property_scoped = false;
  for (const auto& item : list->items) {
    if (item.candidate.measure.scope == measures::MeasureScope::kProperty) {
      property_scoped = true;
    }
  }
  EXPECT_TRUE(property_scoped)
      << "extended registry should surface property-scoped candidates";
}

TEST(RecommenderOptionsTest, GroupRunsRecordProvenanceTrail) {
  Fixture f;
  provenance::ProvenanceStore store;
  Recommender recommender(f.registry, {});
  auto list =
      recommender.RecommendForGroup(f.ctx, f.scenario.curators, &store);
  ASSERT_TRUE(list.ok());
  // Group pipeline stages: context, candidates, gate, selection.
  EXPECT_EQ(list->provenance_trail.size(), 4u);
  for (provenance::RecordId id : list->provenance_trail) {
    auto record = store.Get(id);
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record->agent, "evorec");
  }
}

TEST(RecommenderOptionsTest, GroupStrategySwitchesChangeDiagnostics) {
  Fixture f;
  RecommenderOptions fair_options;
  fair_options.group.fairness_aware = true;
  fair_options.group.diversify = false;
  RecommenderOptions misery_options = fair_options;
  misery_options.group.fairness_aware = false;
  misery_options.group.aggregation = GroupAggregation::kMostPleasure;

  Recommender fair(f.registry, fair_options);
  Recommender pleasure(f.registry, misery_options);
  auto fair_list = fair.RecommendForGroup(f.ctx, f.scenario.curators);
  auto pleasure_list =
      pleasure.RecommendForGroup(f.ctx, f.scenario.curators);
  ASSERT_TRUE(fair_list.ok());
  ASSERT_TRUE(pleasure_list.ok());
  // Maximin package never has a lower minimum than most-pleasure.
  EXPECT_GE(fair_list->fairness.min_satisfaction + 1e-9,
            pleasure_list->fairness.min_satisfaction);
}

TEST(RecommenderOptionsTest, DiversityKindIsHonoured) {
  Fixture f;
  for (auto kind : {DiversityKind::kContent, DiversityKind::kNovelty,
                    DiversityKind::kSemantic}) {
    RecommenderOptions options;
    options.diversity = kind;
    Recommender recommender(f.registry, options);
    auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
    ASSERT_TRUE(list.ok());
    EXPECT_GE(list->set_diversity, 0.0);
    EXPECT_LE(list->set_diversity, 1.0);
  }
}

TEST(RecommenderOptionsTest, TimelineWorksOnScenarioHistories) {
  // Timeline over a scenario: the planted hot classes of the last
  // transition show up among the trending/bursty terms.
  Fixture f;
  measures::ClassChangeCountMeasure churn;
  auto timeline =
      measures::EvolutionTimeline::Compute(*f.scenario.vkb, churn);
  ASSERT_TRUE(timeline.ok());
  EXPECT_EQ(timeline->transition_count(),
            f.scenario.vkb->version_count() - 1);
  const auto bursty = timeline->TopBursty(10);
  EXPECT_FALSE(bursty.empty());
  for (const auto& t : bursty) {
    EXPECT_GT(t.mean, 0.0);
    EXPECT_GE(t.burstiness, 1.0);
  }
}

}  // namespace
}  // namespace evorec::recommend
