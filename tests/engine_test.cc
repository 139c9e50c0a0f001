// Engine layer: shared-evaluation caching, memoized reports, batched
// serving, and the determinism guarantee that RecommendBatch is
// byte-identical to sequential per-user Recommend calls.

#include "engine/evaluation_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "delta/low_level_delta.h"
#include "engine/recommendation_service.h"
#include "version/kb_view.h"
#include "version/sharded_kb.h"
#include "workload/scenarios.h"

namespace evorec::engine {
namespace {

workload::Scenario SmallScenario(uint64_t seed = 7) {
  workload::ScenarioScale scale;
  scale.classes = 40;
  scale.properties = 14;
  scale.instances = 300;
  scale.edges = 600;
  scale.versions = 2;
  scale.operations = 120;
  return workload::MakeDbpediaLike(seed, scale);
}

// Full structural comparison of two delivered lists, including the
// rendered explanation text and the provenance trail ordering.
void ExpectIdenticalLists(const recommend::RecommendationList& a,
                          const recommend::RecommendationList& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    const recommend::RecommendationItem& x = a.items[i];
    const recommend::RecommendationItem& y = b.items[i];
    EXPECT_EQ(x.candidate.id, y.candidate.id);
    EXPECT_EQ(x.candidate.top_terms, y.candidate.top_terms);
    EXPECT_EQ(x.candidate.report.scores().size(),
              y.candidate.report.scores().size());
    EXPECT_EQ(x.relatedness, y.relatedness);
    EXPECT_EQ(x.novelty, y.novelty);
    EXPECT_EQ(x.explanation.ToText(), y.explanation.ToText());
  }
  EXPECT_EQ(a.set_diversity, b.set_diversity);
  EXPECT_EQ(a.category_coverage, b.category_coverage);
  EXPECT_EQ(a.candidate_pool_size, b.candidate_pool_size);
  EXPECT_EQ(a.redacted_terms, b.redacted_terms);
  EXPECT_EQ(a.dropped_candidates, b.dropped_candidates);
  EXPECT_EQ(a.provenance_trail, b.provenance_trail);
}

// Record-for-record comparison of two provenance stores.
void ExpectIdenticalStores(const provenance::ProvenanceStore& a,
                           const provenance::ProvenanceStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const provenance::ProvRecord& x = a.records()[i];
    const provenance::ProvRecord& y = b.records()[i];
    EXPECT_EQ(x.id, y.id) << "record " << i;
    EXPECT_EQ(x.entity, y.entity) << "record " << i;
    EXPECT_EQ(x.activity, y.activity) << "record " << i;
    EXPECT_EQ(x.agent, y.agent) << "record " << i;
    EXPECT_EQ(x.timestamp, y.timestamp) << "record " << i;
    EXPECT_EQ(x.source, y.source) << "record " << i;
    EXPECT_EQ(x.inputs, y.inputs) << "record " << i;
    EXPECT_EQ(x.note, y.note) << "record " << i;
  }
}

TEST(EvaluationEngineTest, SecondEvaluateHitsTheCache) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 4,
                                     .threads = 2});

  auto first = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared evaluation

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
  EXPECT_EQ(stats.context_hits, 1u);
}

TEST(EvaluationEngineTest, DistinctPairsAndOptionsGetDistinctEntries) {
  workload::Scenario scenario = SmallScenario();
  ASSERT_GE(scenario.vkb->version_count(), 3u);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 8,
                                     .threads = 1});

  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 1, 2).ok());
  measures::ContextOptions sampled;
  sampled.betweenness_mode = measures::BetweennessMode::kSampled;
  sampled.betweenness_pivots = 8;
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1, sampled).ok());
  EXPECT_EQ(engine.stats().contexts_built, 3u);
  EXPECT_EQ(engine.cached_contexts(), 3u);
}

TEST(EvaluationEngineTest, LruEvictsLeastRecentlyUsed) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 1,
                                     .threads = 1});

  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 1, 2).ok());  // evicts (0,1)
  EXPECT_EQ(engine.stats().context_evictions, 1u);
  EXPECT_EQ(engine.cached_contexts(), 1u);
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());  // rebuild
  EXPECT_EQ(engine.stats().contexts_built, 3u);
}

TEST(EvaluationEngineTest, EqualHistoriesShareFingerprintsAcrossInstances) {
  workload::Scenario a = SmallScenario(21);
  workload::Scenario b = SmallScenario(21);
  auto ha = a.vkb->Handle(1);
  auto hb = b.vkb->Handle(1);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(ha->fingerprint, hb->fingerprint);

  workload::Scenario c = SmallScenario(22);
  auto hc = c.vkb->Handle(1);
  ASSERT_TRUE(hc.ok());
  EXPECT_NE(ha->fingerprint, hc->fingerprint);
}

TEST(EvaluationEngineTest, ReportsAreMemoizedPerContext) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 4,
                                     .threads = 2});

  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok());
  auto first = (*evaluation)->AllReports();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->size(), registry.size());
  auto second = (*evaluation)->AllReports();
  ASSERT_TRUE(second.ok());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].get(), (*second)[i].get());  // same object
  }
  const measures::ReportCacheStats stats = (*evaluation)->report_stats();
  EXPECT_EQ(stats.computations, registry.size());
  EXPECT_GE(stats.hits, registry.size());

  auto by_name = (*evaluation)->Report("class_change_count");
  ASSERT_TRUE(by_name.ok());
  EXPECT_EQ((*evaluation)->report_stats().computations, registry.size());
}

// A partly warm context computes only its missing reports and serves
// the cached ones as hits.
TEST(EvaluationEngineTest, AllReportsComputesOnlyTheUncached) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 4,
                                     .threads = 2});
  auto evaluation = engine.Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok());
  auto single = (*evaluation)->Report("relevance_shift");
  ASSERT_TRUE(single.ok());

  auto all = (*evaluation)->AllReports();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  measures::ReportCacheStats stats = (*evaluation)->report_stats();
  EXPECT_EQ(stats.computations, registry.size());
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  const std::vector<measures::MeasureInfo> infos = registry.List();
  for (size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].name == "relevance_shift") {
      EXPECT_EQ((*all)[i].get(), single->get());
    }
  }

  auto again = (*evaluation)->AllReports();
  ASSERT_TRUE(again.ok());
  stats = (*evaluation)->report_stats();
  EXPECT_EQ(stats.computations, registry.size());
  EXPECT_EQ(stats.hits, 1u + registry.size());
  for (size_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].get(), (*again)[i].get());
  }
}

// An adjacent pair's context takes its delta from the archived change
// set, which must equal the store diff of the two snapshots under every
// archive policy and through a sharded view — including a noisy change
// set (re-added, added-and-removed, absent and duplicate triples).
TEST(EvaluationEngineTest, AdjacentPairDeltaEqualsTheStoreDiff) {
  workload::Scenario scenario = SmallScenario();
  const version::VersionedKnowledgeBase& source = *scenario.vkb;
  auto base = source.Snapshot(0);
  ASSERT_TRUE(base.ok());
  std::vector<version::ChangeSet> history;
  for (version::VersionId v = 1; v < source.version_count(); ++v) {
    auto changes = source.Changes(v);
    ASSERT_TRUE(changes.ok());
    history.push_back(std::move(changes).value());
  }
  const std::vector<rdf::Triple> head =
      (*source.Snapshot(source.head()))->store().Match(rdf::TriplePattern{});
  ASSERT_GE(head.size(), 3u);
  const rdf::TermId fresh = scenario.vkb->dictionary().InternIri("http://x/fresh");
  const rdf::Triple added{fresh, head[0].predicate, head[0].object};
  const rdf::Triple added_and_removed{fresh, head[1].predicate, head[1].object};
  const rdf::Triple absent{head[2].subject, head[2].predicate, fresh};
  history.push_back(version::ChangeSet{
      {head[0], added, added_and_removed, added},
      {head[1], added_and_removed, absent}});

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  const auto check = [&](version::KbView& view, const std::string& label) {
    for (const version::ChangeSet& changes : history) {
      ASSERT_TRUE(view.Commit(changes, "a", "replay", 0).ok()) << label;
    }
    EvaluationEngine engine(registry, {.threads = 1});
    for (version::VersionId v = 0; v < view.head(); ++v) {
      auto eval = engine.Evaluate(view, v, v + 1);
      ASSERT_TRUE(eval.ok()) << label;
      const measures::EvolutionContext& ctx = (*eval)->context();
      const delta::LowLevelDelta diff =
          delta::ComputeLowLevelDelta(ctx.before(), ctx.after());
      EXPECT_FALSE(diff.empty()) << label << " v" << v;
      EXPECT_EQ(ctx.low_level_delta().added, diff.added) << label << " v" << v;
      EXPECT_EQ(ctx.low_level_delta().removed, diff.removed)
          << label << " v" << v;
    }
  };
  for (const auto& [policy, label] :
       {std::pair{version::ArchivePolicy::kFullMaterialization, "full"},
        std::pair{version::ArchivePolicy::kDeltaChain, "delta-chain"},
        std::pair{version::ArchivePolicy::kHybridCheckpoint, "hybrid"}}) {
    version::VersionedKnowledgeBase vkb(policy, **base,
                                        /*checkpoint_interval=*/2);
    check(vkb, label);
  }
  version::ShardedKnowledgeBase sharded({.shards = 3}, **base);
  check(sharded, "sharded");
}

TEST(RecommendationServiceTest, BatchMatchesSequentialRecommend) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();

  // Sequential baseline: fresh recommender, fresh contexts, one
  // Recommend per user — the paper's per-call processing model.
  workload::Scenario baseline_scenario = SmallScenario(31);
  std::vector<profile::HumanProfile> baseline_profiles;
  for (const profile::HumanProfile& member :
       baseline_scenario.curators.members()) {
    baseline_profiles.push_back(member);
  }
  baseline_profiles.push_back(baseline_scenario.end_user);

  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 4;
  rec_options.novelty_weight = 0.3;
  recommend::Recommender recommender(registry, rec_options);
  std::vector<recommend::RecommendationList> expected;
  for (profile::HumanProfile& prof : baseline_profiles) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *baseline_scenario.vkb, 0, 1);
    ASSERT_TRUE(ctx.ok());
    auto list = recommender.RecommendForUser(*ctx, prof);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    expected.push_back(std::move(list).value());
  }

  // Batched serving over identical inputs (same seeds regenerate the
  // same scenario and profiles).
  workload::Scenario scenario = SmallScenario(31);
  std::vector<profile::HumanProfile> profiles;
  for (const profile::HumanProfile& member : scenario.curators.members()) {
    profiles.push_back(member);
  }
  profiles.push_back(scenario.end_user);
  std::vector<profile::HumanProfile*> pointers;
  std::vector<size_t> seen_before;
  for (profile::HumanProfile& prof : profiles) {
    pointers.push_back(&prof);
    seen_before.push_back(prof.seen_count());
  }

  ServiceOptions service_options;
  service_options.recommender = rec_options;
  service_options.engine.threads = 4;
  RecommendationService service(registry, service_options);
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalLists((*batch)[i], expected[i]);
  }
  // Both paths are pure reads: no seen-history moved.
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].seen_count(), seen_before[i]);
    EXPECT_EQ(baseline_profiles[i].seen_count(), seen_before[i]);
  }
  // The whole batch shared one context build.
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

TEST(RecommendationServiceTest, BatchWithProvenanceMatchesSequentialTrail) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 3;

  // Sequential baseline with a store: records land per user, in user
  // order.
  workload::Scenario baseline_scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> baseline_profiles(
      baseline_scenario.curators.members());
  provenance::ProvenanceStore baseline_store;
  recommend::Recommender recommender(registry, rec_options);
  std::vector<recommend::RecommendationList> expected;
  for (const profile::HumanProfile& prof : baseline_profiles) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *baseline_scenario.vkb, 0, 1);
    ASSERT_TRUE(ctx.ok());
    auto list = recommender.RecommendForUser(*ctx, prof, &baseline_store);
    ASSERT_TRUE(list.ok());
    expected.push_back(std::move(list).value());
  }

  // Batched serving with a store: workers trace into private scratch
  // stores that are spliced in request order, so record ids and trail
  // ordering stay identical to the sequential path.
  workload::Scenario scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> profiles(scenario.curators.members());
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);
  provenance::ProvenanceStore store;
  ServiceOptions service_options;
  service_options.recommender = rec_options;
  service_options.engine.threads = 4;
  RecommendationService service(registry, service_options);
  service.AttachProvenance(&store);
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalLists((*batch)[i], expected[i]);
    EXPECT_FALSE((*batch)[i].provenance_trail.empty());
  }
  EXPECT_EQ(store.size(), baseline_store.size());
  ExpectIdenticalStores(store, baseline_store);

  // Single requests trace through the same scratch store and splice: one
  // Recommend per user, in user order, reproduces the oracle too.
  workload::Scenario single_scenario = SmallScenario(47);
  std::vector<profile::HumanProfile> single_profiles(
      single_scenario.curators.members());
  provenance::ProvenanceStore single_store;
  RecommendationService single_service(registry, service_options);
  single_service.AttachProvenance(&single_store);
  for (size_t i = 0; i < single_profiles.size(); ++i) {
    auto list = single_service.Recommend(*single_scenario.vkb, 0, 1,
                                         single_profiles[i]);
    ASSERT_TRUE(list.ok()) << list.status().ToString();
    ExpectIdenticalLists(*list, expected[i]);
  }
  ExpectIdenticalStores(single_store, baseline_store);
}

TEST(RecommendationServiceTest, GroupBatchMatchesSequentialGroupRecommend) {
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  recommend::RecommenderOptions rec_options;
  rec_options.package_size = 3;
  rec_options.group.fairness_aware = true;

  workload::Scenario baseline_scenario = SmallScenario(53);
  recommend::Recommender recommender(registry, rec_options);
  auto ctx =
      measures::EvolutionContext::FromVersions(*baseline_scenario.vkb, 0, 1);
  ASSERT_TRUE(ctx.ok());
  auto expected =
      recommender.RecommendForGroup(*ctx, baseline_scenario.curators);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  workload::Scenario scenario = SmallScenario(53);
  ServiceOptions service_options;
  service_options.recommender = rec_options;
  RecommendationService service(registry, service_options);
  std::vector<profile::Group*> groups{&scenario.curators};
  auto batch = service.RecommendGroupBatch(*scenario.vkb, 0, 1, groups);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  ExpectIdenticalLists((*batch)[0], *expected);
  EXPECT_EQ((*batch)[0].fairness.mean_satisfaction,
            expected->fairness.mean_satisfaction);
}

TEST(RecommendationServiceTest, WarmBatchDoesZeroRedundantContextBuilds) {
  workload::Scenario scenario = SmallScenario(61);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});

  // 64 distinct users against one pair.
  std::vector<profile::HumanProfile> profiles;
  for (int i = 0; i < 64; ++i) {
    profile::HumanProfile prof = scenario.end_user;
    prof.set_id("user-" + std::to_string(i));
    profiles.push_back(std::move(prof));
  }
  std::vector<profile::HumanProfile*> pointers;
  for (profile::HumanProfile& prof : profiles) pointers.push_back(&prof);

  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 64u);
  const EngineStats stats = service.engine_stats();
  EXPECT_EQ(stats.contexts_built, 1u);
  EXPECT_EQ(stats.context_misses, 1u);
  // Every measure computed exactly once for the whole batch.
  auto evaluation = service.engine().Evaluate(*scenario.vkb, 0, 1);
  ASSERT_TRUE(evaluation.ok());
  EXPECT_EQ((*evaluation)->report_stats().computations, registry.size());

  // A second batch over the same pair is fully warm.
  auto again = service.RecommendBatch(*scenario.vkb, 0, 1, pointers);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

TEST(RecommendationServiceTest, RejectsNullProfiles) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});
  const std::vector<const profile::HumanProfile*> profiles{nullptr};
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, profiles);
  EXPECT_FALSE(batch.ok());
}

// Principals are read-only, so a request that names one principal many
// times serves it that many times, identically, off one context build.
TEST(RecommendationServiceTest, BatchServesRepeatedPrincipalIdentically) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});

  const profile::HumanProfile& prof = scenario.end_user;
  const size_t seen_before = prof.seen_count();
  const std::vector<const profile::HumanProfile*> profiles(64, &prof);
  auto batch = service.RecommendBatch(*scenario.vkb, 0, 1, profiles);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 64u);
  for (const recommend::RecommendationList& list : *batch) {
    ExpectIdenticalLists(list, batch->front());
  }
  EXPECT_EQ(prof.seen_count(), seen_before);

  const profile::Group& group = scenario.curators;
  std::vector<size_t> members_seen;
  for (const profile::HumanProfile& member : group.members()) {
    members_seen.push_back(member.seen_count());
  }
  const std::vector<const profile::Group*> groups(2, &group);
  auto group_batch = service.RecommendGroupBatch(*scenario.vkb, 0, 1, groups);
  ASSERT_TRUE(group_batch.ok()) << group_batch.status().ToString();
  ASSERT_EQ(group_batch->size(), 2u);
  ExpectIdenticalLists((*group_batch)[1], (*group_batch)[0]);
  for (size_t m = 0; m < group.size(); ++m) {
    EXPECT_EQ(group.members()[m].seen_count(), members_seen[m]);
  }
  EXPECT_EQ(service.engine_stats().contexts_built, 1u);
}

TEST(RecommendationServiceTest, UnknownVersionFails) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  RecommendationService service(registry, {});
  profile::HumanProfile prof = scenario.end_user;
  auto list = service.Recommend(*scenario.vkb, 0, 99, prof);
  EXPECT_FALSE(list.ok());
}

}  // namespace
}  // namespace evorec::engine
