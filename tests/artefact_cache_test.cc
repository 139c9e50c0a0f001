// Version-level artefact cache: the counter-verified reuse contract of
// the cold path. Walking a K-version chain through the engine must
// build each version's snapshot, schema view, schema graph, class
// kernels and betweenness exactly once (the pair-keyed path performed
// 2·(K−1) builds), while producing reports bit-identical to the
// classic per-pair path; the score tier keeps Brandes at once per
// version when the bundles are evicted. Plus concurrency stresses over
// one shared cache (exercised by the TSan CI job).

#include "engine/artefact_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/evaluation_engine.h"
#include "graph/betweenness.h"
#include "measures/evaluation.h"
#include "measures/relevance.h"
#include "measures/structural_shift.h"
#include "measures/timeline.h"
#include "workload/scenarios.h"

namespace evorec::engine {
namespace {

workload::Scenario ChainScenario(size_t versions, uint64_t seed = 11) {
  workload::ScenarioScale scale;
  scale.classes = 40;
  scale.properties = 14;
  scale.instances = 250;
  scale.edges = 500;
  scale.versions = versions;
  scale.operations = 90;
  return workload::MakeDbpediaLike(seed, scale);
}

void ExpectIdenticalReports(const measures::MeasureReport& a,
                            const measures::MeasureReport& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.scores()[i].term, b.scores()[i].term) << label;
    // Exact equality: the engine path (shared artefacts + pooled
    // Brandes) must be bit-identical to the serial per-pair path.
    EXPECT_EQ(a.scores()[i].score, b.scores()[i].score)
        << label << " term " << a.scores()[i].term;
  }
}

// Forwards to a KB but reports the head it read before a commit: a
// reader that took head() and builds its pair after the commit landed.
class StaleHeadView final : public version::KbView {
 public:
  StaleHeadView(const version::VersionedKnowledgeBase& kb,
                version::VersionId head)
      : kb_(kb), head_(head) {}

  size_t version_count() const override { return head_ + 1; }
  version::VersionId head() const override { return head_; }
  Result<version::SnapshotHandle> Handle(version::VersionId v) const override {
    return kb_.Handle(v);
  }
  Result<std::shared_ptr<const rdf::KnowledgeBase>> SharedSnapshot(
      version::VersionId v) const override {
    return kb_.SharedSnapshot(v);
  }
  Result<version::ChangeSet> Changes(version::VersionId v) const override {
    return kb_.Changes(v);
  }
  Result<version::VersionId> Commit(version::ChangeSet, std::string,
                                    std::string, uint64_t) override {
    return FailedPreconditionError("stale view is read-only");
  }

 private:
  const version::VersionedKnowledgeBase& kb_;
  version::VersionId head_;
};

// Removes the head's first triple through `engine`.
Result<EvaluationEngine::RefreshResult> CommitOneRemoval(
    EvaluationEngine& engine, version::VersionedKnowledgeBase& vkb) {
  const auto triples =
      (*vkb.Snapshot(vkb.head()))->store().Match(rdf::TriplePattern{});
  if (triples.empty()) return InternalError("empty head");
  return engine.CommitAndRefresh(
      vkb, version::ChangeSet{{}, {triples.front()}}, "a", "commit", 0);
}

TEST(ArtefactCacheChainWalkTest, ChainWalkBuildsEachVersionOnce) {
  constexpr size_t kTransitions = 5;
  const size_t kVersions = kTransitions + 1;
  workload::Scenario scenario = ChainScenario(kTransitions);
  ASSERT_EQ(scenario.vkb->version_count(), kVersions);

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 16,
                                     .threads = 4});
  auto timeline = engine.Timeline(*scenario.vkb, "betweenness_shift");
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  EXPECT_EQ(timeline->transition_count(), kTransitions);

  // The reuse contract: K artefact builds, not 2·(K−1).
  const ArtefactCacheStats stats = engine.artefact_stats();
  EXPECT_EQ(stats.betweenness_runs, kVersions);
  EXPECT_EQ(stats.graph_builds, kVersions);
  EXPECT_EQ(stats.view_builds, kVersions);
  EXPECT_EQ(stats.snapshot_loads, kVersions);
  EXPECT_EQ(stats.misses, kVersions);
  // Every middle version is requested a second time by the next pair.
  EXPECT_EQ(stats.hits, kTransitions - 1);

  // And the fast path changes nothing about the numbers: bit-identical
  // to the classic pair-keyed walk.
  measures::BetweennessShiftMeasure measure;
  auto classic = measures::EvolutionTimeline::Compute(*scenario.vkb, measure);
  ASSERT_TRUE(classic.ok());
  ASSERT_EQ(classic->transition_count(), timeline->transition_count());
  for (size_t t = 0; t < classic->transition_count(); ++t) {
    ExpectIdenticalReports(classic->report(t), timeline->report(t),
                           "transition " + std::to_string(t));
  }
}

// The per-version class kernels (centrality and relevance) follow the
// same contract: K builds for a K-version walk, whatever the number of
// semantic measures read them, then exactly one for a commit refresh.
TEST(ArtefactCacheChainWalkTest, ClassKernelsBuildOncePerVersion) {
  constexpr size_t kTransitions = 4;
  const size_t kVersions = kTransitions + 1;
  workload::Scenario scenario = ChainScenario(kTransitions);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 16,
                                     .threads = 2});
  auto relevance = engine.Timeline(*scenario.vkb, "relevance_shift");
  ASSERT_TRUE(relevance.ok());
  EXPECT_EQ(engine.artefact_stats().kernel_builds, kVersions);
  for (const char* name : {"in_centrality_shift", "out_centrality_shift"}) {
    ASSERT_TRUE(engine.Timeline(*scenario.vkb, name).ok());
  }
  EXPECT_EQ(engine.artefact_stats().kernel_builds, kVersions);

  measures::RelevanceShiftMeasure measure;
  auto classic = measures::EvolutionTimeline::Compute(*scenario.vkb, measure);
  ASSERT_TRUE(classic.ok());
  for (size_t t = 0; t < kTransitions; ++t) {
    ExpectIdenticalReports(classic->report(t), relevance->report(t),
                           "transition " + std::to_string(t));
  }

  // A commit refresh computes the kernels of the new head alone.
  auto refreshed = CommitOneRemoval(engine, *scenario.vkb);
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(refreshed->evaluation->AllReports().ok());
  EXPECT_EQ(engine.artefact_stats().kernel_builds, kVersions + 1);
}

TEST(ArtefactCacheChainWalkTest, AdjacentPairsShareTheMiddleVersion) {
  workload::Scenario scenario = ChainScenario(2);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.threads = 1});

  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 0, 1).ok());
  ASSERT_TRUE(engine.Evaluate(*scenario.vkb, 1, 2).ok());

  const ArtefactCacheStats stats = engine.artefact_stats();
  EXPECT_EQ(stats.snapshot_loads, 3u);  // V1 materialised once, not twice
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ArtefactCacheChainWalkTest, SecondWalkIsFullyWarm) {
  workload::Scenario scenario = ChainScenario(3);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 8,
                                     .threads = 2});
  ASSERT_TRUE(engine.Timeline(*scenario.vkb, "betweenness_shift").ok());
  const ArtefactCacheStats cold = engine.artefact_stats();
  ASSERT_TRUE(engine.Timeline(*scenario.vkb, "betweenness_shift").ok());
  const ArtefactCacheStats warm = engine.artefact_stats();
  // The second walk is served entirely from the context cache: no new
  // artefact traffic at all.
  EXPECT_EQ(warm.snapshot_loads, cold.snapshot_loads);
  EXPECT_EQ(warm.betweenness_runs, cold.betweenness_runs);
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits, cold.hits);
}

TEST(ArtefactCacheChainWalkTest, IdentityPairBuildsOneVersion) {
  workload::Scenario scenario = ChainScenario(1);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.threads = 1});
  auto eval = engine.Evaluate(*scenario.vkb, 1, 1);
  ASSERT_TRUE(eval.ok());
  auto report = (*eval)->Report("betweenness_shift");
  ASSERT_TRUE(report.ok());
  const ArtefactCacheStats stats = engine.artefact_stats();
  EXPECT_EQ(stats.snapshot_loads, 1u);
  EXPECT_EQ(stats.betweenness_runs, 1u);  // both sides share the cell
  EXPECT_EQ(stats.hits, 1u);
}

TEST(ArtefactCacheChainWalkTest, CrossInstanceFingerprintHitFallsBackSafely) {
  // Distinct VersionedKnowledgeBase instances with identical histories
  // share fingerprints but carry distinct Dictionary objects. A pair
  // mixing a cached artefact of instance A with a fresh one of
  // instance B cannot share a dictionary; the engine must fall back to
  // an uncached-but-correct build instead of failing the request.
  workload::Scenario a = ChainScenario(2, 31);
  workload::Scenario b = ChainScenario(2, 31);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.threads = 1});

  ASSERT_TRUE(engine.Evaluate(*a.vkb, 0, 1).ok());  // caches fp0, fp1 from A
  // (1,2) on B: fp1 hits A's artefacts, fp2 materialises from B.
  auto eval = engine.Evaluate(*b.vkb, 1, 2);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  auto report = (*eval)->Report("betweenness_shift");
  ASSERT_TRUE(report.ok());

  auto ctx = measures::EvolutionContext::FromVersions(*a.vkb, 1, 2);
  ASSERT_TRUE(ctx.ok());
  measures::BetweennessShiftMeasure measure;
  auto reference = measure.Compute(*ctx);
  ASSERT_TRUE(reference.ok());
  ExpectIdenticalReports(*reference, **report, "cross-instance pair");
}

TEST(ArtefactCacheTest, EvictionKeepsHandedOutBundlesValid) {
  workload::Scenario scenario = ChainScenario(3);
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 8,
                                     .artefact_cache_capacity = 1,
                                     .threads = 1});
  auto timeline = engine.Timeline(*scenario.vkb, "betweenness_shift");
  ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
  EXPECT_EQ(timeline->transition_count(), 3u);
  const ArtefactCacheStats stats = engine.artefact_stats();
  // Each pair's after-version is the next pair's before-version, so
  // even one slot loads and scores every version exactly once; each
  // load past the first evicts its predecessor, whose bundle the
  // running pair still holds.
  EXPECT_EQ(stats.snapshot_loads, 4u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.betweenness_runs, 4u);
}

// The score tier outlives the artefact LRU: walking a chain twice with
// contexts and bundles evicted in between rebuilds views and graphs,
// but Brandes still runs once per version, and both walks match the
// cache-free reference bit for bit.
TEST(ArtefactCacheChainWalkTest, EvictedChainWalkRunsBrandesOncePerVersion) {
  constexpr size_t kTransitions = 5;
  const size_t kVersions = kTransitions + 1;
  workload::Scenario scenario = ChainScenario(kTransitions);
  measures::BetweennessShiftMeasure measure;
  auto classic = measures::EvolutionTimeline::Compute(*scenario.vkb, measure);
  ASSERT_TRUE(classic.ok());
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  for (size_t capacity : {1u, 2u}) {
    const std::string label = "capacity " + std::to_string(capacity);
    EvaluationEngine engine(registry, {.context_cache_capacity = 1,
                                       .artefact_cache_capacity = capacity,
                                       .threads = 2});
    for (int walk = 0; walk < 2; ++walk) {
      auto timeline = engine.Timeline(*scenario.vkb, "betweenness_shift");
      ASSERT_TRUE(timeline.ok()) << label << ": "
                                 << timeline.status().ToString();
      ASSERT_EQ(timeline->transition_count(), kTransitions) << label;
      for (size_t t = 0; t < kTransitions; ++t) {
        ExpectIdenticalReports(classic->report(t), timeline->report(t),
                               label + " walk " + std::to_string(walk) +
                                   " transition " + std::to_string(t));
      }
    }
    const ArtefactCacheStats stats = engine.artefact_stats();
    EXPECT_EQ(stats.betweenness_runs, kVersions) << label;
    // The second walk found every version but the pinned head evicted
    // and rebuilt its bundle, taking the scores from the tier.
    EXPECT_EQ(stats.snapshot_loads, 2 * kVersions - 1) << label;
    EXPECT_EQ(stats.score_hits, kVersions - 1) << label;
  }
}

TEST(ArtefactCacheTest, PinnedHeadSurvivesEviction) {
  workload::Scenario scenario = ChainScenario(4);
  measures::ContextOptions options;
  const auto materialize = [&](version::VersionId v) {
    return [&, v] {
      auto snapshot = scenario.vkb->Snapshot(v);
      return Result<std::shared_ptr<const rdf::KnowledgeBase>>(
          std::make_shared<const rdf::KnowledgeBase>(**snapshot));
    };
  };
  ArtefactCache cache(2);
  cache.PinHead(4, 100);
  ASSERT_TRUE(cache.Get(100, options, materialize(4)).ok());
  for (uint64_t fp = 101; fp <= 104; ++fp) {
    const auto v = static_cast<version::VersionId>(fp - 101);
    ASSERT_TRUE(cache.Get(fp, options, materialize(v)).ok());
  }
  // LRU would have dropped 100 first; pinned, it stays resident.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  ASSERT_TRUE(cache.Get(100, options, materialize(4)).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 5u);

  // Pinning a newer version releases the old head to plain LRU, and an
  // older version cannot take the pin back.
  cache.PinHead(5, 104);
  cache.PinHead(4, 105);
  ASSERT_TRUE(cache.Get(105, options, materialize(0)).ok());
  ASSERT_TRUE(cache.Get(106, options, materialize(1)).ok());
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.Get(104, options, materialize(3)).ok());
  EXPECT_EQ(cache.stats().hits, 2u);
}

// Reads of older versions must not cost the next commit its advance:
// the head stays pinned, so the refresh finds the predecessor's
// computed betweenness however many other versions were read since.
TEST(ArtefactCacheChainWalkTest, CommitAfterHistoryReadsAdvancesFromTheHead) {
  constexpr size_t kTransitions = 5;
  workload::Scenario scenario = ChainScenario(kTransitions);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 1,
                                     .artefact_cache_capacity = 2,
                                     .threads = 2,
                                     .refresh_churn_threshold = 1.0});
  const version::VersionId head = vkb.head();
  auto warm = engine.Evaluate(vkb, head - 1, head);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*warm)->AllReports().ok());
  for (version::VersionId v = 0; v + 2 < head; ++v) {
    auto older = engine.Evaluate(vkb, v, v + 1);
    ASSERT_TRUE(older.ok());
    ASSERT_TRUE((*older)->AllReports().ok());
  }
  warm = Result<std::shared_ptr<const SharedEvaluation>>(
      InternalError("released"));
  const ArtefactCacheStats before = engine.artefact_stats();

  auto refreshed = CommitOneRemoval(engine, vkb);
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  ASSERT_TRUE(refreshed->evaluation->AllReports().ok());

  const IncrementalStats inc = engine.incremental_stats();
  EXPECT_EQ(inc.refreshes, 1u);
  EXPECT_EQ(inc.stayed_lazy, 0u);
  EXPECT_EQ(inc.advanced + inc.full_recomputes, 1u);
  // Only the new head was built: the predecessor was still resident.
  const ArtefactCacheStats after = engine.artefact_stats();
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.betweenness_runs,
            before.betweenness_runs + inc.full_recomputes);

  // And the refreshed head pair matches a cold rebuild bit for bit.
  auto cold = measures::EvolutionContext::FromVersions(vkb, head, head + 1);
  ASSERT_TRUE(cold.ok());
  measures::BetweennessShiftMeasure measure;
  auto reference = measure.Compute(*cold);
  ASSERT_TRUE(reference.ok());
  auto served = refreshed->evaluation->Report("betweenness_shift");
  ASSERT_TRUE(served.ok());
  ExpectIdenticalReports(*reference, **served, "refreshed head pair");
}

// The head pin only moves forward. A reader that read the head before
// a commit builds a pair ending at that old head; if it re-pinned it,
// the commit's successor could be evicted, and the next commit would
// rebuild its predecessor's bundle and lose its advance.
TEST(ArtefactCacheChainWalkTest, StaleReaderCannotUnpinTheHead) {
  workload::Scenario scenario = ChainScenario(4);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 1,
                                     .artefact_cache_capacity = 2,
                                     .threads = 2,
                                     .refresh_churn_threshold = 1.0});
  const version::VersionId head = vkb.head();
  auto warm = engine.Evaluate(vkb, head - 1, head);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE((*warm)->AllReports().ok());
  auto first = CommitOneRemoval(engine, vkb);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->evaluation->AllReports().ok());

  const StaleHeadView stale(vkb, head);
  auto read = engine.Evaluate(stale, head - 2, head);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_TRUE((*read)->AllReports().ok());

  const ArtefactCacheStats before = engine.artefact_stats();
  auto second = CommitOneRemoval(engine, vkb);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const IncrementalStats inc = engine.incremental_stats();
  EXPECT_EQ(inc.refreshes, 2u);
  EXPECT_EQ(inc.stayed_lazy, 0u);
  EXPECT_EQ(inc.advanced + inc.full_recomputes, 2u);
  // The predecessor stayed resident: only the new head was built.
  EXPECT_EQ(engine.artefact_stats().misses, before.misses + 1);
}

// Only the pinned head keeps resumable partials: a version computed
// while another was pinned cannot be advanced from, while one computed
// as the pinned head is, bit-identically to a cold run.
TEST(ArtefactCacheTest, OnlyThePinnedHeadKeepsPartials) {
  workload::Scenario scenario = ChainScenario(2);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  std::vector<uint64_t> fp;
  for (version::VersionId v = 0; v <= 2; ++v) {
    fp.push_back(vkb.Handle(v)->fingerprint);
  }
  const auto materialize = [&vkb](version::VersionId v) {
    return [&vkb, v] { return vkb.SharedSnapshot(v); };
  };
  measures::ContextOptions options;
  ArtefactCache cache(4);

  auto v0 = cache.Get(fp[0], options, materialize(0));
  ASSERT_TRUE(v0.ok());
  v0->betweenness->Get();  // computed unpinned: scores only
  cache.PinHead(1, fp[1]);
  auto v1 = cache.Refresh(fp[0], fp[1], options, materialize(1), 1.0);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(cache.incremental_stats().stayed_lazy, 1u);
  EXPECT_EQ(cache.incremental_stats().advanced +
                cache.incremental_stats().full_recomputes,
            0u);
  v1->betweenness->Get();  // computed as the pinned head: into the slot

  cache.PinHead(2, fp[2]);
  auto v2 = cache.Refresh(fp[1], fp[2], options, materialize(2), 1.0);
  ASSERT_TRUE(v2.ok());
  const IncrementalStats inc = cache.incremental_stats();
  EXPECT_EQ(inc.stayed_lazy, 1u);
  EXPECT_EQ(inc.advanced + inc.full_recomputes, 1u);
  EXPECT_EQ(cache.stats().betweenness_runs, 2u + inc.full_recomputes);
  const std::vector<double> cold = graph::BetweennessExact(v2->graph->graph());
  const std::vector<double>& advanced = v2->betweenness->Get();
  ASSERT_EQ(advanced.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(advanced[i], cold[i]) << "node " << i;
  }
}

// A tier vector whose length differs from the rebuilt graph's node
// count is not that graph's result: the cell recomputes instead.
TEST(ArtefactCacheTest, TierIgnoresScoresOfAnotherLength) {
  workload::Scenario scenario = ChainScenario(4);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  const auto materialize = [&vkb](version::VersionId v) {
    return [&vkb, v] { return vkb.SharedSnapshot(v); };
  };
  measures::ContextOptions options;
  ArtefactCache cache(1);
  auto first = cache.Get(42, options, materialize(0));
  ASSERT_TRUE(first.ok());
  const size_t first_size = first->betweenness->Get().size();
  ASSERT_TRUE(cache.Get(43, options, materialize(1)).ok());  // evicts 42

  // Fingerprint 42 again, over content with another class count.
  auto other = cache.Get(42, options, materialize(vkb.head()));
  ASSERT_TRUE(other.ok());
  ASSERT_NE(other->graph->graph().node_count(), first_size);
  const std::vector<double>& scores = other->betweenness->Get();
  EXPECT_EQ(cache.stats().score_hits, 0u);
  EXPECT_EQ(cache.stats().betweenness_runs, 2u);
  EXPECT_EQ(scores, graph::BetweennessExact(other->graph->graph()));
}

TEST(ArtefactCacheTest, FailedMaterializeIsNotCached) {
  ArtefactCache cache(4);
  measures::ContextOptions options;
  auto failed = cache.Get(42, options, [] {
    return Result<std::shared_ptr<const rdf::KnowledgeBase>>(
        InternalError("boom"));
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(cache.size(), 0u);

  workload::Scenario scenario = ChainScenario(1);
  auto snapshot = scenario.vkb->Snapshot(0);
  ASSERT_TRUE(snapshot.ok());
  auto ok = cache.Get(42, options, [&] {
    return Result<std::shared_ptr<const rdf::KnowledgeBase>>(
        std::make_shared<const rdf::KnowledgeBase>(**snapshot));
  });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

// Stress: many threads assemble contexts for random version pairs
// through ONE shared cache. Exercised under TSan in CI; the
// single-flight guarantee means each version's artefacts are built at
// most once even under contention.
TEST(ArtefactCacheConcurrencyTest, ConcurrentContextBuildsShareOneCache) {
  constexpr size_t kTransitions = 4;
  constexpr size_t kThreads = 8;
  constexpr size_t kIterations = 12;
  workload::Scenario scenario = ChainScenario(kTransitions, 29);
  const size_t versions = scenario.vkb->version_count();

  // Pre-fetch fingerprints; materializers read the vkb concurrently.
  std::vector<uint64_t> fingerprints;
  for (size_t v = 0; v < versions; ++v) {
    auto handle = scenario.vkb->Handle(static_cast<version::VersionId>(v));
    ASSERT_TRUE(handle.ok());
    fingerprints.push_back(handle->fingerprint);
  }

  ThreadPool brandes_pool(2);
  ArtefactCache cache(16, &brandes_pool);
  measures::ContextOptions options;

  // Serial reference reports, one per transition.
  measures::BetweennessShiftMeasure measure;
  std::vector<measures::MeasureReport> reference;
  for (size_t v = 0; v + 1 < versions; ++v) {
    auto ctx = measures::EvolutionContext::FromVersions(
        *scenario.vkb, static_cast<version::VersionId>(v),
        static_cast<version::VersionId>(v + 1), options);
    ASSERT_TRUE(ctx.ok());
    auto report = measure.Compute(*ctx);
    ASSERT_TRUE(report.ok());
    reference.push_back(std::move(report).value());
  }

  const auto materialize = [&](size_t v) {
    return [&scenario, v]() {
      return scenario.vkb->SharedSnapshot(static_cast<version::VersionId>(v));
    };
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        const size_t v = (t + i) % (versions - 1);
        auto before = cache.Get(fingerprints[v], options, materialize(v));
        auto after =
            cache.Get(fingerprints[v + 1], options, materialize(v + 1));
        if (!before.ok() || !after.ok()) {
          ++failures;
          continue;
        }
        auto ctx = measures::EvolutionContext::Build(
            std::move(*before), std::move(*after), options);
        if (!ctx.ok()) {
          ++failures;
          continue;
        }
        auto report = measure.Compute(*ctx);
        if (!report.ok() ||
            report->scores().size() != reference[v].scores().size()) {
          ++failures;
          continue;
        }
        for (size_t s = 0; s < report->scores().size(); ++s) {
          if (report->scores()[s].score != reference[v].scores()[s].score) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ArtefactCacheStats stats = cache.stats();
  // Single-flight: every version built exactly once despite
  // kThreads × kIterations × 2 requests.
  EXPECT_EQ(stats.snapshot_loads, versions);
  EXPECT_EQ(stats.betweenness_runs, versions);
  EXPECT_EQ(stats.misses, versions);
  EXPECT_EQ(stats.hits + stats.coalesced,
            kThreads * kIterations * 2 - versions);
}

// Race: threads run every measure (EvaluateAll) over contexts assembled
// from the shared bundles of ONE cache — shared views, neighborhood
// memos, kernel cells and betweenness cells. Every report must equal
// the serial cache-free reference bit for bit, and each version's
// kernels must be built once. Exercised under TSan in CI.
TEST(ArtefactCacheConcurrencyTest, ConcurrentEvaluateAllSharesKernelCells) {
  constexpr size_t kTransitions = 3;
  constexpr size_t kThreads = 6;
  constexpr size_t kIterations = 6;
  workload::Scenario scenario = ChainScenario(kTransitions, 31);
  const size_t versions = scenario.vkb->version_count();
  const measures::MeasureRegistry registry = measures::DefaultRegistry();

  std::vector<uint64_t> fingerprints;
  std::vector<std::vector<measures::MeasureReport>> reference;
  for (size_t v = 0; v < versions; ++v) {
    auto handle = scenario.vkb->Handle(static_cast<version::VersionId>(v));
    ASSERT_TRUE(handle.ok());
    fingerprints.push_back(handle->fingerprint);
    if (v + 1 == versions) break;
    auto ctx = measures::EvolutionContext::FromVersions(
        *scenario.vkb, static_cast<version::VersionId>(v),
        static_cast<version::VersionId>(v + 1));
    ASSERT_TRUE(ctx.ok());
    measures::ReportCache reports;
    auto all = measures::EvaluateAll(registry, *ctx, reports);
    ASSERT_TRUE(all.ok());
    reference.emplace_back();
    for (const auto& report : *all) reference.back().push_back(*report);
  }

  ThreadPool brandes_pool(2);
  ThreadPool measure_pool(2);
  ArtefactCache cache(16, &brandes_pool);
  const auto materialize = [&](size_t v) {
    return [&scenario, v]() {
      return scenario.vkb->SharedSnapshot(static_cast<version::VersionId>(v));
    };
  };

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIterations; ++i) {
        const size_t v = (t + i) % kTransitions;
        auto before = cache.Get(fingerprints[v], {}, materialize(v));
        auto after = cache.Get(fingerprints[v + 1], {}, materialize(v + 1));
        if (!before.ok() || !after.ok()) {
          ++failures;
          continue;
        }
        auto ctx = measures::EvolutionContext::Build(std::move(*before),
                                                     std::move(*after));
        if (!ctx.ok()) {
          ++failures;
          continue;
        }
        measures::ReportCache reports;
        auto all = measures::EvaluateAll(registry, *ctx, reports,
                                         t % 2 == 0 ? &measure_pool : nullptr);
        if (!all.ok() || all->size() != reference[v].size()) {
          ++failures;
          continue;
        }
        for (size_t m = 0; m < all->size(); ++m) {
          const auto& got = (*all)[m]->scores();
          const auto& want = reference[v][m].scores();
          bool same = got.size() == want.size();
          for (size_t s = 0; same && s < got.size(); ++s) {
            same = got[s].term == want[s].term && got[s].score == want[s].score;
          }
          if (!same) ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.stats().kernel_builds, versions);
}

// Race: readers evaluate random adjacent pairs through an engine whose
// artefact LRU holds two versions — so most reads rebuild an evicted
// version's bundle and take its scores from the tier — while the main
// thread lands commits that advance the head slot. Every served report
// must equal the cache-free reference bit for bit, and once every
// version has been scored, a full walk runs no Brandes at all.
// Exercised under TSan in CI.
TEST(ArtefactCacheConcurrencyTest, EvictedVersionsReuseScoresWhileCommitting) {
  constexpr size_t kTransitions = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kReads = 8;
  constexpr size_t kCommits = 4;
  workload::Scenario scenario = ChainScenario(kTransitions, 37);
  version::VersionedKnowledgeBase& vkb = *scenario.vkb;
  const version::VersionId first_head = vkb.head();

  measures::BetweennessShiftMeasure measure;
  std::vector<measures::MeasureReport> reference;
  for (version::VersionId v = 0; v < first_head; ++v) {
    auto ctx = measures::EvolutionContext::FromVersions(vkb, v, v + 1);
    ASSERT_TRUE(ctx.ok());
    auto report = measure.Compute(*ctx);
    ASSERT_TRUE(report.ok());
    reference.push_back(std::move(report).value());
  }

  measures::MeasureRegistry registry = measures::DefaultRegistry();
  EvaluationEngine engine(registry, {.context_cache_capacity = 2,
                                     .artefact_cache_capacity = 2,
                                     .threads = 2});
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      for (size_t i = 0; i < kReads; ++i) {
        const auto v =
            static_cast<version::VersionId>(rng.UniformInt(0, first_head - 1));
        auto eval = engine.Evaluate(vkb, v, v + 1);
        if (!eval.ok()) {
          ++failures;
          continue;
        }
        auto report = (*eval)->Report("betweenness_shift");
        if (!report.ok() ||
            (*report)->scores().size() != reference[v].scores().size()) {
          ++failures;
          continue;
        }
        for (size_t s = 0; s < reference[v].scores().size(); ++s) {
          const auto& got = (*report)->scores()[s];
          const auto& want = reference[v].scores()[s];
          if (got.term != want.term || got.score != want.score) {
            ++failures;
            break;
          }
        }
      }
    });
  }
  for (size_t c = 0; c < kCommits; ++c) {
    auto committed = CommitOneRemoval(engine, vkb);
    if (!committed.ok() || !committed->evaluation->AllReports().ok()) {
      ++failures;
    }
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  auto classic = measures::EvolutionTimeline::Compute(vkb, measure);
  ASSERT_TRUE(classic.ok());
  ASSERT_EQ(classic->transition_count(), kTransitions + kCommits);
  uint64_t runs = 0;
  for (int walk = 0; walk < 2; ++walk) {
    runs = engine.artefact_stats().betweenness_runs;
    auto timeline = engine.Timeline(vkb, "betweenness_shift");
    ASSERT_TRUE(timeline.ok()) << timeline.status().ToString();
    ASSERT_EQ(timeline->transition_count(), classic->transition_count());
    for (size_t t = 0; t < classic->transition_count(); ++t) {
      ExpectIdenticalReports(classic->report(t), timeline->report(t),
                             "walk " + std::to_string(walk) + " transition " +
                                 std::to_string(t));
    }
  }
  EXPECT_EQ(engine.artefact_stats().betweenness_runs, runs);
}

}  // namespace
}  // namespace evorec::engine
