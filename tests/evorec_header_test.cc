// Layering regression test: includes ONLY the umbrella header and
// instantiates one type from every layer declared in src/evorec.h.
// If a layer stops being reachable from the umbrella (or an include
// cycle sneaks in), this translation unit breaks loudly.

#include "evorec.h"

#include <gtest/gtest.h>

namespace evorec {
namespace {

TEST(EvorecHeaderTest, InstantiatesOneTypePerLayer) {
  // common
  Status status;
  EXPECT_TRUE(status.ok());
  Rng rng(42);
  (void)rng.Next();

  // rdf
  rdf::Dictionary dictionary;
  EXPECT_EQ(dictionary.size(), 0u);

  // storage
  storage::SnapshotOptions snapshot_options;
  EXPECT_FALSE(snapshot_options.sync);

  // schema
  schema::ClassHierarchy hierarchy;
  hierarchy.AddEdge(1, 0);

  // version
  version::VersionId version_id = 0;
  EXPECT_EQ(version_id, 0u);
  version::ShardedKnowledgeBase sharded;
  EXPECT_EQ(sharded.head(), 0u);

  // delta
  delta::LowLevelDelta low_delta;
  EXPECT_TRUE(low_delta.added.empty());

  // graph
  graph::Graph graph;
  EXPECT_EQ(graph.node_count(), 0u);

  // measures
  measures::MeasureRegistry registry;

  // profile
  profile::HumanProfile human("curator-1");
  EXPECT_EQ(human.id(), "curator-1");

  // provenance
  provenance::ProvenanceStore provenance_store;

  // anonymity
  anonymity::QiGroup qi_group;
  (void)qi_group;

  // recommend
  recommend::CandidateOptions candidate_options;
  (void)candidate_options;

  // engine
  engine::EngineOptions engine_options;
  EXPECT_GT(engine_options.context_cache_capacity, 0u);

  // workload
  workload::ChangeMix change_mix;
  EXPECT_GT(change_mix.add_class, 0.0);
}

}  // namespace
}  // namespace evorec
