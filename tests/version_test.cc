#include "version/versioned_kb.h"

#include <gtest/gtest.h>

namespace evorec::version {
namespace {

using rdf::Triple;

ChangeSet Changes(std::vector<Triple> additions,
                  std::vector<Triple> removals) {
  ChangeSet cs;
  cs.additions = std::move(additions);
  cs.removals = std::move(removals);
  return cs;
}

class VersionedKbTest : public ::testing::TestWithParam<ArchivePolicy> {};

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, VersionedKbTest,
    ::testing::Values(ArchivePolicy::kFullMaterialization,
                      ArchivePolicy::kDeltaChain,
                      ArchivePolicy::kHybridCheckpoint),
    [](const auto& param_info) {
      switch (param_info.param) {
        case ArchivePolicy::kFullMaterialization:
          return "Full";
        case ArchivePolicy::kDeltaChain:
          return "DeltaChain";
        case ArchivePolicy::kHybridCheckpoint:
          return "Hybrid";
      }
      return "Unknown";
    });

TEST_P(VersionedKbTest, StartsWithEmptyBase) {
  VersionedKnowledgeBase vkb(GetParam());
  EXPECT_EQ(vkb.version_count(), 1u);
  EXPECT_EQ(vkb.head(), 0u);
  auto snapshot = vkb.Snapshot(0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->size(), 0u);
}

TEST_P(VersionedKbTest, CommitAppliesAdditionsAndRemovals) {
  VersionedKnowledgeBase vkb(GetParam());
  auto v1 = vkb.Commit(Changes({{1, 2, 3}, {4, 5, 6}}, {}), "ann", "add");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);
  auto v2 = vkb.Commit(Changes({{7, 8, 9}}, {{1, 2, 3}}), "bob", "edit");
  ASSERT_TRUE(v2.ok());

  auto s1 = vkb.Snapshot(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE((*s1)->store().Contains({1, 2, 3}));
  EXPECT_EQ((*s1)->size(), 2u);

  auto s2 = vkb.Snapshot(2);
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE((*s2)->store().Contains({1, 2, 3}));
  EXPECT_TRUE((*s2)->store().Contains({7, 8, 9}));
  EXPECT_EQ((*s2)->size(), 2u);
}

TEST_P(VersionedKbTest, HistoricalSnapshotsAreImmutable) {
  VersionedKnowledgeBase vkb(GetParam());
  (void)vkb.Commit(Changes({{1, 1, 1}}, {}), "a", "v1");
  (void)vkb.Commit(Changes({}, {{1, 1, 1}}), "a", "v2");
  auto s1 = vkb.Snapshot(1);
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE((*s1)->store().Contains({1, 1, 1}));
}

TEST_P(VersionedKbTest, InfoRecordsMetadata) {
  VersionedKnowledgeBase vkb(GetParam());
  (void)vkb.Commit(Changes({{1, 1, 1}, {2, 2, 2}}, {}), "ann", "initial load",
                   /*timestamp=*/77);
  auto info = vkb.Info(1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->author, "ann");
  EXPECT_EQ(info->message, "initial load");
  EXPECT_EQ(info->timestamp, 77u);
  EXPECT_EQ(info->additions, 2u);
  EXPECT_EQ(info->removals, 0u);
  EXPECT_FALSE(vkb.Info(9).ok());
}

TEST_P(VersionedKbTest, ChangesReconstructsPerVersionDelta) {
  VersionedKnowledgeBase vkb(GetParam());
  (void)vkb.Commit(Changes({{1, 1, 1}}, {}), "a", "v1");
  (void)vkb.Commit(Changes({{2, 2, 2}}, {{1, 1, 1}}), "a", "v2");
  auto cs = vkb.Changes(2);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->additions, (std::vector<Triple>{{2, 2, 2}}));
  EXPECT_EQ(cs->removals, (std::vector<Triple>{{1, 1, 1}}));
  EXPECT_FALSE(vkb.Changes(0).ok());
  EXPECT_FALSE(vkb.Changes(5).ok());
}

TEST_P(VersionedKbTest, MaterializeUncachedMatchesSnapshot) {
  VersionedKnowledgeBase vkb(GetParam());
  (void)vkb.Commit(Changes({{1, 1, 1}, {2, 2, 2}}, {}), "a", "v1");
  (void)vkb.Commit(Changes({{3, 3, 3}}, {{2, 2, 2}}), "a", "v2");
  for (VersionId v = 0; v <= 2; ++v) {
    auto cached = vkb.Snapshot(v);
    auto fresh = vkb.MaterializeUncached(v);
    ASSERT_TRUE(cached.ok());
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ((*cached)->store().Match({}), fresh->store().Match({}))
        << "version " << v;
  }
}

TEST_P(VersionedKbTest, SnapshotCacheEviction) {
  VersionedKnowledgeBase vkb(GetParam());
  (void)vkb.Commit(Changes({{1, 1, 1}}, {}), "a", "v1");
  auto before = vkb.Snapshot(1);
  ASSERT_TRUE(before.ok());
  vkb.EvictSnapshotCache();
  auto after = vkb.Snapshot(1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->store().Match({}),
            (std::vector<Triple>{{1, 1, 1}}));
}

TEST_P(VersionedKbTest, UnknownVersionsError) {
  VersionedKnowledgeBase vkb(GetParam());
  EXPECT_FALSE(vkb.Snapshot(3).ok());
  EXPECT_FALSE(vkb.MaterializeUncached(3).ok());
}

TEST_P(VersionedKbTest, InitialSnapshotConstructor) {
  rdf::KnowledgeBase initial;
  initial.AddIriTriple("http://x/A", "http://x/p", "http://x/B");
  VersionedKnowledgeBase vkb(GetParam(), std::move(initial));
  auto s0 = vkb.Snapshot(0);
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ((*s0)->size(), 1u);
}

TEST_P(VersionedKbTest, EmptyCommitIsLegal) {
  VersionedKnowledgeBase vkb(GetParam());
  auto v = vkb.Commit(ChangeSet{}, "a", "noop");
  ASSERT_TRUE(v.ok());
  auto s = vkb.Snapshot(*v);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ((*s)->size(), 0u);
}

TEST_P(VersionedKbTest, MoveCommitRecordsMetadataAndChanges) {
  VersionedKnowledgeBase vkb(GetParam());
  ChangeSet cs = Changes({{1, 2, 3}, {4, 5, 6}}, {});
  auto v = vkb.Commit(std::move(cs), "ann", "moved");
  ASSERT_TRUE(v.ok());
  auto info = vkb.Info(*v);
  ASSERT_TRUE(info.ok());
  // Sizes are captured before the change set is moved into storage.
  EXPECT_EQ(info->additions, 2u);
  EXPECT_EQ(info->removals, 0u);
  auto changes = vkb.Changes(*v);
  ASSERT_TRUE(changes.ok());
  EXPECT_EQ(changes->additions.size(), 2u);
  auto s = vkb.Snapshot(*v);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE((*s)->store().Contains({1, 2, 3}));
  EXPECT_TRUE((*s)->store().Contains({4, 5, 6}));
}

TEST(VersionedKbPolicyTest, StorageBytesCountsSnapshotCache) {
  VersionedKnowledgeBase vkb(ArchivePolicy::kDeltaChain);
  ChangeSet base;
  for (uint32_t i = 0; i < 400; ++i) base.additions.push_back({i, 1, i});
  (void)vkb.Commit(base, "a", "bulk");
  (void)vkb.Commit(Changes({{1000, 2, 0}}, {}), "a", "small");
  const size_t before_cache = vkb.StorageBytes();
  auto s = vkb.Snapshot(vkb.head());
  ASSERT_TRUE(s.ok());
  const size_t with_cache = vkb.StorageBytes();
  EXPECT_GT(with_cache, before_cache);
  vkb.EvictSnapshotCache();
  EXPECT_LT(vkb.StorageBytes(), with_cache);
}

TEST(VersionedKbPolicyTest, DeltaChainUsesLessStorageThanFull) {
  auto build = [](ArchivePolicy policy) {
    VersionedKnowledgeBase vkb(policy);
    // A growing base with small per-version deltas.
    ChangeSet base;
    for (uint32_t i = 0; i < 500; ++i) base.additions.push_back({i, 1, i});
    (void)vkb.Commit(base, "a", "bulk");
    for (uint32_t v = 0; v < 10; ++v) {
      (void)vkb.Commit(Changes({{1000 + v, 2, v}}, {}), "a", "small");
    }
    return vkb.StorageBytes();
  };
  EXPECT_LT(build(ArchivePolicy::kDeltaChain),
            build(ArchivePolicy::kFullMaterialization));
}

TEST(VersionedKbPolicyTest, HybridStorageSitsBetween) {
  auto build = [](ArchivePolicy policy) {
    VersionedKnowledgeBase vkb(policy, /*checkpoint_interval=*/4);
    ChangeSet base;
    for (uint32_t i = 0; i < 500; ++i) base.additions.push_back({i, 1, i});
    (void)vkb.Commit(base, "a", "bulk");
    for (uint32_t v = 0; v < 12; ++v) {
      (void)vkb.Commit(Changes({{1000 + v, 2, v}}, {}), "a", "small");
    }
    return vkb.StorageBytes();
  };
  const size_t chain = build(ArchivePolicy::kDeltaChain);
  const size_t hybrid = build(ArchivePolicy::kHybridCheckpoint);
  const size_t full = build(ArchivePolicy::kFullMaterialization);
  EXPECT_LT(chain, hybrid);
  EXPECT_LT(hybrid, full);
}

TEST(VersionedKbPolicyTest, HybridAgreesWithFullOnLongHistories) {
  VersionedKnowledgeBase full(ArchivePolicy::kFullMaterialization);
  VersionedKnowledgeBase hybrid(ArchivePolicy::kHybridCheckpoint,
                                /*checkpoint_interval=*/3);
  for (uint32_t v = 0; v < 11; ++v) {
    ChangeSet cs = Changes({{v, 1, v}, {v, 2, v}},
                           v > 1 ? std::vector<Triple>{{v - 2, 1, v - 2}}
                                 : std::vector<Triple>{});
    (void)full.Commit(cs, "a", "step");
    (void)hybrid.Commit(cs, "a", "step");
  }
  for (VersionId v = 0; v < full.version_count(); ++v) {
    auto sf = full.Snapshot(v);
    auto sh = hybrid.Snapshot(v);
    ASSERT_TRUE(sf.ok());
    ASSERT_TRUE(sh.ok());
    EXPECT_EQ((*sf)->store().Match({}), (*sh)->store().Match({}))
        << "version " << v;
  }
}

TEST(VersionedKbPolicyTest, PoliciesAgreeOnAllSnapshots) {
  VersionedKnowledgeBase full(ArchivePolicy::kFullMaterialization);
  VersionedKnowledgeBase chain(ArchivePolicy::kDeltaChain);
  std::vector<ChangeSet> history = {
      Changes({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}}, {}),
      Changes({{4, 4, 4}}, {{2, 2, 2}}),
      Changes({{2, 2, 2}}, {{1, 1, 1}, {3, 3, 3}}),
  };
  for (const ChangeSet& cs : history) {
    (void)full.Commit(cs, "a", "step");
    (void)chain.Commit(cs, "a", "step");
  }
  for (VersionId v = 0; v < 4; ++v) {
    auto sf = full.Snapshot(v);
    auto sc = chain.Snapshot(v);
    ASSERT_TRUE(sf.ok());
    ASSERT_TRUE(sc.ok());
    EXPECT_EQ((*sf)->store().Match({}), (*sc)->store().Match({}))
        << "version " << v;
  }
}

}  // namespace
}  // namespace evorec::version
