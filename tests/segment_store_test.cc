// Segmented-store contracts the concurrent-serving path depends on:
// frozen segments are immutable and shared, snapshot copies are
// segment-list splices (never triple copies), and serving reads never
// materialise a flat store.

#include "rdf/segment.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/random.h"
#include "rdf/triple_store.h"

namespace evorec::rdf {
namespace {

// A store whose stack has a large base plus small upper segments with
// tombstones — the shape the size-tiered policy preserves (the small
// freezes stay un-merged against the big base).
TripleStore LayeredStore() {
  TripleStore store;
  for (uint32_t i = 0; i < 400; ++i) {
    store.Add({i, i % 7, i % 13});
  }
  store.Compact();
  store.Add({1000, 1, 1});
  store.Add({1001, 2, 2});
  store.Remove({0, 0, 0});
  store.Compact();
  store.Add({1002, 3, 3});
  store.Remove({7, 0, 7});
  store.Compact();
  return store;
}

TEST(SegmentStoreTest, FrozenSegmentsAreImmutableAcrossLaterMutations) {
  TripleStore store = LayeredStore();
  // Pin the current stack the way a snapshot holder would.
  const std::vector<std::shared_ptr<const Segment>> pinned = store.segments();
  ASSERT_GE(pinned.size(), 2u);
  std::vector<std::vector<Triple>> live_before;
  std::vector<std::vector<Triple>> tombs_before;
  for (const auto& segment : pinned) {
    live_before.push_back(segment->live());
    tombs_before.push_back(segment->tombstones());
  }

  // Hammer the store: the writer's later freezes and merges must build
  // *new* segments, never touch the pinned ones.
  Rng rng(99);
  for (int step = 0; step < 2000; ++step) {
    const Triple t{static_cast<TermId>(rng.UniformInt(0, 500)),
                   static_cast<TermId>(rng.UniformInt(0, 7)),
                   static_cast<TermId>(rng.UniformInt(0, 14))};
    if (rng.Bernoulli(0.6)) {
      store.Add(t);
    } else {
      store.Remove(t);
    }
    if (step % 97 == 0) store.Compact();
  }
  store.Compact();

  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(pinned[i]->live(), live_before[i]) << "segment " << i;
    EXPECT_EQ(pinned[i]->tombstones(), tombs_before[i]) << "segment " << i;
  }
}

TEST(SegmentStoreTest, SnapshotCopySharesSegmentsAndStaysIndependent) {
  TripleStore store = LayeredStore();
  const size_t n = store.size();

  TripleStore snapshot = store;
  // The copy shares the frozen stack by pointer — O(#segments), not
  // O(triples).
  ASSERT_EQ(snapshot.segments().size(), store.segments().size());
  for (size_t i = 0; i < store.segments().size(); ++i) {
    EXPECT_EQ(snapshot.segments()[i].get(), store.segments()[i].get());
  }
  EXPECT_EQ(snapshot.size(), n);

  // Divergence after the copy is invisible to the snapshot.
  store.Add({9000, 1, 1});
  store.Remove({1, 1, 1});
  store.Compact();
  EXPECT_EQ(snapshot.size(), n);
  EXPECT_FALSE(snapshot.Contains({9000, 1, 1}));
  snapshot.Add({9001, 2, 2});
  EXPECT_FALSE(store.Contains({9001, 2, 2}));
}

TEST(SegmentStoreTest, ServingReadsNeverMaterializeAFlatCopy) {
  TripleStore store = LayeredStore();
  ASSERT_GE(store.segments().size(), 2u);

  // The serving diet: point probes, s-bound scans, full merged scans,
  // predicate- and object-bound walks, plus a snapshot copy. None of it
  // may flatten the stack.
  EXPECT_TRUE(store.Contains({5, 5, 5}));
  (void)store.Match({3, kAnyTerm, kAnyTerm});
  (void)store.Match({kAnyTerm, 1, kAnyTerm});
  (void)store.Match({kAnyTerm, kAnyTerm, 2});
  size_t scanned = 0;
  store.ScanT({kAnyTerm, kAnyTerm, kAnyTerm}, [&](const Triple&) {
    ++scanned;
    return true;
  });
  EXPECT_EQ(scanned, store.size());
  TripleStore snapshot = store;
  EXPECT_TRUE(snapshot.Contains({5, 5, 5}));
  EXPECT_EQ(store.stats().materializations, 0u);
  EXPECT_EQ(snapshot.stats().materializations, 0u);
}

// A frozen store is immutable: any number of threads may read and copy
// one shared store (TSan checks that no read writes to it), and each
// thread sees exactly what a private twin built the same way answers.
TEST(SegmentStoreTest, ConcurrentReadersShareOneFrozenStore) {
  const TripleStore shared = LayeredStore();
  const TripleStore twin = LayeredStore();
  ASSERT_GE(twin.segments().size(), 2u);
  TripleStore base;
  for (uint32_t i = 0; i < 400; i += 3) base.Add({i, i % 7, i % 13});
  base.Compact();

  // All eight pattern shapes, over terms the layered stack holds.
  const std::vector<TriplePattern> shapes = {
      {kAnyTerm, kAnyTerm, kAnyTerm}, {3, kAnyTerm, kAnyTerm},
      {kAnyTerm, 1, kAnyTerm},        {kAnyTerm, kAnyTerm, 2},
      {1000, 1, kAnyTerm},            {1001, kAnyTerm, 2},
      {kAnyTerm, 3, 3},               {1002, 3, 3}};
  std::vector<std::vector<Triple>> expected;
  for (const TriplePattern& pattern : shapes) {
    expected.push_back(twin.Match(pattern));
  }
  const std::vector<Triple> added = TripleStore::Difference(twin, base);
  const std::vector<Triple> removed = TripleStore::Difference(base, twin);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        for (size_t i = 0; i < shapes.size(); ++i) {
          if (shared.Match(shapes[i]) != expected[i]) mismatches.fetch_add(1);
        }
        if (!shared.Contains({5, 5, 5}) || shared.Contains({0, 0, 0})) {
          mismatches.fetch_add(1);
        }
        if (TripleStore::Difference(shared, base) != added ||
            TripleStore::Difference(base, shared) != removed) {
          mismatches.fetch_add(1);
        }
        TripleStore copy = shared;
        copy.Add({9000, 1, 1});
        if (copy.size() != twin.size() + 1 || shared.Contains({9000, 1, 1})) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace evorec::rdf
