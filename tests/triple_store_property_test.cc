// Differential property tests for the v2 storage engine: random
// interleavings of Add / Remove / AddAll / RemoveAll / Compact are
// checked against a naive std::set<Triple> model, proving that
// incremental compaction preserves last-wins semantics and that every
// pattern shape emits in SPO order.

#include "rdf/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"

namespace evorec::rdf {
namespace {

Triple RandomTriple(Rng& rng) {
  // A small universe so adds, removes and re-adds collide often.
  return Triple(static_cast<TermId>(rng.UniformInt(0, 11)),
                static_cast<TermId>(rng.UniformInt(0, 5)),
                static_cast<TermId>(rng.UniformInt(0, 11)));
}

std::vector<Triple> ModelMatch(const std::set<Triple>& model,
                               const TriplePattern& pattern) {
  // std::set iteration order is operator< — i.e. SPO order.
  std::vector<Triple> out;
  for (const Triple& t : model) {
    if (pattern.Matches(t)) out.push_back(t);
  }
  return out;
}

void CheckAgainstModel(const TripleStore& store,
                       const std::set<Triple>& model, Rng& rng) {
  ASSERT_EQ(store.size(), model.size());
  ASSERT_EQ(store.Match({}), std::vector<Triple>(model.begin(), model.end()));
  // All eight pattern shapes, with terms drawn from the same universe
  // so hits are likely; Match must agree with the model in content
  // AND order.
  const Triple probe = RandomTriple(rng);
  const TriplePattern shapes[8] = {
      {kAnyTerm, kAnyTerm, kAnyTerm},
      {probe.subject, kAnyTerm, kAnyTerm},
      {kAnyTerm, probe.predicate, kAnyTerm},
      {kAnyTerm, kAnyTerm, probe.object},
      {probe.subject, probe.predicate, kAnyTerm},
      {probe.subject, kAnyTerm, probe.object},
      {kAnyTerm, probe.predicate, probe.object},
      {probe.subject, probe.predicate, probe.object},
  };
  for (const TriplePattern& pattern : shapes) {
    const std::vector<Triple> matched = store.Match(pattern);
    // Explicit order guard: Match promises SPO order for every shape,
    // the filtered (*,p,·) and (*,*,o) walks included.
    ASSERT_TRUE(std::is_sorted(matched.begin(), matched.end()))
        << "Match result not in SPO order for pattern (" << pattern.subject
        << "," << pattern.predicate << "," << pattern.object << ")";
    ASSERT_EQ(matched, ModelMatch(model, pattern))
        << "pattern (" << pattern.subject << "," << pattern.predicate << ","
        << pattern.object << ")";
  }
  ASSERT_EQ(store.Contains(probe), model.count(probe) == 1);
}

TEST(TripleStorePropertyTest, RandomInterleavingsMatchSetModel) {
  for (uint64_t seed : {7u, 99u, 20260726u}) {
    Rng rng(seed);
    TripleStore store;
    std::set<Triple> model;
    for (int step = 0; step < 4000; ++step) {
      switch (rng.UniformInt(0, 4)) {
        case 0: {
          const Triple t = RandomTriple(rng);
          store.Add(t);
          model.insert(t);
          break;
        }
        case 1: {
          const Triple t = RandomTriple(rng);
          store.Remove(t);
          model.erase(t);
          break;
        }
        case 2: {
          std::vector<Triple> batch;
          for (int i = rng.UniformInt(0, 16); i > 0; --i) {
            batch.push_back(RandomTriple(rng));
          }
          store.AddAll(batch);
          model.insert(batch.begin(), batch.end());
          break;
        }
        case 3: {
          std::vector<Triple> batch;
          for (int i = rng.UniformInt(0, 16); i > 0; --i) {
            batch.push_back(RandomTriple(rng));
          }
          store.RemoveAll(batch);
          for (const Triple& t : batch) model.erase(t);
          break;
        }
        case 4:
          store.Compact();
          break;
      }
      if (step % 61 == 0) {
        ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng))
            << "seed " << seed << " step " << step;
      }
    }
    ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng))
        << "seed " << seed;
  }
}

TEST(TripleStorePropertyTest, CopiesStayIndependentAndEquivalent) {
  Rng rng(4242);
  TripleStore store;
  std::set<Triple> model;
  for (int step = 0; step < 500; ++step) {
    const Triple t = RandomTriple(rng);
    if (rng.Bernoulli(0.7)) {
      store.Add(t);
      model.insert(t);
    } else {
      store.Remove(t);
      model.erase(t);
    }
    if (step % 83 == 0) {
      // Copying mid-stream (dirty buffers included) must yield an
      // equivalent, independent store.
      TripleStore copy = store;
      std::set<Triple> copy_model = model;
      ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(copy, copy_model, rng));
      copy.Add({99, 99, 99});
      ASSERT_FALSE(store.Contains({99, 99, 99}));
    }
  }
  ASSERT_NO_FATAL_FAILURE(CheckAgainstModel(store, model, rng));
}

}  // namespace
}  // namespace evorec::rdf
