// The overload serving contract under real races (runs under TSan via
// the Overload filter in CMakePresets): admission control decides
// *whether* a request is served, never *what* it is served. Four
// threads hammer a service with a tight in-flight limit; every
// admitted result must be byte-identical to a no-admission oracle, and
// every refusal must be the typed kResourceExhausted shed.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "evorec.h"

namespace evorec {
namespace {

using engine::RecommendationService;
using engine::ServiceOptions;

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
// rendered explanation text.
void ExpectIdenticalLists(const recommend::RecommendationList& a,
                          const recommend::RecommendationList& b) {
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    const recommend::RecommendationItem& x = a.items[i];
    const recommend::RecommendationItem& y = b.items[i];
    EXPECT_EQ(x.candidate.id, y.candidate.id);
    EXPECT_EQ(x.candidate.top_terms, y.candidate.top_terms);
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

TEST(OverloadStressTest, AdmittedResultsMatchNoAdmissionOracle) {
  workload::Scenario scenario = SmallScenario();
  measures::MeasureRegistry registry = measures::DefaultRegistry();

  ServiceOptions base_options;
  base_options.engine.threads = 2;

  constexpr int kThreads = 4;
  constexpr int kUsersPerThread = 2;
  // Threads run at least kMinRounds each, then keep going until the
  // race has been observed from both sides (some request served AND
  // some request shed) or the cap is hit — a fixed small round count
  // can serialize behind thread-spawn latency on a loaded machine and
  // never overlap.
  constexpr int kMinRounds = 40;
  constexpr int kMaxRounds = 4000;

  // Population: each thread serves its own users, with distinct
  // interests.
  auto head_snapshot = scenario.vkb->Snapshot(scenario.vkb->head());
  ASSERT_TRUE(head_snapshot.ok());
  const schema::SchemaView head_view = schema::SchemaView::Build(**head_snapshot);
  std::vector<std::vector<profile::HumanProfile>> users(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      profile::HumanProfile prof("t" + std::to_string(t) + "-u" +
                                 std::to_string(u));
      const auto& classes = head_view.classes();
      if (!classes.empty()) {
        prof.SetInterest(classes[(t * kUsersPerThread + u) % classes.size()],
                         1.0);
        prof.SetInterest(classes[(t + u + 3) % classes.size()], 0.5);
      }
      users[t].push_back(std::move(prof));
    }
  }

  // Oracle: the exact same pipeline with no admission layer at all,
  // run sequentially.
  RecommendationService oracle(registry, base_options);
  std::vector<std::vector<recommend::RecommendationList>> expected(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (profile::HumanProfile& prof : users[t]) {
      auto list = oracle.Recommend(*scenario.vkb, 0, 1, prof);
      ASSERT_TRUE(list.ok()) << list.status().ToString();
      expected[t].push_back(std::move(*list));
    }
  }

  // Protected service: in-flight limit 1, so concurrent threads race
  // the single slot and most requests shed.
  ServiceOptions guarded_options = base_options;
  guarded_options.overload.admission_enabled = true;
  guarded_options.overload.admission.max_in_flight = 1;
  guarded_options.overload.admission.priority_reserve = 0;
  RecommendationService guarded(registry, guarded_options);
  ASSERT_TRUE(guarded.WarmStart(*scenario.vkb, 0, 1).ok());

  std::atomic<int> served{0};
  std::atomic<int> shed{0};
  std::atomic<int> wrong_code{0};
  std::atomic<int> at_the_gate{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start barrier: all threads begin hammering together.
      ++at_the_gate;
      while (at_the_gate.load() < kThreads) std::this_thread::yield();
      for (int round = 0; round < kMaxRounds; ++round) {
        const int u = round % kUsersPerThread;
        auto list = guarded.Recommend(*scenario.vkb, 0, 1, users[t][u]);
        if (list.ok()) {
          ++served;
          // gtest assertions are thread-safe on pthreads platforms.
          ExpectIdenticalLists(*list, expected[t][u]);
        } else if (list.status().code() == StatusCode::kResourceExhausted) {
          ++shed;
        } else {
          ++wrong_code;
        }
        if (round + 1 >= kMinRounds && served.load() > 0 &&
            shed.load() > 0) {
          break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The race is real on both sides: work got through AND got shed.
  EXPECT_GT(served.load(), 0);
  EXPECT_GT(shed.load(), 0);
  EXPECT_EQ(wrong_code.load(), 0);

  const engine::AdmissionStats stats = guarded.admission_stats();
  EXPECT_EQ(stats.admitted_bulk, static_cast<uint64_t>(served.load()));
  EXPECT_EQ(stats.sheds(), static_cast<uint64_t>(shed.load()));
  EXPECT_EQ(stats.peak_in_flight, 1u);
  EXPECT_EQ(guarded.health().shed_requests,
            static_cast<uint64_t>(shed.load()));
}

}  // namespace
}  // namespace evorec
