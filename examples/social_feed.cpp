// Social feed: the paper's §I vision of humans who "generate data and
// are the targets of data analysis" being notified about how *their*
// data evolves. A feed-like KB churns through many small versions; a
// user with narrow interests gets a fresh, novelty-aware digest after
// every burst — repeated items stop being recommended.
//
// Served through the engine layer: a RecommendationService keeps each
// burst's evolution context and measure reports cached, so the
// thousandth follower of this feed costs scoring + selection only.
// Serving only reads the user; the feed delivers each digest and
// applies its receipt (recommend::DeliveredTerms) to the user's
// seen-history, which is what lowers the novelty of repeated items.
//
//   $ ./social_feed

#include <cstdio>
#include <iostream>

#include "evorec.h"

int main() {
  using namespace evorec;

  workload::ScenarioScale scale;
  scale.classes = 60;
  scale.properties = 20;
  scale.instances = 1000;
  scale.edges = 2000;
  scale.versions = 4;  // several small bursts
  scale.operations = 150;
  workload::Scenario scenario = workload::MakeSocialFeed(555, scale);
  std::printf("social feed KB: %zu versions of instance churn\n",
              scenario.vkb->version_count());

  const measures::MeasureRegistry registry = measures::DefaultRegistry();
  engine::ServiceOptions options;
  options.recommender.package_size = 3;
  options.recommender.novelty_weight = 0.5;  // §III.c novelty diversity
  options.recommender.diversity = recommend::DiversityKind::kNovelty;
  engine::RecommendationService service(registry, options);

  profile::HumanProfile& user = scenario.end_user;
  std::printf("user '%s' follows %zu topics\n\n", user.id().c_str(),
              user.interests().size());

  for (version::VersionId v = 1; v < scenario.vkb->version_count(); ++v) {
    auto digest = service.Recommend(*scenario.vkb, v - 1, v, user);
    if (!digest.ok()) continue;
    user.RecordSeen(recommend::DeliveredTerms(*digest));

    std::printf("--- digest after burst %u ---\n", v);
    double mean_novelty = 0.0;
    for (const auto& item : digest->items) {
      std::printf("  %-45s rel %.2f novelty %.2f\n",
                  item.candidate.id.c_str(), item.relatedness,
                  item.novelty);
      mean_novelty += item.novelty;
    }
    if (!digest->items.empty()) {
      mean_novelty /= static_cast<double>(digest->items.size());
    }
    std::printf("  seen-history %zu terms, digest novelty %.2f\n\n",
                user.seen_count(), mean_novelty);
  }

  // The feed has many followers: serve the last burst to a batch of
  // users against the now-warm cache — one context build total.
  const version::VersionId head = scenario.vkb->head();
  std::vector<profile::HumanProfile> followers;
  for (int i = 0; i < 8; ++i) {
    profile::HumanProfile follower = scenario.end_user;
    follower.set_id("follower-" + std::to_string(i));
    followers.push_back(std::move(follower));
  }
  std::vector<profile::HumanProfile*> batch;
  for (profile::HumanProfile& follower : followers) {
    batch.push_back(&follower);
  }
  auto digests = service.RecommendBatch(*scenario.vkb, head - 1, head, batch);
  const engine::EngineStats stats = service.engine_stats();
  if (digests.ok()) {
    std::printf(
        "served %zu followers of burst %u from the warm cache "
        "(%llu contexts built for %llu requests total)\n",
        digests->size(), head,
        static_cast<unsigned long long>(stats.contexts_built),
        static_cast<unsigned long long>(stats.context_hits +
                                        stats.context_misses));
  }

  std::printf(
      "\nnote how the seen-history grows and repeated regions lose "
      "novelty across digests — the novelty-based diversity of "
      "paper SIII.c in action.\n");
  return 0;
}
