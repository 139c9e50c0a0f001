#ifndef EVOREC_RECOMMEND_RECOMMENDER_H_
#define EVOREC_RECOMMEND_RECOMMENDER_H_

#include <memory>
#include <string>
#include <vector>

#include "anonymity/access_policy.h"
#include "common/result.h"
#include "measures/measure_context.h"
#include "measures/registry.h"
#include "profile/group.h"
#include "profile/profile.h"
#include "provenance/store.h"
#include "recommend/anonymity_gate.h"
#include "recommend/candidate.h"
#include "recommend/diversity.h"
#include "recommend/explanation.h"
#include "recommend/fairness.h"
#include "recommend/group_recommender.h"
#include "recommend/relatedness.h"

namespace evorec::recommend {

/// Configuration of the full recommendation pipeline.
struct RecommenderOptions {
  CandidateOptions candidates;
  RelatednessOptions relatedness;
  /// Number of measures per recommendation package.
  size_t package_size = 5;
  /// Relevance/diversity balance of the individual selector.
  double mmr_lambda = 0.7;
  DiversityKind diversity = DiversityKind::kContent;
  /// Blend novelty into individual relevance:
  /// relevance = (1−w)·relatedness + w·novelty.
  double novelty_weight = 0.0;
  /// Group strategy.
  GroupSelectOptions group;
};

/// The user-independent half of a recommendation run: the candidate
/// pool generated for one (context, options) pair, shared verbatim by
/// every user and group asking about that version pair. Per-run state
/// (gating, scoring, selection, explanation) stays inside the
/// Recommend* calls, so one SharedRunState may serve many concurrent
/// runs. `ctx` must outlive the state.
struct SharedRunState {
  const measures::EvolutionContext* ctx = nullptr;
  /// Pre-gate candidate pool (per-user gating works on a copy).
  std::vector<MeasureCandidate> pool;
  /// normalized[i] == pool[i].report.Normalized() — user-independent
  /// scoring input computed once for all users.
  std::vector<measures::MeasureReport> normalized;
  /// Pairwise candidate distances under the recommender's diversity
  /// kind — user-independent selection input computed once.
  DistanceMatrix distances;
};

/// One delivered recommendation.
struct RecommendationItem {
  MeasureCandidate candidate;
  double relatedness = 0.0;
  double novelty = 0.0;
  Explanation explanation;
};

/// A delivered package plus its quality diagnostics.
struct RecommendationList {
  std::vector<RecommendationItem> items;
  double set_diversity = 0.0;
  double category_coverage = 0.0;
  /// Group runs only; default-initialised otherwise.
  FairnessDiagnostics fairness;
  size_t candidate_pool_size = 0;
  size_t redacted_terms = 0;
  size_t dropped_candidates = 0;
  /// Provenance records of the pipeline stages (empty for an untraced
  /// run).
  std::vector<provenance::RecordId> provenance_trail;
  /// Set by the serving layer while it is in the DEGRADED health
  /// state: the list is consistent but may reflect the last
  /// successfully committed version rather than the requested one
  /// (engine::RecommendationService, docs/STORAGE.md).
  bool degraded = false;
  /// Set by the serving layer while it is browned out under sustained
  /// overload: the list was served in the declared cheaper mode
  /// (sampled betweenness) rather than the configured one
  /// (engine::RecommendationService overload control).
  bool brownout = false;
};

/// The delivery receipt of `list`: every top term of every item, in
/// item order. Recommending never writes a principal; whoever delivers
/// the list applies the receipt with HumanProfile::RecordSeen or
/// Group::RecordSeen, which lowers novelty on the next run (§III.c).
std::vector<rdf::TermId> DeliveredTerms(const RecommendationList& list);

/// The paper's processing model: generate measure candidates for a
/// version pair, pass them through the anonymity gate, score
/// relatedness (and novelty), select a diverse (or fair) package, and
/// explain every pick — with the whole run captured as a provenance
/// workflow when a trace store is passed.
class Recommender {
 public:
  /// `registry` must outlive the recommender.
  Recommender(const measures::MeasureRegistry& registry,
              RecommenderOptions options = {});

  /// Attaches strict access rules applied before scoring (§III.e).
  /// Pass nullptr to detach.
  void AttachAccessPolicy(const anonymity::AccessPolicy* policy);

  /// Builds the user-independent shared state for `ctx` by computing
  /// every measure through the registry, including the scoring/
  /// selection accelerators (normalised reports, distance matrix).
  Result<SharedRunState> PrepareShared(
      const measures::EvolutionContext& ctx) const;

  /// Builds the shared state from already-computed whole-KB reports
  /// (the engine's memoized serving path); produces a pool identical
  /// to PrepareShared(ctx) when the reports match the registry.
  Result<SharedRunState> PrepareShared(
      const measures::EvolutionContext& ctx,
      const std::vector<measures::MeasureInfo>& infos,
      const std::vector<std::shared_ptr<const measures::MeasureReport>>&
          reports) const;

  /// Recommends a measure package to one human, recording its stages
  /// into `trace` (transparency, §III.b; nullptr runs untraced).
  Result<RecommendationList> RecommendForUser(
      const measures::EvolutionContext& ctx,
      const profile::HumanProfile& prof,
      provenance::ProvenanceStore* trace = nullptr) const;

  /// Serving path: the same pipeline over a prepared shared state,
  /// tracing into `trace` (nullptr runs untraced). Safe to call
  /// concurrently against one state with distinct trace stores (the
  /// per-run stages work on a copy of the pool), and byte-identical to
  /// the context path given equivalent shared state. Workflow
  /// timestamps are per-run logical clocks, so a trace into a private
  /// scratch store is the in-place trace with ids rebased — what lets
  /// a serving layer splice scratches back in deterministic order.
  Result<RecommendationList> RecommendForUser(
      const SharedRunState& shared, const profile::HumanProfile& prof,
      provenance::ProvenanceStore* trace) const;

  /// Recommends one shared package to a group (§III.d), tracing into
  /// `trace` when non-null.
  Result<RecommendationList> RecommendForGroup(
      const measures::EvolutionContext& ctx, const profile::Group& group,
      provenance::ProvenanceStore* trace = nullptr) const;

  /// Group flavour of the shared-state serving path.
  Result<RecommendationList> RecommendForGroup(
      const SharedRunState& shared, const profile::Group& group,
      provenance::ProvenanceStore* trace) const;

  const RecommenderOptions& options() const { return options_; }
  const measures::MeasureRegistry& registry() const { return registry_; }

 private:
  /// The candidate pool alone, for context-path runs that don't read
  /// the shared accelerators (group runs, gated runs).
  Result<SharedRunState> PreparePool(
      const measures::EvolutionContext& ctx) const;

  const measures::MeasureRegistry& registry_;
  RecommenderOptions options_;
  const anonymity::AccessPolicy* policy_ = nullptr;
};

}  // namespace evorec::recommend

#endif  // EVOREC_RECOMMEND_RECOMMENDER_H_
