#include "recommend/recommender.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "provenance/workflow.h"

namespace evorec::recommend {

Recommender::Recommender(const measures::MeasureRegistry& registry,
                         RecommenderOptions options)
    : registry_(registry), options_(std::move(options)) {}

void Recommender::AttachAccessPolicy(const anonymity::AccessPolicy* policy) {
  policy_ = policy;
}

namespace {

// Thin wrapper so pipeline code reads identically with and without an
// attached provenance store.
class StageTracer {
 public:
  StageTracer(provenance::ProvenanceStore* store, const std::string& run_name,
              const std::string& agent)
      : workflow_(store == nullptr
                      ? nullptr
                      : std::make_unique<provenance::Workflow>(
                            run_name, agent, *store)) {}

  void Run(const std::string& stage, const std::string& entity,
           const std::string& note) {
    if (workflow_ == nullptr) return;
    std::vector<provenance::RecordId> inputs;
    if (!workflow_->stage_records().empty()) {
      inputs.push_back(workflow_->stage_records().back());
    }
    (void)workflow_->RunStage(stage, entity,
                              provenance::SourceKind::kInference, inputs,
                              [&] { return note; });
  }

  std::vector<provenance::RecordId> trail() const {
    return workflow_ == nullptr ? std::vector<provenance::RecordId>{}
                                : workflow_->stage_records();
  }

  std::optional<provenance::RecordId> last() const {
    if (workflow_ == nullptr || workflow_->stage_records().empty()) {
      return std::nullopt;
    }
    return workflow_->stage_records().back();
  }

 private:
  std::unique_ptr<provenance::Workflow> workflow_;
};

std::vector<measures::MeasureReport> NormalizeReports(
    const std::vector<MeasureCandidate>& pool) {
  std::vector<measures::MeasureReport> normalized;
  normalized.reserve(pool.size());
  for (const MeasureCandidate& candidate : pool) {
    normalized.push_back(candidate.report.Normalized());
  }
  return normalized;
}

}  // namespace

std::vector<rdf::TermId> DeliveredTerms(const RecommendationList& list) {
  std::vector<rdf::TermId> terms;
  for (const RecommendationItem& item : list.items) {
    terms.insert(terms.end(), item.candidate.top_terms.begin(),
                 item.candidate.top_terms.end());
  }
  return terms;
}

Result<SharedRunState> Recommender::PreparePool(
    const measures::EvolutionContext& ctx) const {
  auto pool = GenerateCandidates(registry_, ctx, options_.candidates);
  if (!pool.ok()) return pool.status();
  SharedRunState shared;
  shared.ctx = &ctx;
  shared.pool = std::move(pool).value();
  return shared;
}

Result<SharedRunState> Recommender::PrepareShared(
    const measures::EvolutionContext& ctx) const {
  auto shared = PreparePool(ctx);
  if (!shared.ok()) return shared;
  shared->normalized = NormalizeReports(shared->pool);
  shared->distances = DistanceMatrix::Build(shared->pool, options_.diversity);
  return shared;
}

Result<SharedRunState> Recommender::PrepareShared(
    const measures::EvolutionContext& ctx,
    const std::vector<measures::MeasureInfo>& infos,
    const std::vector<std::shared_ptr<const measures::MeasureReport>>&
        reports) const {
  auto pool =
      GenerateCandidatesFromReports(infos, reports, ctx, options_.candidates);
  if (!pool.ok()) return pool.status();
  SharedRunState shared;
  shared.ctx = &ctx;
  shared.pool = std::move(pool).value();
  shared.normalized = NormalizeReports(shared.pool);
  shared.distances = DistanceMatrix::Build(shared.pool, options_.diversity);
  return shared;
}

Result<RecommendationList> Recommender::RecommendForUser(
    const measures::EvolutionContext& ctx, const profile::HumanProfile& prof,
    provenance::ProvenanceStore* trace) const {
  // With a policy attached the per-user gating invalidates the shared
  // normalisation/distances, so don't build them for one run.
  auto shared = policy_ == nullptr ? PrepareShared(ctx) : PreparePool(ctx);
  if (!shared.ok()) return shared.status();
  return RecommendForUser(*shared, prof, trace);
}

Result<RecommendationList> Recommender::RecommendForUser(
    const SharedRunState& shared, const profile::HumanProfile& prof,
    provenance::ProvenanceStore* trace) const {
  const measures::EvolutionContext& ctx = *shared.ctx;
  StageTracer tracer(trace, "recommend_user/" + prof.id(), "evorec");
  tracer.Run("context", "evolution_context",
             "delta size " + std::to_string(ctx.low_level_delta().size()));
  tracer.Run("candidates", "candidate_pool",
             std::to_string(shared.pool.size()) + " candidates");

  // Null policy: the gate is an identity, so score straight off the
  // shared pool (and its pre-normalised reports) without copying it.
  // With a policy attached, gating redacts per user and the shared
  // normalisation no longer lines up.
  GateOutcome gated;
  const bool use_shared_pool = policy_ == nullptr;
  if (!use_shared_pool) {
    gated = ApplyAccessGate(policy_, prof.id(), shared.pool,
                            options_.candidates.top_k);
  }
  const std::vector<MeasureCandidate>& candidates =
      use_shared_pool ? shared.pool : gated.candidates;
  const bool have_normalized =
      use_shared_pool && shared.normalized.size() == shared.pool.size();
  tracer.Run("anonymity_gate", "gated_pool",
             std::to_string(candidates.size()) + " visible, " +
                 std::to_string(gated.dropped_candidates) + " dropped");

  const RelatednessScorer scorer(ctx, options_.relatedness);
  const std::unordered_map<rdf::TermId, double> expanded =
      scorer.ExpandInterests(prof);
  std::vector<double> relatedness(candidates.size(), 0.0);
  std::vector<double> novelty(candidates.size(), 0.0);
  std::vector<double> relevance(candidates.size(), 0.0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    relatedness[i] = scorer.ScoreExpanded(
        expanded, prof, candidates[i],
        have_normalized ? &shared.normalized[i] : nullptr);
    novelty[i] = NoveltyScore(prof, candidates[i]);
    relevance[i] = (1.0 - options_.novelty_weight) * relatedness[i] +
                   options_.novelty_weight * novelty[i];
  }
  tracer.Run("scoring", "scored_pool",
             "relatedness+novelty over " +
                 std::to_string(candidates.size()) + " candidates");

  const DistanceMatrix* distances =
      use_shared_pool && shared.distances.size() == candidates.size()
          ? &shared.distances
          : nullptr;
  std::vector<size_t> selection =
      SelectMmr(candidates, relevance, options_.package_size,
                options_.mmr_lambda, options_.diversity, distances);
  selection = ImproveBySwaps(candidates, relevance, std::move(selection),
                             options_.mmr_lambda, options_.diversity,
                             /*max_rounds=*/4, distances);
  tracer.Run("selection", "package",
             std::to_string(selection.size()) + " measures selected");

  RecommendationList list;
  list.candidate_pool_size = candidates.size();
  list.redacted_terms = gated.redacted_terms;
  list.dropped_candidates = gated.dropped_candidates;
  for (size_t index : selection) {
    RecommendationItem item;
    item.candidate = candidates[index];
    item.relatedness = relatedness[index];
    item.novelty = novelty[index];
    item.explanation = BuildExplanation(item.candidate, prof, scorer,
                                        ctx.before().dictionary(), &expanded);
    if (auto last = tracer.last(); last.has_value()) {
      item.explanation.has_provenance = true;
      item.explanation.provenance_record = *last;
    }
    list.items.push_back(std::move(item));
  }
  list.set_diversity =
      SetDiversity(candidates, selection, options_.diversity, distances);
  list.category_coverage = CategoryCoverage(candidates, selection);
  list.provenance_trail = tracer.trail();
  return list;
}

Result<RecommendationList> Recommender::RecommendForGroup(
    const measures::EvolutionContext& ctx, const profile::Group& group,
    provenance::ProvenanceStore* trace) const {
  if (group.empty()) {
    return InvalidArgumentError("cannot recommend to an empty group");
  }
  // The group pipeline scores through its own utility matrix and never
  // reads the shared normalisation/distances — skip building them.
  auto shared = PreparePool(ctx);
  if (!shared.ok()) return shared.status();
  return RecommendForGroup(*shared, group, trace);
}

Result<RecommendationList> Recommender::RecommendForGroup(
    const SharedRunState& shared, const profile::Group& group,
    provenance::ProvenanceStore* trace) const {
  if (group.empty()) {
    return InvalidArgumentError("cannot recommend to an empty group");
  }
  const measures::EvolutionContext& ctx = *shared.ctx;
  StageTracer tracer(trace, "recommend_group/" + group.id(), "evorec");
  tracer.Run("context", "evolution_context",
             "delta size " + std::to_string(ctx.low_level_delta().size()));
  tracer.Run("candidates", "candidate_pool",
             std::to_string(shared.pool.size()) + " candidates");

  // The gate applies the *most restrictive* view: a term is visible to
  // the group only if every member may see it. Implemented by
  // filtering per member and keeping the intersection via sequential
  // application.
  std::vector<MeasureCandidate> candidates = shared.pool;
  size_t redacted_total = 0;
  size_t dropped_total = 0;
  for (const profile::HumanProfile& member : group.members()) {
    GateOutcome gated = ApplyAccessGate(policy_, member.id(),
                                        std::move(candidates),
                                        options_.candidates.top_k);
    candidates = std::move(gated.candidates);
    redacted_total += gated.redacted_terms;
    dropped_total += gated.dropped_candidates;
  }
  tracer.Run("anonymity_gate", "gated_pool",
             std::to_string(candidates.size()) + " visible");

  const RelatednessScorer scorer(ctx, options_.relatedness);
  GroupSelectOptions group_options = options_.group;
  group_options.package_size = options_.package_size;
  GroupSelection selected =
      SelectForGroup(candidates, group, scorer, group_options);
  tracer.Run("selection", "package",
             std::to_string(selected.selection.size()) +
                 " measures selected (fairness_aware=" +
                 (group_options.fairness_aware ? "yes" : "no") + ")");

  RecommendationList list;
  list.candidate_pool_size = candidates.size();
  list.redacted_terms = redacted_total;
  list.dropped_candidates = dropped_total;
  list.fairness = selected.fairness;
  list.set_diversity = selected.set_diversity;
  list.category_coverage = CategoryCoverage(candidates, selected.selection);
  for (size_t index : selected.selection) {
    RecommendationItem item;
    item.candidate = candidates[index];
    // Item-level relatedness for a group is the mean member utility.
    double mean_utility = 0.0;
    for (size_t m = 0; m < group.size(); ++m) {
      mean_utility += selected.utilities[m][index];
    }
    item.relatedness = mean_utility / static_cast<double>(group.size());
    item.novelty = 0.0;
    item.explanation = BuildExplanation(item.candidate, group.members()[0],
                                        scorer, ctx.before().dictionary());
    if (auto last = tracer.last(); last.has_value()) {
      item.explanation.has_provenance = true;
      item.explanation.provenance_record = *last;
    }
    list.items.push_back(std::move(item));
  }
  list.provenance_trail = tracer.trail();
  return list;
}

}  // namespace evorec::recommend
