#include "engine/recommendation_service.h"

#include <algorithm>
#include <type_traits>
#include <utility>

namespace evorec::engine {

namespace {

Env* ResolveEnv(const ServiceOptions& options) {
  return options.env != nullptr ? options.env : Env::Default();
}

// The declared cheaper mode served while browned out: pivot-sampled
// betweenness, the ContextOptions knob with the biggest cost lever.
constexpr measures::ContextOptions kBrownoutContext{
    .betweenness_mode = measures::BetweennessMode::kSampled,
    .betweenness_pivots = 16};

}  // namespace

std::string ServiceHealth::ToString() const {
  std::string out = "service ";
  out += state == HealthState::kHealthy ? "HEALTHY" : "DEGRADED";
  out += "\n  commits: failed=" + std::to_string(failed_commits) +
         " recoveries=" + std::to_string(recoveries);
  if (!last_error.empty()) out += " last_error=\"" + last_error + "\"";
  out += "\n  rejected: shed=" + std::to_string(shed_requests) +
         " deadline_exceeded=" + std::to_string(deadline_exceeded) +
         " breaker_fast_fails=" + std::to_string(breaker_fast_fails);
  out += "\n  served stale/cheap: degraded=" +
         std::to_string(degraded_serves) +
         " brownout=" + std::to_string(brownout_serves) +
         " (brownout " + (brownout_active ? "ACTIVE" : "inactive") + ")";
  return out;
}

RecommendationService::RecommendationService(
    const measures::MeasureRegistry& registry, ServiceOptions options)
    : options_(std::move(options)),
      env_(ResolveEnv(options_)),
      engine_(registry, options_.engine),
      recommender_(registry, options_.recommender),
      admission_(env_, options_.overload.admission),
      breaker_(env_, options_.overload.breaker),
      brownout_(env_, options_.overload.brownout) {}

void RecommendationService::AttachProvenance(
    provenance::ProvenanceStore* store) {
  provenance_ = store;
}

void RecommendationService::AttachAccessPolicy(
    const anonymity::AccessPolicy* policy) {
  recommender_.AttachAccessPolicy(policy);
}

Result<std::shared_ptr<const SharedEvaluation>> RecommendationService::Warm(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const measures::ContextOptions& context,
    std::shared_ptr<const recommend::SharedRunState>* state) {
  auto evaluation = engine_.Evaluate(view, v1, v2, context);
  if (!evaluation.ok()) return evaluation.status();
  auto shared = (*evaluation)->SharedStateFor(recommender_);
  if (!shared.ok()) return shared.status();
  *state = std::move(shared).value();
  return evaluation;
}

Result<std::shared_ptr<const SharedEvaluation>>
RecommendationService::WarmOrFallback(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const measures::ContextOptions& context,
    std::shared_ptr<const recommend::SharedRunState>* state,
    bool* degraded) {
  *degraded = health_state() == HealthState::kDegraded;
  auto evaluation = Warm(view, v1, v2, context, state);
  if (evaluation.ok() || !*degraded) return evaluation;
  // Degraded and unable to serve fresh: answer from the pinned
  // last-good evaluation rather than going dark. The caller sees a
  // consistent list for the last successfully committed transition,
  // flagged so nobody mistakes it for the requested pair.
  auto last_good = engine_.LastGoodRefresh();
  if (!last_good.has_value()) return evaluation;
  auto shared = last_good->evaluation->SharedStateFor(recommender_);
  if (!shared.ok()) return evaluation;  // original error is the story
  *state = std::move(shared).value();
  return Result<std::shared_ptr<const SharedEvaluation>>(
      last_good->evaluation);
}

Result<AdmissionController::Ticket> RecommendationService::AdmitOrShed(
    AdmissionLane lane, const RequestBudget& budget, uint64_t n) {
  if (!options_.overload.admission_enabled) {
    return AdmissionController::Ticket();
  }
  auto ticket = admission_.Admit(lane, budget, n);
  if (!ticket.ok()) {
    // Every shed feeds the brown-out pressure signal: sustained
    // shedding is the cue to drop to the cheaper serving mode.
    brownout_.OnShed();
    std::lock_guard<std::mutex> lock(health_mu_);
    health_.shed_requests += n;
  }
  return ticket;
}

Deadline RecommendationService::EffectiveDeadline(
    const RequestBudget& budget) const {
  if (!budget.deadline.is_infinite()) return budget.deadline;
  if (options_.overload.default_deadline_us == 0) return Deadline::Infinite();
  return Deadline::After(env_, options_.overload.default_deadline_us);
}

Status RecommendationService::CheckDeadline(const Deadline& deadline,
                                            std::string_view stage,
                                            uint64_t n) {
  Status status = deadline.Check(stage);
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    health_.deadline_exceeded += n;
  }
  return status;
}

const measures::ContextOptions& RecommendationService::PickContext(
    bool* brownout) {
  *brownout = brownout_.Active();
  return *brownout ? kBrownoutContext : options_.context;
}

void RecommendationService::MarkCommitFailed(const Status& status) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_.state = HealthState::kDegraded;
  ++health_.failed_commits;
  health_.last_error = status.message();
}

void RecommendationService::MarkCommitSucceeded() {
  std::lock_guard<std::mutex> lock(health_mu_);
  if (health_.state == HealthState::kDegraded) {
    ++health_.recoveries;
  }
  health_.state = HealthState::kHealthy;
}

void RecommendationService::CountDegradedServes(uint64_t n) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_.degraded_serves += n;
}

void RecommendationService::CountBrownoutServes(uint64_t n) {
  std::lock_guard<std::mutex> lock(health_mu_);
  health_.brownout_serves += n;
}

ServiceHealth RecommendationService::health() const {
  ServiceHealth out;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    out = health_;
  }
  out.brownout_active = brownout_.stats().active;
  return out;
}

Status RecommendationService::WarmStart(const version::KbView& view,
                                        version::VersionId v1,
                                        version::VersionId v2) {
  std::shared_ptr<const recommend::SharedRunState> state;
  auto evaluation = Warm(view, v1, v2, options_.context, &state);
  if (!evaluation.ok()) return evaluation.status();
  // Warm() covers the context and the candidate pool; the report memo
  // fills here so even measures outside the candidate pipeline are hot.
  auto reports = (*evaluation)->AllReports();
  return reports.ok() ? OkStatus() : reports.status();
}

Result<version::VersionId> RecommendationService::Commit(
    version::KbView& view, version::ChangeSet changes, std::string author,
    std::string message, uint64_t timestamp, const RequestBudget& budget) {
  const uint64_t start = env_->NowMicros();
  const bool breaker_on = options_.overload.breaker_enabled;
  if (breaker_on) {
    Status allowed = breaker_.Allow();
    if (!allowed.ok()) {
      // Fast-fail: storage was never touched, nothing *new* failed —
      // the service keeps whatever health state the real failures
      // already put it in.
      std::lock_guard<std::mutex> lock(health_mu_);
      ++health_.breaker_fast_fails;
      return allowed;
    }
  }
  // A pre-commit bail (shed, expired deadline) is not device sickness:
  // RecordFailure classifies by IsTransient and merely releases a
  // half-open probe for these codes.
  auto ticket = AdmitOrShed(AdmissionLane::kPriority, budget, 1);
  if (!ticket.ok()) {
    if (breaker_on) breaker_.RecordFailure(ticket.status());
    return ticket.status();
  }
  const Deadline deadline = EffectiveDeadline(budget);
  Status alive = CheckDeadline(deadline, "commit", 1);
  if (!alive.ok()) {
    if (breaker_on) breaker_.RecordFailure(alive);
    return alive;
  }
  auto refreshed =
      engine_.CommitAndRefresh(view, std::move(changes), std::move(author),
                               std::move(message), timestamp, options_.context);
  if (!refreshed.ok()) {
    // The commit is not in the history (the WAL is write-ahead: a
    // failed append mutates nothing). Flip to DEGRADED — reads keep
    // flowing from the engine's pinned last-good state, flagged.
    if (breaker_on) breaker_.RecordFailure(refreshed.status());
    MarkCommitFailed(refreshed.status());
    return refreshed.status();
  }
  // The engine refresh covers the context; warm the derived layers too
  // so the next request over the head pair is a pure hit.
  auto shared = refreshed->evaluation->SharedStateFor(recommender_);
  if (!shared.ok()) {
    if (breaker_on) breaker_.RecordFailure(shared.status());
    MarkCommitFailed(shared.status());
    return shared.status();
  }
  auto reports = refreshed->evaluation->AllReports();
  if (!reports.ok()) {
    if (breaker_on) breaker_.RecordFailure(reports.status());
    MarkCommitFailed(reports.status());
    return reports.status();
  }
  if (breaker_on) breaker_.RecordSuccess();
  MarkCommitSucceeded();
  commit_latency_.Record(env_->NowMicros() - start);
  return refreshed->version;
}

Result<std::vector<provenance::RecordId>> RecommendationService::SpliceTraces(
    const std::vector<provenance::ProvenanceStore>& scratch) {
  std::lock_guard<std::mutex> lock(provenance_mu_);
  std::vector<provenance::RecordId> bases(scratch.size(), 0);
  for (size_t i = 0; i < scratch.size(); ++i) {
    const provenance::RecordId base =
        static_cast<provenance::RecordId>(provenance_->size());
    bases[i] = base;
    for (const provenance::ProvRecord& record : scratch[i].records()) {
      provenance::ProvRecord rebased = record;
      // Scratch ids are dense from 0, so every id a sequential run
      // would have assigned is scratch id + base — inputs rebase to
      // records already spliced, keeping Append's validation happy.
      for (provenance::RecordId& input : rebased.inputs) input += base;
      auto appended = provenance_->Append(std::move(rebased));
      if (!appended.ok()) return appended.status();
    }
  }
  return bases;
}

namespace {

// Rebases the record ids a run wrote scratch-relative into the attached
// store's id space.
void RebaseTrail(recommend::RecommendationList& list,
                 provenance::RecordId base) {
  for (provenance::RecordId& id : list.provenance_trail) id += base;
  for (recommend::RecommendationItem& item : list.items) {
    if (item.explanation.has_provenance) {
      item.explanation.provenance_record += base;
    }
  }
}

Result<recommend::RecommendationList> OnlyResult(
    Result<std::vector<recommend::RecommendationList>> batch) {
  if (!batch.ok()) return batch.status();
  return std::move(batch->front());
}

}  // namespace

template <typename Principal>
Result<std::vector<recommend::RecommendationList>>
RecommendationService::Serve(const version::KbView& view,
                             version::VersionId v1, version::VersionId v2,
                             std::span<const Principal* const> principals,
                             const RequestBudget& budget) {
  constexpr bool kGroup = std::is_same_v<Principal, profile::Group>;
  if (std::find(principals.begin(), principals.end(), nullptr) !=
      principals.end()) {
    return InvalidArgumentError("serving request names a null principal");
  }
  const uint64_t start = env_->NowMicros();
  const size_t n = principals.size();
  // A batch of n is n logical requests to the rate bucket but one
  // in-flight unit of work. Group serves ride the priority lane: they
  // are rarer and more expensive per call, so a bulk-read flood must
  // not starve them.
  auto ticket = AdmitOrShed(
      kGroup ? AdmissionLane::kPriority : AdmissionLane::kBulk, budget, n);
  if (!ticket.ok()) return ticket.status();
  const Deadline deadline = EffectiveDeadline(budget);
  // Checked before the shared evaluation: an already-expired request
  // does zero context builds (EngineStats stays untouched).
  Status alive = CheckDeadline(deadline, "context build", n);
  if (!alive.ok()) return alive;
  bool brownout = false;
  const measures::ContextOptions& context = PickContext(&brownout);
  std::shared_ptr<const recommend::SharedRunState> state;
  bool degraded = false;
  auto evaluation = WarmOrFallback(view, v1, v2, context, &state, &degraded);
  if (!evaluation.ok()) return evaluation.status();

  // Every run traces into a private scratch store, so runs never share
  // the attached store; ParallelFor runs a single request inline.
  std::vector<provenance::ProvenanceStore> scratch(
      provenance_ != nullptr ? n : 0);
  std::vector<Result<recommend::RecommendationList>> slots(
      n, Result<recommend::RecommendationList>(
             InternalError("request not served")));
  engine_.pool().ParallelFor(n, [&](size_t i) {
    Status run_alive = CheckDeadline(deadline, "scoring", 1);
    if (!run_alive.ok()) {
      slots[i] = run_alive;
      return;
    }
    provenance::ProvenanceStore* trace =
        scratch.empty() ? nullptr : &scratch[i];
    if constexpr (kGroup) {
      slots[i] = recommender_.RecommendForGroup(*state, *principals[i], trace);
    } else {
      slots[i] = recommender_.RecommendForUser(*state, *principals[i], trace);
    }
  });
  // Splice before error handling: a sequential run records every
  // request's trail even when one of them fails.
  std::vector<provenance::RecordId> bases(n, 0);
  if (!scratch.empty()) {
    auto spliced = SpliceTraces(scratch);
    if (!spliced.ok()) return spliced.status();
    bases = std::move(spliced).value();
  }
  std::vector<recommend::RecommendationList> lists;
  lists.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!slots[i].ok()) return slots[i].status();
    RebaseTrail(*slots[i], bases[i]);
    slots[i]->degraded = degraded;
    slots[i]->brownout = brownout;
    lists.push_back(std::move(slots[i]).value());
  }
  if (degraded) CountDegradedServes(n);
  if (brownout) CountBrownoutServes(n);
  // Every request in the batch completed when the batch did: n samples
  // of the batch's wall time is each request's observed latency.
  read_latency_.RecordN(env_->NowMicros() - start, n);
  return lists;
}

Result<recommend::RecommendationList> RecommendationService::Recommend(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const profile::HumanProfile& prof, const RequestBudget& budget) {
  const profile::HumanProfile* const one = &prof;
  return OnlyResult(
      Serve<profile::HumanProfile>(view, v1, v2, {&one, 1}, budget));
}

Result<recommend::RecommendationList> RecommendationService::RecommendGroup(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    const profile::Group& group, const RequestBudget& budget) {
  const profile::Group* const one = &group;
  return OnlyResult(Serve<profile::Group>(view, v1, v2, {&one, 1}, budget));
}

Result<std::vector<recommend::RecommendationList>>
RecommendationService::RecommendBatch(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    std::span<const profile::HumanProfile* const> profiles,
    const RequestBudget& budget) {
  return Serve<profile::HumanProfile>(view, v1, v2, profiles, budget);
}

Result<std::vector<recommend::RecommendationList>>
RecommendationService::RecommendGroupBatch(
    const version::KbView& view, version::VersionId v1, version::VersionId v2,
    std::span<const profile::Group* const> groups,
    const RequestBudget& budget) {
  return Serve<profile::Group>(view, v1, v2, groups, budget);
}

}  // namespace evorec::engine
