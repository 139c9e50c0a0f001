#ifndef EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_
#define EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "anonymity/access_policy.h"
#include "common/deadline.h"
#include "common/env.h"
#include "common/percentile.h"
#include "common/result.h"
#include "engine/admission.h"
#include "engine/evaluation_engine.h"
#include "measures/measure_context.h"
#include "measures/registry.h"
#include "profile/group.h"
#include "profile/profile.h"
#include "provenance/store.h"
#include "recommend/recommender.h"
#include "version/kb_view.h"

namespace evorec::engine {

/// The service's overload-robustness layer (engine/admission.h has the
/// primitives, docs/ARCHITECTURE.md the state diagrams). Everything
/// defaults off: an unconfigured service behaves exactly as before.
struct OverloadOptions {
  /// Run every request through the AdmissionController; shed requests
  /// return kResourceExhausted before any expensive work. Commits and
  /// group requests enter on the priority lane.
  bool admission_enabled = false;
  AdmissionOptions admission;
  /// Wrap Commit in the CircuitBreaker: after
  /// breaker.failure_threshold consecutive transient commit failures,
  /// commits fast-fail (kUnavailable) for breaker.cooldown_us instead
  /// of hammering a sick device; a half-open probe closes it again.
  /// Serving stays in the existing DEGRADED machinery throughout.
  bool breaker_enabled = false;
  BreakerOptions breaker;
  /// Hysteretic brown-out: under sustained shed pressure, serve the
  /// declared cheaper mode (pivot-sampled betweenness, 16 pivots)
  /// instead of ServiceOptions::context, flagged
  /// RecommendationList::brownout (brownout.enabled arms it).
  BrownoutOptions brownout;
  /// Deadline applied to requests whose RequestBudget carries none;
  /// 0 = infinite (no implicit deadline).
  uint64_t default_deadline_us = 0;
};

/// Service configuration: the recommender pipeline, the engine's
/// cache/threading, and how contexts are built.
struct ServiceOptions {
  recommend::RecommenderOptions recommender;
  EngineOptions engine;
  measures::ContextOptions context;
  /// The clock/environment behind the latency recorders, deadlines,
  /// admission control and the commit circuit breaker. nullptr means
  /// Env::Default(); tests inject a FaultInjectionEnv so time is
  /// scripted and no test ever sleeps. Must outlive the service.
  Env* env = nullptr;
  OverloadOptions overload;
};

/// The service's explicit health state machine (docs/ARCHITECTURE.md
/// has the diagram):
///
///   kHealthy --(Commit fails)--> kDegraded --(Commit succeeds)--> kHealthy
///
/// While DEGRADED the service refuses to go dark: reads that cannot be
/// served fresh fall back to the engine's pinned last-good evaluation,
/// and every result carries RecommendationList::degraded = true so
/// callers know it may be stale (consistent, but possibly reflecting
/// the last committed version rather than the requested one).
enum class HealthState {
  kHealthy,
  /// A commit failed after reaching the durable layer's retry budget;
  /// serving continues from the last-good state until a commit
  /// succeeds.
  kDegraded,
};

/// Health counters and the evidence behind the current state. The
/// rejection counters keep the failure taxonomy honest: a *shed*
/// request was refused before any work (admission), a
/// *deadline-exceeded* one was abandoned at a stage boundary, a
/// *breaker fast-fail* is a commit refused while the circuit breaker
/// is open — none of them are degraded serves (those are successful
/// answers from stale state).
struct ServiceHealth {
  HealthState state = HealthState::kHealthy;
  uint64_t failed_commits = 0;
  /// Results served with the degraded flag set.
  uint64_t degraded_serves = 0;
  /// kDegraded -> kHealthy transitions (a commit succeeded again).
  uint64_t recoveries = 0;
  /// Requests refused by admission control (kResourceExhausted),
  /// summed over causes — AdmissionStats has the per-cause split.
  uint64_t shed_requests = 0;
  /// Requests abandoned past their deadline (kDeadlineExceeded), at
  /// whichever stage boundary caught it.
  uint64_t deadline_exceeded = 0;
  /// Commits fast-failed by the open circuit breaker — the device was
  /// never touched, nothing new failed.
  uint64_t breaker_fast_fails = 0;
  /// Results served in the brown-out cheaper mode (flagged
  /// RecommendationList::brownout).
  uint64_t brownout_serves = 0;
  /// Whether brown-out is active right now.
  bool brownout_active = false;
  /// Message of the failure that caused the current (or most recent)
  /// degradation.
  std::string last_error;

  /// Multi-line operator summary (health state, rejection taxonomy,
  /// brown-out state) — what the health_monitor example prints.
  std::string ToString() const;
};

/// The serving loop of the ROADMAP's many-users vision: N users (or
/// groups) asking about one version pair share one cached
/// EvolutionContext, one memoized set of measure reports, and one
/// candidate pool; only gating, scoring, selection and explanation run
/// per user. Batches are byte-identical to sequential per-user
/// Recommend calls with the same inputs.
///
/// Every read entry point funnels into one serving core: a single
/// request is a batch of one, and user vs group only picks the
/// admission lane and the recommender pipeline. Every entry point takes
/// a version::KbView — a durable VersionedKnowledgeBase or a
/// version::ShardedKnowledgeBase — whose snapshot pins never wait for
/// a commit, so reads proceed at full fan-out while a Commit lands.
///
/// Thread-safe: one service may serve concurrent callers. Principals
/// are read-only, so any number of concurrent requests, and the slots
/// of one batch, may name one profile or group. Whoever delivers a list
/// applies its receipt (recommend::DeliveredTerms) while no request
/// naming that principal is in flight.
class RecommendationService {
 public:
  /// `registry` must outlive the service.
  explicit RecommendationService(const measures::MeasureRegistry& registry,
                                 ServiceOptions options = {});

  /// Attaches a provenance store recording every run's stages. Each run
  /// traces into a private scratch store; one splice per request,
  /// serialised across concurrent requests, appends the scratches in
  /// request order with rebased ids — byte-identical to tracing the
  /// runs sequentially in place, and every run's trail stays
  /// contiguous. Batches stay parallel while attached. Pass nullptr to
  /// detach (not while serving).
  void AttachProvenance(provenance::ProvenanceStore* store);

  /// Attaches strict access rules applied before scoring. Pass nullptr
  /// to detach.
  void AttachAccessPolicy(const anonymity::AccessPolicy* policy);

  /// Recommends to one human about versions (v1, v2) of `view`,
  /// reusing the cached shared evaluation when warm.
  Result<recommend::RecommendationList> Recommend(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const profile::HumanProfile& prof,
      const RequestBudget& budget = {});

  /// Recommends one shared package to a group. Group requests enter
  /// admission on the priority lane.
  Result<recommend::RecommendationList> RecommendGroup(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const profile::Group& group,
      const RequestBudget& budget = {});

  /// Serves many users against one version pair: the shared evaluation
  /// is built (or fetched) once, then the per-user stages run in
  /// parallel on the engine's pool. results[i] corresponds to
  /// profiles[i]; a null profile fails the request with
  /// kInvalidArgument. Fails on the first per-user failure.
  Result<std::vector<recommend::RecommendationList>> RecommendBatch(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2,
      std::span<const profile::HumanProfile* const> profiles,
      const RequestBudget& budget = {});

  /// Group flavour of RecommendBatch.
  Result<std::vector<recommend::RecommendationList>> RecommendGroupBatch(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, std::span<const profile::Group* const> groups,
      const RequestBudget& budget = {});

  /// Warm-start: pre-builds the full shared evaluation of (v1, v2) —
  /// context, every registered measure report, the recommender's
  /// shared run state — without serving anyone, so the first real
  /// request is a pure cache hit. This is the restart story's second
  /// half: version::RecoverFromDisk restores a KB with its original
  /// content fingerprints, so the keys warmed here are the exact keys
  /// the pre-restart process was serving under.
  Status WarmStart(const version::KbView& view, version::VersionId v1,
                   version::VersionId v2);

  /// The serving loop's write path: commits `changes` to `view` and
  /// incrementally refreshes the engine so the head transition is warm
  /// — context, every measure report, and the recommender's shared run
  /// state — before this returns. Requests racing the refresh simply
  /// coalesce with it. Safe to call while other threads serve through
  /// this service (one committer at a time); returns the new head id.
  ///
  /// Health coupling: a failure here (the WAL append exhausted its
  /// retries, the refresh broke, …) flips the service to
  /// HealthState::kDegraded — the commit is not in the history, the
  /// engine's pinned last-good state keeps serving — and the next
  /// successful Commit flips it back to kHealthy.
  ///
  /// Concurrent reads through this service keep flowing while the
  /// commit lands, its commit-log append and fsync included.
  Result<version::VersionId> Commit(version::KbView& view,
                                    version::ChangeSet changes,
                                    std::string author, std::string message,
                                    uint64_t timestamp = 0,
                                    const RequestBudget& budget = {});

  /// Snapshot of the current health state and counters. Thread-safe.
  ServiceHealth health() const;
  HealthState health_state() const { return health().state; }

  /// Per-request latency recorders on the serving path (E16). Every
  /// successful read entry point records one sample per served request
  /// — a batch of n profiles records n samples of the batch's wall
  /// time, because that is when each of its requests completed — and
  /// every successful Commit records one sample. Recording is a
  /// relaxed atomic increment, safe under full concurrent fan-out;
  /// failed requests are not recorded (they are counted by health()).
  const LatencyRecorder& read_latency() const { return read_latency_; }
  const LatencyRecorder& commit_latency() const { return commit_latency_; }
  void ResetLatency() {
    read_latency_.Reset();
    commit_latency_.Reset();
  }

  EvaluationEngine& engine() { return engine_; }
  const recommend::Recommender& recommender() const { return recommender_; }
  EngineStats engine_stats() const { return engine_.stats(); }
  const ServiceOptions& options() const { return options_; }

  /// Overload-control observability (zeros while the corresponding
  /// feature is disabled). Thread-safe.
  AdmissionStats admission_stats() const { return admission_.stats(); }
  BreakerStats breaker_stats() const { return breaker_.stats(); }
  BrownoutStats brownout_stats() const { return brownout_.stats(); }

  /// The clock everything here runs on (ServiceOptions::env, or
  /// Env::Default()).
  Env* env() const { return env_; }

 private:
  /// The one read path behind Recommend, RecommendGroup and their
  /// batch flavours (Principal is profile::HumanProfile or
  /// profile::Group): rejects null principals, admits the request,
  /// fetches the shared evaluation once, runs the per-principal stages
  /// on the engine's pool — each into a private scratch trace when a
  /// store is attached — and splices the traces. results[i]
  /// corresponds to principals[i].
  template <typename Principal>
  Result<std::vector<recommend::RecommendationList>> Serve(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, std::span<const Principal* const> principals,
      const RequestBudget& budget);

  Result<std::shared_ptr<const SharedEvaluation>> Warm(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const measures::ContextOptions& context,
      std::shared_ptr<const recommend::SharedRunState>* state);

  /// Warm(), plus the degraded-mode fallback: when Warm fails *and*
  /// the service is already degraded, serve the engine's pinned
  /// last-good evaluation instead of going dark. Healthy-state errors
  /// (e.g. a genuinely invalid version id) propagate unchanged — the
  /// fallback only masks failures the degradation already explains.
  /// `degraded` reports whether results must carry the flag.
  Result<std::shared_ptr<const SharedEvaluation>> WarmOrFallback(
      const version::KbView& view, version::VersionId v1,
      version::VersionId v2, const measures::ContextOptions& context,
      std::shared_ptr<const recommend::SharedRunState>* state,
      bool* degraded);

  /// Admission front door shared by every entry point: no-op Ticket
  /// when admission is disabled; on shed, counts `n` shed requests,
  /// feeds the brown-out pressure signal, and returns the
  /// kResourceExhausted error.
  Result<AdmissionController::Ticket> AdmitOrShed(AdmissionLane lane,
                                                  const RequestBudget& budget,
                                                  uint64_t n);

  /// Resolves the effective deadline: the budget's own, or a fresh one
  /// from OverloadOptions::default_deadline_us when the budget carries
  /// none.
  Deadline EffectiveDeadline(const RequestBudget& budget) const;

  /// Deadline check at a stage boundary; counts `n` abandoned requests
  /// in health() when expired.
  Status CheckDeadline(const Deadline& deadline, std::string_view stage,
                       uint64_t n);

  /// Picks the context options for this serve: the brown-out cheaper
  /// mode while browned out, ServiceOptions::context otherwise.
  /// `brownout` reports which one, so results get flagged.
  const measures::ContextOptions& PickContext(bool* brownout);

  void CountBrownoutServes(uint64_t n);

  /// Splices per-run scratch provenance stores into the attached store
  /// in order, rebasing record ids — byte-identical to tracing the runs
  /// sequentially in place. Serialised under provenance_mu_, so
  /// concurrent requests never interleave records. Returns each run's
  /// id base (what to add to its scratch-relative ids), or the first
  /// failed Append's status.
  Result<std::vector<provenance::RecordId>> SpliceTraces(
      const std::vector<provenance::ProvenanceStore>& scratch);

  void MarkCommitFailed(const Status& status);
  void MarkCommitSucceeded();
  void CountDegradedServes(uint64_t n);

  ServiceOptions options_;
  Env* env_;  ///< options_.env, or Env::Default(); never nullptr
  EvaluationEngine engine_;
  recommend::Recommender recommender_;
  provenance::ProvenanceStore* provenance_ = nullptr;
  // Serialises SpliceTraces: the attached store is not thread-safe.
  std::mutex provenance_mu_;
  AdmissionController admission_;
  CircuitBreaker breaker_;
  BrownoutController brownout_;
  mutable std::mutex health_mu_;
  ServiceHealth health_;
  LatencyRecorder read_latency_;
  LatencyRecorder commit_latency_;
};

}  // namespace evorec::engine

#endif  // EVOREC_ENGINE_RECOMMENDATION_SERVICE_H_
