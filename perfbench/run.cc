// perfbench_run: the measured process. It loads one seed's inputs (see
// common.h), recovers the KB from disk, serves one workload through
// engine::RecommendationService from a single closed-loop client, checks
// the outputs and prints the metrics; the last stdout line is the JSON
// result.
//
//   perfbench_run --workload feed|explore|ingest --inputs DIR --work DIR
//                 --seconds S [--tiny]
//                 [--trace --trace-work DIR --spans FILE]
//                 [--corrupt-reference]
//
// --work holds a private copy of kb.snap and kb.log; commits append to
// that log. With --trace the process first runs the untraced pass on
// --work, then a second pass over the same requests on --trace-work with
// spans on, and prints the per-layer metrics instead of the end-to-end
// ones. --corrupt-reference perturbs every reference list, which must
// make the output check fail (the self-test uses it).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <string>
#include <vector>

#include "common.h"
#include "common/env.h"
#include "engine/recommendation_service.h"
#include "measures/evaluation.h"
#include "measures/registry.h"
#include "provenance/workflow.h"
#include "storage/commit_log.h"
#include "trace.h"
#include "version/kb_view.h"
#include "version/recovery.h"

namespace perfbench {
namespace {

namespace engine = evorec::engine;
namespace recommend = evorec::recommend;
namespace version = evorec::version;
using Clock = std::chrono::steady_clock;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile (p in (0, 1]) of unsorted samples; 0 when
/// empty.
double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

double Median(std::vector<double> samples) { return Percentile(samples, 0.5); }

struct Args {
  std::string workload;
  std::string inputs;
  std::string work;
  std::string trace_work;
  std::string spans;
  double seconds = 10.0;
  bool tiny = false;
  bool trace = false;
  bool corrupt_reference = false;
};

// ---- Inputs and the deployed service ----

struct Inputs {
  Deployment d;
  Population population;
  evorec::anonymity::AccessPolicy policy;
  std::vector<Request> requests;
  std::vector<evorec::storage::DeltaRecord> pending;
};

Result<Inputs> LoadInputs(const Args& args) {
  Inputs in;
  in.d = DeploymentFor(args.tiny);
  auto population = ReadPopulation(args.inputs + "/" + kProfilesFile);
  if (!population.ok()) return population.status();
  in.population = std::move(*population);
  auto policy = ReadPolicy(args.inputs + "/" + kPolicyFile);
  if (!policy.ok()) return policy.status();
  in.policy = std::move(*policy);
  auto requests = ReadRequests(args.inputs + "/" + RequestFile(args.workload));
  if (!requests.ok()) return requests.status();
  in.requests = std::move(*requests);
  auto pending = evorec::storage::ReadLog(args.inputs + "/" + kPendingFile);
  if (!pending.ok()) return pending.status();
  in.pending = std::move(*pending);
  if (in.requests.empty() || in.population.analysts.empty()) {
    return evorec::InvalidArgumentError("empty inputs");
  }
  return in;
}

/// Curators' traffic (ingest, and the closing burst of the other
/// workloads) runs with the scenario's access policy and a provenance
/// store attached; analysts' feed and explore traffic runs without.
struct Deployed {
  std::unique_ptr<evorec::measures::MeasureRegistry> registry;
  std::unique_ptr<version::VersionedKnowledgeBase> vkb;
  std::optional<evorec::storage::CommitLog> log;
  evorec::provenance::ProvenanceStore provenance;
  std::unique_ptr<engine::RecommendationService> service;
  std::string work;

  void AttachCuratorFeatures(const evorec::anonymity::AccessPolicy* policy) {
    service->AttachAccessPolicy(policy);
    service->AttachProvenance(&provenance);
    curator_features = true;
  }
  bool curator_features = false;
};

engine::ServiceOptions MakeServiceOptions(const Deployment& d) {
  engine::ServiceOptions options;
  options.engine.threads = d.engine_threads;
  return options;
}

class LayerTrace;

/// Recovers the KB from `work`, opens its log for durable appends,
/// constructs the service and warms the head pair — everything before
/// the first read can be served warm.
Result<std::unique_ptr<Deployed>> SetUp(const Inputs& in,
                                        const std::string& work, bool curators,
                                        LayerTrace* layers);

// ---- Serving ----

struct Sample {
  Request request;
  recommend::RecommendationList list;
  bool curator = false;  ///< served with the access policy attached
};

/// Host-speed calibration. On the shared 4-vCPU host the benchmark was
/// built on, CPU interference from outside the process comes in
/// episodes of seconds that slow everything the process does by up to
/// 1.5x, so whole-phase medians of identical runs swung by 15-40%. A
/// fixed CPU task (hash-map inserts and probes plus a sort: code that
/// lives here and never changes with the library) runs on the client
/// thread between requests, at most every 100 ms of a phase, and every
/// timing is scaled by kReferenceUs / (median task time of its
/// one-second window): times are reported at the host speed at which
/// the task takes kReferenceUs. On that host the ratio of a window's
/// read p50 to its task time stayed within ±8% while both swung ±26%.
class HostSpeed {
 public:
  static constexpr double kReferenceUs = 300.0;

  HostSpeed() : start_(Clock::now()) {}

  /// Seconds since the phase started.
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Runs the task when 100 ms have passed since it last ran.
  void MaybeSample() {
    const double now = Now();
    if (!samples_.empty() && now < samples_.back().first + 0.1) return;
    samples_.emplace_back(now, TaskUs());
  }

  /// Scale of a timing that ended `t` seconds into the phase: the
  /// reference over the median task time of its one-second window (all
  /// samples when that window has none).
  double ScaleAt(double t) const {
    const size_t window = static_cast<size_t>(std::max(t, 0.0));
    if (window >= scales_.size()) {
      scales_.assign(window + 1, 0.0);
      std::vector<std::vector<double>> per_window(window + 1);
      std::vector<double> all;
      for (const auto& [at, us] : samples_) {
        const size_t w = static_cast<size_t>(at);
        if (w <= window) per_window[w].push_back(us);
        all.push_back(us);
      }
      for (size_t w = 0; w <= window; ++w) {
        const auto& source = per_window[w].empty() ? all : per_window[w];
        scales_[w] = source.empty() ? 1.0 : kReferenceUs / Median(source);
      }
    }
    return scales_[window];
  }

  /// Median task time over the phase (for the table).
  double MedianTaskUs() const {
    std::vector<double> all;
    for (const auto& sample : samples_) all.push_back(sample.second);
    return Median(all);
  }

  /// One run of the fixed task, in µs.
  static double TaskUs() {
    static const std::vector<uint32_t> keys = [] {
      std::vector<uint32_t> k(2048);
      uint32_t x = 12345;
      for (uint32_t& v : k) {
        x = x * 1664525u + 1013904223u;
        v = x >> 8;
      }
      return k;
    }();
    const auto start = Clock::now();
    std::unordered_map<uint32_t, uint32_t> counts;
    for (uint32_t k : keys) ++counts[k];
    uint64_t sum = 0;
    for (uint32_t k : keys) {
      auto it = counts.find(k ^ 1u);
      sum += it == counts.end() ? 1 : it->second;
    }
    std::vector<uint32_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    sum += sorted[sum % sorted.size()];
    const double us = Micros(Clock::now() - start);
    // Keeps the task's result observable so it cannot be optimised away.
    if (sum == 0) std::fprintf(stderr, "perfbench_run: calibration\n");
    return us;
  }

 private:
  Clock::time_point start_;
  std::vector<std::pair<double, double>> samples_;  ///< (seconds, µs)
  mutable std::vector<double> scales_;              ///< per one-second window
};

struct PhaseStats {
  HostSpeed speed;
  std::vector<double> read_us;  ///< raw latencies, in serving order
  std::vector<double> commit_us;
  std::vector<double> read_end_s;  ///< when each read returned
  std::vector<double> commit_end_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t requests = 0;  ///< requests issued (the traced pass repeats them)
  std::vector<Sample> samples;
  std::vector<std::string> errors;  ///< output-check failures
};

recommend::RecommendationList Reference(const Deployed& dep, const Inputs& in,
                                        const Sample& sample);

/// Issues one request through the service. Reads get a fresh copy of
/// their profile, as a stateless frontend would send it.
void Serve(Deployed& dep, const Inputs& in, const Request& r, bool sample,
           PhaseStats& stats, LayerTrace* layers);

/// Closed loop over the request list: the next request goes out only
/// after the previous one returns. Read-only lists are cycled; the
/// ingest list is a finite commit stream. Stops after `seconds` or
/// `max_requests`, whichever comes first.
PhaseStats RunTraffic(Deployed& dep, const Inputs& in, double seconds,
                      size_t max_requests, size_t sample_stride,
                      LayerTrace* layers) {
  PhaseStats stats;
  const bool cyclic = in.requests.front().kind != Request::Kind::kCommit;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  size_t samples = 0;
  for (size_t i = 0; i < max_requests; ++i) {
    if (!cyclic && i >= in.requests.size()) {
      std::fprintf(stderr, "perfbench_run: ingest stream exhausted\n");
      break;
    }
    if (Clock::now() >= deadline) break;
    const bool sample = i % sample_stride == 0 && samples < 48;
    samples += sample ? 1 : 0;
    stats.speed.MaybeSample();
    Serve(dep, in, in.requests[i % in.requests.size()], sample, stats, layers);
    ++stats.requests;
  }
  return stats;
}

/// The closing curators' burst of the read-only workloads: `rounds`
/// ingest rounds (a commit, then the curators' group and analysts read
/// the new head pair), run after the timed phase. It is where feed and
/// explore get their commit latencies from.
void RunCuratorBurst(Deployed& dep, const Inputs& in, size_t rounds,
                     PhaseStats& stats, LayerTrace* layers) {
  dep.AttachCuratorFeatures(&in.policy);
  const version::VersionId base = dep.vkb->head();
  for (size_t k = 0; k < rounds && k < in.pending.size(); ++k) {
    Request commit;
    commit.kind = Request::Kind::kCommit;
    commit.commit = static_cast<uint32_t>(k);
    stats.speed.MaybeSample();
    Serve(dep, in, commit, false, stats, layers);
    Request group;
    group.kind = Request::Kind::kGroupRead;
    group.v1 = static_cast<uint32_t>(base + k);
    group.v2 = group.v1 + 1;
    Serve(dep, in, group, k % 8 == 0, stats, layers);
    for (size_t a = 0; a < in.d.analysts_per_commit; ++a) {
      Request read = group;
      read.kind = Request::Kind::kRead;
      read.user = static_cast<uint32_t>((k * 31 + a * 7) %
                                        in.population.analysts.size());
      Serve(dep, in, read, k % 8 == 0 && a == 0, stats, layers);
    }
  }
}

/// `latencies` scaled to the reference host speed (see HostSpeed).
std::vector<double> AtReferenceSpeed(const std::vector<double>& latencies,
                                     const std::vector<double>& end_s,
                                     const HostSpeed& speed, size_t count) {
  std::vector<double> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = latencies[i] * speed.ScaleAt(end_s[i]);
  }
  return out;
}

/// Phase seconds [0, seconds) at the reference host speed.
double ReferenceSeconds(const HostSpeed& speed, double seconds) {
  double total = 0.0;
  for (double w = 0.0; w < seconds; w += 1.0) {
    total += (std::min(seconds, w + 1.0) - w) * speed.ScaleAt(w);
  }
  return total;
}

// ---- Output checks (outside every timed phase) ----

/// Everything a served list promises, doubles in hex-float, minus the
/// provenance record ids (the reference path runs without a store).
std::string Canonical(const recommend::RecommendationList& list) {
  std::ostringstream out;
  out << std::hexfloat << "pool " << list.candidate_pool_size << " redacted "
      << list.redacted_terms << " dropped " << list.dropped_candidates << ' '
      << list.set_diversity << ' ' << list.category_coverage;
  for (double s : list.fairness.satisfaction) out << ' ' << s;
  out << ' ' << list.fairness.gini;
  for (const recommend::RecommendationItem& item : list.items) {
    out << '\n' << item.candidate.id << ' ' << item.candidate.region_label
        << ' ' << item.relatedness << ' ' << item.novelty;
    for (const auto& scored : item.candidate.report.scores()) {
      out << ' ' << scored.term << ' ' << scored.score;
    }
    for (auto term : item.candidate.top_terms) out << " t" << term;
    const recommend::Explanation& e = item.explanation;
    out << " | " << e.candidate_id << ' ' << e.measure_name << ' '
        << e.category;
    for (const std::string& t : e.top_affected) out << ' ' << t;
    for (const std::string& t : e.matched_interests) out << ' ' << t;
    out << ' ' << e.relatedness << ' ' << e.novelty;
  }
  return out.str();
}

/// Recomputes every sampled list through the cache-free reference path
/// (EvolutionContext::FromVersions plus RecommendForUser/ForGroup with
/// the same policy) and compares item for item, scores included.
void CheckSamples(const Deployed& dep, const Inputs& in, bool corrupt,
                  PhaseStats& stats) {
  for (const Sample& sample : stats.samples) {
    recommend::RecommendationList ref = Reference(dep, in, sample);
    if (corrupt && !ref.items.empty()) {
      ref.items.front().relatedness =
          std::nextafter(ref.items.front().relatedness, 2.0);
    }
    if (Canonical(ref) != Canonical(sample.list)) {
      stats.errors.push_back("served list differs from the reference for " +
                             std::string(sample.request.kind ==
                                                 Request::Kind::kGroupRead
                                             ? "the curators' group"
                                             : "analyst " + std::to_string(
                                                                sample.request
                                                                    .user)) +
                             " on v" + std::to_string(sample.request.v1) +
                             "->v" + std::to_string(sample.request.v2));
    }
  }
}

/// Every acknowledged commit must survive: recovering the snapshot and
/// log from disk has to reproduce the live head and its fingerprint.
void CheckDurability(const Deployed& dep, PhaseStats& stats) {
  version::RecoveryOptions options;
  auto recovered = version::RecoverFromDisk(dep.work + "/" + kSnapshotFile,
                                            dep.work + "/" + kLogFile, options);
  if (!recovered.ok()) {
    stats.errors.push_back("durability: recovery failed: " +
                           recovered.status().ToString());
    return;
  }
  const version::VersionId head = dep.vkb->head();
  if (recovered->vkb->head() != head ||
      recovered->vkb->Handle(head)->fingerprint !=
          dep.vkb->Handle(head)->fingerprint) {
    stats.errors.push_back("durability: recovered head v" +
                           std::to_string(recovered->vkb->head()) +
                           " does not match the live head v" +
                           std::to_string(head));
  }
}


// ---- The traced run's per-layer replay ----

/// LRU bookkeeping mirroring the engine's artefact cache (the client is
/// single-threaded, so the touch order is exact): tells which version of
/// a cold pair build missed when the counters say one did.
class LruModel {
 public:
  explicit LruModel(size_t capacity) : capacity_(capacity) {}

  /// Touches `key`; returns whether it was resident.
  bool Touch(uint64_t key) {
    auto it = std::find(order_.begin(), order_.end(), key);
    const bool hit = it != order_.end();
    if (hit) order_.erase(it);
    order_.insert(order_.begin(), key);
    if (order_.size() > capacity_) order_.pop_back();
    return hit;
  }

 private:
  size_t capacity_;
  std::vector<uint64_t> order_;  // most recent first
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
  double raw = -1.0;  ///< raw wall-clock value, when `value` is scaled
};

/// Per-layer instrumentation of the traced pass. Around every service
/// call it reads the engine's public counters to learn what the service
/// did (a hit, a context build, artefact misses, a refresh), then calls
/// the same layer functions on the same inputs, one span per call. A
/// cached read therefore records no build spans. Commits are replayed
/// on a replica KB recovered from the same files, with its own scratch
/// logs and its own engine.
class LayerTrace {
 public:
  struct Counters {
    engine::EngineStats engine;
    engine::ArtefactCacheStats artefacts;
    engine::IncrementalStats incremental;
    size_t provenance = 0;
    uint64_t log_bytes = 0;
  };

  explicit LayerTrace(Tracer* tracer) : tracer_(tracer) {}

  Tracer* tracer() { return tracer_; }
  uint64_t NextRequest() { return ++request_; }

  Counters Read(Deployed& dep) const {
    Counters c;
    c.engine = dep.service->engine_stats();
    c.artefacts = dep.service->engine().artefact_stats();
    c.incremental = dep.service->engine().incremental_stats();
    c.provenance = dep.provenance.size();
    auto bytes = evorec::Env::Default()->FileSize(dep.work + "/" + kLogFile);
    c.log_bytes = bytes.ok() ? *bytes : 0;
    return c;
  }

  /// Set-up: the storage reads recovery performs, timed on their own.
  void TraceStorage(const std::string& work) {
    {
      Tracer::Scope span(tracer_, "storage.snapshot_load");
      (void)evorec::storage::LoadSnapshot(work + "/" + kSnapshotFile);
    }
    Tracer::Scope span(tracer_, "storage.log_replay");
    evorec::storage::ReplayOptions options;
    options.allow_torn_tail = true;
    (void)evorec::storage::ReadLog(work + "/" + kLogFile, options);
  }

  /// Set-up: replays the warm start's cold build of the head pair and
  /// prepares the replica the commit replays run on.
  Status AfterWarmStart(Deployed& dep, const Deployment& d,
                        version::VersionId v1, version::VersionId v2) {
    lru_ = LruModel(dep.service->engine().options().artefact_cache_capacity);
    auto eval = Evaluation(dep, v1, v2);
    if (eval == nullptr) return evorec::InternalError("warm pair not cached");
    lru_.Touch(dep.vkb->Handle(v1)->fingerprint);
    lru_.Touch(dep.vkb->Handle(v2)->fingerprint);
    (void)PinAndBuild(dep, v1);
    chain_.artefacts = PinAndBuild(dep, v2);
    Brandes(dep, eval->context().graph_before());
    chain_.partials = Brandes(dep, eval->context().graph_after());
    chain_.index = ReplayContextAndReports(dep, eval);

    version::RecoveryOptions recovery;
    recovery.policy = version::ArchivePolicy::kFullMaterialization;
    auto replica = version::RecoverFromDisk(dep.work + "/" + kSnapshotFile,
                                            dep.work + "/" + kLogFile,
                                            recovery);
    if (!replica.ok()) return replica.status();
    replica_ = std::move(replica->vkb);
    evorec::storage::LogOptions sync;
    sync.sync_on_append = true;
    auto replica_log =
        evorec::storage::CommitLog::Open(dep.work + "/replica.log", sync);
    if (!replica_log.ok()) return replica_log.status();
    replica_log_.emplace(std::move(*replica_log));
    replica_->AttachCommitLog(&*replica_log_);
    auto wal = evorec::storage::CommitLog::Open(dep.work + "/scratch.log", sync);
    if (!wal.ok()) return wal.status();
    scratch_wal_.emplace(std::move(*wal));
    engine::EngineOptions engine_options;
    engine_options.threads = d.engine_threads;
    replay_engine_ =
        std::make_unique<engine::EvaluationEngine>(registry_, engine_options);
    auto warm = replay_engine_->Evaluate(*replica_, v1, v2,
                                         dep.service->options().context);
    if (!warm.ok()) return warm.status();
    auto reports = (*warm)->AllReports();
    return reports.ok() ? evorec::OkStatus() : reports.status();
  }

  void AfterRead(Deployed& dep, const Inputs& in, const Request& r,
                 const Counters& before,
                 const recommend::RecommendationList& list) {
    const Counters after = Read(dep);
    Accumulate(before, after);
    std::shared_ptr<const engine::SharedEvaluation> eval;
    {
      Tracer::Scope span(tracer_, "engine.evaluate_hit");
      eval = Evaluation(dep, r.v1, r.v2);
    }
    if (eval == nullptr) return;
    auto state = eval->SharedStateFor(dep.service->recommender());
    if (!state.ok()) return;
    if (after.engine.context_misses > before.engine.context_misses) {
      ReplayColdBuild(dep, r, eval, before, after);
    }
    if (r.kind == Request::Kind::kGroupRead) {
      ReplayGroup(dep, in, **state);
    } else {
      ReplayUser(dep, in, **state, in.population.analysts[r.user]);
    }
    ReplayProvenance(dep, before.provenance);

    const auto& ctx = eval->context();
    ++reads_;
    pool_sum_ += static_cast<double>(list.candidate_pool_size);
    redacted_sum_ += static_cast<double>(list.redacted_terms);
    segments_sum_ += static_cast<double>(ctx.before().store().segments().size() +
                                         ctx.after().store().segments().size());
    pins_ += 2;
    flat_copies_ = std::max<double>(
        flat_copies_,
        static_cast<double>(ctx.before().store().stats().materializations +
                            ctx.after().store().stats().materializations));
  }

  void AfterCommit(Deployed& dep, const evorec::storage::DeltaRecord& rec,
                   const Counters& before) {
    const Counters after = Read(dep);
    Accumulate(before, after);
    ++commits_;
    wal_bytes_ += static_cast<double>(after.log_bytes - before.log_bytes);
    const version::VersionId head = dep.vkb->head();
    lru_.Touch(dep.vkb->Handle(head - 1)->fingerprint);
    lru_.Touch(dep.vkb->Handle(head)->fingerprint);

    const version::ChangeSet changes{rec.additions, rec.removals};
    {
      Tracer::Scope span(tracer_, "storage.wal_append");
      (void)scratch_wal_->Append(rec);
    }
    {
      Tracer::Scope span(tracer_, "version.commit");
      (void)replica_->Commit(changes, rec.author, rec.message, rec.timestamp);
    }
    {
      Tracer::Scope span(tracer_, "engine.refresh");
      (void)replay_engine_->Refresh(*replica_, dep.service->options().context);
    }
    Chain next;
    next.artefacts = PinAndBuild(dep, head);
    if (next.artefacts.graph == nullptr || chain_.artefacts.graph == nullptr) {
      return;
    }
    {
      Tracer::Scope span(tracer_, "graph.brandes_advance");
      next.partials = evorec::graph::BetweennessAdvance(
          chain_.artefacts.graph->graph(), chain_.partials,
          next.artefacts.graph->graph(),
          dep.service->engine().options().refresh_churn_threshold, nullptr,
          &dep.service->engine().pool());
    }
    evorec::delta::LowLevelDelta delta;
    {
      Tracer::Scope span(tracer_, "delta.derive");
      delta = evorec::delta::DeltaFromCandidates(*chain_.artefacts.snapshot,
                                                 changes);
    }
    if (chain_.index.has_value()) {
      Tracer::Scope span(tracer_, "delta.index_advance");
      next.index.emplace(evorec::delta::DeltaIndex::Advance(
          *chain_.index, delta, chain_.artefacts.view, next.artefacts.view,
          next.artefacts.snapshot->vocabulary()));
    }
    if (auto eval = Evaluation(dep, head - 1, head); eval != nullptr) {
      ReplayReportsAndPool(dep, eval->context());
    }
    if (auto stored = dep.vkb->Snapshot(head); stored.ok()) {
      const auto& stats = (*stored)->store().stats();
      compactions_ += static_cast<double>(stats.compactions);
      segment_merges_ += static_cast<double>(stats.segment_merges);
    }
    chain_ = std::move(next);
  }

  std::vector<Metric> Metrics(Deployed& dep, double untraced_p50,
                              double traced_p50) const {
    const auto totals = tracer_->ByName();
    constexpr double kMs = 1e-6;
    constexpr double kUs = 1e-3;
    std::vector<Metric> out;
    // Mean duration per call of one span name.
    const auto time = [&](const char* metric, const char* span, double scale,
                          const char* unit) {
      auto it = totals.find(span);
      Metric m{metric, 0.0, unit, 0};
      if (it != totals.end() && it->second.calls > 0) {
        m.value = it->second.total_ns / static_cast<double>(it->second.calls) *
                  scale;
        m.samples = it->second.calls;
      }
      out.push_back(m);
    };
    const auto ratio = [&](const char* metric, double num, double den,
                           const char* unit) {
      out.push_back(Metric{metric, den > 0 ? num / den : 0.0, unit,
                           static_cast<uint64_t>(den)});
    };
    ratio("rdf.snapshot_segments", segments_sum_, pins_, "count");
    ratio("rdf.flat_copies", flat_copies_, 1, "count");
    ratio("rdf.compactions_per_commit", compactions_, commits_, "count");
    ratio("rdf.segment_merges_per_commit", segment_merges_, commits_, "count");
    time("storage.snapshot_load_ms", "storage.snapshot_load", kMs, "ms");
    time("storage.log_replay_ms", "storage.log_replay", kMs, "ms");
    time("storage.wal_append_us", "storage.wal_append", kUs, "us");
    ratio("storage.wal_bytes_per_commit", wal_bytes_, commits_, "B");
    time("version.recover_ms", "version.recover", kMs, "ms");
    time("version.commit_us", "version.commit", kUs, "us");
    time("version.snapshot_pin_us", "version.snapshot_pin", kUs, "us");
    ratio("version.storage_mb",
          static_cast<double>(dep.vkb->StorageBytes()) / (1024.0 * 1024.0), 1,
          "MB");
    time("schema.view_build_ms", "schema.view_build", kMs, "ms");
    time("graph.schema_graph_build_ms", "graph.schema_graph_build", kMs, "ms");
    time("graph.brandes_full_ms", "graph.brandes_full", kMs, "ms");
    time("graph.brandes_advance_ms", "graph.brandes_advance", kMs, "ms");
    ratio("graph.brandes_runs_per_kread", brandes_runs_ * 1000.0, reads_,
          "count");
    ratio("graph.refresh_advanced_ratio", advanced_, refreshes_, "ratio");
    ratio("graph.recomputed_sources_ratio", recomputed_sources_,
          total_sources_, "ratio");
    time("delta.store_diff_ms", "delta.store_diff", kMs, "ms");
    time("delta.derive_us", "delta.derive", kUs, "us");
    time("delta.index_build_ms", "delta.index_build", kMs, "ms");
    time("delta.index_advance_us", "delta.index_advance", kUs, "us");
    time("measures.context_build_ms", "measures.context_build", kMs, "ms");
    time("measures.reports_ms", "measures.reports", kMs, "ms");
    time("recommend.candidate_pool_ms", "recommend.candidate_pool", kMs, "ms");
    time("recommend.distance_matrix_ms", "recommend.distance_matrix", kMs,
         "ms");
    ratio("recommend.pool_size", pool_sum_, reads_, "count");
    time("recommend.user_run_us", "recommend.user_run", kUs, "us");
    time("recommend.expand_us", "recommend.expand", kUs, "us");
    time("recommend.score_us", "recommend.score", kUs, "us");
    time("recommend.select_us", "recommend.select", kUs, "us");
    time("recommend.explain_us", "recommend.explain", kUs, "us");
    time("recommend.gate_us", "recommend.gate", kUs, "us");
    time("recommend.group_run_us", "recommend.group_run", kUs, "us");
    ratio("anonymity.redacted_per_read", redacted_sum_, reads_, "count");
    time("provenance.trace_us", "provenance.trace", kUs, "us");
    ratio("provenance.records_per_read", provenance_records_, reads_, "count");
    time("engine.evaluate_hit_us", "engine.evaluate_hit", kUs, "us");
    ratio("engine.context_hit_ratio", context_hits_,
          context_hits_ + context_misses_, "ratio");
    ratio("engine.artefact_hit_ratio", artefact_hits_,
          artefact_hits_ + artefact_misses_, "ratio");
    time("engine.refresh_ms", "engine.refresh", kMs, "ms");
    out.push_back(Metric{"trace.overhead_us", traced_p50 - untraced_p50, "us",
                         static_cast<uint64_t>(reads_)});
    return out;
  }

  uint64_t model_mismatches() const { return model_mismatches_; }

 private:
  /// The head version's replayed artefacts: the refresh path's inputs.
  struct Chain {
    evorec::measures::VersionArtefacts artefacts;
    evorec::graph::BetweennessPartials partials;
    std::optional<evorec::delta::DeltaIndex> index;
  };

  /// The service's cached evaluation of (v1, v2) — a context-cache hit
  /// right after the service served or refreshed that pair.
  static std::shared_ptr<const engine::SharedEvaluation> Evaluation(
      Deployed& dep, version::VersionId v1, version::VersionId v2) {
    auto eval = dep.service->engine().Evaluate(*dep.vkb, v1, v2,
                                               dep.service->options().context);
    return eval.ok() ? *eval : nullptr;
  }

  void Accumulate(const Counters& b, const Counters& a) {
    const auto delta = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    context_hits_ += delta(a.engine.context_hits, b.engine.context_hits);
    context_misses_ += delta(a.engine.context_misses, b.engine.context_misses);
    artefact_hits_ += delta(a.artefacts.hits, b.artefacts.hits);
    artefact_misses_ += delta(a.artefacts.misses, b.artefacts.misses);
    brandes_runs_ +=
        delta(a.artefacts.betweenness_runs, b.artefacts.betweenness_runs);
    refreshes_ += delta(a.incremental.refreshes, b.incremental.refreshes);
    advanced_ += delta(a.incremental.advanced, b.incremental.advanced);
    recomputed_sources_ += delta(a.incremental.recomputed_sources,
                                 b.incremental.recomputed_sources);
    total_sources_ +=
        delta(a.incremental.total_sources, b.incremental.total_sources);
    provenance_records_ += delta(a.provenance, b.provenance);
  }

  /// Snapshot pin, schema view and schema graph of one version: the
  /// artefact-cache miss path.
  evorec::measures::VersionArtefacts PinAndBuild(Deployed& dep,
                                                 version::VersionId v) {
    evorec::measures::VersionArtefacts art;
    {
      Tracer::Scope span(tracer_, "version.snapshot_pin");
      auto snap = version::SingleKbView(*dep.vkb).SharedSnapshot(v);
      if (!snap.ok()) return art;
      art.snapshot = *snap;
    }
    {
      Tracer::Scope span(tracer_, "schema.view_build");
      art.view = std::make_shared<const evorec::schema::SchemaView>(
          evorec::schema::SchemaView::Build(*art.snapshot));
    }
    Tracer::Scope span(tracer_, "graph.schema_graph_build");
    art.graph = std::make_shared<const evorec::graph::SchemaGraph>(
        evorec::graph::SchemaGraph::Build(*art.view, art.view->classes()));
    return art;
  }

  evorec::graph::BetweennessPartials Brandes(
      Deployed& dep, const evorec::graph::SchemaGraph& g) {
    Tracer::Scope span(tracer_, "graph.brandes_full");
    return evorec::graph::BetweennessExactWithPartials(
        g.graph(), &dep.service->engine().pool());
  }

  /// One version's bundle as the service holds it (aliasing the cached
  /// evaluation), with its already-computed betweenness adopted.
  static evorec::measures::VersionArtefacts ArtefactsOf(
      const std::shared_ptr<const engine::SharedEvaluation>& eval,
      bool before) {
    const auto& ctx = eval->context();
    evorec::measures::VersionArtefacts art;
    art.snapshot = std::shared_ptr<const evorec::rdf::KnowledgeBase>(
        eval, before ? &ctx.before() : &ctx.after());
    art.view = std::shared_ptr<const evorec::schema::SchemaView>(
        eval, before ? &ctx.view_before() : &ctx.view_after());
    art.graph = std::shared_ptr<const evorec::graph::SchemaGraph>(
        eval, before ? &ctx.graph_before() : &ctx.graph_after());
    evorec::graph::BetweennessPartials scores;
    scores.scores =
        before ? ctx.raw_betweenness_before() : ctx.raw_betweenness_after();
    art.betweenness = std::make_shared<const evorec::measures::LazyBetweenness>(
        art.graph, ctx.options(), std::move(scores));
    return art;
  }

  void ReplayColdBuild(
      Deployed& dep, const Request& r,
      const std::shared_ptr<const engine::SharedEvaluation>& eval,
      const Counters& before, const Counters& after) {
    const version::VersionId versions[2] = {r.v1, r.v2};
    bool missed[2];
    for (int i = 0; i < 2; ++i) {
      missed[i] = !lru_.Touch(dep.vkb->Handle(versions[i])->fingerprint);
    }
    const uint64_t counted = after.artefacts.misses - before.artefacts.misses;
    if (static_cast<uint64_t>(missed[0]) + missed[1] != counted) {
      ++model_mismatches_;
      missed[0] = counted == 2;
      missed[1] = counted >= 1;
    }
    for (int i = 0; i < 2; ++i) {
      if (missed[i]) (void)PinAndBuild(dep, versions[i]);
    }
    // Brandes ran for the versions that missed first, then for any
    // version whose lazy cell a report forced for the first time.
    uint64_t runs =
        after.artefacts.betweenness_runs - before.artefacts.betweenness_runs;
    const bool after_first = missed[1] && !missed[0];
    for (int i : {after_first ? 1 : 0, after_first ? 0 : 1}) {
      if (runs == 0) break;
      --runs;
      Brandes(dep, i == 0 ? eval->context().graph_before()
                          : eval->context().graph_after());
    }
    (void)ReplayContextAndReports(dep, eval);
  }

  /// Pair-level cold work: the context build from two bundles, its store
  /// diff and delta index on their own, then reports, candidate pool and
  /// distance matrix. Returns the rebuilt delta index.
  std::optional<evorec::delta::DeltaIndex> ReplayContextAndReports(
      Deployed& dep,
      const std::shared_ptr<const engine::SharedEvaluation>& eval) {
    const auto& ctx = eval->context();
    const auto before = ArtefactsOf(eval, true);
    const auto after = ArtefactsOf(eval, false);
    Result<evorec::measures::EvolutionContext> built =
        evorec::InternalError("not built");
    {
      Tracer::Scope span(tracer_, "measures.context_build");
      built = evorec::measures::EvolutionContext::Build(before, after,
                                                        ctx.options());
    }
    evorec::delta::LowLevelDelta diff;
    {
      Tracer::Scope span(tracer_, "delta.store_diff");
      diff = evorec::delta::ComputeLowLevelDelta(ctx.before(), ctx.after());
    }
    std::optional<evorec::delta::DeltaIndex> index;
    {
      Tracer::Scope span(tracer_, "delta.index_build");
      index.emplace(evorec::delta::DeltaIndex::Build(
          diff, before.view, after.view, ctx.before().vocabulary()));
    }
    if (built.ok()) ReplayReportsAndPool(dep, *built);
    return index;
  }

  void ReplayReportsAndPool(Deployed& dep,
                            const evorec::measures::EvolutionContext& ctx) {
    const auto& options = dep.service->recommender().options();
    const auto infos = dep.registry->List();
    evorec::measures::ReportCache cache;
    Result<std::vector<std::shared_ptr<const evorec::measures::MeasureReport>>>
        reports = evorec::InternalError("not evaluated");
    {
      Tracer::Scope span(tracer_, "measures.reports");
      reports = evorec::measures::EvaluateAll(*dep.registry, ctx, cache,
                                              &dep.service->engine().pool());
    }
    if (!reports.ok()) return;
    Result<std::vector<recommend::MeasureCandidate>> pool =
        evorec::InternalError("not generated");
    {
      Tracer::Scope span(tracer_, "recommend.candidate_pool");
      pool = recommend::GenerateCandidatesFromReports(infos, *reports, ctx,
                                                      options.candidates);
    }
    if (!pool.ok()) return;
    Tracer::Scope span(tracer_, "recommend.distance_matrix");
    (void)recommend::DistanceMatrix::Build(*pool, options.diversity);
  }

  /// The per-user stages in the recommender's order, plus the whole
  /// RecommendForUser call on the same prepared state.
  void ReplayUser(Deployed& dep, const Inputs& in,
                  const recommend::SharedRunState& state,
                  const evorec::profile::HumanProfile& original) {
    const recommend::Recommender& rec = dep.service->recommender();
    const auto& options = rec.options();
    const bool gated = dep.curator_features;
    {
      evorec::profile::HumanProfile prof = original;
      evorec::provenance::ProvenanceStore scratch;
      Tracer::Scope span(tracer_, "recommend.user_run");
      (void)rec.RecommendForUser(state, prof, gated ? &scratch : nullptr);
    }
    const evorec::profile::HumanProfile& prof = original;
    recommend::GateOutcome outcome;
    if (gated) {
      Tracer::Scope span(tracer_, "recommend.gate");
      outcome = recommend::ApplyAccessGate(&in.policy, prof.id(), state.pool,
                                           options.candidates.top_k);
    }
    const auto& candidates = gated ? outcome.candidates : state.pool;
    const bool normalized =
        !gated && state.normalized.size() == state.pool.size();
    const recommend::RelatednessScorer scorer(*state.ctx, options.relatedness);
    std::unordered_map<evorec::rdf::TermId, double> expanded;
    {
      Tracer::Scope span(tracer_, "recommend.expand");
      expanded = scorer.ExpandInterests(prof);
    }
    std::vector<double> relevance(candidates.size(), 0.0);
    {
      Tracer::Scope span(tracer_, "recommend.score");
      for (size_t i = 0; i < candidates.size(); ++i) {
        const double related = scorer.ScoreExpanded(
            expanded, prof, candidates[i],
            normalized ? &state.normalized[i] : nullptr);
        const double novelty = recommend::NoveltyScore(prof, candidates[i]);
        relevance[i] = (1.0 - options.novelty_weight) * related +
                       options.novelty_weight * novelty;
      }
    }
    const recommend::DistanceMatrix* distances =
        !gated && state.distances.size() == candidates.size()
            ? &state.distances
            : nullptr;
    std::vector<size_t> selection;
    {
      Tracer::Scope span(tracer_, "recommend.select");
      selection = recommend::SelectMmr(candidates, relevance,
                                       options.package_size,
                                       options.mmr_lambda, options.diversity,
                                       distances);
      selection = recommend::ImproveBySwaps(
          candidates, relevance, std::move(selection), options.mmr_lambda,
          options.diversity, /*max_rounds=*/4, distances);
    }
    Tracer::Scope span(tracer_, "recommend.explain");
    for (size_t index : selection) {
      (void)recommend::BuildExplanation(candidates[index], prof, scorer,
                                        state.ctx->before().dictionary(),
                                        &expanded);
    }
  }

  void ReplayGroup(Deployed& dep, const Inputs& in,
                   const recommend::SharedRunState& state) {
    const recommend::Recommender& rec = dep.service->recommender();
    const bool gated = dep.curator_features;
    {
      evorec::profile::Group group = in.population.curators;
      evorec::provenance::ProvenanceStore scratch;
      Tracer::Scope span(tracer_, "recommend.group_run");
      (void)rec.RecommendForGroup(state, group, gated ? &scratch : nullptr);
    }
    // The group pipeline gates the pool once per member.
    std::vector<recommend::MeasureCandidate> candidates = state.pool;
    for (const auto& member : in.population.curators.members()) {
      Tracer::Scope span(tracer_, "recommend.gate");
      recommend::GateOutcome outcome = recommend::ApplyAccessGate(
          gated ? &in.policy : nullptr, member.id(), std::move(candidates),
          rec.options().candidates.top_k);
      candidates = std::move(outcome.candidates);
    }
  }

  /// Replays the Workflow::RunStage records the service's run wrote
  /// into a scratch store.
  void ReplayProvenance(const Deployed& dep, size_t from) {
    const auto& records = dep.provenance.records();
    if (records.size() <= from) return;
    Tracer::Scope span(tracer_, "provenance.trace");
    evorec::provenance::ProvenanceStore scratch;
    evorec::provenance::Workflow workflow("replay", "evorec", scratch);
    std::unordered_map<evorec::provenance::RecordId,
                       evorec::provenance::RecordId>
        ids;
    for (size_t i = from; i < records.size(); ++i) {
      const auto& record = records[i];
      std::vector<evorec::provenance::RecordId> inputs;
      for (auto input : record.inputs) {
        if (auto it = ids.find(input); it != ids.end()) {
          inputs.push_back(it->second);
        }
      }
      auto id = workflow.RunStage(record.activity, record.entity,
                                  record.source, inputs,
                                  [&] { return record.note; });
      if (id.ok()) ids[record.id] = *id;
    }
  }

  Tracer* tracer_;
  // The replica's engine has its own registry: the traced Deployed (and
  // its registry) may be destroyed first.
  const evorec::measures::MeasureRegistry registry_ =
      evorec::measures::DefaultRegistry();
  uint64_t request_ = 0;
  LruModel lru_{1};
  Chain chain_;
  std::unique_ptr<version::VersionedKnowledgeBase> replica_;
  std::optional<evorec::storage::CommitLog> replica_log_;
  std::optional<evorec::storage::CommitLog> scratch_wal_;
  std::unique_ptr<engine::EvaluationEngine> replay_engine_;
  uint64_t model_mismatches_ = 0;
  double reads_ = 0, commits_ = 0;
  double pool_sum_ = 0, redacted_sum_ = 0, segments_sum_ = 0, pins_ = 0;
  double flat_copies_ = 0, compactions_ = 0, segment_merges_ = 0;
  double wal_bytes_ = 0, provenance_records_ = 0;
  double context_hits_ = 0, context_misses_ = 0;
  double artefact_hits_ = 0, artefact_misses_ = 0, brandes_runs_ = 0;
  double refreshes_ = 0, advanced_ = 0;
  double recomputed_sources_ = 0, total_sources_ = 0;
};

// ---- Set-up and serving ----

Result<std::unique_ptr<Deployed>> SetUp(const Inputs& in,
                                        const std::string& work, bool curators,
                                        LayerTrace* layers) {
  Tracer* tracer = layers != nullptr ? layers->tracer() : nullptr;
  auto dep = std::make_unique<Deployed>();
  dep->work = work;
  dep->registry = std::make_unique<evorec::measures::MeasureRegistry>(
      evorec::measures::DefaultRegistry());
  if (layers != nullptr) layers->TraceStorage(work);
  {
    Tracer::Scope span(tracer, "version.recover");
    version::RecoveryOptions options;
    options.policy = version::ArchivePolicy::kFullMaterialization;
    options.verify_fingerprints = true;
    auto recovered = version::RecoverFromDisk(work + "/" + kSnapshotFile,
                                              work + "/" + kLogFile, options);
    if (!recovered.ok()) return recovered.status();
    dep->vkb = std::move(recovered->vkb);
  }
  evorec::storage::LogOptions log_options;
  log_options.sync_on_append = true;
  auto log =
      evorec::storage::CommitLog::Open(work + "/" + kLogFile, log_options);
  if (!log.ok()) return log.status();
  dep->log.emplace(std::move(*log));
  dep->vkb->AttachCommitLog(&*dep->log);
  dep->service = std::make_unique<engine::RecommendationService>(
      *dep->registry, MakeServiceOptions(in.d));
  if (curators) dep->AttachCuratorFeatures(&in.policy);
  const version::VersionId head = dep->vkb->head();
  {
    Tracer::Scope span(tracer, "engine.warm_start");
    if (Status s = dep->service->WarmStart(*dep->vkb, head - 1, head);
        !s.ok()) {
      return s;
    }
  }
  if (layers != nullptr) {
    if (Status s = layers->AfterWarmStart(*dep, in.d, head - 1, head);
        !s.ok()) {
      return s;
    }
  }
  return dep;
}

void Serve(Deployed& dep, const Inputs& in, const Request& r, bool sample,
           PhaseStats& stats, LayerTrace* layers) {
  Tracer* tracer = layers != nullptr ? layers->tracer() : nullptr;
  if (tracer != nullptr) tracer->SetRequest(layers->NextRequest());
  Tracer::Scope request(tracer, "request");
  std::optional<LayerTrace::Counters> before;
  if (layers != nullptr) before = layers->Read(dep);
  ++stats.attempted;
  engine::RecommendationService& service = *dep.service;

  if (r.kind == Request::Kind::kCommit) {
    const evorec::storage::DeltaRecord& rec = in.pending[r.commit];
    Result<version::VersionId> committed = evorec::InternalError("unset");
    const auto start = Clock::now();
    {
      Tracer::Scope span(tracer, "service.commit");
      committed =
          service.Commit(*dep.vkb, version::ChangeSet{rec.additions,
                                                      rec.removals},
                         rec.author, rec.message, rec.timestamp);
    }
    const double us = Micros(Clock::now() - start);
    if (!committed.ok()) {
      ++stats.failed;
      std::fprintf(stderr, "perfbench_run: commit failed: %s\n",
                   committed.status().ToString().c_str());
      return;
    }
    stats.commit_us.push_back(us);
    stats.commit_end_s.push_back(stats.speed.Now());
    if (*committed != rec.version_id ||
        dep.vkb->Handle(*committed)->fingerprint != rec.fingerprint) {
      stats.errors.push_back("commit v" + std::to_string(rec.version_id) +
                             " landed with an unexpected id or fingerprint");
    }
    if (layers != nullptr) layers->AfterCommit(dep, rec, *before);
    return;
  }

  Result<recommend::RecommendationList> list = evorec::InternalError("unset");
  const auto start = Clock::now();
  if (r.kind == Request::Kind::kGroupRead) {
    evorec::profile::Group curators = in.population.curators;
    Tracer::Scope span(tracer, "service.group_read");
    list = service.RecommendGroup(*dep.vkb, r.v1, r.v2, curators);
  } else {
    evorec::profile::HumanProfile prof = in.population.analysts[r.user];
    Tracer::Scope span(tracer, "service.read");
    list = service.Recommend(*dep.vkb, r.v1, r.v2, prof);
  }
  const double us = Micros(Clock::now() - start);
  if (!list.ok()) {
    ++stats.failed;
    std::fprintf(stderr, "perfbench_run: read failed: %s\n",
                 list.status().ToString().c_str());
    return;
  }
  stats.read_us.push_back(us);
  stats.read_end_s.push_back(stats.speed.Now());
  if (sample) stats.samples.push_back(Sample{r, *list, dep.curator_features});
  if (layers != nullptr) layers->AfterRead(dep, in, r, *before, *list);
}

recommend::RecommendationList Reference(const Deployed& dep, const Inputs& in,
                                        const Sample& sample) {
  const Request& r = sample.request;
  auto ctx = evorec::measures::EvolutionContext::FromVersions(
      *dep.vkb, r.v1, r.v2, dep.service->options().context);
  if (!ctx.ok()) return {};
  recommend::Recommender rec(*dep.registry,
                             dep.service->options().recommender);
  if (sample.curator) rec.AttachAccessPolicy(&in.policy);
  Result<recommend::RecommendationList> list = evorec::InternalError("unset");
  if (r.kind == Request::Kind::kGroupRead) {
    evorec::profile::Group curators = in.population.curators;
    list = rec.RecommendForGroup(*ctx, curators);
  } else {
    evorec::profile::HumanProfile prof = in.population.analysts[r.user];
    list = rec.RecommendForUser(*ctx, prof);
  }
  return list.ok() ? *list : recommend::RecommendationList{};
}

// ---- Reporting ----

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n%-34s %16s %-6s %10s %16s\n", title.c_str(), "metric",
              "value", "unit", "samples", "raw");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g %-6s %10llu", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    if (m.raw >= 0) std::printf(" %16.6g", m.raw);
    std::printf("\n");
  }
}

void PrintSpans(const Tracer& tracer) {
  std::printf("spans (%zu recorded)\n%-28s %10s %14s %14s\n",
              tracer.spans().size(), "name", "calls", "mean_us", "self_us");
  for (const auto& [name, t] : tracer.ByName()) {
    const double calls = static_cast<double>(t.calls);
    std::printf("%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                static_cast<unsigned long long>(t.calls),
                t.total_ns / 1e3 / calls, t.self_ns / 1e3 / calls);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t FileBytes(const std::string& path) {
  auto size = evorec::Env::Default()->FileSize(path);
  return size.ok() ? *size : 0;
}

/// Output checks of one pass; prints every failure and returns whether
/// all passed.
bool Check(const Deployed& dep, const Inputs& in, bool corrupt,
           PhaseStats& stats) {
  CheckSamples(dep, in, corrupt, stats);
  if (!stats.commit_us.empty()) CheckDurability(dep, stats);
  for (const std::string& error : stats.errors) {
    std::fprintf(stderr, "perfbench_run: output check failed: %s\n",
                 error.c_str());
  }
  return stats.errors.empty();
}

/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 7;

/// Requests whose spans go to the span file (all are aggregated).
constexpr uint64_t kSpanFileRequests = 20000;

int Run(const Args& args) {
  auto loaded = LoadInputs(args);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench_run: inputs: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const Inputs& in = *loaded;
  const bool ingest = args.workload == "ingest";
  // Every stride-th request is recomputed through the reference path.
  const size_t stride = args.workload == "feed" ? 997 : ingest ? 7 : 13;
  const size_t burst = ingest ? 0 : (args.tiny ? 12 : 100);

  // Untraced pass: repeated set-up, the timed traffic, the curators'
  // burst, then the output checks.
  std::vector<double> setup_s;
  std::vector<double> setup_raw_s;
  std::unique_ptr<Deployed> dep;
  for (size_t i = 0; i < kSetups; ++i) {
    dep.reset();
    const double task_us = Median({HostSpeed::TaskUs(), HostSpeed::TaskUs(),
                                   HostSpeed::TaskUs()});
    const auto start = Clock::now();
    auto deployed = SetUp(in, args.work, ingest, nullptr);
    if (!deployed.ok()) {
      std::fprintf(stderr, "perfbench_run: set-up: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    setup_raw_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    setup_s.push_back(setup_raw_s.back() * HostSpeed::kReferenceUs / task_us);
    dep = std::move(*deployed);
  }
  PhaseStats stats =
      RunTraffic(*dep, in, args.seconds, SIZE_MAX, stride, nullptr);
  const std::vector<double> traffic_reads = stats.read_us;
  const double traffic_s = stats.speed.Now();
  const uint64_t traffic_done = stats.attempted - stats.failed;
  const size_t traffic_requests = stats.requests;
  RunCuratorBurst(*dep, in, burst, stats, nullptr);
  const double rss_mb = PeakRssMb();
  const uint64_t disk = FileBytes(args.work + "/" + kSnapshotFile) +
                        FileBytes(args.work + "/" + kLogFile);
  const size_t triples =
      dep->vkb->Snapshot(dep->vkb->head()).value()->store().size();
  bool correct = Check(*dep, in, args.corrupt_reference, stats);

  if (!args.trace) {
    const std::vector<double> reads =
        AtReferenceSpeed(stats.read_us, stats.read_end_s, stats.speed,
                         traffic_reads.size());
    const std::vector<double> commits =
        AtReferenceSpeed(stats.commit_us, stats.commit_end_s, stats.speed,
                         stats.commit_us.size());
    const auto n = [](const std::vector<double>& v) {
      return static_cast<uint64_t>(v.size());
    };
    const std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s", n(setup_s), Median(setup_raw_s)},
        {"ops_per_s",
         static_cast<double>(traffic_done) /
             ReferenceSeconds(stats.speed, traffic_s),
         "1/s", traffic_done,
         static_cast<double>(traffic_done) / traffic_s},
        {"read_p50_us", Median(reads), "us", n(reads), Median(traffic_reads)},
        {"read_p95_us", Percentile(reads, 0.95), "us", n(reads),
         Percentile(traffic_reads, 0.95)},
        {"commit_p50_us", Median(commits), "us", n(commits),
         Median(stats.commit_us)},
        {"commit_p90_us", Percentile(commits, 0.90), "us", n(commits),
         Percentile(stats.commit_us, 0.90)},
        {"peak_rss_mb", rss_mb, "MB", 1},
        {"disk_bytes_per_triple",
         static_cast<double>(disk) / static_cast<double>(triples), "B", 1},
    };
    std::vector<Metric> table = metrics;
    table.push_back({"fail_ratio",
                     static_cast<double>(stats.failed) /
                         static_cast<double>(stats.attempted),
                     "ratio", stats.attempted});
    table.push_back({"read_p99_us", Percentile(reads, 0.99), "us", n(reads),
                     Percentile(traffic_reads, 0.99)});
    table.push_back({"host.task_us", stats.speed.MedianTaskUs(), "us", 1});
    PrintTable("workload " + args.workload +
                   " (end to end; times at the reference host speed, raw "
                   "wall-clock beside)",
               table);
    PrintJson(correct, stats.attempted, stats.failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced pass: a fresh copy of the KB, the same requests, spans on.
  const double untraced_p50 = Median(traffic_reads);
  dep.reset();
  Tracer tracer;
  LayerTrace layers(&tracer);
  auto traced = SetUp(in, args.trace_work, ingest, &layers);
  if (!traced.ok()) {
    std::fprintf(stderr, "perfbench_run: traced set-up: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  PhaseStats tstats = RunTraffic(**traced, in, 6 * args.seconds,
                                 traffic_requests, stride, &layers);
  const std::vector<double> traced_reads = tstats.read_us;
  RunCuratorBurst(**traced, in, burst, tstats, &layers);
  correct = Check(**traced, in, args.corrupt_reference, tstats) && correct;
  if (layers.model_mismatches() > 0) {
    std::fprintf(stderr,
                 "perfbench_run: %llu artefact-miss attributions fell back "
                 "to the counters\n",
                 static_cast<unsigned long long>(layers.model_mismatches()));
  }
  if (!args.spans.empty()) {
    if (Status s = tracer.WriteJsonLines(args.spans, kSpanFileRequests);
        !s.ok()) {
      std::fprintf(stderr, "perfbench_run: spans: %s\n", s.ToString().c_str());
    }
  }
  PrintSpans(tracer);
  const std::vector<Metric> metrics =
      layers.Metrics(**traced, untraced_p50, Median(traced_reads));
  PrintTable("workload " + args.workload + " (per layer, traced)", metrics);
  PrintJson(correct, stats.attempted + tstats.attempted,
            stats.failed + tstats.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--inputs" && has_value) {
      args.inputs = argv[++i];
    } else if (arg == "--work" && has_value) {
      args.work = argv[++i];
    } else if (arg == "--trace-work" && has_value) {
      args.trace_work = argv[++i];
    } else if (arg == "--spans" && has_value) {
      args.spans = argv[++i];
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else {
      std::fprintf(stderr, "perfbench_run: unknown argument '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  const bool known = args.workload == "feed" || args.workload == "explore" ||
                     args.workload == "ingest";
  if (!known || args.inputs.empty() || args.work.empty() ||
      (args.trace && args.trace_work.empty())) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload feed|explore|ingest "
                 "--inputs DIR --work DIR --seconds S [--tiny] "
                 "[--trace --trace-work DIR --spans FILE] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  return perfbench::Run(args);
}
