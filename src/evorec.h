#ifndef EVOREC_EVOREC_H_
#define EVOREC_EVOREC_H_

/// \file
/// Umbrella header for the evorec library — a human-aware recommender
/// for knowledge-base evolution measures (reproduction of Stefanidis,
/// Kondylakis & Troullinou, "On Recommending Evolution Measures: A
/// Human-aware Approach", ICDE 2017).
///
/// Layering (each layer only depends on the ones above it):
///   common     — error model, RNG, statistics, binary I/O, tables
///   rdf        — terms, dictionary, triple store, N-Triples I/O
///   storage    — durable binary snapshots + append-only commit log
///   schema     — schema views, subsumption hierarchy
///                (storage and schema are sibling layers over rdf)
///   version    — versioned KB with archive policies, recovery
///   delta      — low-level deltas, high-level change patterns
///   graph      — CSR graphs, betweenness, bridging centrality
///   measures   — the paper's evolution measures (§II)
///   profile    — humans and groups
///   provenance — transparency substrate (§III.b)
///   anonymity  — k-anonymity and access policies (§III.e)
///   recommend  — the human-aware recommender (§III)
///   engine     — shared evaluation engine and batched serving
///   workload   — synthetic generators and scenario presets
///                (engine and workload are sibling top layers over
///                recommend)

#include "anonymity/access_policy.h"
#include "anonymity/aggregate.h"
#include "anonymity/anonymizer.h"
#include "anonymity/generalization.h"
#include "anonymity/kanonymity.h"
#include "common/binary_io.h"
#include "common/deadline.h"
#include "common/env.h"
#include "common/percentile.h"
#include "common/random.h"
#include "common/result.h"
#include "common/statistics.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "delta/delta_index.h"
#include "delta/delta_io.h"
#include "delta/high_level_delta.h"
#include "delta/low_level_delta.h"
#include "engine/admission.h"
#include "engine/artefact_cache.h"
#include "engine/evaluation_engine.h"
#include "engine/recommendation_service.h"
#include "graph/betweenness.h"
#include "graph/bridging.h"
#include "graph/graph.h"
#include "graph/graph_metrics.h"
#include "graph/schema_graph.h"
#include "measures/centrality.h"
#include "measures/change_count.h"
#include "measures/evaluation.h"
#include "measures/measure.h"
#include "measures/measure_context.h"
#include "measures/neighborhood_change.h"
#include "measures/property_measures.h"
#include "measures/registry.h"
#include "measures/relevance.h"
#include "measures/report.h"
#include "measures/structural_shift.h"
#include "measures/timeline.h"
#include "profile/group.h"
#include "profile/profile.h"
#include "provenance/record.h"
#include "provenance/store.h"
#include "provenance/trust.h"
#include "provenance/workflow.h"
#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"
#include "rdf/segment.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"
#include "rdf/vocabulary.h"
#include "recommend/anonymity_gate.h"
#include "recommend/candidate.h"
#include "recommend/diversity.h"
#include "recommend/explanation.h"
#include "recommend/fairness.h"
#include "recommend/group_recommender.h"
#include "recommend/recommender.h"
#include "recommend/relatedness.h"
#include "schema/hierarchy.h"
#include "schema/schema_view.h"
#include "storage/commit_log.h"
#include "storage/fault_env.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "version/history_query.h"
#include "version/kb_view.h"
#include "version/recovery.h"
#include "version/sharded_kb.h"
#include "version/version.h"
#include "version/versioned_kb.h"
#include "workload/evolution_generator.h"
#include "workload/instance_generator.h"
#include "workload/profile_generator.h"
#include "workload/scenarios.h"
#include "workload/schema_generator.h"
#include "workload/stream_generator.h"

#endif  // EVOREC_EVOREC_H_
