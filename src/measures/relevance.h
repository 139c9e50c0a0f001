#ifndef EVOREC_MEASURES_RELEVANCE_H_
#define EVOREC_MEASURES_RELEVANCE_H_

#include <unordered_map>

#include "measures/measure.h"
#include "schema/schema_view.h"

namespace evorec::measures {

/// §II.d — Relevance of a class (after Troullinou et al. [15]):
/// extends centrality over neighborhoods and instance volume.
///
///   Rel(n) = ( C(n) + Σ_{m ∈ N(n)} C(m) / (1 + |N(m)|) )
///            · log2(2 + |instances(n)|)
///
/// where C is total (in+out) semantic centrality and N the per-version
/// class neighborhood. The first factor says a class matters more when
/// it and its neighbors are central (each neighbor's contribution is
/// split among that neighbor's own neighbors); the second factor says
/// classes with more actual data instances matter more. A map view of
/// ComputeClassKernels (the measure reads the per-version kernel cell).
std::unordered_map<rdf::TermId, double> ComputeRelevance(
    const schema::SchemaView& view);

/// Importance-shift measure on Relevance: |Rel_{V2}(n) − Rel_{V1}(n)|.
/// Reads both versions' kernel cells; only the union scatter runs per
/// pair.
class RelevanceShiftMeasure final : public EvolutionMeasure {
 public:
  RelevanceShiftMeasure();

  const MeasureInfo& info() const override { return info_; }
  Result<MeasureReport> Compute(const EvolutionContext& ctx) const override;

 private:
  MeasureInfo info_;
};

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_RELEVANCE_H_
