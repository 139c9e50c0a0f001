#ifndef EVOREC_MEASURES_CENTRALITY_H_
#define EVOREC_MEASURES_CENTRALITY_H_

#include <unordered_map>
#include <vector>

#include "measures/measure.h"
#include "schema/schema_view.h"

namespace evorec::measures {

/// Which direction of instance connections a centrality sums.
enum class CentralityDirection {
  kIn,     ///< incoming properties only
  kOut,    ///< outgoing properties only
  kTotal,  ///< both
};

/// §II.d — relative cardinality of a property e connecting classes
/// (n, ni):
///   RC(e(n, ni)) = conn(e, n → ni) /
///                  (totalConn(n) + totalConn(ni)),
/// where conn counts instance-level edges of e between the two classes
/// and totalConn(c) counts all instance connections (in + out, any
/// property) that instances of c participate in. Returns 0 when the
/// denominator is 0.
double RelativeCardinality(const schema::SchemaView& view,
                           rdf::TermId property, rdf::TermId from,
                           rdf::TermId to);

/// §II.d — in/out-centrality of every class in `view`: the sum of the
/// relative cardinalities of its incoming/outgoing property
/// connections, each weighted by the fraction of the property's
/// instance edges that the connection carries. Classes without
/// connections score 0. A map view of ComputeClassKernels (the
/// measures read the per-version kernel cell instead).
std::unordered_map<rdf::TermId, double> ComputeCentrality(
    const schema::SchemaView& view, CentralityDirection direction);

/// Per-property instance-edge totals, aligned to view.properties() —
/// the weight denominators of the flat centrality/importance kernels.
std::vector<size_t> PropertyInstanceTotals(const schema::SchemaView& view);

/// The weighted relative-cardinality contribution of one connection:
/// RC(e(n, ni)) × the fraction of the property's instance edges the
/// connection carries (`property_total` from PropertyInstanceTotals).
/// 0 for degenerate connections. The shared per-connection kernel of
/// class centrality and property importance — keep the two measures
/// consistent by construction.
double ConnectionContribution(const schema::SchemaView& view,
                              const schema::PropertyConnection& conn,
                              size_t property_total);

/// §II.d — importance-shift measure on semantic centrality:
/// |C_{V2}(n) − C_{V1}(n)| per class, for the configured direction.
/// Captures how the evolution redistributed instance-level data around
/// each class — the paper's "cumulative effect" of changes. Reads both
/// versions' kernel cells; only the union scatter runs per pair.
class CentralityShiftMeasure final : public EvolutionMeasure {
 public:
  explicit CentralityShiftMeasure(
      CentralityDirection direction = CentralityDirection::kTotal);

  const MeasureInfo& info() const override { return info_; }
  Result<MeasureReport> Compute(const EvolutionContext& ctx) const override;

 private:
  MeasureInfo info_;
  CentralityDirection direction_;
};

}  // namespace evorec::measures

#endif  // EVOREC_MEASURES_CENTRALITY_H_
