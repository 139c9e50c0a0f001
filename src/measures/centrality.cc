#include "measures/centrality.h"

#include <cmath>

namespace evorec::measures {

double RelativeCardinality(const schema::SchemaView& view,
                           rdf::TermId property, rdf::TermId from,
                           rdf::TermId to) {
  const size_t conn = view.ConnectionCount(property, from, to);
  if (conn == 0) return 0.0;
  const size_t denom =
      view.TotalConnectionsOf(from) +
      (from == to ? 0 : view.TotalConnectionsOf(to));
  if (denom == 0) return 0.0;
  return static_cast<double>(conn) / static_cast<double>(denom);
}

std::vector<size_t> PropertyInstanceTotals(const schema::SchemaView& view) {
  // Per-property edge totals, used as connection weights: a connection
  // that carries most of a property's instances matters more to the
  // entities it links. Dense over the view's sorted property list.
  const std::vector<rdf::TermId>& properties = view.properties();
  std::vector<size_t> totals(properties.size(), 0);
  for (const schema::PropertyConnection& conn : view.connections()) {
    const size_t p = rdf::SortedIndexOf(properties, conn.property);
    if (p != rdf::kNotInUniverse) totals[p] += conn.instance_count;
  }
  return totals;
}

double ConnectionContribution(const schema::SchemaView& view,
                              const schema::PropertyConnection& conn,
                              size_t property_total) {
  // conn.instance_count IS ConnectionCount(property, from, to) —
  // connections() holds one deduplicated entry per key.
  const size_t denom =
      view.TotalConnectionsOf(conn.classes.from) +
      (conn.classes.from == conn.classes.to
           ? 0
           : view.TotalConnectionsOf(conn.classes.to));
  if (conn.instance_count == 0 || denom == 0 || property_total == 0) {
    return 0.0;
  }
  const double rc = static_cast<double>(conn.instance_count) /
                    static_cast<double>(denom);
  const double weight = static_cast<double>(conn.instance_count) /
                        static_cast<double>(property_total);
  return rc * weight;
}

namespace {

const char* DirectionName(CentralityDirection direction) {
  switch (direction) {
    case CentralityDirection::kIn:
      return "in";
    case CentralityDirection::kOut:
      return "out";
    case CentralityDirection::kTotal:
      return "total";
  }
  return "unknown";
}

/// The centrality kernel of `direction`, aligned to the view's classes.
const std::vector<double>& CentralityOf(const ClassKernels& kernels,
                                        CentralityDirection direction) {
  switch (direction) {
    case CentralityDirection::kIn:
      return kernels.in_centrality;
    case CentralityDirection::kOut:
      return kernels.out_centrality;
    case CentralityDirection::kTotal:
      break;
  }
  return kernels.total_centrality;
}

}  // namespace

std::unordered_map<rdf::TermId, double> ComputeCentrality(
    const schema::SchemaView& view, CentralityDirection direction) {
  const ClassKernels kernels = ComputeClassKernels(view);
  const std::vector<double>& dense = CentralityOf(kernels, direction);
  const std::vector<rdf::TermId>& classes = view.classes();
  std::unordered_map<rdf::TermId, double> centrality;
  centrality.reserve(classes.size());
  for (size_t i = 0; i < classes.size(); ++i) {
    centrality[classes[i]] = dense[i];
  }
  return centrality;
}

CentralityShiftMeasure::CentralityShiftMeasure(CentralityDirection direction)
    : direction_(direction) {
  info_.name = std::string(DirectionName(direction)) + "_centrality_shift";
  info_.description =
      std::string("absolute change of ") + DirectionName(direction) +
      "-centrality (weighted relative cardinalities of instance "
      "connections) between the two versions";
  info_.category = MeasureCategory::kSemantic;
  info_.scope = MeasureScope::kClass;
}

Result<MeasureReport> CentralityShiftMeasure::Compute(
    const EvolutionContext& ctx) const {
  const std::vector<rdf::TermId>& classes = ctx.union_classes();
  const std::vector<double> before =
      ScatterToUnion(ctx.view_before().classes(),
                     CentralityOf(ctx.kernels_before(), direction_), classes);
  const std::vector<double> after =
      ScatterToUnion(ctx.view_after().classes(),
                     CentralityOf(ctx.kernels_after(), direction_), classes);
  std::vector<ScoredTerm> scores(classes.size());
  for (size_t i = 0; i < classes.size(); ++i) {
    scores[i] = {classes[i], std::abs(after[i] - before[i])};
  }
  return MeasureReport(std::move(scores));
}

}  // namespace evorec::measures
