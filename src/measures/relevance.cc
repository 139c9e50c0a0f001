#include "measures/relevance.h"

#include <cmath>

#include "measures/centrality.h"

namespace evorec::measures {

namespace {

/// Rel over the view's classes from the dense total centrality
/// (aligned to view.classes()); neighborhoods come from the view's
/// memoised NeighborhoodLists().
std::vector<double> RelevanceFromCentrality(
    const schema::SchemaView& view, const std::vector<double>& centrality) {
  const std::vector<rdf::TermId>& classes = view.classes();
  const std::vector<std::vector<rdf::TermId>>& neighborhoods =
      view.NeighborhoodLists();
  std::vector<double> relevance(classes.size(), 0.0);
  for (size_t i = 0; i < classes.size(); ++i) {
    double acc = centrality[i];
    for (rdf::TermId neighbor : neighborhoods[i]) {
      // Neighborhoods only hold classes of the view.
      const size_t j = rdf::SortedIndexOf(classes, neighbor);
      acc += centrality[j] /
             (1.0 + static_cast<double>(neighborhoods[j].size()));
    }
    const double data_factor =
        std::log2(2.0 + static_cast<double>(view.InstanceCount(classes[i])));
    relevance[i] = acc * data_factor;
  }
  return relevance;
}

}  // namespace

ClassKernels ComputeClassKernels(const schema::SchemaView& view) {
  const std::vector<rdf::TermId>& classes = view.classes();
  const std::vector<rdf::TermId>& properties = view.properties();
  const std::vector<size_t> property_totals = PropertyInstanceTotals(view);
  ClassKernels kernels;
  kernels.in_centrality.assign(classes.size(), 0.0);
  kernels.out_centrality.assign(classes.size(), 0.0);
  kernels.total_centrality.assign(classes.size(), 0.0);
  for (const schema::PropertyConnection& conn : view.connections()) {
    const size_t p = rdf::SortedIndexOf(properties, conn.property);
    const double contribution = ConnectionContribution(
        view, conn, p == rdf::kNotInUniverse ? 0 : property_totals[p]);
    if (contribution <= 0.0) continue;
    // Outgoing for the subject class, incoming for the object class
    // (connection classes are always classes of the view).
    const size_t from = rdf::SortedIndexOf(classes, conn.classes.from);
    const size_t to = rdf::SortedIndexOf(classes, conn.classes.to);
    kernels.out_centrality[from] += contribution;
    kernels.total_centrality[from] += contribution;
    kernels.in_centrality[to] += contribution;
    kernels.total_centrality[to] += contribution;
  }
  kernels.relevance = RelevanceFromCentrality(view, kernels.total_centrality);
  return kernels;
}

std::unordered_map<rdf::TermId, double> ComputeRelevance(
    const schema::SchemaView& view) {
  const std::vector<double> dense = ComputeClassKernels(view).relevance;
  const std::vector<rdf::TermId>& classes = view.classes();
  std::unordered_map<rdf::TermId, double> relevance;
  relevance.reserve(classes.size());
  for (size_t i = 0; i < classes.size(); ++i) {
    relevance[classes[i]] = dense[i];
  }
  return relevance;
}

RelevanceShiftMeasure::RelevanceShiftMeasure() {
  info_.name = "relevance_shift";
  info_.description =
      "absolute change of neighborhood-extended semantic relevance "
      "between the two versions";
  info_.category = MeasureCategory::kSemantic;
  info_.scope = MeasureScope::kClass;
}

Result<MeasureReport> RelevanceShiftMeasure::Compute(
    const EvolutionContext& ctx) const {
  const std::vector<rdf::TermId>& classes = ctx.union_classes();
  const std::vector<double> before = ScatterToUnion(
      ctx.view_before().classes(), ctx.kernels_before().relevance, classes);
  const std::vector<double> after = ScatterToUnion(
      ctx.view_after().classes(), ctx.kernels_after().relevance, classes);
  std::vector<ScoredTerm> scores(classes.size());
  for (size_t i = 0; i < classes.size(); ++i) {
    scores[i] = {classes[i], std::abs(after[i] - before[i])};
  }
  return MeasureReport(std::move(scores));
}

}  // namespace evorec::measures
