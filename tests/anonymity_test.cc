#include "anonymity/kanonymity.h"

#include <gtest/gtest.h>

#include "anonymity/access_policy.h"
#include "anonymity/aggregate.h"
#include "anonymity/anonymizer.h"
#include "anonymity/generalization.h"
#include "schema/hierarchy.h"

namespace evorec::anonymity {
namespace {

AggregateTable PatientTable() {
  // QI columns: (diagnosis class, region). Counts = patients.
  AggregateTable table({"diagnosis", "region"}, "changes");
  EXPECT_TRUE(table.AddRow({"Flu", "North"}, 12.0, 6).ok());
  EXPECT_TRUE(table.AddRow({"Flu", "South"}, 8.0, 4).ok());
  EXPECT_TRUE(table.AddRow({"RareDisease", "North"}, 3.0, 1).ok());
  EXPECT_TRUE(table.AddRow({"RareDisease", "South"}, 2.0, 1).ok());
  return table;
}

ValueHierarchy DiagnosisHierarchy() {
  ValueHierarchy vh;
  vh.AddParent("Flu", "Respiratory");
  vh.AddParent("RareDisease", "Chronic");
  vh.AddParent("Respiratory", "Disease");
  vh.AddParent("Chronic", "Disease");
  return vh;
}

ValueHierarchy RegionHierarchy() {
  ValueHierarchy vh;
  vh.AddParent("North", "Country");
  vh.AddParent("South", "Country");
  return vh;
}

TEST(AggregateTableTest, RowValidationAndTotals) {
  AggregateTable table({"a", "b"}, "v");
  EXPECT_FALSE(table.AddRow({"only-one"}, 1.0).ok());
  EXPECT_TRUE(table.AddRow({"x", "y"}, 2.0, 3).ok());
  EXPECT_TRUE(table.AddRow({"x", "y"}, 1.0, 2).ok());
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_EQ(table.TotalCount(), 5u);

  const AggregateTable merged = table.MergedGroups();
  EXPECT_EQ(merged.row_count(), 1u);
  EXPECT_DOUBLE_EQ(merged.rows()[0].value, 3.0);
  EXPECT_EQ(merged.rows()[0].count, 5u);
}

TEST(KAnonymityTest, ChecksGroups) {
  const AggregateTable table = PatientTable();
  EXPECT_TRUE(IsKAnonymous(table, 1));
  EXPECT_FALSE(IsKAnonymous(table, 2));  // RareDisease groups of 1
  EXPECT_EQ(EquivalenceGroups(table).size(), 4u);
  EXPECT_EQ(ViolatingGroups(table, 2).size(), 2u);
  EXPECT_EQ(ViolatingGroups(table, 5).size(), 3u);
}

TEST(KAnonymityTest, EmptyTableIsAnonymous) {
  AggregateTable table({"x"}, "v");
  EXPECT_TRUE(IsKAnonymous(table, 100));
  EXPECT_DOUBLE_EQ(ReidentificationRisk(table), 0.0);
}

TEST(KAnonymityTest, ReidentificationRisk) {
  const AggregateTable table = PatientTable();
  // Smallest group has count 1 → risk 1.
  EXPECT_DOUBLE_EQ(ReidentificationRisk(table), 1.0);
  AggregateTable safe({"c"}, "v");
  (void)safe.AddRow({"x"}, 1.0, 10);
  (void)safe.AddRow({"y"}, 1.0, 20);
  EXPECT_DOUBLE_EQ(ReidentificationRisk(safe), 0.1);
}

TEST(ValueHierarchyTest, GeneralizeClimbsToRoot) {
  const ValueHierarchy vh = DiagnosisHierarchy();
  EXPECT_EQ(vh.Generalize("Flu", 0), "Flu");
  EXPECT_EQ(vh.Generalize("Flu", 1), "Respiratory");
  EXPECT_EQ(vh.Generalize("Flu", 2), "Disease");
  EXPECT_EQ(vh.Generalize("Flu", 3), "*");
  EXPECT_EQ(vh.Generalize("Flu", 99), "*");
  // Unknown values jump straight to root.
  EXPECT_EQ(vh.Generalize("Unknown", 1), "*");
  EXPECT_EQ(vh.HeightOf("Flu"), 3u);
  EXPECT_EQ(vh.MaxHeight(), 3u);
}

TEST(ValueHierarchyTest, FromClassHierarchy) {
  schema::ClassHierarchy hierarchy;
  hierarchy.AddEdge(1, 0);
  hierarchy.AddEdge(2, 0);
  rdf::Dictionary dict;
  // Ids 0..2 in the dictionary.
  (void)dict.InternIri("Root");
  (void)dict.InternIri("A");
  (void)dict.InternIri("B");
  const ValueHierarchy vh =
      ValueHierarchy::FromClassHierarchy(hierarchy, dict);
  EXPECT_EQ(vh.Generalize("A", 1), "Root");
  EXPECT_EQ(vh.Generalize("B", 1), "Root");
  EXPECT_EQ(vh.Generalize("Root", 1), "*");
}

TEST(AnonymizerTest, OutputIsAlwaysKAnonymous) {
  const AggregateTable table = PatientTable();
  const std::vector<ValueHierarchy> hierarchies = {DiagnosisHierarchy(),
                                                   RegionHierarchy()};
  for (size_t k : {2u, 3u, 5u, 12u}) {
    auto result = Anonymize(table, k, hierarchies);
    ASSERT_TRUE(result.ok()) << "k=" << k;
    EXPECT_TRUE(IsKAnonymous(result->table, k)) << "k=" << k;
  }
}

TEST(AnonymizerTest, GeneralizationPreferredOverSuppression) {
  const AggregateTable table = PatientTable();
  const std::vector<ValueHierarchy> hierarchies = {DiagnosisHierarchy(),
                                                   RegionHierarchy()};
  auto result = Anonymize(table, 2, hierarchies);
  ASSERT_TRUE(result.ok());
  // Merging North/South (region level 1) makes every diagnosis group
  // reach k=2 without suppression.
  EXPECT_EQ(result->suppressed_count, 0u);
  EXPECT_EQ(result->table.TotalCount(), table.TotalCount());
  EXPECT_GT(result->information_loss, 0.0);
  EXPECT_LT(result->information_loss, 1.0);
}

TEST(AnonymizerTest, InformationLossGrowsWithK) {
  const AggregateTable table = PatientTable();
  const std::vector<ValueHierarchy> hierarchies = {DiagnosisHierarchy(),
                                                   RegionHierarchy()};
  auto k2 = Anonymize(table, 2, hierarchies);
  auto k12 = Anonymize(table, 12, hierarchies);
  ASSERT_TRUE(k2.ok());
  ASSERT_TRUE(k12.ok());
  EXPECT_LE(k2->information_loss, k12->information_loss);
}

TEST(AnonymizerTest, ImpossibleKSuppressesEverything) {
  AggregateTable table({"c"}, "v");
  (void)table.AddRow({"x"}, 1.0, 2);
  ValueHierarchy vh;  // only generalisation to '*'
  auto result = Anonymize(table, 10, {vh});
  ASSERT_TRUE(result.ok());
  // A 2-individual table cannot reach k=10: all rows suppressed.
  EXPECT_EQ(result->table.row_count(), 0u);
  EXPECT_EQ(result->suppressed_count, 2u);
  EXPECT_TRUE(IsKAnonymous(result->table, 10));
}

TEST(AnonymizerTest, ValidatesColumnCounts) {
  const AggregateTable table = PatientTable();
  EXPECT_FALSE(Anonymize(table, 2, {DiagnosisHierarchy()}).ok());
  EXPECT_FALSE(
      GeneralizeTable(table, {1}, {DiagnosisHierarchy()}).ok());
}

// -------------------------------------------------------- AccessPolicy

TEST(AccessPolicyTest, DenyByDefaultOnSensitive) {
  AccessPolicy policy;
  policy.MarkSensitive(7);
  EXPECT_TRUE(policy.IsSensitive(7));
  EXPECT_FALSE(policy.IsSensitive(8));
  EXPECT_TRUE(policy.CheckAccess("anyone", 8).ok());
  EXPECT_EQ(policy.CheckAccess("anyone", 7).code(),
            StatusCode::kPermissionDenied);
}

TEST(AccessPolicyTest, GrantsAreAgentAndTermSpecific) {
  AccessPolicy policy;
  policy.MarkSensitive(7);
  policy.MarkSensitive(8);
  policy.Grant("ann", 7);
  EXPECT_TRUE(policy.CheckAccess("ann", 7).ok());
  EXPECT_FALSE(policy.CheckAccess("ann", 8).ok());
  EXPECT_FALSE(policy.CheckAccess("bob", 7).ok());
  policy.GrantAll("dpo");
  EXPECT_TRUE(policy.CheckAccess("dpo", 7).ok());
  EXPECT_TRUE(policy.CheckAccess("dpo", 8).ok());
}

TEST(AccessPolicyTest, FilterReportRedacts) {
  AccessPolicy policy;
  policy.MarkSensitive(2);
  measures::MeasureReport report;
  report.Add(1, 1.0);
  report.Add(2, 5.0);
  report.Add(3, 2.0);
  size_t redacted = 0;
  const measures::MeasureReport filtered =
      policy.FilterReport("bob", report, &redacted);
  EXPECT_EQ(filtered.size(), 2u);
  EXPECT_EQ(redacted, 1u);
  EXPECT_DOUBLE_EQ(filtered.ScoreOf(2), 0.0);
  // A granted agent sees everything.
  policy.Grant("ann", 2);
  const measures::MeasureReport full =
      policy.FilterReport("ann", report, &redacted);
  EXPECT_EQ(full.size(), 3u);
  EXPECT_EQ(redacted, 0u);

  // A GrantAll agent sees every sensitive term.
  policy.MarkSensitive(3);
  policy.GrantAll("dpo");
  const measures::MeasureReport all =
      policy.FilterReport("dpo", report, &redacted);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_EQ(redacted, 0u);

  // A partial grant shows exactly the granted sensitive terms, in
  // report order, and agrees with CheckAccess term by term.
  const measures::MeasureReport partial =
      policy.FilterReport("ann", report, &redacted);
  EXPECT_EQ(redacted, 1u);
  ASSERT_EQ(partial.size(), 2u);
  EXPECT_EQ(partial.scores()[0].term, 1u);
  EXPECT_EQ(partial.scores()[1].term, 2u);
  EXPECT_DOUBLE_EQ(partial.ScoreOf(2), 5.0);
  for (const measures::ScoredTerm& s : report.scores()) {
    for (const char* agent : {"ann", "bob", "dpo"}) {
      const bool kept =
          policy.FilterReport(agent, report).ScoreOf(s.term) == s.score;
      EXPECT_EQ(kept, policy.CheckAccess(agent, s.term).ok())
          << agent << " term " << s.term;
    }
  }
  EXPECT_EQ(policy.CheckAccess("bob", 3).code(),
            StatusCode::kPermissionDenied);
}

}  // namespace
}  // namespace evorec::anonymity
