// The library scenario end to end: forced inclusions, enforced FDs,
// cyclic INDs and discriminators, all in one coherent session.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "deps/ind_closure.h"
#include "sql/scanner.h"
#include "sql/selection_analysis.h"
#include "workload/library_example.h"
#include "support/table_rows.h"

namespace dbre::workload {
namespace {

class LibraryExampleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto database = BuildLibraryDatabase();
    ASSERT_TRUE(database.ok()) << database.status();
    database_ = new Database(std::move(database).value());
    oracle_ = LibraryOracle().release();
    auto report =
        RunPipeline(*database_, LibraryJoinSet(), oracle_);
    ASSERT_TRUE(report.ok()) << report.status();
    report_ = new PipelineReport(std::move(report).value());
  }
  static void TearDownTestSuite() {
    delete report_;
    delete oracle_;
    delete database_;
    report_ = nullptr;
    oracle_ = nullptr;
    database_ = nullptr;
  }

  static Database* database_;
  static ScriptedOracle* oracle_;
  static PipelineReport* report_;
};

Database* LibraryExampleTest::database_ = nullptr;
ScriptedOracle* LibraryExampleTest::oracle_ = nullptr;
PipelineReport* LibraryExampleTest::report_ = nullptr;

TEST_F(LibraryExampleTest, ProgramsYieldTheJoinSet) {
  sql::ExtractionOptions options;
  options.catalog = database_;
  auto joins =
      sql::BuildQueryJoinSetFromSources(LibraryProgramSources(), options);
  ASSERT_TRUE(joins.ok()) << joins.status();
  EXPECT_EQ(*joins, LibraryJoinSet());
}

TEST_F(LibraryExampleTest, DirtyForeignKeyIsForcedNei) {
  bool found = false;
  for (const JoinOutcome& outcome : report_->ind.outcomes) {
    if (outcome.join.left_relation == "Loans" &&
        outcome.join.right_relation == "Members") {
      found = true;
      EXPECT_EQ(outcome.kind, JoinOutcomeKind::kNeiForced);
      EXPECT_EQ(outcome.counts.n_left, 155u);   // 150 members + 5 orphans
      EXPECT_EQ(outcome.counts.n_right, 200u);
      EXPECT_EQ(outcome.counts.n_join, 150u);
    }
  }
  EXPECT_TRUE(found);
  // The forced IND is in the set although the extension refutes it.
  InclusionDependency forced =
      InclusionDependency::Single("Loans", "member", "Members", "id");
  EXPECT_NE(std::find(report_->ind.inds.begin(), report_->ind.inds.end(),
                      forced),
            report_->ind.inds.end());
  EXPECT_FALSE(*Satisfies(*database_, forced));
}

TEST_F(LibraryExampleTest, EqualDomainsGiveCyclicInds) {
  auto cycles = FindCyclicSides(report_->ind.inds);
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].sides.size(), 2u);
  EXPECT_EQ(cycles[0].sides[0].first, "Cardholders");
  EXPECT_EQ(cycles[0].sides[1].first, "Members");
}

TEST_F(LibraryExampleTest, CorruptedFdIsEnforced) {
  ASSERT_EQ(report_->rhs.fds.size(), 1u);
  EXPECT_EQ(report_->rhs.fds[0].ToString(),
            "Books: {branch} -> {branch_city}");
  // The extension genuinely violates it.
  const Table& books = **database_->GetTable("Books");
  EXPECT_FALSE(*FunctionalDependencyHolds(books, AttributeSet{"branch"},
                                          AttributeSet{"branch_city"}));
}

TEST_F(LibraryExampleTest, RestructCreatesBranchFirstWins) {
  ASSERT_TRUE(report_->restruct.database.HasRelation("Branch"));
  const Table& branch = **report_->restruct.database.GetTable("Branch");
  EXPECT_EQ(branch.num_rows(), 8u);  // B0..B7
  // First-wins conflict resolution kept the clean city for B2, not the
  // mispunched value of I42.
  auto city_index = branch.schema().AttributeIndex("branch_city");
  auto branch_index = branch.schema().AttributeIndex("branch");
  ASSERT_TRUE(city_index.ok() && branch_index.ok());
  for (const ValueVector& row : Rows(branch)) {
    EXPECT_NE(row[*city_index].as_text(), "mispunched")
        << row[*branch_index].ToString();
  }
  // Books lost branch_city, kept branch.
  const RelationSchema& books =
      (**report_->restruct.database.GetTable("Books")).schema();
  EXPECT_FALSE(books.HasAttribute("branch_city"));
  EXPECT_TRUE(books.HasAttribute("branch"));
}

TEST_F(LibraryExampleTest, RicSetAndExtensionFidelity) {
  std::vector<std::string> rics;
  for (const InclusionDependency& ric : report_->restruct.rics) {
    rics.push_back(ric.ToString());
  }
  std::sort(rics.begin(), rics.end());
  EXPECT_EQ(rics, (std::vector<std::string>{
                      "Books[branch] << Branch[branch]",
                      "Cardholders[id] << Members[id]",
                      "Loans[isbn] << Books[isbn]",
                      "Loans[member] << Members[id]",
                      "Members[id] << Cardholders[id]"}));
  // All RICs hold in the restructured extension EXCEPT the forced one —
  // exactly the paper's warning that after expert overrides "the obtained
  // data structure no longer matches the database extension".
  for (const InclusionDependency& ric : report_->restruct.rics) {
    bool holds = *Satisfies(report_->restruct.database, ric);
    if (ric.lhs_relation == "Loans" && ric.lhs_attributes[0] == "member") {
      EXPECT_FALSE(holds);
    } else {
      EXPECT_TRUE(holds) << ric.ToString();
    }
  }
}

TEST_F(LibraryExampleTest, EerHasCycleAndBinaryLinks) {
  // Mutual is-a between Members and Cardholders.
  ASSERT_EQ(report_->eer.isa_links().size(), 2u);
  // Loans participates in two binary relationships; Books in one (to
  // Branch).
  size_t loans_links = 0, books_links = 0;
  for (const eer::RelationshipType& relationship :
       report_->eer.relationships()) {
    for (const eer::Role& role : relationship.roles) {
      if (role.entity == "Loans") ++loans_links;
      if (role.entity == "Books" &&
          relationship.roles[1].entity == "Branch") {
        ++books_links;
      }
    }
  }
  EXPECT_EQ(loans_links, 2u);
  EXPECT_EQ(books_links, 1u);
}

TEST_F(LibraryExampleTest, MergeOptionCollapsesTheCycle) {
  PipelineOptions options;
  options.translate.merge_isa_cycles = true;
  auto report = RunPipeline(*database_, LibraryJoinSet(), oracle_, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->eer.isa_links().empty());
  EXPECT_FALSE(report->eer.HasEntity("Members"));
  ASSERT_TRUE(report->eer.HasEntity("Cardholders"));
  const eer::EntityType& merged = **report->eer.GetEntity("Cardholders");
  EXPECT_TRUE(merged.attributes.Contains("name"));
  EXPECT_TRUE(merged.attributes.Contains("card_no"));
  EXPECT_TRUE(report->eer.Validate().ok());
}

TEST_F(LibraryExampleTest, StatusIsADiscriminatorCandidate) {
  sql::SelectionAnalysisOptions options;
  options.catalog = database_;
  auto candidates =
      sql::AnalyzeSelections(LibraryProgramSources(), options);
  ASSERT_TRUE(candidates.ok()) << candidates.status();
  ASSERT_EQ(candidates->size(), 1u);
  const sql::DiscriminatorCandidate& status = (*candidates)[0];
  EXPECT_EQ(status.relation, "Members");
  EXPECT_EQ(status.attribute, "status");
  EXPECT_EQ(status.constants,
            (std::vector<std::string>{"active", "barred"}));
  EXPECT_DOUBLE_EQ(status.value_coverage, 1.0);
}

}  // namespace
}  // namespace dbre::workload
