// Approximate functional dependencies: the g3 error measure and the
// threshold oracle's error-based enforcement, unattended on dirty data.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "relational/algebra.h"
#include "workload/library_example.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  RelationSchema schema("T");
  EXPECT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("b", DataType::kInt64).ok());
  Table table(std::move(schema));
  for (const auto& [a, b] : rows) {
    EXPECT_TRUE(table.Insert({Value::Int(a), Value::Int(b)}).ok());
  }
  return table;
}

TEST(FdErrorTest, ExactFdHasZeroError) {
  Table table = MakeTable({{1, 10}, {2, 20}, {1, 10}});
  auto error = FunctionalDependencyError(table, AttributeSet{"a"},
                                         AttributeSet{"b"});
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.0);
}

TEST(FdErrorTest, SingleBadTuple) {
  // Group a=1 has b ∈ {10, 10, 99}: one removal out of four tuples.
  Table table = MakeTable({{1, 10}, {1, 10}, {1, 99}, {2, 20}});
  auto error = FunctionalDependencyError(table, AttributeSet{"a"},
                                         AttributeSet{"b"});
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.25);
}

TEST(FdErrorTest, PluralityWinsPerGroup) {
  // a=1: {10, 10, 20, 20, 20} → keep 3, remove 2 of 5 tuples.
  Table table = MakeTable({{1, 10}, {1, 10}, {1, 20}, {1, 20}, {1, 20}});
  auto error = FunctionalDependencyError(table, AttributeSet{"a"},
                                         AttributeSet{"b"});
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.4);
}

TEST(FdErrorTest, NullLhsExcluded) {
  RelationSchema schema("T");
  ASSERT_TRUE(schema.AddAttribute("a", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("b", DataType::kInt64).ok());
  Table table(std::move(schema));
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Int(2)}).ok());
  EXPECT_TRUE(table.Insert({Value::Int(1), Value::Int(3)}).ok());
  auto error = FunctionalDependencyError(table, AttributeSet{"a"},
                                         AttributeSet{"b"});
  ASSERT_TRUE(error.ok());
  EXPECT_DOUBLE_EQ(*error, 0.0);  // the NULL group does not count
}

TEST(FdErrorTest, EmptyTableAndValidation) {
  Table table = MakeTable({});
  EXPECT_DOUBLE_EQ(*FunctionalDependencyError(table, AttributeSet{"a"},
                                              AttributeSet{"b"}),
                   0.0);
  EXPECT_FALSE(
      FunctionalDependencyError(table, AttributeSet{}, AttributeSet{"b"})
          .ok());
}

TEST(FdErrorTest, ErrorZeroIffHolds) {
  Table clean = MakeTable({{1, 10}, {2, 20}});
  Table dirty = MakeTable({{1, 10}, {1, 11}});
  for (const Table* table : {&clean, &dirty}) {
    bool holds = *FunctionalDependencyHolds(*table, AttributeSet{"a"},
                                            AttributeSet{"b"});
    double error = *FunctionalDependencyError(*table, AttributeSet{"a"},
                                              AttributeSet{"b"});
    EXPECT_EQ(holds, error == 0.0);
  }
}

TEST(ThresholdOracleTest, ErrorBasedEnforcement) {
  ThresholdOracle::Options options;
  options.enforce_fd_max_error = 0.01;
  ThresholdOracle oracle(options);
  FunctionalDependency fd("R", AttributeSet{"a"}, AttributeSet{"b"});
  ExpertOracle* base = &oracle;  // call through the interface
  EXPECT_TRUE(base->EnforceFailedFd(fd, 0.005));
  EXPECT_FALSE(base->EnforceFailedFd(fd, 0.05));
  // Default options never enforce.
  ThresholdOracle strict;
  base = &strict;
  EXPECT_FALSE(base->EnforceFailedFd(fd, 0.0001));
}

// The unattended payoff: on the library's dirty data, a threshold oracle
// with 1% error tolerance recovers the corrupted FD *without* a scripted
// expert.
TEST(ThresholdOracleTest, UnattendedRecoveryOfCorruptedFd) {
  auto database = workload::BuildLibraryDatabase();
  ASSERT_TRUE(database.ok());
  ThresholdOracle::Options options;
  options.nei_conceptualize_ratio = 2.0;
  options.nei_force_ratio = 0.5;        // forces the dirty FK too
  options.enforce_fd_max_error = 0.01;  // 1 mispunched tuple of 150 books
  options.accept_hidden_objects = false;
  ThresholdOracle oracle(options);
  auto report = RunPipeline(*database, workload::LibraryJoinSet(), &oracle);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->rhs.fds.size(), 1u);
  EXPECT_EQ(report->rhs.fds[0].ToString(),
            "Books: {branch} -> {branch_city}");
}

TEST(RecordingOracleTest, RecordsG3Error) {
  DefaultOracle inner;
  RecordingOracle recording(&inner);
  FunctionalDependency fd("R", AttributeSet{"a"}, AttributeSet{"b"});
  ExpertOracle* base = &recording;
  base->EnforceFailedFd(fd, 0.125);
  ASSERT_EQ(recording.InteractionCount(), 1u);
  EXPECT_NE(recording.interactions()[0].question.find("g3=0.125"),
            std::string::npos);
}

}  // namespace
}  // namespace dbre
