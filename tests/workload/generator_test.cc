#include "workload/generator.h"

#include <gtest/gtest.h>

#include "deps/ind.h"
#include "relational/algebra.h"
#include "sql/scanner.h"
#include "support/table_rows.h"

namespace dbre::workload {
namespace {

TEST(GeneratorTest, RejectsBadSpecs) {
  SyntheticSpec spec;
  spec.num_entities = 1;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
  spec.num_entities = 3;
  spec.rows_per_entity = 0;
  EXPECT_FALSE(GenerateSynthetic(spec).ok());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  SyntheticSpec spec;
  spec.seed = 7;
  auto a = GenerateSynthetic(spec);
  auto b = GenerateSynthetic(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->queries, b->queries);
  EXPECT_EQ(a->true_inds, b->true_inds);
  ASSERT_EQ(a->database.RelationNames(), b->database.RelationNames());
  for (const std::string& name : a->database.RelationNames()) {
    EXPECT_EQ(Rows((**a->database.GetTable(name))),
              Rows((**b->database.GetTable(name))));
  }
}

TEST(GeneratorTest, StructureMatchesSpec) {
  SyntheticSpec spec;
  spec.num_entities = 6;
  spec.num_merged = 3;
  spec.rows_per_entity = 100;
  auto generated = GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok()) << generated.status();
  EXPECT_EQ(generated->database.NumRelations(), 6u);
  // Links: 5 FK links + 3 merged links.
  EXPECT_EQ(generated->true_inds.size(), 8u);
  EXPECT_EQ(generated->true_fds.size(), 3u);
  EXPECT_EQ(generated->true_identifiers.size(), 6u);
  for (const std::string& name : generated->database.RelationNames()) {
    EXPECT_EQ((**generated->database.GetTable(name)).num_rows(), 100u);
  }
}

TEST(GeneratorTest, CleanDataSatisfiesGroundTruth) {
  SyntheticSpec spec;
  spec.num_entities = 5;
  spec.num_merged = 2;
  spec.rows_per_entity = 200;
  spec.orphan_rate = 0.0;
  auto generated = GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok());
  for (const InclusionDependency& ind : generated->true_inds) {
    EXPECT_TRUE(*Satisfies(generated->database, ind)) << ind.ToString();
  }
  for (const FunctionalDependency& fd : generated->true_fds) {
    const Table& table = **generated->database.GetTable(fd.relation);
    EXPECT_TRUE(*FunctionalDependencyHolds(table, fd.lhs, fd.rhs))
        << fd.ToString();
  }
  EXPECT_TRUE(generated->database.VerifyDeclaredConstraints().ok());
}

TEST(GeneratorTest, OrphansBreakInclusions) {
  SyntheticSpec spec;
  spec.num_entities = 4;
  spec.num_merged = 1;
  spec.rows_per_entity = 300;
  spec.orphan_rate = 0.2;
  spec.seed = 11;
  auto generated = GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok());
  size_t broken = 0;
  for (const InclusionDependency& ind : generated->true_inds) {
    if (!*Satisfies(generated->database, ind)) ++broken;
  }
  EXPECT_GT(broken, 0u);
}

TEST(GeneratorTest, QueryCoverageSubsamples) {
  SyntheticSpec spec;
  spec.num_entities = 8;
  spec.num_merged = 4;
  spec.rows_per_entity = 50;
  spec.query_coverage = 0.0;
  auto none = GenerateSynthetic(spec);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->queries.empty());
  spec.query_coverage = 1.0;
  auto all = GenerateSynthetic(spec);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->queries.size(), all->true_inds.size());
}

TEST(GeneratorTest, ProgramSourcesRoundTripThroughFrontEnd) {
  SyntheticSpec spec;
  spec.num_entities = 5;
  spec.num_merged = 2;
  spec.rows_per_entity = 50;
  auto generated = GenerateSynthetic(spec);
  ASSERT_TRUE(generated.ok());
  ASSERT_FALSE(generated->program_sources.empty());
  sql::ExtractionOptions options;
  options.catalog = &generated->database;
  auto joins = sql::BuildQueryJoinSetFromSources(generated->program_sources,
                                                 options);
  ASSERT_TRUE(joins.ok()) << joins.status();
  EXPECT_EQ(*joins, generated->queries);
}

}  // namespace
}  // namespace dbre::workload
