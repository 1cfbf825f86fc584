// Edge cases of Restruct and Translate beyond the happy paths.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "core/restruct.h"
#include "core/translate.h"
#include "support/restruct_reference.h"
#include "workload/generator.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Database MakeDb() {
  Database db;
  RelationSchema sales("Sales");
  EXPECT_TRUE(sales.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(sales.AddAttribute("a", DataType::kInt64).ok());
  EXPECT_TRUE(sales.AddAttribute("b", DataType::kInt64).ok());
  EXPECT_TRUE(sales.AddAttribute("payload", DataType::kString).ok());
  EXPECT_TRUE(sales.DeclareUnique({"id"}).ok());
  EXPECT_TRUE(db.CreateRelation(std::move(sales)).ok());
  Table* table = *db.GetMutableTable("Sales");
  for (int64_t i = 1; i <= 20; ++i) {
    int64_t a = i % 3, b = i % 2;
    EXPECT_TRUE(table
                    ->Insert({Value::Int(i), Value::Int(a), Value::Int(b),
                              Value::Text("p" + std::to_string(a * 10 + b))})
                    .ok());
  }
  return db;
}

TEST(RestructEdgeTest, MissingRelationInHiddenFails) {
  Database db = MakeDb();
  DefaultOracle oracle;
  QualifiedAttributes ghost{"Ghost", AttributeSet{"x"}};
  EXPECT_FALSE(Restruct(db, {}, {ghost}, {}, &oracle).ok());
}

TEST(RestructEdgeTest, MissingRelationInFdFails) {
  Database db = MakeDb();
  DefaultOracle oracle;
  FunctionalDependency fd("Ghost", AttributeSet{"x"}, AttributeSet{"y"});
  EXPECT_FALSE(Restruct(db, {fd}, {}, {}, &oracle).ok());
}

TEST(RestructEdgeTest, NullOracleRejected) {
  Database db = MakeDb();
  EXPECT_FALSE(Restruct(db, {}, {}, {}, nullptr).ok());
}

TEST(RestructEdgeTest, CompositeLhsFdSplit) {
  // {a, b} → payload: the new relation gets a two-attribute key.
  Database db = MakeDb();
  DefaultOracle oracle;
  FunctionalDependency fd("Sales", AttributeSet{"a", "b"},
                          AttributeSet{"payload"});
  auto result = Restruct(db, {fd}, {}, {}, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->database.HasRelation("Sales_a_b"));
  const Table& split = **result->database.GetTable("Sales_a_b");
  EXPECT_EQ(*split.schema().PrimaryKey(), (AttributeSet{"a", "b"}));
  EXPECT_EQ(split.num_rows(), 6u);  // 3 × 2 combinations
  EXPECT_TRUE(split.VerifyUniqueConstraints().ok());
  ASSERT_EQ(result->rics.size(), 1u);
  EXPECT_EQ(result->rics[0].ToString(),
            "Sales[a, b] << Sales_a_b[a, b]");
  EXPECT_TRUE(*Satisfies(result->database, result->rics[0]));
}

TEST(RestructEdgeTest, InputDatabaseUntouched) {
  Database db = MakeDb();
  DefaultOracle oracle;
  FunctionalDependency fd("Sales", AttributeSet{"a"},
                          AttributeSet{"payload"});
  // a → payload does NOT hold in the data; Restruct splits anyway
  // (first-wins) — but must not mutate the input.
  auto result = Restruct(db, {fd}, {}, {}, &oracle);
  ASSERT_TRUE(result.ok());
  const Table& original = **db.GetTable("Sales");
  EXPECT_TRUE(original.schema().HasAttribute("payload"));
  EXPECT_EQ(original.num_rows(), 20u);
}

TEST(RestructEdgeTest, HiddenObjectSkipsNullValues) {
  Database db;
  RelationSchema r("R");
  ASSERT_TRUE(r.AddAttribute("k", DataType::kInt64).ok());
  ASSERT_TRUE(r.AddAttribute("tag", DataType::kInt64).ok());
  ASSERT_TRUE(r.DeclareUnique({"k"}).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(r)).ok());
  Table* table = *db.GetMutableTable("R");
  ASSERT_TRUE(table->Insert({Value::Int(1), Value::Int(5)}).ok());
  ASSERT_TRUE(table->Insert({Value::Int(2), Value::Null()}).ok());
  ASSERT_TRUE(table->Insert({Value::Int(3), Value::Int(5)}).ok());
  DefaultOracle oracle;
  QualifiedAttributes hidden{"R", AttributeSet{"tag"}};
  auto result = Restruct(db, {}, {hidden}, {}, &oracle);
  ASSERT_TRUE(result.ok());
  const Table& tags = **result->database.GetTable("R_tag");
  EXPECT_EQ(tags.num_rows(), 1u);  // only the value 5; NULL excluded
}

// --- Crosscheck against the row-based reference -------------------------

// Restruct over memoized partitions must reproduce the row-based
// reference exactly: relations, schemas, row order, INDs, RICs, keys,
// provenance — or the same error.
void ExpectMatchesReference(const Database& db,
                            const std::vector<FunctionalDependency>& fds,
                            const std::vector<QualifiedAttributes>& hidden,
                            const std::vector<InclusionDependency>& inds = {}) {
  DefaultOracle oracle;
  DefaultOracle reference_oracle;
  auto actual = Restruct(db, fds, hidden, inds, &oracle);
  auto expected =
      reference::Restruct(db, fds, hidden, inds, &reference_oracle);
  ASSERT_EQ(actual.ok(), expected.ok())
      << (actual.ok() ? expected.status() : actual.status());
  if (!expected.ok()) {
    EXPECT_EQ(actual.status().ToString(), expected.status().ToString());
    return;
  }
  EXPECT_EQ(reference::Describe(*actual), reference::Describe(*expected));
}

// Orders(id, cust, city, rate, vip, note): every column type, negative and
// NULL keys, and dependents that disagree across rows sharing a key.
Database MakeMixedDb() {
  Database db;
  RelationSchema orders("Orders");
  EXPECT_TRUE(orders.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(orders.AddAttribute("cust", DataType::kInt64).ok());
  EXPECT_TRUE(orders.AddAttribute("city", DataType::kString).ok());
  EXPECT_TRUE(orders.AddAttribute("rate", DataType::kDouble).ok());
  EXPECT_TRUE(orders.AddAttribute("vip", DataType::kBool).ok());
  EXPECT_TRUE(orders.AddAttribute("note", DataType::kString).ok());
  EXPECT_TRUE(orders.DeclareUnique({"id"}).ok());
  EXPECT_TRUE(db.CreateRelation(std::move(orders)).ok());
  Table* table = *db.GetMutableTable("Orders");
  uint64_t state = 12345;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (int64_t id = 1; id <= 400; ++id) {
    const uint64_t draw = next(100);
    Value cust = draw < 10 ? Value::Null()
                           : Value::Int(static_cast<int64_t>(next(61)) - 30);
    Value city = draw % 7 == 0
                     ? Value::Null()
                     : Value::Text("c" + std::to_string(next(9)));
    Value rate = Value::Real(static_cast<double>(next(5)) * 0.5 - 1.0);
    Value vip = draw % 5 == 0 ? Value::Null() : Value::Boolean(next(2) == 1);
    EXPECT_TRUE(table
                    ->Insert({Value::Int(id), cust, city, rate, vip,
                              Value::Text("n" + std::to_string(next(4)))})
                    .ok());
  }
  return db;
}

TEST(RestructCrosscheckTest, ConflictingRowsResolveFirstWins) {
  // a → payload does not hold: the split keeps each a's first row.
  Database db = MakeDb();
  FunctionalDependency fd("Sales", AttributeSet{"a"},
                          AttributeSet{"payload"});
  ExpectMatchesReference(db, {fd}, {});
  DefaultOracle oracle;
  auto result = Restruct(db, {fd}, {}, {}, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  const Table& split = **result->database.GetTable("Sales_a");
  ASSERT_EQ(split.num_rows(), 3u);
  // Rows sort by a; i = 3, 1, 2 are the first witnesses of a = 0, 1, 2.
  EXPECT_EQ(Rows(split)[0], (ValueVector{Value::Int(0), Value::Text("p1")}));
  EXPECT_EQ(Rows(split)[1], (ValueVector{Value::Int(1), Value::Text("p11")}));
  EXPECT_EQ(Rows(split)[2], (ValueVector{Value::Int(2), Value::Text("p20")}));
}

TEST(RestructCrosscheckTest, NullLhsRowsAreSkipped) {
  Database db = MakeMixedDb();
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"cust"}, {"city", "note"})}, {});
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"vip"}, {"rate"})}, {});
}

TEST(RestructCrosscheckTest, MultiAttributeLhsAndHiddenObjects) {
  Database db = MakeMixedDb();
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"city", "vip"}, {"note"})}, {});
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"cust", "rate", "vip"}, {"city"})},
      {});
  ExpectMatchesReference(
      db, {},
      {QualifiedAttributes{"Orders", AttributeSet{"city"}},
       QualifiedAttributes{"Orders", AttributeSet{"cust", "rate"}},
       QualifiedAttributes{"Orders", AttributeSet{"vip", "note"}}});
  ExpectMatchesReference(
      MakeDb(), {FunctionalDependency("Sales", {"a", "b"}, {"payload"})},
      {QualifiedAttributes{"Sales", AttributeSet{"a", "b"}}},
      {InclusionDependency("Sales", {"a"}, "Sales", {"b"})});
}

TEST(RestructCrosscheckTest, TwoFdsOnOneRelationDropTogether) {
  Database db = MakeMixedDb();
  ExpectMatchesReference(db,
                         {FunctionalDependency("Orders", {"cust"}, {"city"}),
                          FunctionalDependency("Orders", {"rate"}, {"vip"})},
                         {QualifiedAttributes{"Orders", AttributeSet{"note"}}});
  // The second FD reads attributes the first one moved: same refusal.
  ExpectMatchesReference(db,
                         {FunctionalDependency("Orders", {"cust"}, {"city"}),
                          FunctionalDependency("Orders", {"city"}, {"note"})},
                         {});
  DefaultOracle oracle;
  auto result = Restruct(
      db,
      {FunctionalDependency("Orders", {"cust"}, {"city"}),
       FunctionalDependency("Orders", {"rate"}, {"vip"})},
      {}, {}, &oracle);
  ASSERT_TRUE(result.ok()) << result.status();
  const Table& orders = **result->database.GetTable("Orders");
  EXPECT_EQ(orders.schema().AttributeNames(),
            (AttributeSet{"id", "cust", "rate", "note"}));
  EXPECT_EQ(orders.num_rows(), 400u);
  EXPECT_EQ(Rows(orders)[0].size(), 4u);
}

TEST(RestructCrosscheckTest, MistypedCellsSortLikeValues) {
  // A cell whose tag disagrees with the declared type never reaches an
  // extension — Insert refuses it, so every dictionary is typed — and
  // ranks come from Value order on both sides.
  Database db = MakeMixedDb();
  Table* orders = *db.GetMutableTable("Orders");
  EXPECT_FALSE(orders->Insert({Value::Int(401), Value::Text("x"),
                               Value::Text("c1"), Value::Real(0.0),
                               Value::Boolean(true), Value::Text("n1")})
                   .ok());
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"cust"}, {"city"})},
      {QualifiedAttributes{"Orders", AttributeSet{"cust"}}});
}

TEST(RestructCrosscheckTest, InPlaceUpdateOfWarmKey) {
  // Warm the cache, then update early rows' key to a new value: Restruct
  // reads the partition of the cache the delta path rebuilt.
  Database db = MakeMixedDb();
  Table* orders = *db.GetMutableTable("Orders");
  DefaultOracle oracle;
  ASSERT_TRUE(
      Restruct(db, {FunctionalDependency("Orders", {"cust"}, {"city"})}, {},
               {}, &oracle)
          .ok());
  auto updated = orders->UpdateRows(
      {1}, {Value::Int(1000)},
      [](const EncodedTable::RowView& row) { return row[0].as_int() <= 5; });
  ASSERT_TRUE(updated.ok()) << updated.status();
  ASSERT_EQ(*updated, 5u);
  ExpectMatchesReference(
      db, {FunctionalDependency("Orders", {"cust"}, {"city", "note"})},
      {QualifiedAttributes{"Orders", AttributeSet{"cust"}}});
}

TEST(RestructCrosscheckTest, PipelineFdsAndHiddenObjectsMatch) {
  for (uint64_t seed : {3u, 11u, 29u}) {
    workload::SyntheticSpec spec;
    spec.num_entities = 4;
    spec.num_merged = 2;
    spec.rows_per_entity = 300;
    spec.seed = seed;
    auto generated = workload::GenerateSynthetic(spec);
    ASSERT_TRUE(generated.ok()) << generated.status();
    ThresholdOracle::Options options;
    options.accept_hidden_objects = true;
    ThresholdOracle oracle(options);
    PipelineOptions pipeline;
    pipeline.run_restruct = false;
    auto report =
        RunPipeline(generated->database, generated->queries, &oracle, pipeline);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_FALSE(report->rhs.fds.empty()) << "seed " << seed;
    ExpectMatchesReference(report->working_database, report->rhs.fds,
                           report->rhs.hidden, report->ind.inds);
  }
}

TEST(TranslateEdgeTest, NamesWithoutAttributes) {
  Database db = MakeDb();
  DefaultOracle oracle;
  FunctionalDependency fd("Sales", AttributeSet{"a"},
                          AttributeSet{"payload"});
  auto restructured = Restruct(db, {fd}, {}, {}, &oracle);
  ASSERT_TRUE(restructured.ok());
  TranslateOptions options;
  options.include_attributes_in_names = false;
  auto eer = Translate(*restructured, options);
  ASSERT_TRUE(eer.ok());
  ASSERT_EQ(eer->relationships().size(), 1u);
  EXPECT_EQ(eer->relationships()[0].name, "Sales");
}

TEST(TranslateEdgeTest, EmptyRestructGivesEntitiesOnly) {
  Database db = MakeDb();
  RestructResult restructured;
  restructured.database = db.Clone();
  auto eer = Translate(restructured);
  ASSERT_TRUE(eer.ok());
  EXPECT_EQ(eer->entities().size(), 1u);
  EXPECT_TRUE(eer->relationships().empty());
  EXPECT_TRUE(eer->isa_links().empty());
}

}  // namespace
}  // namespace dbre
