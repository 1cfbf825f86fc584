#include "sql/ddl_writer.h"

#include <gtest/gtest.h>

#include "sql/ddl.h"
#include "workload/paper_example.h"
#include "support/table_rows.h"

namespace dbre::sql {
namespace {

Database MakeDatabase() {
  Database db;
  auto stats = ExecuteDdlScript(R"(
CREATE TABLE T (
  id INT NOT NULL,
  label TEXT,
  ratio FLOAT,
  flag BOOLEAN,
  PRIMARY KEY (id),
  UNIQUE (label)
);
INSERT INTO T VALUES (1, 'it''s', 0.5, TRUE), (2, 'two', NULL, FALSE);
)",
                                &db);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return db;
}

TEST(DdlWriterTest, CreateTableMentionsEverything) {
  Database db = MakeDatabase();
  std::string ddl = WriteCreateTable((**db.GetTable("T")).schema());
  EXPECT_NE(ddl.find("CREATE TABLE T ("), std::string::npos);
  EXPECT_NE(ddl.find("id INT NOT NULL"), std::string::npos);
  EXPECT_NE(ddl.find("label TEXT"), std::string::npos);
  EXPECT_NE(ddl.find("ratio FLOAT"), std::string::npos);
  EXPECT_NE(ddl.find("flag BOOLEAN"), std::string::npos);
  EXPECT_NE(ddl.find("PRIMARY KEY (id)"), std::string::npos);
  EXPECT_NE(ddl.find("UNIQUE (label)"), std::string::npos);
}

TEST(DdlWriterTest, SchemaRoundTrips) {
  Database db = MakeDatabase();
  std::string ddl = WriteDdl(db);
  Database reloaded;
  auto stats = ExecuteDdlScript(ddl, &reloaded);
  ASSERT_TRUE(stats.ok()) << stats.status() << "\n" << ddl;
  const RelationSchema& original = (**db.GetTable("T")).schema();
  const RelationSchema& round = (**reloaded.GetTable("T")).schema();
  ASSERT_EQ(round.arity(), original.arity());
  for (size_t i = 0; i < original.arity(); ++i) {
    EXPECT_EQ(round.attributes()[i].name, original.attributes()[i].name);
    EXPECT_EQ(round.attributes()[i].type, original.attributes()[i].type);
  }
  EXPECT_EQ(round.unique_constraints(), original.unique_constraints());
  EXPECT_EQ(round.NotNullAttributes(), original.NotNullAttributes());
}

TEST(DdlWriterTest, DataRoundTrips) {
  Database db = MakeDatabase();
  DdlWriterOptions options;
  options.include_inserts = true;
  std::string ddl = WriteDdl(db, options);
  Database reloaded;
  auto stats = ExecuteDdlScript(ddl, &reloaded);
  ASSERT_TRUE(stats.ok()) << stats.status() << "\n" << ddl;
  const Table& original = **db.GetTable("T");
  const Table& round = **reloaded.GetTable("T");
  ASSERT_EQ(round.num_rows(), original.num_rows());
  for (size_t i = 0; i < original.num_rows(); ++i) {
    EXPECT_EQ(Rows(round)[i], Rows(original)[i]) << "row " << i;
  }
}

TEST(DdlWriterTest, InsertBatching) {
  Database db;
  RelationSchema schema("N");
  ASSERT_TRUE(schema.AddAttribute("v", DataType::kInt64).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
  Table* table = *db.GetMutableTable("N");
  for (int64_t i = 0; i < 7; ++i) {
    ASSERT_TRUE(table->Insert({Value::Int(i)}).ok());
  }
  std::string inserts = WriteInserts(*table, /*batch_size=*/3);
  // 7 rows in batches of 3 → 3 INSERT statements.
  size_t count = 0;
  for (size_t pos = 0;
       (pos = inserts.find("INSERT INTO N", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

TEST(DdlWriterTest, EmptyTableYieldsNoInserts) {
  Database db;
  RelationSchema schema("E");
  ASSERT_TRUE(schema.AddAttribute("v", DataType::kInt64).ok());
  ASSERT_TRUE(db.CreateRelation(std::move(schema)).ok());
  EXPECT_TRUE(WriteInserts(**db.GetTable("E")).empty());
}

// The paper's whole database (hyphenated identifiers, doubles, NULLs,
// 2400-row tables) survives a full DDL+INSERT round trip.
TEST(DdlWriterTest, PaperDatabaseRoundTrips) {
  auto db = workload::BuildPaperDatabase();
  ASSERT_TRUE(db.ok());
  DdlWriterOptions options;
  options.include_inserts = true;
  options.insert_batch_size = 500;
  std::string ddl = WriteDdl(*db, options);
  Database reloaded;
  auto stats = ExecuteDdlScript(ddl, &reloaded);
  ASSERT_TRUE(stats.ok()) << stats.status();
  for (const std::string& relation : db->RelationNames()) {
    const Table& original = **db->GetTable(relation);
    const Table& round = **reloaded.GetTable(relation);
    ASSERT_EQ(round.num_rows(), original.num_rows()) << relation;
    EXPECT_EQ(Rows(round), Rows(original)) << relation;
  }
  EXPECT_TRUE(reloaded.VerifyDeclaredConstraints().ok());
}

}  // namespace
}  // namespace dbre::sql
