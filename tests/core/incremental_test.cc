// The tentpole invariant of live mutations (docs/INCREMENTAL.md): after
// ANY mutation sequence, re-running the pipeline over the mutated catalog
// (warm caches, incremental delta rebuilds) yields a report BYTE-IDENTICAL
// to a cold run over a freshly-built database holding the same final rows.
// Covered sequences: insert-only, update-only, delete-only, mixed scripts,
// heavily skewed values and NULL-heavy columns. The mutation scripts are derived from the generated schema so the
// suite keeps covering whatever the synthetic workload produces.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle.h"
#include "core/pipeline.h"
#include "core/presumption_diff.h"
#include "core/report_json.h"
#include "relational/database.h"
#include "sql/dml.h"
#include "workload/generator.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

workload::SyntheticDatabase MakeWorkload(uint64_t seed) {
  workload::SyntheticSpec spec;
  spec.num_entities = 4;
  spec.num_merged = 1;
  spec.rows_per_entity = 300;
  spec.seed = seed;
  auto generated = workload::GenerateSynthetic(spec);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();
  return std::move(*generated);
}

std::string RunReport(const Database& database,
                      const std::vector<EquiJoin>& queries) {
  ThresholdOracle::Options oracle_options;
  oracle_options.accept_hidden_objects = true;
  ThresholdOracle oracle(oracle_options);
  auto report = RunPipeline(database, queries, &oracle);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return "";
  JsonOptions options;
  options.include_timings = false;
  return ReportToJson(*report, options);
}

// Rebuilds `database` cold: fresh tables, same schemas, same rows, no
// caches, no delta bookkeeping — the incremental run's reference.
Database ColdRebuild(const Database& database) {
  Database cold;
  for (const std::string& name : database.RelationNames()) {
    auto table = database.GetTable(name);
    EXPECT_TRUE(table.ok());
    Table fresh((*table)->schema());
    Status streamed = (*table)->ForEachRow([&](const ValueVector& row) {
      ValueVector copy = row;
      EXPECT_TRUE(fresh.Insert(std::move(copy)).ok());
    });
    EXPECT_TRUE(streamed.ok()) << streamed.ToString();
    EXPECT_TRUE(cold.AddTable(std::move(fresh)).ok());
  }
  return cold;
}

// --- Schema-introspected script builders --------------------------------

// Index of the first attribute of `type` (preferring nullable when asked),
// or SIZE_MAX.
size_t FindColumn(const RelationSchema& schema, DataType type,
                  bool require_nullable) {
  for (size_t i = 0; i < schema.arity(); ++i) {
    const Attribute& attribute = schema.attributes()[i];
    if (attribute.type != type) continue;
    if (require_nullable && attribute.not_null) continue;
    return i;
  }
  return SIZE_MAX;
}

// INSERT of `count` synthesized full-arity rows into `name` with fresh
// large ints / fresh strings (values no existing row holds).
std::string InsertScript(const Database& database, const std::string& name,
                         int count, int salt) {
  const RelationSchema& schema = (*database.GetTable(name))->schema();
  std::string script = "INSERT INTO " + name + " VALUES ";
  for (int r = 0; r < count; ++r) {
    script += r == 0 ? "(" : ", (";
    for (size_t c = 0; c < schema.arity(); ++c) {
      if (c > 0) script += ", ";
      switch (schema.attributes()[c].type) {
        case DataType::kInt64:
          script += std::to_string(1'000'000 + salt * 1000 + r);
          break;
        case DataType::kString:
          script += "'fresh-" + std::to_string(salt) + "-" +
                    std::to_string(r) + "'";
          break;
        default:
          script += schema.attributes()[c].not_null ? "0" : "NULL";
          break;
      }
    }
    script += ")";
  }
  return script + ";";
}

// The median value of integer column `column` — predicates built on it hit
// roughly half the extension.
int64_t MedianInt(const Table& table, size_t column) {
  std::vector<int64_t> values;
  for (const ValueVector& row : Rows(table)) {
    if (row[column].is_int()) values.push_back(row[column].as_int());
  }
  if (values.empty()) return 0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

// Warm every table's cache (as a finished service run leaves it), apply
// the scripts, then assert incremental == cold, byte for byte.
void ExpectIncrementalMatchesCold(const workload::SyntheticDatabase& generated,
                                  const std::vector<std::string>& scripts) {
  Database database = generated.database.Clone();

  // First run + explicit cache warm: builds the memos the incremental
  // rerun will delta-extend.
  const std::string before = RunReport(database, generated.queries);
  ASSERT_FALSE(before.empty());
  for (const std::string& name : database.RelationNames()) {
    auto table = database.GetMutableTable(name);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->query_cache().ok());
  }

  for (const std::string& script : scripts) {
    auto stats = sql::ExecuteDmlScript(script, &database);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString() << "\n" << script;
  }

  const std::string incremental = RunReport(database, generated.queries);
  ASSERT_FALSE(incremental.empty());
  const std::string cold = RunReport(ColdRebuild(database), generated.queries);
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(incremental, cold);
}

TEST(IncrementalTest, InsertOnlySequence) {
  workload::SyntheticDatabase generated = MakeWorkload(11);
  std::vector<std::string> scripts;
  int salt = 0;
  for (const std::string& name : generated.database.RelationNames()) {
    scripts.push_back(InsertScript(generated.database, name, 5, ++salt));
  }
  ExpectIncrementalMatchesCold(generated, scripts);
}

TEST(IncrementalTest, UpdateOnlySequence) {
  workload::SyntheticDatabase generated = MakeWorkload(12);
  std::vector<std::string> scripts;
  for (const std::string& name : generated.database.RelationNames()) {
    const Table& table = **generated.database.GetTable(name);
    size_t text = FindColumn(table.schema(), DataType::kString, false);
    size_t id = FindColumn(table.schema(), DataType::kInt64, false);
    if (text == SIZE_MAX || id == SIZE_MAX) continue;
    scripts.push_back("UPDATE " + name + " SET " +
                      table.schema().attributes()[text].name +
                      " = 'rewritten' WHERE " +
                      table.schema().attributes()[id].name + " < " +
                      std::to_string(MedianInt(table, id)) + ";");
  }
  ASSERT_FALSE(scripts.empty());
  ExpectIncrementalMatchesCold(generated, scripts);
}

TEST(IncrementalTest, DeleteOnlySequence) {
  workload::SyntheticDatabase generated = MakeWorkload(13);
  std::vector<std::string> scripts;
  for (const std::string& name : generated.database.RelationNames()) {
    const Table& table = **generated.database.GetTable(name);
    size_t id = FindColumn(table.schema(), DataType::kInt64, false);
    if (id == SIZE_MAX) continue;
    scripts.push_back("DELETE FROM " + name + " WHERE " +
                      table.schema().attributes()[id].name + " > " +
                      std::to_string(MedianInt(table, id)) + ";");
  }
  ASSERT_FALSE(scripts.empty());
  ExpectIncrementalMatchesCold(generated, scripts);
}

// Inserts referencing nothing, updates rewriting foreign keys, deletes
// shrinking the referenced side: breaks INDs and FDs the first run
// presumed, so the rerun genuinely re-validates.
TEST(IncrementalTest, MixedDependencyBreakingSequence) {
  workload::SyntheticDatabase generated = MakeWorkload(14);
  std::vector<std::string> scripts;
  const std::vector<std::string> names =
      generated.database.RelationNames();
  ASSERT_GE(names.size(), 2u);
  scripts.push_back(InsertScript(generated.database, names[0], 3, 77));
  const Table& second = **generated.database.GetTable(names[1]);
  size_t id = FindColumn(second.schema(), DataType::kInt64, false);
  ASSERT_NE(id, SIZE_MAX);
  const std::string& id_name = second.schema().attributes()[id].name;
  scripts.push_back("UPDATE " + names[1] + " SET " + id_name +
                    " = 424242 WHERE " + id_name + " < " +
                    std::to_string(MedianInt(second, id)) + ";");
  scripts.push_back("DELETE FROM " + names[1] + " WHERE " + id_name +
                    " = 424242;");
  ExpectIncrementalMatchesCold(generated, scripts);
}

TEST(IncrementalTest, SkewedValues) {
  workload::SyntheticDatabase generated = MakeWorkload(15);
  const std::string name = generated.database.RelationNames().front();
  const Table& table = **generated.database.GetTable(name);
  size_t id = FindColumn(table.schema(), DataType::kInt64, false);
  ASSERT_NE(id, SIZE_MAX);
  const std::string& id_name = table.schema().attributes()[id].name;
  // Pile most of the column onto a single value: partitions get one giant
  // class and the dictionary collapses.
  std::vector<std::string> scripts = {
      "UPDATE " + name + " SET " + id_name + " = 7 WHERE " + id_name +
          " > " + std::to_string(MedianInt(table, id)) + ";",
      InsertScript(generated.database, name, 10, 99)};
  ExpectIncrementalMatchesCold(generated, scripts);
}

TEST(IncrementalTest, NullHeavySequence) {
  workload::SyntheticDatabase generated = MakeWorkload(16);
  std::vector<std::string> scripts;
  for (const std::string& name : generated.database.RelationNames()) {
    const Table& table = **generated.database.GetTable(name);
    size_t nullable_text = FindColumn(table.schema(), DataType::kString, true);
    size_t nullable_int = FindColumn(table.schema(), DataType::kInt64, true);
    size_t id = FindColumn(table.schema(), DataType::kInt64, false);
    if (id == SIZE_MAX) continue;
    const std::string& id_name = table.schema().attributes()[id].name;
    if (nullable_text != SIZE_MAX) {
      scripts.push_back("UPDATE " + name + " SET " +
                        table.schema().attributes()[nullable_text].name +
                        " = NULL WHERE " + id_name + " < " +
                        std::to_string(MedianInt(table, id)) + ";");
    }
    if (nullable_int != SIZE_MAX && nullable_int != id) {
      scripts.push_back("UPDATE " + name + " SET " +
                        table.schema().attributes()[nullable_int].name +
                        " = NULL WHERE " + id_name + " >= " +
                        std::to_string(MedianInt(table, id)) + ";");
    }
  }
  ASSERT_FALSE(scripts.empty());
  ExpectIncrementalMatchesCold(generated, scripts);
}

// An insert-then-delete script, once per InsertScript variant.
TEST(IncrementalTest, SketchGateDoesNotChangeMutatedAnswers) {
  for (int variant : {2, 1}) {
    workload::SyntheticDatabase generated = MakeWorkload(17);
    const std::string name = generated.database.RelationNames().front();
    const Table& table = **generated.database.GetTable(name);
    size_t id = FindColumn(table.schema(), DataType::kInt64, false);
    ASSERT_NE(id, SIZE_MAX);
    ExpectIncrementalMatchesCold(
        generated,
        {InsertScript(generated.database, name, 4, variant),
         "DELETE FROM " + name + " WHERE " +
             table.schema().attributes()[id].name + " > " +
             std::to_string(MedianInt(table, id)) + ";"});
  }
}

// Presumption extraction + diff (the watch stream's payload): canonical
// ordering, exact added/removed sets, readable summary.
TEST(IncrementalTest, PresumptionDiffIsExact) {
  PresumptionSet before;
  before.inds = {"P[owner] << E[id]", "Q[ref] << E[id]"};
  before.fds = {"E: {dept} -> {dept_name}"};
  before.lhs = {"E{id}"};

  PresumptionSet after;
  after.inds = {"Q[ref] << E[id]", "R[x] << E[id]"};
  after.fds = {};
  after.lhs = {"E{id}", "P{owner}"};

  EXPECT_TRUE(DiffPresumptions(before, before).empty());

  PresumptionDiff diff = DiffPresumptions(before, after);
  EXPECT_FALSE(diff.empty());
  EXPECT_EQ(diff.inds.added, (std::vector<std::string>{"R[x] << E[id]"}));
  EXPECT_EQ(diff.inds.removed,
            (std::vector<std::string>{"P[owner] << E[id]"}));
  EXPECT_EQ(diff.fds.removed,
            (std::vector<std::string>{"E: {dept} -> {dept_name}"}));
  EXPECT_TRUE(diff.fds.added.empty());
  EXPECT_EQ(diff.lhs.added, (std::vector<std::string>{"P{owner}"}));
  const std::string summary = diff.Summary();
  EXPECT_NE(summary.find("+ R[x] << E[id]"), std::string::npos);
  EXPECT_NE(summary.find("- E: {dept} -> {dept_name}"), std::string::npos);
}

// ExtractPresumptions pulls every category out of a real report, sorted.
TEST(IncrementalTest, ExtractPresumptionsIsCanonical) {
  workload::SyntheticDatabase generated = MakeWorkload(18);
  ThresholdOracle::Options oracle_options;
  oracle_options.accept_hidden_objects = true;
  ThresholdOracle oracle(oracle_options);
  auto report = RunPipeline(generated.database, generated.queries, &oracle);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  PresumptionSet set = ExtractPresumptions(*report);
  EXPECT_FALSE(set.inds.empty());
  EXPECT_TRUE(std::is_sorted(set.inds.begin(), set.inds.end()));
  EXPECT_TRUE(std::is_sorted(set.fds.begin(), set.fds.end()));
  EXPECT_TRUE(std::is_sorted(set.lhs.begin(), set.lhs.end()));
  // Deterministic: extracting twice from reruns gives the same set.
  auto again = RunPipeline(generated.database, generated.queries, &oracle);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(set, ExtractPresumptions(*again));
}

}  // namespace
}  // namespace dbre
