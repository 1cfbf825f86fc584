#include "relational/extension_registry.h"

#include <string>

#include <gtest/gtest.h>

#include "relational/query_cache.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

Table MakeTable(const std::string& name, int first_id, int rows) {
  RelationSchema schema(name);
  EXPECT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  EXPECT_TRUE(schema.AddAttribute("label", DataType::kString).ok());
  Table table(schema);
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(table
                    .Insert({Value::Int(first_id + i),
                             Value::Text("row-" + std::to_string(i))})
                    .ok());
  }
  return table;
}

TEST(ExtensionRegistryTest, IdenticalContentIsShared) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 50);
  EXPECT_FALSE(registry.Intern(&first));  // miss: becomes canonical

  Table second = MakeTable("R", 1, 50);
  ASSERT_NE(Storage(second), Storage(first));
  EXPECT_TRUE(registry.Intern(&second));  // hit: adopts the storage
  EXPECT_EQ(Storage(second), Storage(first));

  ExtensionRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ExtensionRegistryTest, DifferentContentIsNotShared) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 50);
  Table shifted = MakeTable("R", 2, 50);   // same size, different values
  Table shorter = MakeTable("R", 1, 49);   // prefix of first
  EXPECT_FALSE(registry.Intern(&first));
  EXPECT_FALSE(registry.Intern(&shifted));
  EXPECT_FALSE(registry.Intern(&shorter));
  EXPECT_NE(Storage(first), Storage(shifted));
  EXPECT_NE(Storage(first), Storage(shorter));
  EXPECT_EQ(registry.stats().entries, 3u);
}

TEST(ExtensionRegistryTest, SchemaDifferencesPreventSharing) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 10);
  EXPECT_FALSE(registry.Intern(&first));

  // Same rows, different attribute name: must not adopt.
  RelationSchema schema("R");
  ASSERT_TRUE(schema.AddAttribute("id", DataType::kInt64).ok());
  ASSERT_TRUE(schema.AddAttribute("tag", DataType::kString).ok());
  Table renamed(schema);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(renamed.Insert(
        {Value::Int(1 + i), Value::Text("row-" + std::to_string(i))}).ok());
  }
  registry.Intern(&renamed);
  EXPECT_NE(Storage(renamed), Storage(first));
}

TEST(ExtensionRegistryTest, AdoptedTablesShareTheQueryCache) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 50);
  registry.Intern(&first);

  Table second = MakeTable("R", 1, 50);
  registry.Intern(&second);
  // Partitions memoized through either table serve both: the cache object
  // is the same.
  auto first_cache = first.query_cache();
  auto second_cache = second.query_cache();
  ASSERT_TRUE(first_cache.ok());
  ASSERT_TRUE(second_cache.ok());
  EXPECT_EQ(first_cache->get(), second_cache->get());
  EXPECT_NE(first_cache->get(), nullptr);
}

TEST(ExtensionRegistryTest, InternDatabaseCountsHits) {
  ExtensionRegistry registry;
  auto build = [] {
    Database db;
    EXPECT_TRUE(db.AddTable(MakeTable("R", 1, 20)).ok());
    EXPECT_TRUE(db.AddTable(MakeTable("S", 100, 20)).ok());
    return db;
  };
  Database first = build();
  EXPECT_EQ(registry.InternDatabase(&first), 0u);
  Database second = build();
  EXPECT_EQ(registry.InternDatabase(&second), 2u);
}

TEST(ExtensionRegistryTest, FifoEvictionBoundsEntries) {
  ExtensionRegistry registry(/*max_entries=*/2);
  Table a = MakeTable("R", 1, 5);
  Table b = MakeTable("R", 100, 5);
  Table c = MakeTable("R", 200, 5);
  registry.Intern(&a);
  registry.Intern(&b);
  registry.Intern(&c);  // evicts a's entry
  ExtensionRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);

  // a's content is gone from the registry: a fresh identical load is a
  // miss (and re-interns).
  Table a2 = MakeTable("R", 1, 5);
  EXPECT_FALSE(registry.Intern(&a2));
  // But the evicted table itself still works — eviction only dropped the
  // registry's reference.
  EXPECT_EQ(a.num_rows(), 5u);

  registry.Clear();
  EXPECT_EQ(registry.stats().entries, 0u);
}

TEST(ExtensionRegistryTest, FingerprintCollisionsDoNotShareStorage) {
  // InternPrecomputed doubles as the forced-collision hook: register two
  // tables with different content under the SAME fingerprint. The byte
  // equality check inside AdoptSharedExtension must refuse the share and
  // keep both extensions intact.
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 30);
  Table impostor = MakeTable("R", 500, 30);  // same shape, other values
  constexpr uint64_t kColliding = 0xDEADBEEFCAFEF00Dull;
  EXPECT_FALSE(registry.InternPrecomputed(&first, kColliding));
  EXPECT_FALSE(registry.InternPrecomputed(&impostor, kColliding));
  EXPECT_NE(Storage(impostor), Storage(first));
  EXPECT_EQ(Rows(impostor)[0][0], Value::Int(500));
  EXPECT_EQ(Rows(first)[0][0], Value::Int(1));

  // Both colliding tables stay reachable in the bucket: a genuine twin of
  // either one still gets shared storage.
  Table twin = MakeTable("R", 500, 30);
  EXPECT_TRUE(registry.InternPrecomputed(&twin, kColliding));
  EXPECT_EQ(Storage(twin), Storage(impostor));
}

TEST(ExtensionRegistryTest, ComputeFingerprintTracksContent) {
  Table a = MakeTable("R", 1, 25);
  Table a_again = MakeTable("R", 1, 25);
  Table b = MakeTable("R", 2, 25);
  EXPECT_EQ(ExtensionRegistry::ComputeFingerprint(a),
            ExtensionRegistry::ComputeFingerprint(a_again));
  EXPECT_NE(ExtensionRegistry::ComputeFingerprint(a),
            ExtensionRegistry::ComputeFingerprint(b));
}

TEST(ExtensionRegistryTest, SweepReleasesUnreferencedEntries) {
  ExtensionRegistry registry;
  {
    Table donor = MakeTable("R", 1, 40);
    EXPECT_FALSE(registry.Intern(&donor));
    // The donor is still alive and shares the canonical cache: nothing to
    // release yet.
    EXPECT_EQ(registry.Sweep(), 0u);
    EXPECT_EQ(registry.stats().entries, 1u);
    EXPECT_GT(registry.stats().resident_bytes, 0u);
  }
  // The last referencing table is gone; the sweep returns the memory.
  EXPECT_EQ(registry.Sweep(), 1u);
  ExtensionRegistry::Stats stats = registry.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.resident_bytes, 0u);

  // The released content re-interns as a fresh miss.
  Table again = MakeTable("R", 1, 40);
  EXPECT_FALSE(registry.Intern(&again));
  EXPECT_EQ(registry.stats().entries, 1u);
}

TEST(ExtensionRegistryTest, SweepKeepsEntriesReferencedByAdopters) {
  ExtensionRegistry registry;
  Table adopter = MakeTable("R", 1, 40);
  {
    Table donor = MakeTable("R", 1, 40);
    registry.Intern(&donor);
    registry.Intern(&adopter);  // shares the donor's storage
  }
  // The donor died, but the adopter still references the canonical cache.
  EXPECT_EQ(registry.Sweep(), 0u);
  EXPECT_EQ(registry.stats().entries, 1u);

  // A third identical load still hits.
  Table third = MakeTable("R", 1, 40);
  EXPECT_TRUE(registry.Intern(&third));
}

TEST(ExtensionRegistryTest, EmptyTablesIntern) {
  ExtensionRegistry registry;
  Table first = MakeTable("R", 1, 0);
  Table second = MakeTable("R", 1, 0);
  EXPECT_FALSE(registry.Intern(&first));
  EXPECT_TRUE(registry.Intern(&second));
}

}  // namespace
}  // namespace dbre
