// The sketches may only ever be wrong in the direction the discovery
// pipeline tolerates: a Bloom filter must never report an inserted key
// absent (a miss is treated as a proof), and a HyperLogLog estimate must
// stay inside a few standard errors of the truth (it is advisory, but the
// pruning heuristics assume it is roughly right). Both properties are
// exercised under seeded randomized inputs. The gate tests then prove the
// sketch pre-passes never change a discovery answer: every algebra and
// miner result is byte-identical with sketches on and off.
#include "relational/sketch.h"

#include <cmath>
#include <random>
#include <set>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/ind_discovery.h"
#include "core/oracle.h"
#include "deps/ind_miner.h"
#include "relational/algebra.h"
#include "relational/database.h"
#include "relational/query_cache.h"
#include "relational/table.h"
#include "support/table_rows.h"

namespace dbre {
namespace {

TEST(SketchHashTest, EqualValuesHashEqualAcrossConstruction) {
  EXPECT_EQ(SketchHash(Value::Int(42)), SketchHash(Value::Int(42)));
  EXPECT_EQ(SketchHash(Value::Text("abc")), SketchHash(Value::Text("abc")));
  EXPECT_NE(SketchHash(Value::Int(1)), SketchHash(Value::Int(2)));
  // The combiner is order-sensitive (attribute lists are ordered).
  uint64_t a = SketchHash(Value::Int(1)), b = SketchHash(Value::Int(2));
  EXPECT_NE(SketchHashCombine(SketchHashCombine(kRowHashSeed, a), b),
            SketchHashCombine(SketchHashCombine(kRowHashSeed, b), a));
}

TEST(BloomFilterTest, NoFalseNegativesUnderRandomizedInserts) {
  std::mt19937_64 rng(20260809);
  for (size_t n : {1u, 17u, 1000u, 20000u}) {
    BloomFilter bloom(n);
    std::vector<uint64_t> inserted;
    inserted.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      inserted.push_back(MixHash64(rng()));
      bloom.AddHash(inserted.back());
    }
    // Zero false negatives: every inserted key must report present.
    for (uint64_t hash : inserted) {
      ASSERT_TRUE(bloom.MayContain(hash));
    }
  }
}

TEST(BloomFilterTest, FalsePositiveRateIsBounded) {
  std::mt19937_64 rng(7);
  const size_t n = 50000;
  BloomFilter bloom(n);
  std::unordered_set<uint64_t> member;
  while (member.size() < n) member.insert(MixHash64(rng()));
  for (uint64_t hash : member) bloom.AddHash(hash);
  size_t false_positives = 0, probes = 0;
  while (probes < 100000) {
    uint64_t hash = MixHash64(rng());
    if (member.contains(hash)) continue;
    ++probes;
    if (bloom.MayContain(hash)) ++false_positives;
  }
  // Blocked filters trade a little precision for locality; ~1% nominal,
  // assert a generous 5% ceiling so the test is not flaky by design.
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.05)
      << false_positives << "/" << probes;
}

TEST(BloomFilterTest, EmptyFilterRejectsEverything) {
  BloomFilter bloom(0);
  std::mt19937_64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(bloom.MayContain(MixHash64(rng())));
  }
}

TEST(HyperLogLogTest, EstimateWithinErrorBounds) {
  // 1.04/sqrt(2^12) ≈ 1.6% relative standard error; allow 5 sigma plus a
  // small absolute slack for the tiny cardinalities.
  const double sigma = HyperLogLog::StandardError(12);
  EXPECT_NEAR(sigma, 1.04 / std::sqrt(4096.0), 1e-9);
  std::mt19937_64 rng(99);
  for (size_t n : {0u, 1u, 10u, 500u, 5000u, 200000u}) {
    HyperLogLog hll(12);
    std::unordered_set<uint64_t> distinct;
    while (distinct.size() < n) distinct.insert(MixHash64(rng()));
    for (uint64_t hash : distinct) {
      hll.AddHash(hash);
      hll.AddHash(hash);  // duplicates must not inflate the estimate
    }
    const double estimate = hll.Estimate();
    const double tolerance = 5.0 * sigma * static_cast<double>(n) + 3.0;
    EXPECT_NEAR(estimate, static_cast<double>(n), tolerance) << "n=" << n;
  }
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  std::mt19937_64 rng(123);
  HyperLogLog a(12), b(12), both(12);
  for (int i = 0; i < 3000; ++i) {
    uint64_t ha = MixHash64(rng()), hb = MixHash64(rng());
    a.AddHash(ha);
    both.AddHash(ha);
    b.AddHash(hb);
    both.AddHash(hb);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), both.Estimate());
}

TEST(HyperLogLogTest, PrecisionIsClamped) {
  EXPECT_EQ(HyperLogLog(1).num_registers(), 1u << 4);
  EXPECT_EQ(HyperLogLog(30).num_registers(), 1u << 18);
  EXPECT_EQ(HyperLogLog(12).num_registers(), 1u << 12);
}

TEST(ScopedSketchGateTest, RestoresPreviousState) {
  ASSERT_TRUE(SketchesEnabled());
  {
    ScopedSketchGate off(false);
    EXPECT_FALSE(SketchesEnabled());
    {
      ScopedSketchGate on(true);
      EXPECT_TRUE(SketchesEnabled());
    }
    EXPECT_FALSE(SketchesEnabled());
  }
  EXPECT_TRUE(SketchesEnabled());
}

// --- Gate crosschecks: sketches must never change a discovery answer. ---

Database MakeAdversarialDatabase(uint64_t seed, size_t rows) {
  // Emp(no, dep, grade): dep references Dept.dep except for a few strays;
  // grade is NULL-heavy. Dept(dep, name) with a composite-ish spread.
  std::mt19937_64 rng(seed);
  Database db;
  {
    RelationSchema schema("Dept");
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("name", DataType::kString).ok());
    Table table(std::move(schema));
    for (int d = 0; d < 40; ++d) {
      EXPECT_TRUE(table.Insert(
          {Value::Int(d), Value::Text("d" + std::to_string(d % 7))}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  {
    RelationSchema schema("Emp");
    EXPECT_TRUE(schema.AddAttribute("no", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("dep", DataType::kInt64).ok());
    EXPECT_TRUE(schema.AddAttribute("grade", DataType::kInt64).ok());
    Table table(std::move(schema));
    for (size_t i = 0; i < rows; ++i) {
      int64_t dep = static_cast<int64_t>(rng() % 44);  // 40..43 are strays
      Value grade = rng() % 3 == 0 ? Value::Null()
                                   : Value::Int(static_cast<int64_t>(rng() % 5));
      EXPECT_TRUE(table.Insert(
          {Value::Int(static_cast<int64_t>(i)), Value::Int(dep), grade}).ok());
    }
    EXPECT_TRUE(db.AddTable(std::move(table)).ok());
  }
  return db;
}

TEST(QueryCacheSketchTest, EstimateDistinctTracksExactCounts) {
  Database db = MakeAdversarialDatabase(41, 5000);
  const Table* emp = *db.GetTable("Emp");
  std::shared_ptr<QueryCache> cache = *emp->query_cache();
  const std::vector<size_t> projection = {1, 2};  // (dep, grade)
  // Cold: no partition is memoized yet, so the answer is the projection
  // HLL's estimate — advisory, but within its error bounds.
  const double estimate = cache->EstimateDistinct(projection);
  const double exact = static_cast<double>(cache->DistinctCount(projection));
  EXPECT_NEAR(estimate, exact,
              5.0 * HyperLogLog::StandardError(12) * exact + 3.0);
  // Warm: DistinctCount memoized the partition, so the estimate is exact.
  EXPECT_DOUBLE_EQ(cache->EstimateDistinct(projection), exact);
  // Single columns always report the exact dictionary size.
  EXPECT_DOUBLE_EQ(cache->EstimateDistinct({1}),
                   static_cast<double>(cache->DistinctCount({1})));
}

TEST(SketchGateCrosscheckTest, AlgebraAnswersAreGateInvariant) {
  Database db = MakeAdversarialDatabase(17, 500);
  struct Probe {
    std::string lr, la, rr, ra;
  };
  const std::vector<Probe> probes = {
      {"Emp", "dep", "Dept", "dep"},  {"Dept", "dep", "Emp", "dep"},
      {"Emp", "no", "Emp", "dep"},    {"Emp", "grade", "Dept", "dep"},
      {"Dept", "name", "Dept", "name"},
  };
  for (const Probe& probe : probes) {
    ScopedSketchGate on(true);
    auto with = InclusionHolds(db, probe.lr, {probe.la}, probe.rr, {probe.ra});
    ScopedSketchGate off(false);
    auto without =
        InclusionHolds(db, probe.lr, {probe.la}, probe.rr, {probe.ra});
    ASSERT_TRUE(with.ok());
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(*with, *without) << probe.la << " ⊆ " << probe.ra;
  }
  // Multi-attribute joins, both directions.
  EquiJoin join;
  join.left_relation = "Emp";
  join.left_attributes = {"dep", "grade"};
  join.right_relation = "Dept";
  join.right_attributes = {"dep", "dep"};
  Result<JoinCounts> with = [&] {
    ScopedSketchGate on(true);
    return ComputeJoinCounts(db, join);
  }();
  Result<JoinCounts> without = [&] {
    ScopedSketchGate off(false);
    return ComputeJoinCounts(db, join);
  }();
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->n_left, without->n_left);
  EXPECT_EQ(with->n_right, without->n_right);
  EXPECT_EQ(with->n_join, without->n_join);
}

TEST(SketchGateCrosscheckTest, UnaryMinerReportsAreByteIdentical) {
  Database db = MakeAdversarialDatabase(23, 800);
  IndMinerOptions options;
  IndMinerStats stats_on, stats_off;
  auto mine = [&](bool gate, IndMinerStats* stats) {
    ScopedSketchGate scoped(gate);
    return MineUnaryInds(db, options, stats);
  };
  auto with = mine(true, &stats_on);
  auto without = mine(false, &stats_off);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(with->size(), without->size());
  for (size_t i = 0; i < with->size(); ++i) {
    EXPECT_EQ((*with)[i].ToString(), (*without)[i].ToString());
  }
  // The candidate funnel is deterministic; only the route may differ.
  EXPECT_EQ(stats_on.pairs_considered, stats_off.pairs_considered);
  EXPECT_EQ(stats_on.pairs_checked, stats_off.pairs_checked);
}

TEST(SketchGateCrosscheckTest, DiscoveryOutcomesAreGateInvariant) {
  std::vector<EquiJoin> joins;
  {
    EquiJoin join;
    join.left_relation = "Emp";
    join.left_attributes = {"dep"};
    join.right_relation = "Dept";
    join.right_attributes = {"dep"};
    joins.push_back(join);
    join.left_attributes = {"no"};
    joins.push_back(join);
  }
  auto run = [&](bool gate) {
    Database db = MakeAdversarialDatabase(31, 600);
    ScopedSketchGate scoped(gate);
    DefaultOracle oracle;  // ignores NEIs: outcomes depend on counts only
    return DiscoverInds(&db, joins, &oracle, IndDiscoveryOptions{});
  };
  auto with = run(true);
  auto without = run(false);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  ASSERT_EQ(with->outcomes.size(), without->outcomes.size());
  for (size_t i = 0; i < with->outcomes.size(); ++i) {
    EXPECT_EQ(JoinOutcomeKindName(with->outcomes[i].kind),
              JoinOutcomeKindName(without->outcomes[i].kind));
    EXPECT_EQ(with->outcomes[i].counts.n_join,
              without->outcomes[i].counts.n_join);
  }
  ASSERT_EQ(with->inds.size(), without->inds.size());
  for (size_t i = 0; i < with->inds.size(); ++i) {
    EXPECT_EQ(with->inds[i].ToString(), without->inds[i].ToString());
  }
}

}  // namespace
}  // namespace dbre
