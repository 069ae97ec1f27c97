// Tests for src/query: predicate evaluation, zone-map pruning soundness
// (the load-bearing invariant: a skipped partition contains no matching row),
// selectivity estimation and the fraction-accessed cost model.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/query.h"
#include "storage/partitioning.h"
#include "test_util.h"

namespace oreo {
namespace {

Schema TestSchema() { return testutil::SalesSchema(); }

Table MakeRandomTable(size_t rows, uint64_t seed) {
  return testutil::MakeSalesTable(rows, seed);
}

// ------------------------------------------------- predicate matching ----

TEST(PredicateTest, IntComparisons) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{10}), Value(1.0), Value("asia")});
  EXPECT_TRUE(Predicate::Eq(0, Value(int64_t{10})).Matches(t, 0));
  EXPECT_FALSE(Predicate::Eq(0, Value(int64_t{11})).Matches(t, 0));
  EXPECT_TRUE(Predicate::Lt(0, Value(int64_t{11})).Matches(t, 0));
  EXPECT_FALSE(Predicate::Lt(0, Value(int64_t{10})).Matches(t, 0));
  EXPECT_TRUE(Predicate::Le(0, Value(int64_t{10})).Matches(t, 0));
  EXPECT_TRUE(Predicate::Gt(0, Value(int64_t{9})).Matches(t, 0));
  EXPECT_TRUE(Predicate::Ge(0, Value(int64_t{10})).Matches(t, 0));
  EXPECT_FALSE(Predicate::Ge(0, Value(int64_t{11})).Matches(t, 0));
}

TEST(PredicateTest, BetweenInclusive) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{10}), Value(1.0), Value("asia")});
  EXPECT_TRUE(
      Predicate::Between(0, Value(int64_t{10}), Value(int64_t{20})).Matches(t, 0));
  EXPECT_TRUE(
      Predicate::Between(0, Value(int64_t{0}), Value(int64_t{10})).Matches(t, 0));
  EXPECT_FALSE(
      Predicate::Between(0, Value(int64_t{11}), Value(int64_t{20})).Matches(t, 0));
}

TEST(PredicateTest, InList) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{1}), Value(1.0), Value("asia")});
  EXPECT_TRUE(Predicate::In(2, {Value("europe"), Value("asia")}).Matches(t, 0));
  EXPECT_FALSE(Predicate::In(2, {Value("europe"), Value("africa")}).Matches(t, 0));
  EXPECT_FALSE(Predicate::In(2, {}).Matches(t, 0));
}

TEST(PredicateTest, StringComparisons) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{1}), Value(1.0), Value("europe")});
  EXPECT_TRUE(Predicate::Ge(2, Value("asia")).Matches(t, 0));
  EXPECT_TRUE(Predicate::Lt(2, Value("zzz")).Matches(t, 0));
  EXPECT_FALSE(Predicate::Lt(2, Value("europe")).Matches(t, 0));
}

TEST(PredicateTest, ToStringWithSchema) {
  Schema s = TestSchema();
  EXPECT_EQ(Predicate::Eq(0, Value(int64_t{5})).ToString(&s), "qty = 5");
  EXPECT_EQ(Predicate::Between(0, Value(int64_t{1}), Value(int64_t{2})).ToString(&s),
            "qty BETWEEN 1 AND 2");
  EXPECT_EQ(Predicate::In(2, {Value("a"), Value("b")}).ToString(&s),
            "region IN ('a', 'b')");
}

// ------------------------------------------------------ query matching ----

TEST(QueryTest, ConjunctionSemantics) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{10}), Value(5.0), Value("asia")});
  Query q;
  q.conjuncts = {Predicate::Ge(0, Value(int64_t{5})),
                 Predicate::Eq(2, Value("asia"))};
  EXPECT_TRUE(q.Matches(t, 0));
  q.conjuncts.push_back(Predicate::Lt(1, Value(2.0)));
  EXPECT_FALSE(q.Matches(t, 0));
}

TEST(QueryTest, EmptyConjunctsIsFullScan) {
  Table t = MakeRandomTable(10, 1);
  Query q;
  EXPECT_EQ(CountMatches(t, q), 10u);
  ZoneMap zm = BuildZoneMap(t);
  EXPECT_FALSE(q.CanSkipPartition(zm));
}

TEST(QueryTest, CountMatchesSubset) {
  Table t(TestSchema());
  for (int64_t i = 0; i < 10; ++i) {
    t.AppendRow({Value(i), Value(0.0), Value("x")});
  }
  Query q;
  q.conjuncts = {Predicate::Lt(0, Value(int64_t{5}))};
  EXPECT_EQ(CountMatches(t, q), 5u);
  EXPECT_EQ(CountMatches(t, {0, 7, 3}, q), 2u);
}

TEST(QueryTest, EstimateSelectivity) {
  Table t(TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    t.AppendRow({Value(i), Value(0.0), Value("x")});
  }
  Query q;
  q.conjuncts = {Predicate::Lt(0, Value(int64_t{25}))};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(t, q), 0.25);
}

// ------------------------------------------------------ zone pruning -----

TEST(PruningTest, EqOutsideBounds) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{10}), Value(1.0), Value("b")});
  t.AppendRow({Value(int64_t{20}), Value(2.0), Value("c")});
  ZoneMap zm = BuildZoneMap(t);
  Query q;
  q.conjuncts = {Predicate::Eq(0, Value(int64_t{30}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Eq(0, Value(int64_t{15}))};
  EXPECT_FALSE(q.CanSkipPartition(zm));  // inside range: cannot prove empty
}

TEST(PruningTest, StringDistinctSetProvesAbsence) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{1}), Value(1.0), Value("alpha")});
  t.AppendRow({Value(int64_t{2}), Value(2.0), Value("gamma")});
  ZoneMap zm = BuildZoneMap(t);
  Query q;
  // "beta" is within [alpha, gamma] lexicographically, but the distinct set
  // proves it absent.
  q.conjuncts = {Predicate::Eq(2, Value("beta"))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Eq(2, Value("gamma"))};
  EXPECT_FALSE(q.CanSkipPartition(zm));
}

TEST(PruningTest, InListPruning) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{1}), Value(1.0), Value("aa")});
  t.AppendRow({Value(int64_t{5}), Value(2.0), Value("bb")});
  ZoneMap zm = BuildZoneMap(t);
  Query q;
  q.conjuncts = {Predicate::In(0, {Value(int64_t{7}), Value(int64_t{9})})};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::In(0, {Value(int64_t{7}), Value(int64_t{3})})};
  EXPECT_FALSE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::In(2, {Value("cc"), Value("dd")})};
  EXPECT_TRUE(q.CanSkipPartition(zm));
}

TEST(PruningTest, RangePruning) {
  Table t(TestSchema());
  t.AppendRow({Value(int64_t{10}), Value(1.0), Value("a")});
  t.AppendRow({Value(int64_t{20}), Value(2.0), Value("a")});
  ZoneMap zm = BuildZoneMap(t);
  Query q;
  q.conjuncts = {Predicate::Lt(0, Value(int64_t{10}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Le(0, Value(int64_t{10}))};
  EXPECT_FALSE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Gt(0, Value(int64_t{20}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Between(0, Value(int64_t{21}), Value(int64_t{30}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
  q.conjuncts = {Predicate::Between(0, Value(int64_t{0}), Value(int64_t{9}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
}

TEST(PruningTest, EmptyPartitionAlwaysSkippable) {
  Table t = MakeRandomTable(5, 2);
  ZoneMap zm = BuildZoneMap(t, {});
  Query q;
  q.conjuncts = {Predicate::Eq(0, Value(int64_t{1}))};
  EXPECT_TRUE(q.CanSkipPartition(zm));
}

// Soundness property: whenever CanSkipPartition says a partition can be
// skipped, no row in that partition may match the query. Sweeps random
// queries over random partitionings (parameterized by seed).
class PruningSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

Query RandomQuery(Rng* rng) {
  const char* regions[] = {"asia", "europe", "america", "africa", "oceania"};
  Query q;
  int n_preds = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < n_preds; ++i) {
    switch (rng->Uniform(6)) {
      case 0:
        q.conjuncts.push_back(Predicate::Eq(0, Value(rng->UniformInt(0, 100))));
        break;
      case 1: {
        int64_t lo = rng->UniformInt(0, 90);
        q.conjuncts.push_back(
            Predicate::Between(0, Value(lo), Value(lo + 10)));
        break;
      }
      case 2:
        q.conjuncts.push_back(Predicate::Lt(1, Value(rng->UniformDouble(0, 50))));
        break;
      case 3:
        q.conjuncts.push_back(Predicate::Ge(1, Value(rng->UniformDouble(0, 50))));
        break;
      case 4:
        q.conjuncts.push_back(Predicate::Eq(2, Value(regions[rng->Uniform(5)])));
        break;
      case 5:
        q.conjuncts.push_back(Predicate::In(
            2, {Value(regions[rng->Uniform(5)]), Value(regions[rng->Uniform(5)])}));
        break;
    }
  }
  return q;
}

TEST_P(PruningSoundnessTest, SkippedPartitionsHaveNoMatches) {
  Rng rng(GetParam());
  Table t = MakeRandomTable(500, GetParam() * 31 + 7);
  // Random partitioning into 8 parts.
  std::vector<uint32_t> assignment(t.num_rows());
  for (auto& a : assignment) a = static_cast<uint32_t>(rng.Uniform(8));
  Partitioning p = BuildPartitioning(t, assignment, 8);
  ASSERT_TRUE(ValidatePartitioning(p, t.num_rows()));

  for (int qi = 0; qi < 50; ++qi) {
    Query q = RandomQuery(&rng);
    for (size_t pid = 0; pid < p.num_partitions(); ++pid) {
      if (q.CanSkipPartition(p.zones[pid])) {
        EXPECT_EQ(CountMatches(t, p.partitions[pid], q), 0u)
            << "unsound skip: " << q.ToString(&t.schema());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningSoundnessTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------------------------------------------------- fraction accessed ----

TEST(FractionAccessedTest, FullScanIsOne) {
  Table t = MakeRandomTable(100, 3);
  std::vector<uint32_t> assignment(t.num_rows());
  for (size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<uint32_t>(i % 4);
  }
  Partitioning p = BuildPartitioning(t, assignment, 4);
  Query q;  // no conjuncts
  EXPECT_DOUBLE_EQ(FractionAccessed(p, q), 1.0);
  EXPECT_EQ(PartitionsToRead(p, q).size(), 4u);
}

TEST(FractionAccessedTest, PerfectClusteringSkips) {
  // Rows partitioned exactly by qty range: a point query touches 1/4.
  Table t(TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    t.AppendRow({Value(i), Value(0.0), Value("x")});
  }
  std::vector<uint32_t> assignment(100);
  for (size_t i = 0; i < 100; ++i) assignment[i] = static_cast<uint32_t>(i / 25);
  Partitioning p = BuildPartitioning(t, assignment, 4);
  Query q;
  q.conjuncts = {Predicate::Eq(0, Value(int64_t{10}))};
  EXPECT_DOUBLE_EQ(FractionAccessed(p, q), 0.25);
  EXPECT_EQ(PartitionsToRead(p, q), std::vector<uint32_t>{0});
}

TEST(FractionAccessedTest, CostInUnitInterval) {
  Rng rng(5);
  Table t = MakeRandomTable(200, 5);
  std::vector<uint32_t> assignment(t.num_rows());
  for (auto& a : assignment) a = static_cast<uint32_t>(rng.Uniform(6));
  Partitioning p = BuildPartitioning(t, assignment, 6);
  for (int i = 0; i < 30; ++i) {
    Query q = RandomQuery(&rng);
    double c = FractionAccessed(p, q);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(FractionAccessedTest, LowerBoundsTrueSelectivity) {
  // Pruning is conservative: the fraction accessed can never be below the
  // true fraction of matching rows.
  Rng rng(11);
  Table t = MakeRandomTable(400, 11);
  std::vector<uint32_t> assignment(t.num_rows());
  for (auto& a : assignment) a = static_cast<uint32_t>(rng.Uniform(8));
  Partitioning p = BuildPartitioning(t, assignment, 8);
  for (int i = 0; i < 40; ++i) {
    Query q = RandomQuery(&rng);
    double accessed = FractionAccessed(p, q);
    double truth = static_cast<double>(CountMatches(t, q)) /
                   static_cast<double>(t.num_rows());
    EXPECT_GE(accessed + 1e-12, truth);
  }
}

}  // namespace
}  // namespace oreo
