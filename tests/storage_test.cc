// Tests for src/storage: Column, Table, ZoneMap, Partitioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "storage/partitioning.h"
#include "storage/table.h"
#include "storage/zone_map.h"
#include "test_util.h"

namespace oreo {
namespace {

Schema TestSchema() { return testutil::IdScoreTagSchema(); }

Table SmallTable() { return testutil::SmallIdScoreTagTable(); }

// -------------------------------------------------------------- Column ----

TEST(ColumnTest, Int64AppendGet) {
  Column c(DataType::kInt64);
  c.AppendInt64(10);
  c.AppendInt64(-3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.GetInt64(0), 10);
  EXPECT_EQ(c.GetInt64(1), -3);
  EXPECT_DOUBLE_EQ(c.GetNumeric(1), -3.0);
}

TEST(ColumnTest, StringDictionaryDedupes) {
  Column c(DataType::kString);
  c.AppendString("x");
  c.AppendString("y");
  c.AppendString("x");
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.dictionary().size(), 2u);
  EXPECT_EQ(c.GetString(0), "x");
  EXPECT_EQ(c.GetString(2), "x");
  EXPECT_EQ(c.GetCode(0), c.GetCode(2));
  EXPECT_NE(c.GetCode(0), c.GetCode(1));
}

TEST(ColumnTest, FindCode) {
  Column c(DataType::kString);
  c.AppendString("hello");
  EXPECT_EQ(c.FindCode("hello"), 0);
  EXPECT_EQ(c.FindCode("world"), -1);
}

TEST(ColumnTest, GetValueRoundTrip) {
  Column c(DataType::kDouble);
  c.AppendDouble(3.25);
  EXPECT_TRUE(c.GetValue(0) == Value(3.25));
}

TEST(ColumnTest, TakeReordersAndRepeats) {
  Column c(DataType::kInt64);
  for (int64_t v : {10, 20, 30}) c.AppendInt64(v);
  Column t = c.Take({2, 0, 2});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.GetInt64(0), 30);
  EXPECT_EQ(t.GetInt64(1), 10);
  EXPECT_EQ(t.GetInt64(2), 30);
}

TEST(ColumnTest, TakeStringPreservesValues) {
  Column c(DataType::kString);
  for (const char* v : {"a", "b", "c"}) c.AppendString(v);
  Column t = c.Take({1, 2});
  EXPECT_EQ(t.GetString(0), "b");
  EXPECT_EQ(t.GetString(1), "c");
}

// --------------------------------------------------------------- Table ----

TEST(TableTest, AppendRowAndAccess) {
  Table t = SmallTable();
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.column(0).GetInt64(1), 5);
  EXPECT_EQ(t.column(2).GetString(3), "c");
}

TEST(TableTest, TakeSubset) {
  Table t = SmallTable();
  Table sub = t.Take({3, 1});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.column(0).GetInt64(0), 9);
  EXPECT_EQ(sub.column(0).GetInt64(1), 5);
  EXPECT_TRUE(sub.schema().Equals(t.schema()));
}

TEST(TableTest, SampleRowsWithoutReplacement) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 100; ++i) t.AppendRow({Value(i)});
  Rng rng(3);
  std::vector<uint32_t> ids;
  Table s = t.SampleRows(30, &rng, &ids);
  EXPECT_EQ(s.num_rows(), 30u);
  std::set<uint32_t> uniq(ids.begin(), ids.end());
  EXPECT_EQ(uniq.size(), 30u);
  // Sample table rows must match the reported row ids.
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(s.column(0).GetInt64(i), static_cast<int64_t>(ids[i]));
  }
}

TEST(TableTest, SampleMoreThanRowsReturnsAll) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (int64_t i = 0; i < 5; ++i) t.AppendRow({Value(i)});
  Rng rng(3);
  Table s = t.SampleRows(50, &rng);
  EXPECT_EQ(s.num_rows(), 5u);
}

TEST(TableTest, MemoryBytesPositive) {
  Table t = SmallTable();
  EXPECT_GT(t.MemoryBytes(), 0u);
}

TEST(TableTest, AppendConcatenatesRows) {
  Table a = SmallTable();
  Table b = SmallTable();
  a.Append(b);
  EXPECT_EQ(a.num_rows(), 8u);
  // Second half mirrors the first.
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (uint32_t r = 0; r < 4; ++r) {
      EXPECT_TRUE(a.column(c).GetValue(r) == a.column(c).GetValue(r + 4));
    }
  }
}

TEST(TableTest, AppendRemapsStringDictionaries) {
  Table a(Schema({{"s", DataType::kString}}));
  a.AppendRow({Value("x")});
  Table b(Schema({{"s", DataType::kString}}));
  b.AppendRow({Value("y")});
  b.AppendRow({Value("x")});
  a.Append(b);
  EXPECT_EQ(a.num_rows(), 3u);
  EXPECT_EQ(a.column(0).GetString(0), "x");
  EXPECT_EQ(a.column(0).GetString(1), "y");
  EXPECT_EQ(a.column(0).GetString(2), "x");
  EXPECT_EQ(a.column(0).GetCode(0), a.column(0).GetCode(2));
}

// Append re-encodes once per distinct source code, in row order: the
// destination ends with the dictionary a row-by-row AppendString builds,
// and unused source entries never enter it.
TEST(TableTest, AppendAddsEntriesInTheOrderRowByRowAppendsWould) {
  Table dst(Schema({{"s", DataType::kString}}));
  dst.AppendRow({Value("b")});
  Table wide(Schema({{"s", DataType::kString}}));
  for (const char* v : {"unused", "c", "b", "a", "also-unused"}) {
    wide.AppendRow({Value(v)});
  }
  Table src = wide.Take({3, 1, 3, 2, 1});  // a c a b c
  Column reference(DataType::kString);
  reference.AppendString("b");
  for (uint32_t r = 0; r < src.num_rows(); ++r) {
    reference.AppendString(src.column(0).GetString(r));
  }
  dst.Append(src);
  EXPECT_EQ(dst.column(0).dictionary(), reference.dictionary());
  EXPECT_EQ(dst.column(0).codes(), reference.codes());
}

TEST(TableTest, AppendEmptyIsNoop) {
  Table a = SmallTable();
  Table b(TestSchema());
  a.Append(b);
  EXPECT_EQ(a.num_rows(), 4u);
}

// ------------------------------------------------------------- ZoneMap ----

TEST(ZoneMapTest, NumericBounds) {
  Table t = SmallTable();
  ZoneMap zm = BuildZoneMap(t);
  EXPECT_EQ(zm.num_rows, 4u);
  EXPECT_EQ(zm.columns[0].int_min, 1);
  EXPECT_EQ(zm.columns[0].int_max, 9);
  EXPECT_DOUBLE_EQ(zm.columns[1].dbl_min, -2.0);
  EXPECT_DOUBLE_EQ(zm.columns[1].dbl_max, 1.5);
}

TEST(ZoneMapTest, StringBoundsAndDistinct) {
  Table t = SmallTable();
  ZoneMap zm = BuildZoneMap(t);
  const ColumnZone& z = zm.columns[2];
  EXPECT_EQ(z.str_min, "a");
  EXPECT_EQ(z.str_max, "c");
  EXPECT_FALSE(z.distinct_overflow);
  EXPECT_EQ(z.distinct.size(), 3u);
  EXPECT_TRUE(z.distinct.count("b"));
}

TEST(ZoneMapTest, DistinctOverflow) {
  Table t(Schema({{"s", DataType::kString}}));
  for (int i = 0; i < 200; ++i) {
    t.AppendRow({Value("val" + std::to_string(i))});
  }
  ZoneMap zm = BuildZoneMap(t);
  EXPECT_TRUE(zm.columns[0].distinct_overflow);
  EXPECT_TRUE(zm.columns[0].distinct.empty());
  EXPECT_FALSE(zm.columns[0].empty);
}

TEST(ZoneMapTest, SubsetOfRows) {
  Table t = SmallTable();
  ZoneMap zm = BuildZoneMap(t, {0, 2});
  EXPECT_EQ(zm.num_rows, 2u);
  EXPECT_EQ(zm.columns[0].int_min, 1);
  EXPECT_EQ(zm.columns[0].int_max, 3);
}

TEST(ZoneMapTest, EmptyZone) {
  Table t = SmallTable();
  ZoneMap zm = BuildZoneMap(t, {});
  EXPECT_EQ(zm.num_rows, 0u);
  EXPECT_TRUE(zm.columns[0].empty);
}

// Parity wall for the column-at-a-time builder: a row-at-a-time reference
// that folds one value at a time, in row-id order, exactly as zone maps were
// first defined.
ZoneMap ReferenceZoneMap(const Table& t, const std::vector<uint32_t>& rows) {
  ZoneMap zm = ZoneMap::ForSchema(t.schema());
  for (uint32_t r : rows) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      ColumnZone& z = zm.columns[c];
      const bool first = z.empty;
      z.empty = false;
      switch (col.type()) {
        case DataType::kInt64: {
          const int64_t v = col.GetInt64(r);
          z.int_min = first ? v : std::min(z.int_min, v);
          z.int_max = first ? v : std::max(z.int_max, v);
          break;
        }
        case DataType::kDouble: {
          const double v = col.GetDouble(r);
          z.dbl_min = first ? v : std::min(z.dbl_min, v);
          z.dbl_max = first ? v : std::max(z.dbl_max, v);
          break;
        }
        case DataType::kString: {
          const std::string& v = col.GetString(r);
          if (first || v < z.str_min) z.str_min = v;
          if (first || v > z.str_max) z.str_max = v;
          if (!z.distinct_overflow) {
            z.distinct.insert(v);
            if (z.distinct.size() > ColumnZone::kMaxDistinct) {
              z.distinct.clear();
              z.distinct_overflow = true;
            }
          }
          break;
        }
      }
    }
    ++zm.num_rows;
  }
  return zm;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// Field by field; doubles by bit pattern, so -0.0 != +0.0 and NaN == NaN.
void ExpectZoneMapsIdentical(const ZoneMap& want, const ZoneMap& got,
                             const std::string& where) {
  ASSERT_EQ(want.columns.size(), got.columns.size()) << where;
  EXPECT_EQ(want.num_rows, got.num_rows) << where;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnZone& w = want.columns[c];
    const ColumnZone& g = got.columns[c];
    const std::string at = where + ", column " + std::to_string(c);
    EXPECT_EQ(w.type, g.type) << at;
    EXPECT_EQ(w.empty, g.empty) << at;
    EXPECT_EQ(w.int_min, g.int_min) << at;
    EXPECT_EQ(w.int_max, g.int_max) << at;
    EXPECT_EQ(DoubleBits(w.dbl_min), DoubleBits(g.dbl_min)) << at;
    EXPECT_EQ(DoubleBits(w.dbl_max), DoubleBits(g.dbl_max)) << at;
    EXPECT_EQ(w.str_min, g.str_min) << at;
    EXPECT_EQ(w.str_max, g.str_max) << at;
    EXPECT_EQ(w.distinct, g.distinct) << at;
    EXPECT_EQ(w.distinct_overflow, g.distinct_overflow) << at;
  }
}

void ExpectBuilderMatchesReference(const Table& t,
                                   const std::vector<uint32_t>& rows,
                                   const std::string& where) {
  ExpectZoneMapsIdentical(ReferenceZoneMap(t, rows), BuildZoneMap(t, rows),
                          where);
}

std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> rows(t.num_rows());
  for (uint32_t r = 0; r < rows.size(); ++r) rows[r] = r;
  return rows;
}

TEST(ZoneMapParityTest, DistinctSetAtTheOverflowEdge) {
  for (int distinct : {1, 63, 64, 65, 66, 200}) {
    Table t(Schema({{"s", DataType::kString}}));
    // Each value three times, interleaved, so repeats reach the set after
    // it is full.
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < distinct; ++i) {
        t.AppendRow({Value("v" + std::to_string((i * 37 + rep) % distinct))});
      }
    }
    const std::string tag = std::to_string(distinct) + " distinct";
    ExpectBuilderMatchesReference(t, AllRows(t), tag);
    ZoneMap whole = BuildZoneMap(t);
    ExpectZoneMapsIdentical(ReferenceZoneMap(t, AllRows(t)), whole,
                            tag + ", whole table");
    EXPECT_EQ(whole.columns[0].distinct_overflow,
              distinct > static_cast<int>(ColumnZone::kMaxDistinct))
        << tag;
    std::vector<uint32_t> reversed = AllRows(t);
    std::reverse(reversed.begin(), reversed.end());
    ExpectBuilderMatchesReference(t, reversed, tag + ", reversed");
  }
}

TEST(ZoneMapParityTest, TakeSharesADictionaryWithUnusedEntries) {
  Table base(Schema({{"k", DataType::kInt64}, {"s", DataType::kString}}));
  for (int i = 0; i < 300; ++i) {
    base.AppendRow({Value(int64_t{i}), Value("cat" + std::to_string(i % 150))});
  }
  // Rows whose strings use 10 of the 150 shared dictionary entries.
  std::vector<uint32_t> picked;
  for (uint32_t r = 0; r < base.num_rows(); r += 15) picked.push_back(r);
  Table taken = base.Take(picked);
  ASSERT_EQ(taken.column(1).dictionary().size(), 150u);
  ExpectBuilderMatchesReference(taken, AllRows(taken), "taken");
  ExpectZoneMapsIdentical(ReferenceZoneMap(taken, AllRows(taken)),
                          BuildZoneMap(taken), "taken, whole table");
  ExpectBuilderMatchesReference(taken, {3, 1}, "taken, two rows");
  // Interleave tables with larger and smaller dictionaries, so the
  // builder's code marks are reused across calls of different sizes.
  ExpectBuilderMatchesReference(base, AllRows(base), "base");
  ExpectBuilderMatchesReference(taken, {0, 5, 9}, "taken after base");
  ExpectBuilderMatchesReference(SmallTable(), {2, 0}, "small after base");
}

TEST(ZoneMapParityTest, EmptyRowList) {
  Table t = SmallTable();
  ExpectBuilderMatchesReference(t, {}, "empty");
  ZoneMap zm = BuildZoneMap(t, {});
  for (const ColumnZone& z : zm.columns) EXPECT_TRUE(z.empty);
  Table empty(TestSchema());
  ExpectZoneMapsIdentical(ReferenceZoneMap(empty, {}), BuildZoneMap(empty),
                          "empty table");
}

TEST(ZoneMapParityTest, NanAndSignedZerosInEveryRowOrder) {
  Table t(Schema({{"d", DataType::kDouble}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {nan, -0.0, 0.0, 1.5, -1.5}) t.AppendRow({Value(v)});
  std::vector<uint32_t> rows = AllRows(t);
  size_t orders = 0;
  do {
    std::string tag = "order";
    for (uint32_t r : rows) tag += " " + std::to_string(r);
    ExpectBuilderMatchesReference(t, rows, tag);
    // Every prefix too: a NaN or a zero of either sign first or alone.
    for (size_t len = 1; len < rows.size(); ++len) {
      ExpectBuilderMatchesReference(
          t, std::vector<uint32_t>(rows.begin(), rows.begin() + len),
          tag + ", prefix " + std::to_string(len));
    }
    ++orders;
  } while (std::next_permutation(rows.begin(), rows.end()));
  EXPECT_EQ(orders, 120u);
}

TEST(ZoneMapParityTest, Int64Extremes) {
  Table t(Schema({{"i", DataType::kInt64}}));
  for (int64_t v : {int64_t{0}, std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min(), int64_t{-1},
                    std::numeric_limits<int64_t>::max()}) {
    t.AppendRow({Value(v)});
  }
  ExpectBuilderMatchesReference(t, AllRows(t), "all");
  ExpectBuilderMatchesReference(t, {1}, "max alone");
  ExpectBuilderMatchesReference(t, {2}, "min alone");
  ExpectBuilderMatchesReference(t, {4, 2, 0}, "max, min, zero");
  ZoneMap zm = BuildZoneMap(t);
  EXPECT_EQ(zm.columns[0].int_min, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(zm.columns[0].int_max, std::numeric_limits<int64_t>::max());
}

TEST(ZoneMapParityTest, RandomPartitionsOfAMixedTable) {
  Rng rng(5150);
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString}}));
  for (int r = 0; r < 2000; ++r) {
    t.AppendRow({Value(rng.UniformInt(-1000, 1000)),
                 Value(rng.UniformDouble(-1.0, 1.0)),
                 Value("s" + std::to_string(rng.Uniform(100)))});
  }
  // Random assignment into 16 partitions, each listed in row-id order like
  // BuildPartitioning lists them, plus a shuffled copy of each.
  std::vector<std::vector<uint32_t>> parts(16);
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    parts[rng.Uniform(parts.size())].push_back(r);
  }
  for (size_t p = 0; p < parts.size(); ++p) {
    ExpectBuilderMatchesReference(t, parts[p], "part " + std::to_string(p));
    std::vector<uint32_t> shuffled = parts[p];
    rng.Shuffle(&shuffled);
    ExpectBuilderMatchesReference(t, shuffled,
                                  "shuffled part " + std::to_string(p));
  }
}

// -------------------------------------------------------- Partitioning ----

TEST(PartitioningTest, BuildsAndValidates) {
  Table t = SmallTable();
  std::vector<uint32_t> assignment = {0, 1, 0, 1};
  Partitioning p = BuildPartitioning(t, assignment, 2);
  EXPECT_EQ(p.num_partitions(), 2u);
  EXPECT_EQ(p.total_rows, 4u);
  EXPECT_TRUE(ValidatePartitioning(p, 4));
  EXPECT_EQ(p.zones[0].num_rows, 2u);
}

TEST(PartitioningTest, DropsEmptyPartitions) {
  Table t = SmallTable();
  std::vector<uint32_t> assignment = {3, 3, 3, 3};
  Partitioning p = BuildPartitioning(t, assignment, 5);
  EXPECT_EQ(p.num_partitions(), 1u);
  EXPECT_TRUE(ValidatePartitioning(p, 4));
}

TEST(PartitioningTest, ZonesMatchPartitionContents) {
  Table t = SmallTable();
  std::vector<uint32_t> assignment = {0, 1, 0, 1};
  Partitioning p = BuildPartitioning(t, assignment, 2);
  // Partition 0 holds rows {0, 2}: ids {1, 3}.
  EXPECT_EQ(p.zones[0].columns[0].int_min, 1);
  EXPECT_EQ(p.zones[0].columns[0].int_max, 3);
  // Partition 1 holds rows {1, 3}: ids {5, 9}.
  EXPECT_EQ(p.zones[1].columns[0].int_min, 5);
  EXPECT_EQ(p.zones[1].columns[0].int_max, 9);
}

TEST(PartitioningTest, ValidateCatchesMissingRow) {
  Partitioning p;
  p.partitions = {{0, 1}};  // row 2 missing
  p.zones.resize(1);
  p.zones[0].num_rows = 2;
  EXPECT_FALSE(ValidatePartitioning(p, 3));
}

TEST(PartitioningTest, ValidateCatchesDuplicateRow) {
  Partitioning p;
  p.partitions = {{0, 1}, {1, 2}};
  p.zones.resize(2);
  p.zones[0].num_rows = 2;
  p.zones[1].num_rows = 2;
  EXPECT_FALSE(ValidatePartitioning(p, 3));
}

// ------------------------------------- zone-map pruning soundness --------

// The load-bearing invariant of the cost model: CanSkipPartition may only
// claim a skip when the partition truly holds no matching row. Randomized
// partitions x randomized range/equality predicates over all three column
// types; any false negative is a correctness bug, not a quality regression.
TEST(ZoneMapPruningPropertyTest, NoFalseNegativesUnderRangePredicates) {
  Rng rng(1234);
  Table t = testutil::MakeSalesTable(1500, 9);
  const uint32_t kParts = 8;

  // Random (not value-correlated) assignment: zones get wide ranges, which
  // stresses the "must not skip" direction.
  std::vector<std::vector<uint32_t>> part_rows(kParts);
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    part_rows[rng.Uniform(kParts)].push_back(r);
  }
  std::vector<ZoneMap> zones;
  for (const auto& rows : part_rows) zones.push_back(BuildZoneMap(t, rows));

  const char* regions[] = {"asia", "europe", "america", "africa", "oceania",
                           "antarctica"};  // last one matches no row
  for (int trial = 0; trial < 400; ++trial) {
    Query q;
    switch (rng.Uniform(5)) {
      case 0: {  // int range
        int64_t lo = rng.UniformInt(0, 100);
        q.conjuncts = {Predicate::Between(
            0, Value(lo), Value(lo + rng.UniformInt(0, 20)))};
        break;
      }
      case 1: {  // int half-open comparisons
        q.conjuncts = {rng.Uniform(2) == 0
                           ? Predicate::Lt(0, Value(rng.UniformInt(0, 100)))
                           : Predicate::Ge(0, Value(rng.UniformInt(0, 100)))};
        break;
      }
      case 2: {  // double range
        double lo = rng.UniformDouble(0.0, 50.0);
        q.conjuncts = {Predicate::Between(1, Value(lo),
                                          Value(lo + rng.UniformDouble(0, 5)))};
        break;
      }
      case 3: {  // string equality (sometimes matching nothing)
        q.conjuncts = {Predicate::Eq(2, Value(regions[rng.Uniform(6)]))};
        break;
      }
      default: {  // conjunction across columns
        int64_t lo = rng.UniformInt(0, 90);
        q.conjuncts = {Predicate::Between(0, Value(lo), Value(lo + 10)),
                       Predicate::Eq(2, Value(regions[rng.Uniform(5)]))};
        break;
      }
    }
    for (uint32_t p = 0; p < kParts; ++p) {
      if (q.CanSkipPartition(zones[p])) {
        EXPECT_EQ(CountMatches(t, part_rows[p], q), 0u)
            << "false negative: skipped partition " << p
            << " containing matches for " << q.ToString(&t.schema());
      }
    }
  }
}

TEST(ZoneMapPruningPropertyTest, SkipsDisjointRangeAndKeepsOverlapping) {
  // Deterministic anchor next to the property test: a zone spanning
  // ids [1, 9] must not be skippable for [0, 5] but must be for [10, 20].
  Table t = SmallTable();
  ZoneMap zone = BuildZoneMap(t);
  Query hit;
  hit.conjuncts = {Predicate::Between(0, Value(int64_t{0}), Value(int64_t{5}))};
  EXPECT_FALSE(hit.CanSkipPartition(zone));
  Query miss;
  miss.conjuncts = {
      Predicate::Between(0, Value(int64_t{10}), Value(int64_t{20}))};
  EXPECT_TRUE(miss.CanSkipPartition(zone));
}

}  // namespace
}  // namespace oreo
