// Tests for src/layout: sorted / Z-order / Qd-tree layouts and generators.
// Core invariants: assignments cover every row exactly once within bounds;
// zone maps of materialized instances contain their rows; workload-aware
// layouts actually skip data for their target workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <ostream>
#include <set>
#include <utility>

#include "common/rng.h"
#include "common/simd.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "layout/zorder_layout.h"
#include "query/kernels.h"
#include "test_util.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace {

Schema TestSchema() { return testutil::WideEventSchema(); }

Table MakeTable(size_t rows, uint64_t seed) {
  return testutil::MakeWideEventTable(rows, seed);
}

std::vector<Query> RangeWorkload(int column, int64_t domain, int64_t width,
                                 size_t n, uint64_t seed) {
  return testutil::MakeRangeWorkload(column, domain, width, n, seed);
}

void CheckAssignmentBounds(const std::vector<uint32_t>& assignment,
                           uint32_t bound, size_t rows) {
  ASSERT_EQ(assignment.size(), rows);
  for (uint32_t a : assignment) EXPECT_LT(a, bound);
}

// Each row must fall inside its partition's zone map.
void CheckZoneContainment(const Table& t, const LayoutInstance& inst) {
  const Partitioning& p = inst.partitioning();
  ASSERT_TRUE(ValidatePartitioning(p, t.num_rows()));
  for (size_t pid = 0; pid < p.num_partitions(); ++pid) {
    const ZoneMap& zm = p.zones[pid];
    for (uint32_t r : p.partitions[pid]) {
      for (size_t c = 0; c < t.num_columns(); ++c) {
        const Column& col = t.column(c);
        const ColumnZone& z = zm.columns[c];
        switch (col.type()) {
          case DataType::kInt64:
            EXPECT_GE(col.GetInt64(r), z.int_min);
            EXPECT_LE(col.GetInt64(r), z.int_max);
            break;
          case DataType::kDouble:
            EXPECT_GE(col.GetDouble(r), z.dbl_min);
            EXPECT_LE(col.GetDouble(r), z.dbl_max);
            break;
          case DataType::kString:
            EXPECT_GE(col.GetString(r), z.str_min);
            EXPECT_LE(col.GetString(r), z.str_max);
            break;
        }
      }
    }
  }
}

// ------------------------------------------------------- SortedLayout ----

TEST(SortedLayoutTest, AssignRespectsBoundaries) {
  SortedLayout layout(0, "ts", {10.0, 20.0});
  Table t(TestSchema());
  for (int64_t v : {5, 10, 15, 20, 25}) {
    t.AppendRow({Value(v), Value(int64_t{0}), Value(0.0), Value("a")});
  }
  std::vector<uint32_t> a = layout.Assign(t);
  // lower_bound semantics: value <= boundary goes left of it.
  EXPECT_EQ(a, (std::vector<uint32_t>{0, 0, 1, 1, 2}));
  EXPECT_EQ(layout.NumPartitionsUpperBound(), 3u);
}

TEST(SortedLayoutTest, GeneratorMakesBalancedPartitions) {
  Table t = MakeTable(5000, 1);
  Rng rng(2);
  Table sample = t.SampleRows(500, &rng);
  SortLayoutGenerator gen(0);
  auto layout = gen.Generate(sample, {}, 8);
  auto inst = Materialize("sorted", std::shared_ptr<const Layout>(std::move(layout)), t);
  const Partitioning& p = inst.partitioning();
  EXPECT_GE(p.num_partitions(), 6u);
  EXPECT_LE(p.num_partitions(), 8u);
  for (const auto& part : p.partitions) {
    EXPECT_GT(part.size(), 5000u / 16);
    EXPECT_LT(part.size(), 5000u / 4);
  }
  CheckZoneContainment(t, inst);
}

TEST(SortedLayoutTest, SkipsRangeQueriesOnSortColumn) {
  Table t = MakeTable(4000, 3);
  Rng rng(4);
  Table sample = t.SampleRows(400, &rng);
  SortLayoutGenerator gen(0);
  auto inst = Materialize(
      "sorted", std::shared_ptr<const Layout>(gen.Generate(sample, {}, 16)), t);
  // A narrow ts range should touch ~1-2 of 16 partitions.
  Query q;
  q.conjuncts = {Predicate::Between(0, Value(int64_t{100}), Value(int64_t{200}))};
  EXPECT_LT(inst.QueryCost(q), 0.2);
}

TEST(SortedLayoutTest, QuantileBoundariesDeduplicated) {
  // Constant column -> no usable boundaries -> single partition.
  Table t(TestSchema());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Value(int64_t{7}), Value(int64_t{0}), Value(0.0), Value("a")});
  }
  std::vector<double> b = QuantileBoundaries(t, 0, 8);
  EXPECT_LE(b.size(), 1u);
}

// ------------------------------------------------------- ZOrderLayout ----

TEST(ZOrderLayoutTest, MostQueriedColumnsRanking) {
  std::vector<Query> wl;
  for (int i = 0; i < 10; ++i) {
    Query q;
    q.conjuncts = {Predicate::Eq(2, Value(1.0))};
    if (i < 5) q.conjuncts.push_back(Predicate::Eq(1, Value(int64_t{3})));
    wl.push_back(q);
  }
  std::vector<int> ranked = MostQueriedColumns(wl, 4);
  EXPECT_EQ(ranked[0], 2);
  EXPECT_EQ(ranked[1], 1);
}

TEST(ZOrderLayoutTest, AssignCoversAllPartitionsInBounds) {
  Table t = MakeTable(3000, 5);
  Rng rng(6);
  Table sample = t.SampleRows(300, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 50, 40, 7);
  ZOrderGenerator gen(2, 10);
  auto layout = gen.Generate(sample, wl, 12);
  CheckAssignmentBounds(layout->Assign(t), layout->NumPartitionsUpperBound(),
                        t.num_rows());
}

TEST(ZOrderLayoutTest, ZoneContainmentHolds) {
  Table t = MakeTable(2000, 8);
  Rng rng(9);
  Table sample = t.SampleRows(400, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 100, 30, 10);
  ZOrderGenerator gen(3, 10);
  auto inst = Materialize(
      "zorder", std::shared_ptr<const Layout>(gen.Generate(sample, wl, 10)), t);
  CheckZoneContainment(t, inst);
}

TEST(ZOrderLayoutTest, ImprovesSkippingOnInterleavedColumns) {
  Table t = MakeTable(6000, 11);
  Rng rng(12);
  Table sample = t.SampleRows(600, &rng);
  // Workload filters qty and price; z-order on those two beats sort-by-ts.
  Rng qrng(13);
  std::vector<Query> wl;
  for (int i = 0; i < 60; ++i) {
    Query q;
    int64_t qlo = qrng.UniformInt(0, 900);
    double plo = qrng.UniformDouble(0, 80);
    q.conjuncts = {Predicate::Between(1, Value(qlo), Value(qlo + 100)),
                   Predicate::Between(2, Value(plo), Value(plo + 20.0))};
    wl.push_back(q);
  }
  ZOrderGenerator zgen(2, 12);
  auto z = Materialize(
      "zorder", std::shared_ptr<const Layout>(zgen.Generate(sample, wl, 16)), t);
  SortLayoutGenerator sgen(0);
  auto s = Materialize(
      "sorted", std::shared_ptr<const Layout>(sgen.Generate(sample, wl, 16)), t);
  double z_cost = 0, s_cost = 0;
  for (const Query& q : wl) {
    z_cost += z.QueryCost(q);
    s_cost += s.QueryCost(q);
  }
  EXPECT_LT(z_cost, s_cost * 0.8);
}

TEST(ZOrderLayoutTest, StringDimRoutingStableAcrossReencoding) {
  // Regression: z-order ranks string dimensions by value, so routing must be
  // identical after rows pass through a partition rewrite that rebuilds the
  // dictionary in a different insertion order.
  Table t = MakeTable(3000, 60);
  Rng rng(61);
  Table sample = t.SampleRows(500, &rng);
  // Workload hammering the categorical column so it becomes a z-order dim.
  std::vector<Query> wl;
  Rng qrng(62);
  const char* cats[] = {"a", "b", "c", "d", "e", "f"};
  for (int i = 0; i < 40; ++i) {
    Query q;
    q.conjuncts = {Predicate::Eq(3, Value(cats[qrng.Uniform(6)])),
                   Predicate::Between(1, Value(qrng.UniformInt(0, 500)),
                                      Value(qrng.UniformInt(501, 999)))};
    wl.push_back(q);
  }
  ZOrderGenerator gen(2, 10);
  auto layout = gen.Generate(sample, wl, 8);
  std::vector<uint32_t> canonical = layout->Assign(t);

  // Rebuild the table with a scrambled dictionary insertion order: append
  // rows back-to-front so first-appearance codes differ.
  std::vector<uint32_t> reversed(t.num_rows());
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    reversed[r] = static_cast<uint32_t>(t.num_rows()) - 1 - r;
  }
  Table scrambled(t.schema());
  scrambled.Append(t.Take(reversed));
  std::vector<uint32_t> assigned = layout->Assign(scrambled);
  for (uint32_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(assigned[r], canonical[reversed[r]]) << "row " << r;
  }
}

TEST(ZOrderLayoutTest, DescribeNamesColumns) {
  Table t = MakeTable(500, 14);
  Rng rng(15);
  Table sample = t.SampleRows(200, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 50, 10, 16);
  ZOrderGenerator gen(1, 8);
  auto layout = gen.Generate(sample, wl, 4);
  EXPECT_NE(layout->Describe().find("qty"), std::string::npos);
}

// ------------------------------------------------------- QdTreeLayout ----

TEST(QdTreeTest, HarvestCutsDedupes) {
  Query q1, q2;
  q1.conjuncts = {Predicate::Eq(3, Value("a"))};
  q2.conjuncts = {Predicate::Eq(3, Value("a")),
                  Predicate::Between(1, Value(int64_t{10}), Value(int64_t{20}))};
  std::vector<Predicate> cuts = HarvestCuts({q1, q2}, 100);
  // eq(a) once + two half-planes from the between.
  EXPECT_EQ(cuts.size(), 3u);
  // The duplicated Eq cut is the most frequent, so it sorts first.
  EXPECT_EQ(cuts[0].op, CompareOp::kEq);
}

TEST(QdTreeTest, HarvestCutsRespectsCap) {
  std::vector<Query> wl;
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    Query q;
    q.conjuncts = {Predicate::Eq(1, Value(rng.UniformInt(0, 1000000)))};
    wl.push_back(q);
  }
  EXPECT_LE(HarvestCuts(wl, 32).size(), 32u);
}

// The dedupe key is exact: cuts that print alike at six decimals stay
// apart, and only structurally equal cuts merge.
TEST(QdTreeTest, HarvestCutsKeyIsExact) {
  auto cuts_of = [](std::vector<Predicate> preds) {
    std::vector<Query> wl;
    for (Predicate& p : preds) {
      Query q;
      q.conjuncts = {std::move(p)};
      wl.push_back(std::move(q));
    }
    return HarvestCuts(wl, 100);
  };
  // Both print as "col1 >= 1.000000".
  EXPECT_EQ(cuts_of({Predicate::Ge(1, Value(1.0000001)),
                     Predicate::Ge(1, Value(1.0000004))})
                .size(),
            2u);
  // 1e300 and its neighbour: one cut each, repeats merged.
  const double big = 1e300;
  const double next = std::nextafter(big, std::numeric_limits<double>::infinity());
  std::vector<Predicate> cuts =
      cuts_of({Predicate::Ge(1, Value(big)), Predicate::Ge(1, Value(next)),
               Predicate::Ge(1, Value(next))});
  ASSERT_EQ(cuts.size(), 2u);
  EXPECT_EQ(cuts[0].value.AsDouble(), next);  // the repeated one sorts first
  EXPECT_EQ(cuts[1].value.AsDouble(), big);
  // Equal IN lists in the same order merge; another order is another cut.
  auto in = [](std::vector<const char*> vs) {
    std::vector<Value> values;
    for (const char* v : vs) values.emplace_back(v);
    return Predicate::In(3, std::move(values));
  };
  EXPECT_EQ(cuts_of({in({"a", "b"}), in({"a", "b"})}).size(), 1u);
  EXPECT_EQ(cuts_of({in({"a", "b"}), in({"b", "a"})}).size(), 2u);
  // A string IN list whose display forms collide: ('a, b') vs ('a', 'b').
  EXPECT_EQ(cuts_of({in({"a', 'b"}), in({"a", "b"})}).size(), 2u);
  // Type and sign are part of the key.
  EXPECT_EQ(cuts_of({Predicate::Eq(0, Value(int64_t{5})),
                     Predicate::Eq(0, Value(5.0))})
                .size(),
            2u);
  EXPECT_EQ(cuts_of({Predicate::Ge(1, Value(0.0)), Predicate::Ge(1, Value(-0.0))})
                .size(),
            2u);
}

TEST(QdTreeTest, EmptyWorkloadYieldsSingleLeaf) {
  Table t = MakeTable(500, 18);
  QdTreeGenerator gen;
  auto layout = gen.Generate(t, {}, 8);
  EXPECT_EQ(layout->NumPartitionsUpperBound(), 1u);
  std::vector<uint32_t> a = layout->Assign(t);
  for (uint32_t x : a) EXPECT_EQ(x, 0u);
}

TEST(QdTreeTest, RespectsTargetLeafCount) {
  Table t = MakeTable(4000, 19);
  Rng rng(20);
  Table sample = t.SampleRows(800, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 60, 50, 21);
  QdTreeGenerator gen;
  auto layout = gen.Generate(sample, wl, 16);
  EXPECT_LE(layout->NumPartitionsUpperBound(), 16u);
  EXPECT_GT(layout->NumPartitionsUpperBound(), 2u);
}

TEST(QdTreeTest, AssignmentCompleteAndZonesContain) {
  Table t = MakeTable(3000, 22);
  Rng rng(23);
  Table sample = t.SampleRows(600, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 80, 40, 24);
  QdTreeGenerator gen;
  auto inst = Materialize(
      "qdtree", std::shared_ptr<const Layout>(gen.Generate(sample, wl, 12)), t);
  CheckZoneContainment(t, inst);
}

TEST(QdTreeTest, SkipsTargetWorkload) {
  Table t = MakeTable(6000, 25);
  Rng rng(26);
  Table sample = t.SampleRows(800, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 50, 60, 27);
  QdTreeGenerator gen;
  auto inst = Materialize(
      "qdtree", std::shared_ptr<const Layout>(gen.Generate(sample, wl, 16)), t);
  // Fresh queries from the same distribution should skip most data.
  std::vector<Query> test = RangeWorkload(1, 1000, 50, 40, 28);
  double mean = 0;
  for (const Query& q : test) mean += inst.QueryCost(q);
  mean /= static_cast<double>(test.size());
  EXPECT_LT(mean, 0.45);  // narrow ranges on a 16-leaf tree
}

TEST(QdTreeTest, BeatsDefaultSortOnItsWorkload) {
  Table t = MakeTable(6000, 29);
  Rng rng(30);
  Table sample = t.SampleRows(800, &rng);
  // Workload over the categorical column: sort-by-ts cannot skip it.
  Rng qrng(31);
  std::vector<Query> wl;
  const char* cats[] = {"a", "b", "c", "d", "e", "f"};
  for (int i = 0; i < 50; ++i) {
    Query q;
    q.conjuncts = {Predicate::Eq(3, Value(cats[qrng.Uniform(6)]))};
    wl.push_back(q);
  }
  QdTreeGenerator gen;
  auto qd = Materialize(
      "qdtree", std::shared_ptr<const Layout>(gen.Generate(sample, wl, 12)), t);
  SortLayoutGenerator sgen(0);
  auto srt = Materialize(
      "sorted", std::shared_ptr<const Layout>(sgen.Generate(sample, wl, 12)), t);
  double qd_cost = 0, s_cost = 0;
  for (const Query& q : wl) {
    qd_cost += qd.QueryCost(q);
    s_cost += srt.QueryCost(q);
  }
  EXPECT_LT(qd_cost, s_cost * 0.6);
}

TEST(QdTreeTest, MinLeafSizeHonored) {
  Table t = MakeTable(2000, 32);
  Rng rng(33);
  Table sample = t.SampleRows(1000, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 30, 60, 34);
  QdTreeOptions opts;
  opts.min_leaf_rows = 100;
  QdTreeGenerator gen(opts);
  auto layout = gen.Generate(sample, wl, 32);
  // With 1000 sample rows and min 100/leaf, at most 10 leaves are possible.
  EXPECT_LE(layout->NumPartitionsUpperBound(), 10u);
}

TEST(QdTreeTest, DepthIsReported) {
  Table t = MakeTable(2000, 35);
  Rng rng(36);
  Table sample = t.SampleRows(500, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 60, 40, 37);
  QdTreeGenerator gen;
  auto layout = gen.Generate(sample, wl, 8);
  auto* qd = dynamic_cast<QdTreeLayout*>(layout.get());
  ASSERT_NE(qd, nullptr);
  if (qd->num_leaves() > 1) {
    EXPECT_GE(qd->Depth(), 1);
    EXPECT_LT(qd->Depth(), 20);
  }
}

// Generate takes its sample bitmaps from the scan kernels, so the scalar
// reference and the vectorized kernels must grow the same tree on every
// paper workload, and the tree must partition the full table the same way.
TEST(QdTreeTest, KernelModesGrowIdenticalTrees) {
  for (const char* name : {"tpch", "tpcds", "telemetry"}) {
    SCOPED_TRACE(name);
    workloads::WorkloadDataset ds = workloads::MakeDataset(name, 6000, 61);
    Rng rng(62);
    Table sample = ds.table.SampleRows(1000, &rng);
    workloads::WorkloadOptions wopts;
    wopts.num_queries = 200;
    wopts.num_segments = 4;
    wopts.min_segment_length = 20;
    wopts.seed = 63;
    std::vector<Query> wl =
        workloads::GenerateWorkload(ds.templates, wopts).queries;
    QdTreeGenerator gen;

    auto grow = [&](simd::KernelMode mode) {
      testutil::ScopedKernelMode scoped(mode);
      std::shared_ptr<const Layout> layout = gen.Generate(sample, wl, 32);
      return std::make_pair(layout, Materialize("qdtree", layout, ds.table));
    };
    auto [scalar_layout, scalar_inst] = grow(simd::KernelMode::kScalar);
    auto [vector_layout, vector_inst] = grow(simd::KernelMode::kVector);

    const auto* scalar_tree =
        dynamic_cast<const QdTreeLayout*>(scalar_layout.get());
    const auto* vector_tree =
        dynamic_cast<const QdTreeLayout*>(vector_layout.get());
    ASSERT_NE(scalar_tree, nullptr);
    ASSERT_NE(vector_tree, nullptr);
    EXPECT_GT(scalar_tree->num_leaves(), 8u) << "the workload split nothing";
    ASSERT_EQ(scalar_tree->nodes().size(), vector_tree->nodes().size());
    for (size_t i = 0; i < scalar_tree->nodes().size(); ++i) {
      const QdTreeNode& a = scalar_tree->nodes()[i];
      const QdTreeNode& b = vector_tree->nodes()[i];
      EXPECT_EQ(a.left, b.left) << "node " << i;
      EXPECT_EQ(a.right, b.right) << "node " << i;
      EXPECT_EQ(a.partition_id, b.partition_id) << "node " << i;
      if (!a.is_leaf()) {
        EXPECT_EQ(a.cut.ToString(), b.cut.ToString()) << "node " << i;
      }
    }
    EXPECT_EQ(scalar_inst.partitioning().partitions,
              vector_inst.partitioning().partitions);
  }
}

// ---------------------------------------------- Qd-tree bit identity ----

// Reference greedy: the builder as first written, one Intersects pair per
// (cut, active query) over full-sample bitmaps and a double gain.
std::vector<QdTreeNode> ReferenceQdTree(const Table& sample,
                                        const std::vector<Query>& workload,
                                        uint32_t target, QdTreeOptions opts) {
  const size_t n = sample.num_rows();
  uint32_t min_rows = opts.min_leaf_rows;
  if (min_rows == 0) {
    min_rows = std::max<uint32_t>(1, static_cast<uint32_t>(n / (2 * target)));
  }
  std::vector<Predicate> cuts = HarvestCuts(workload, opts.max_cuts);
  std::vector<BitVector> cut_match, query_match;
  for (const Predicate& c : cuts) cut_match.push_back(EvalPredicateBitmap(sample, c));
  for (const Query& q : workload) query_match.push_back(EvalQueryBitmap(sample, q));
  struct Leaf {
    BitVector rows;
    size_t count;
    int32_t node;
    bool done = false;
  };
  std::vector<QdTreeNode> nodes(1);
  std::vector<Leaf> leaves;
  BitVector all(n);
  all.SetAll();
  leaves.push_back(Leaf{all, n, 0});
  while (leaves.size() < target) {
    int best_leaf = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i].done) continue;
      if (best_leaf < 0 || leaves[i].count > leaves[best_leaf].count) {
        best_leaf = static_cast<int>(i);
      }
    }
    if (best_leaf < 0) break;
    Leaf& leaf = leaves[best_leaf];
    if (leaf.count < 2 * min_rows) {
      leaf.done = true;
      continue;
    }
    std::vector<uint32_t> active;
    for (uint32_t qi = 0; qi < query_match.size(); ++qi) {
      if (leaf.rows.Intersects(query_match[qi])) active.push_back(qi);
    }
    BitVector t(n), f(n);
    double best_gain = 0.0;
    int best_cut = -1;
    size_t best_n1 = 0;
    for (size_t ci = 0; ci < cuts.size(); ++ci) {
      leaf.rows.AndInto(cut_match[ci], &t);
      const size_t n1 = t.Count();
      const size_t n0 = leaf.count - n1;
      if (n1 < min_rows || n0 < min_rows) continue;
      leaf.rows.AndNotInto(cut_match[ci], &f);
      double gain = 0.0;
      for (uint32_t qi : active) {
        double after = 0.0;
        if (t.Intersects(query_match[qi])) after += static_cast<double>(n1);
        if (f.Intersects(query_match[qi])) after += static_cast<double>(n0);
        gain += static_cast<double>(leaf.count) - after;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best_cut = static_cast<int>(ci);
        best_n1 = n1;
      }
    }
    if (best_cut < 0) {
      leaf.done = true;
      continue;
    }
    leaf.rows.AndInto(cut_match[best_cut], &t);
    leaf.rows.AndNotInto(cut_match[best_cut], &f);
    const int32_t left = static_cast<int32_t>(nodes.size());
    const int32_t right = left + 1;
    nodes.resize(nodes.size() + 2);
    nodes[leaf.node].cut = cuts[best_cut];
    nodes[leaf.node].left = left;
    nodes[leaf.node].right = right;
    const size_t n0 = leaf.count - best_n1;
    leaf.rows = t;
    leaf.count = best_n1;
    leaf.node = left;
    leaves.push_back(Leaf{f, n0, right});
  }
  int32_t next_id = 0;
  for (const Leaf& leaf : leaves) nodes[leaf.node].partition_id = next_id++;
  return nodes;
}

// Values equal by type and bytes (doubles by bit pattern).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case DataType::kDouble: {
      const double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

bool SamePredicate(const Predicate& a, const Predicate& b) {
  if (a.column != b.column || a.op != b.op) return false;
  if (!SameValue(a.value, b.value) || !SameValue(a.value2, b.value2)) return false;
  if (a.in_list.size() != b.in_list.size()) return false;
  for (size_t i = 0; i < a.in_list.size(); ++i) {
    if (!SameValue(a.in_list[i], b.in_list[i])) return false;
  }
  return true;
}

void ExpectSameTree(const std::vector<QdTreeNode>& want,
                    const std::vector<QdTreeNode>& got,
                    const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].left, got[i].left) << where << ", node " << i;
    EXPECT_EQ(want[i].right, got[i].right) << where << ", node " << i;
    EXPECT_EQ(want[i].partition_id, got[i].partition_id) << where << ", node " << i;
    if (!want[i].is_leaf()) {
      EXPECT_TRUE(SamePredicate(want[i].cut, got[i].cut))
          << where << ", node " << i << ": " << want[i].cut.ToString()
          << " vs " << got[i].cut.ToString();
    }
  }
}

// A mixed table: adversarial int64/double/string columns, a low-cardinality
// int64 and a string column with 150 distinct values.
Table MakeMixedTable(size_t rows, uint64_t seed) {
  Table base = testutil::MakeAdversarialTable(rows, seed);
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString},
                  {"k", DataType::kInt64},
                  {"name", DataType::kString}}));
  Rng rng(seed + 1);
  for (uint32_t r = 0; r < rows; ++r) {
    t.AppendRow({Value(base.column(0).GetInt64(r)),
                 Value(base.column(1).GetDouble(r)),
                 Value(base.column(2).GetString(r)),
                 Value(static_cast<int64_t>(rng.Uniform(12))),
                 Value("n" + std::to_string(rng.Uniform(150)))});
  }
  return t;
}

// A random conjunct over MakeMixedTable's columns, constants drawn from the
// table's own values so cuts split rows.
Predicate RandomConjunct(const Table& t, Rng* rng) {
  const uint32_t row = static_cast<uint32_t>(rng->Uniform(t.num_rows()));
  const uint32_t other = static_cast<uint32_t>(rng->Uniform(t.num_rows()));
  const int col = static_cast<int>(rng->Uniform(5));
  auto value_at = [&](uint32_t r) {
    const Column& c = t.column(static_cast<size_t>(col));
    switch (c.type()) {
      case DataType::kInt64:
        return Value(c.GetInt64(r));
      case DataType::kDouble:
        return Value(c.GetDouble(r));
      case DataType::kString:
        break;
    }
    return Value(c.GetString(r));
  };
  Value a = value_at(row), b = value_at(other);
  switch (rng->Uniform(7)) {
    case 0:
      return Predicate::Eq(col, a);
    case 1:
      return Predicate::Lt(col, a);
    case 2:
      return Predicate::Le(col, a);
    case 3:
      return Predicate::Gt(col, a);
    case 4:
      return Predicate::Ge(col, a);
    case 5:
      return Predicate::Between(col, a, b);
    default:
      return Predicate::In(col, {a, b, value_at(static_cast<uint32_t>(
                                           rng->Uniform(t.num_rows())))});
  }
}

std::vector<Query> RandomWorkload(const Table& t, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> wl(n);
  for (Query& q : wl) {
    const size_t conjuncts = rng.Uniform(4);  // 0 = a full scan
    for (size_t i = 0; i < conjuncts; ++i) {
      q.conjuncts.push_back(RandomConjunct(t, &rng));
    }
  }
  return wl;
}

// The transposed split search, shared predicate bitmaps and integer gains
// must grow the reference greedy's tree node for node in both kernel modes.
TEST(QdTreeTest, GreedyMatchesReferenceNodeForNode) {
  struct Case {
    const char* name;
    size_t rows;
    size_t queries;
    uint32_t target;
    uint32_t max_cuts;
    uint32_t min_leaf_rows;
  };
  const Case cases[] = {
      {"cap binds", 1500, 300, 32, 128, 0},
      {"four cut words", 1200, 300, 24, 200, 0},
      {"few queries", 800, 12, 16, 128, 0},
      {"one cut word", 700, 40, 12, 50, 0},
      {"empty workload", 500, 0, 8, 128, 0},
      {"min leaf blocks most splits", 900, 120, 32, 128, 300},
      {"min leaf blocks every split", 900, 120, 32, 128, 451},
  };
  for (const Case& c : cases) {
    for (simd::KernelMode mode :
         {simd::KernelMode::kScalar, simd::KernelMode::kVector}) {
      testutil::ScopedKernelMode scoped(mode);
      const std::string where =
          std::string(c.name) + ", " + simd::KernelModeName(mode);
      const Table sample = MakeMixedTable(c.rows, 700 + c.rows);
      const std::vector<Query> wl = RandomWorkload(sample, c.queries, c.rows);
      QdTreeOptions opts;
      opts.max_cuts = c.max_cuts;
      opts.min_leaf_rows = c.min_leaf_rows;
      if (c.queries >= 300) {
        EXPECT_GT(HarvestCuts(wl, 100000).size(), c.max_cuts) << where;
      }
      std::unique_ptr<Layout> layout =
          QdTreeGenerator(opts).Generate(sample, wl, c.target);
      const auto* tree = dynamic_cast<const QdTreeLayout*>(layout.get());
      ASSERT_NE(tree, nullptr);
      ExpectSameTree(ReferenceQdTree(sample, wl, c.target, opts), tree->nodes(),
                     where);
      if (c.min_leaf_rows == 451 || c.queries == 0) {
        EXPECT_EQ(tree->num_leaves(), 1u) << where;
      } else if (c.min_leaf_rows == 0) {
        EXPECT_GT(tree->num_leaves(), 4u) << where;
      }
    }
  }
}

// Per-row reference router: walk the tree with Predicate::Matches.
uint32_t ReferenceRoute(const QdTreeLayout& tree, const Table& t, uint32_t row) {
  int32_t node = 0;
  while (!tree.nodes()[node].is_leaf()) {
    const QdTreeNode& n = tree.nodes()[node];
    node = n.cut.Matches(t, row) ? n.left : n.right;
  }
  return static_cast<uint32_t>(tree.nodes()[node].partition_id);
}

// Assign splits row lists by cut bitmaps; every row must land where the
// per-row walk sends it, NaN, ±0.0, INT64 extremes and odd strings included.
TEST(QdTreeTest, AssignMatchesPerRowRouting) {
  for (simd::KernelMode mode :
       {simd::KernelMode::kScalar, simd::KernelMode::kVector}) {
    testutil::ScopedKernelMode scoped(mode);
    SCOPED_TRACE(simd::KernelModeName(mode));
    const Table table = testutil::MakeAdversarialTable(5000, 811);
    Rng rng(812);
    const Table sample = table.SampleRows(1000, &rng);
    // Conjuncts over the adversarial columns only (0..2).
    std::vector<Query> wl;
    for (const Query& q : RandomWorkload(MakeMixedTable(1000, 813), 200, 814)) {
      Query keep;
      for (const Predicate& p : q.conjuncts) {
        if (p.column < 3) keep.conjuncts.push_back(p);
      }
      wl.push_back(keep);
    }
    // The mixed table's first three columns are an adversarial table of
    // its own, so its constants include NaN and the extremes.
    for (uint32_t target : {1u, 2u, 7u, 32u, 64u}) {
      std::unique_ptr<Layout> layout =
          QdTreeGenerator().Generate(sample, wl, target);
      const auto& tree = dynamic_cast<const QdTreeLayout&>(*layout);
      if (target >= 32) {
        EXPECT_GT(tree.num_leaves(), 8u);
      }
      for (const Table* t : {&table, &sample}) {
        const std::vector<uint32_t> got = tree.Assign(*t);
        ASSERT_EQ(got.size(), t->num_rows());
        for (uint32_t r = 0; r < t->num_rows(); ++r) {
          ASSERT_EQ(got[r], ReferenceRoute(tree, *t, r))
              << "row " << r << ", target " << target;
        }
      }
    }
    // A hand-built tree whose right subtree receives no row: its cut is
    // never evaluated and its leaves stay empty.
    std::vector<QdTreeNode> nodes(5);
    nodes[0].cut = Predicate::Ge(0, Value(std::numeric_limits<int64_t>::min()));
    nodes[0].left = 1;
    nodes[0].right = 2;
    nodes[1].partition_id = 0;
    nodes[2].cut = Predicate::Eq(2, Value("zebra"));
    nodes[2].left = 3;
    nodes[2].right = 4;
    nodes[3].partition_id = 1;
    nodes[4].partition_id = 2;
    const QdTreeLayout all_left(nodes, 3);
    EXPECT_EQ(all_left.Assign(table), std::vector<uint32_t>(table.num_rows(), 0));
    EXPECT_TRUE(all_left.Assign(Table(table.schema())).empty());
  }
}

// LayoutInstance cost vectors.
TEST(LayoutInstanceTest, CostVectorAndAvgSkipped) {
  Table t = MakeTable(1000, 38);
  Rng rng(39);
  Table sample = t.SampleRows(300, &rng);
  SortLayoutGenerator gen(0);
  auto inst = Materialize(
      "sorted", std::shared_ptr<const Layout>(gen.Generate(sample, {}, 8)), t);
  std::vector<Query> wl = RangeWorkload(0, 1000, 100, 10, 40);
  std::vector<double> cv = inst.CostVector(wl);
  ASSERT_EQ(cv.size(), wl.size());
  double mean = 0;
  for (double c : cv) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    mean += c;
  }
  mean /= static_cast<double>(cv.size());
  EXPECT_NEAR(inst.AvgSkipped(wl), 1.0 - mean, 1e-12);
}

// Generator sweep: every generator must produce complete, in-bounds
// assignments for a variety of partition targets.
struct GenCase {
  const char* name;
  int which;  // 0=sort, 1=zorder, 2=qdtree
  uint32_t k;
};

// Without this, gtest prints the case as raw bytes, pointer included, and
// the discovered CTest name changes with every build and run.
void PrintTo(const GenCase& gc, std::ostream* os) { *os << gc.name; }

class GeneratorSweepTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorSweepTest, CompleteAssignment) {
  const GenCase& gc = GetParam();
  Table t = MakeTable(2500, 41);
  Rng rng(42);
  Table sample = t.SampleRows(500, &rng);
  std::vector<Query> wl = RangeWorkload(1, 1000, 70, 30, 43);
  std::unique_ptr<Layout> layout;
  switch (gc.which) {
    case 0:
      layout = SortLayoutGenerator(0).Generate(sample, wl, gc.k);
      break;
    case 1:
      layout = ZOrderGenerator(3, 10).Generate(sample, wl, gc.k);
      break;
    case 2:
      layout = QdTreeGenerator().Generate(sample, wl, gc.k);
      break;
  }
  auto inst =
      Materialize(gc.name, std::shared_ptr<const Layout>(std::move(layout)), t);
  EXPECT_TRUE(ValidatePartitioning(inst.partitioning(), t.num_rows()));
  EXPECT_LE(inst.partitioning().num_partitions(), gc.k);
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorSweepTest,
    ::testing::Values(GenCase{"sort_k2", 0, 2}, GenCase{"sort_k8", 0, 8},
                      GenCase{"sort_k64", 0, 64}, GenCase{"zorder_k2", 1, 2},
                      GenCase{"zorder_k8", 1, 8}, GenCase{"zorder_k64", 1, 64},
                      GenCase{"qdtree_k2", 2, 2}, GenCase{"qdtree_k8", 2, 8},
                      GenCase{"qdtree_k64", 2, 64}),
    [](const ::testing::TestParamInfo<GenCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace oreo
