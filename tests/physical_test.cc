// Tests for the physical execution substrate: materialization, query
// execution with pruning, full reorganization (row preservation and
// canonical row order), background rewrites through the ReorgPool,
// and the replay harness used by the Figure 3 benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/background.h"
#include "core/physical.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "layout/sorted_layout.h"
#include "layout/zorder_layout.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

namespace fs = std::filesystem;

Table MakeTable(size_t rows, uint64_t seed) {
  return testutil::MakeEventTable(rows, seed);
}

LayoutInstance SortedInstance(const Table& t, int col, uint32_t k,
                              const std::string& name) {
  return testutil::MakeSortedInstance(t, col, k, name, /*sample_seed=*/3);
}

std::string TempDir(const std::string& tag) {
  return testutil::ScratchDir("phys_" + tag);
}

TEST(PhysicalStoreTest, MaterializeWritesAllPartitions) {
  Table t = MakeTable(2000, 1);
  LayoutInstance inst = SortedInstance(t, 0, 8, "by_ts");
  PhysicalStore store(TempDir("mat"));
  auto timing = store.MaterializeLayout(t, inst);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_EQ(timing->partitions, inst.partitioning().num_partitions());
  EXPECT_GT(timing->bytes, 0u);
  EXPECT_EQ(store.MaterializedBytes(), timing->bytes);
}

TEST(PhysicalStoreTest, FullScanReadsEverything) {
  Table t = MakeTable(2000, 2);
  LayoutInstance inst = SortedInstance(t, 0, 8, "by_ts");
  PhysicalStore store(TempDir("scan"));
  ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
  Query q;  // full scan
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->rows_scanned, 2000u);
  EXPECT_EQ(exec->matches, 2000u);
  EXPECT_EQ(exec->partitions_read, inst.partitioning().num_partitions());
}

TEST(PhysicalStoreTest, PruningSkipsPartitionsAndMatchesLogicalCount) {
  Table t = MakeTable(4000, 3);
  LayoutInstance inst = SortedInstance(t, 0, 16, "by_ts");
  PhysicalStore store(TempDir("prune"));
  ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
  Query q;
  q.conjuncts = {Predicate::Between(0, Value(int64_t{100}), Value(int64_t{300}))};
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  // Physical matches == logical matches.
  EXPECT_EQ(exec->matches, CountMatches(t, q));
  // Narrow ts range on the ts-sorted layout: most partitions skipped.
  EXPECT_LT(exec->partitions_read, 5u);
  EXPECT_LT(exec->rows_scanned, 4000u);
}

// The batch scan reads, CRC-checks and decodes each surviving block once,
// however many of the batch's queries survive on it — queries on different
// columns share one decode over the union of their columns, and a
// conjunct-free query widens it to every column — while every per-query
// counter equals a one-query execution, with and without a tombstone mask.
TEST(PhysicalStoreTest, BatchReadsEachSurvivingBlockOnce) {
  Table t = MakeTable(3000, 11);
  LayoutInstance inst = SortedInstance(t, 0, 12, "by_ts");
  const Partitioning& parts = inst.partitioning();

  // Overlapping ts ranges, alone and combined with qty / cat conjuncts, so
  // queries on different columns survive on the same partitions.
  std::vector<Query> selective =
      testutil::MakeRangeWorkload(0, 1500, 300, 6, 12);
  for (size_t i = 0; i < 3; ++i) {
    Query q = selective[i];
    q.conjuncts.push_back(
        Predicate::Between(1, Value(int64_t{100}), Value(int64_t{600})));
    selective.push_back(q);
    q = selective[i + 3];
    q.conjuncts.push_back(Predicate::In(2, {Value("a"), Value("c")}));
    selective.push_back(q);
  }
  std::vector<Query> with_full_scan = selective;
  with_full_scan.insert(with_full_scan.begin() + 4, Query{});

  // Tombstones: every third row of every partition is dead.
  PhysicalStore::LiveScanView live;
  for (const std::vector<uint32_t>& rows : parts.partitions) {
    BitVector mask(rows.size());
    for (size_t j = 0; j < rows.size(); ++j) {
      if (j % 3 != 0) mask.Set(j);
    }
    live.partition_masks.push_back(std::move(mask));
  }

  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto base = MakeInMemoryBackend();
    PhysicalStore store(TempDir("shared_scan_" + std::to_string(threads)),
                        threads, base);
    ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
    const PhysicalStore::Snapshot snap = store.GetSnapshot();
    for (const std::vector<Query>* batch : {&selective, &with_full_scan}) {
      std::set<uint32_t> distinct;
      size_t pairs = 0;
      for (const Query& q : *batch) {
        std::vector<uint32_t> survivors = PartitionsToRead(parts, q);
        distinct.insert(survivors.begin(), survivors.end());
        pairs += survivors.size();
      }
      ASSERT_GT(pairs, distinct.size()) << "no partition shared by queries";
      if (batch == &selective) {
        ASSERT_LT(distinct.size(), parts.num_partitions());
      }
      const PhysicalStore::LiveScanView* views[] = {nullptr, &live};
      for (const PhysicalStore::LiveScanView* view : views) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " queries=" + std::to_string(batch->size()) +
                     (view != nullptr ? " masked" : " unmasked"));
        const uint64_t reads_before = base->stats().reads;
        auto exec = store.ExecuteQueryBatchOnSnapshot(snap, *batch, view);
        ASSERT_TRUE(exec.ok()) << exec.status().ToString();
        EXPECT_EQ(base->stats().reads - reads_before, distinct.size())
            << "a surviving block was read more than once in one batch";
        ASSERT_EQ(exec->per_query.size(), batch->size());
        for (size_t qi = 0; qi < batch->size(); ++qi) {
          const Query& q = (*batch)[qi];
          // The one-query reference: ExecuteQuery, or with the mask a
          // one-query batch (ExecuteQuery takes no live view).
          Result<PhysicalStore::QueryExec> single = store.ExecuteQuery(q);
          if (view != nullptr) {
            auto one = store.ExecuteQueryBatchOnSnapshot(snap, {q}, view);
            ASSERT_TRUE(one.ok());
            single = one->per_query.front();
          }
          ASSERT_TRUE(single.ok());
          const PhysicalStore::QueryExec& got = exec->per_query[qi];
          EXPECT_EQ(got.partitions_read, single->partitions_read) << qi;
          EXPECT_EQ(got.rows_scanned, single->rows_scanned) << qi;
          EXPECT_EQ(got.bytes_read, single->bytes_read) << qi;
          EXPECT_EQ(got.matches, single->matches) << qi;
          // Ground truth: the live rows of the table that match.
          uint64_t expected = 0;
          for (size_t pid = 0; pid < parts.num_partitions(); ++pid) {
            for (size_t j = 0; j < parts.partitions[pid].size(); ++j) {
              if (view != nullptr && !live.partition_masks[pid].Get(j)) {
                continue;
              }
              if (q.Matches(t, parts.partitions[pid][j])) ++expected;
            }
          }
          EXPECT_EQ(got.matches, expected) << qi;
        }
      }
    }
  }
}

// A failed block read fails every query that survives on it, and the batch
// reports the error the per-query path meets first — in stream order, not
// in the order the shared scan visits partitions.
TEST(PhysicalStoreTest, BatchScanReportsThePerQueryPathsFirstError) {
  Table t = MakeTable(3000, 13);
  LayoutInstance inst = SortedInstance(t, 0, 12, "by_ts");
  const Partitioning& parts = inst.partitioning();
  auto point = [&](size_t pid) {
    Query q;
    q.conjuncts = {Predicate::Eq(
        0, Value(t.column(0).GetInt64(parts.partitions[pid].front())))};
    return q;
  };
  // The first query survives only on a late partition, the second only on
  // an early one: pid order would report the second query's error.
  const std::vector<Query> batch = {point(parts.num_partitions() - 1), Query{},
                                    point(0)};
  const std::vector<uint32_t> late = PartitionsToRead(parts, batch[0]);
  const std::vector<uint32_t> early = PartitionsToRead(parts, batch[2]);
  ASSERT_LT(early.back(), late.front());

  for (size_t threads : {size_t{1}, size_t{4}}) {
    auto faulty = std::make_shared<testutil::FaultInjectionBackend>(
        MakeInMemoryBackend(), "", INT64_MAX);
    PhysicalStore store(TempDir("shared_scan_err_" + std::to_string(threads)),
                        threads, faulty);
    ASSERT_TRUE(store.MaterializeLayout(t, inst).ok());
    const PhysicalStore::Snapshot snap = store.GetSnapshot();
    faulty->FailReadsOf(snap.files[late.front()]);
    faulty->FailReadsOf(snap.files[early.front()]);

    Status per_query;
    for (const Query& q : batch) {
      auto exec = store.ExecuteQuery(q);
      if (!exec.ok()) {
        per_query = exec.status();
        break;
      }
    }
    ASSERT_FALSE(per_query.ok());
    auto batched = store.ExecuteQueryBatch(batch);
    ASSERT_FALSE(batched.ok());
    EXPECT_EQ(batched.status().ToString(), per_query.ToString())
        << "threads=" << threads;
    EXPECT_NE(per_query.ToString().find(snap.files[late.front()]),
              std::string::npos)
        << per_query.ToString();
  }
}

TEST(PhysicalStoreTest, ReorganizePreservesRowsExactly) {
  Table t = MakeTable(3000, 4);
  LayoutInstance a = SortedInstance(t, 0, 8, "by_ts");
  LayoutInstance b = SortedInstance(t, 1, 8, "by_qty");
  PhysicalStore store(TempDir("reorg"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  auto timing = store.Reorganize(t, b);
  ASSERT_TRUE(timing.ok()) << timing.status().ToString();
  EXPECT_GT(timing->seconds, 0.0);
  // After reorg, any query must see the same matches as before.
  for (int64_t lo : {0, 250, 500, 750}) {
    Query q;
    q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 100))};
    auto exec = store.ExecuteQuery(q);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->matches, CountMatches(t, q));
  }
  EXPECT_EQ(store.current_instance(), &b);
}

// A reorganization writes every target file in canonical row order, so its
// files are byte-identical to a fresh materialization of the target — even
// when the source partitions are not row-id ranges (a qty-sorted source
// scatters every target's rows across all source files). The tombstone
// masks of live ingest index rows in exactly this order.
TEST(PhysicalStoreTest, ReorganizeWritesTheFilesAFreshMaterializeWrites) {
  Table t = MakeTable(3000, 4);
  LayoutInstance by_qty = SortedInstance(t, 1, 8, "by_qty");
  LayoutInstance by_ts = SortedInstance(t, 0, 8, "by_ts");
  for (const auto& [from, to] :
       {std::make_pair(&by_qty, &by_ts), std::make_pair(&by_ts, &by_qty)}) {
    PhysicalStore reorganized(TempDir("reorg_crc_" + from->name()),
                              /*num_threads=*/4);
    ASSERT_TRUE(reorganized.MaterializeLayout(t, *from).ok());
    ASSERT_TRUE(reorganized.Reorganize(t, *to).ok());
    PhysicalStore fresh(TempDir("fresh_crc_" + to->name()));
    ASSERT_TRUE(fresh.MaterializeLayout(t, *to).ok());
    EXPECT_EQ(testutil::PartitionCrcs(reorganized),
              testutil::PartitionCrcs(fresh))
        << "reorganizing " << from->name() << " -> " << to->name()
        << " left files in non-canonical row order";
  }
}

// A reorganization routes every row by its base row id, never by running the
// target layout over decoded blocks: a block's string codes number its own
// used-only dictionary, not the table's, so a layout keyed on a string
// column's code would send rows to the wrong partition.
TEST(PhysicalStoreTest, ReorganizeToStringKeyedLayoutsWritesTheFreshFiles) {
  Table t = MakeTable(3000, 8);
  LayoutInstance by_qty = SortedInstance(t, 1, 8, "by_qty");
  // Ranges over the table's dictionary codes of `cat` (four categories).
  LayoutInstance by_cat = Materialize(
      "by_cat",
      std::make_shared<SortedLayout>(2, "cat",
                                     std::vector<double>{0.5, 1.5, 2.5}),
      t);
  std::vector<Query> queries;
  for (const char* cat : {"a", "c", "d"}) {
    Query q;
    q.conjuncts = {Predicate::Eq(2, Value(cat))};
    queries.push_back(q);
  }
  for (int64_t lo : {100, 600}) {
    Query q;
    q.conjuncts = {Predicate::Lt(2, Value("c")),
                   Predicate::Between(1, Value(lo), Value(lo + 250))};
    queries.push_back(q);
  }
  // Most-queried columns first: `cat` is the Z-order's leading dimension.
  LayoutInstance zorder = Materialize(
      "zorder_cat",
      std::shared_ptr<const Layout>(
          ZOrderGenerator(/*num_columns=*/2).Generate(t, queries, 8)),
      t);
  for (const LayoutInstance* to : {&by_cat, &zorder}) {
    PhysicalStore reorganized(TempDir("reorg_str_" + to->name()),
                              /*num_threads=*/4);
    ASSERT_TRUE(reorganized.MaterializeLayout(t, by_qty).ok());
    ASSERT_TRUE(reorganized.Reorganize(t, *to).ok());
    PhysicalStore fresh(TempDir("fresh_str_" + to->name()));
    ASSERT_TRUE(fresh.MaterializeLayout(t, *to).ok());
    EXPECT_EQ(testutil::PartitionCrcs(reorganized),
              testutil::PartitionCrcs(fresh))
        << to->name();
    for (const Query& q : queries) {
      auto exec = reorganized.ExecuteQuery(q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->matches, CountMatches(t, q)) << to->name();
    }
  }
}

TEST(PhysicalStoreTest, ReorganizeImprovesSkippingForNewWorkload) {
  Table t = MakeTable(4000, 5);
  LayoutInstance by_ts = SortedInstance(t, 0, 16, "by_ts");
  LayoutInstance by_qty = SortedInstance(t, 1, 16, "by_qty");
  PhysicalStore store(TempDir("improve"));
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
  Query q;
  q.conjuncts = {Predicate::Between(1, Value(int64_t{400}), Value(int64_t{450}))};
  auto before = store.ExecuteQuery(q);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(store.Reorganize(t, by_qty).ok());
  auto after = store.ExecuteQuery(q);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after->partitions_read, before->partitions_read);
  EXPECT_EQ(after->matches, before->matches);
}

TEST(ReplayPhysicalTest, FollowsDecisionTrace) {
  Table t = MakeTable(3000, 6);
  StateRegistry reg;
  int s0 = reg.Add(SortedInstance(t, 0, 8, "s0"));
  int s1 = reg.Add(SortedInstance(t, 1, 8, "s1"));
  (void)s0;
  // Build a fake simulation trace: switch to s1 at query 10.
  std::vector<Query> queries;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    Query q;
    q.id = i;
    int64_t lo = rng.UniformInt(0, 900);
    q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 100))};
    queries.push_back(q);
  }
  SimResult sim;
  sim.serving_state.assign(30, s0);
  for (size_t i = 10; i < 30; ++i) sim.serving_state[i] = s1;

  auto result = ReplayPhysical(t, reg, sim, queries, /*stride=*/3,
                               TempDir("replay"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_switches, 1);
  EXPECT_GT(result->reorg_seconds, 0.0);
  EXPECT_EQ(result->queries_executed, 10u);
  EXPECT_GT(result->query_seconds, 0.0);
}

// The paper's single background process (§III-B) is the ReorgPool
// serving one store.
TEST(ReorgPoolTest, CompletesAndSwaps) {
  Table t = MakeTable(5000, 10);
  LayoutInstance a = SortedInstance(t, 0, 8, "a");
  LayoutInstance b = SortedInstance(t, 1, 8, "b");
  PhysicalStore store(TempDir("bg_swap"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  {
    ReorgPool bg;
    EXPECT_FALSE(bg.busy(0));
    ASSERT_TRUE(bg.Submit(testutil::RewriteJob(&store, &t, &b)));
    bg.Wait(0);
    EXPECT_FALSE(bg.busy(0));
    EXPECT_TRUE(bg.last_status(0).ok()) << bg.last_status(0).ToString();
    EXPECT_EQ(bg.stats().completed, 1);
    EXPECT_GT(bg.stats().total_seconds, 0.0);
  }
  // The store now serves the new layout with all rows intact.
  EXPECT_EQ(store.current_instance(), &b);
  Query q;
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, 5000u);
  store.Vacuum();
}

TEST(ReorgPoolTest, SnapshotServesDuringReorganization) {
  Table t = MakeTable(20000, 11);
  LayoutInstance a = SortedInstance(t, 0, 16, "a");
  LayoutInstance b = SortedInstance(t, 1, 16, "b");
  PhysicalStore store(TempDir("bg_snap"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());

  PhysicalStore::Snapshot snap = store.GetSnapshot();
  Query q;
  q.conjuncts = {Predicate::Between(1, Value(int64_t{100}), Value(int64_t{300}))};
  uint64_t expected = CountMatches(t, q);

  ReorgPool bg;
  ASSERT_TRUE(bg.Submit(testutil::RewriteJob(&store, &t, &b)));
  // Keep querying the old snapshot while the rewrite runs; results must be
  // correct throughout (outgoing files stay on disk until Vacuum).
  int during = 0;
  do {
    auto exec = testutil::ScanSnapshot(store, snap, q);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->matches, expected);
    ++during;
  } while (bg.busy(0));
  EXPECT_GE(during, 1);
  bg.Wait(0);
  ASSERT_TRUE(bg.last_status(0).ok());
  // And the snapshot still works after the swap, until Vacuum.
  auto exec = testutil::ScanSnapshot(store, snap, q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, expected);
  // After Vacuum, fresh snapshots serve the new layout correctly.
  store.Vacuum();
  auto fresh = store.ExecuteQuery(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->matches, expected);
}

TEST(ReorgPoolTest, RejectsConcurrentSubmit) {
  Table t = MakeTable(30000, 12);
  LayoutInstance a = SortedInstance(t, 0, 16, "a");
  LayoutInstance b = SortedInstance(t, 1, 16, "b");
  LayoutInstance c = SortedInstance(t, 0, 8, "c");
  PhysicalStore store(TempDir("bg_reject"));
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  ReorgPool bg;
  ASSERT_TRUE(bg.Submit(testutil::RewriteJob(&store, &t, &b)));
  // While busy, further submissions bounce (single background process).
  bool rejected = false;
  while (bg.busy(0)) {
    if (!bg.Submit(testutil::RewriteJob(&store, &t, &c))) {
      rejected = true;
      break;
    }
  }
  bg.Wait(0);
  EXPECT_TRUE(rejected || bg.stats().completed >= 1);
}

TEST(PhysicalStoreTest, VacuumReclaimsOutgoingFiles) {
  namespace fs2 = std::filesystem;
  Table t = MakeTable(2000, 13);
  LayoutInstance a = SortedInstance(t, 0, 8, "a");
  LayoutInstance b = SortedInstance(t, 1, 8, "b");
  std::string dir = TempDir("vacuum");
  PhysicalStore store(dir);
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
  ASSERT_TRUE(store.Reorganize(t, b).ok());
  size_t before = std::distance(fs2::directory_iterator(dir),
                                fs2::directory_iterator{});
  store.Vacuum();
  size_t after = std::distance(fs2::directory_iterator(dir),
                               fs2::directory_iterator{});
  EXPECT_LT(after, before);
  EXPECT_EQ(after, b.partitioning().num_partitions());
}

TEST(PhysicalStoreTest, EmptyPartitionListHandled) {
  // A table where one layout partition ends up empty after routing must not
  // break materialization (BuildPartitioning drops empties).
  Table t = MakeTable(100, 8);
  LayoutInstance inst = SortedInstance(t, 0, 64, "tiny");
  PhysicalStore store(TempDir("tiny"));
  auto timing = store.MaterializeLayout(t, inst);
  ASSERT_TRUE(timing.ok());
  Query q;
  auto exec = store.ExecuteQuery(q);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, 100u);
}

}  // namespace
}  // namespace core
}  // namespace oreo
