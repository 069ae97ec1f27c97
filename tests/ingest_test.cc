// Tests for the live-ingest subsystem: LiveTable delta/tombstone semantics,
// MutationLog versioning, shard routing of mutation batches, the engine's
// Ingest surface (batch-boundary visibility, validation, folds), the
// drift-tracking refresh of the sampling layer (data-version histogram,
// cost-cache invalidation), and the kIngest wire path end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/engine.h"
#include "core/oreo.h"
#include "ingest/coordinator.h"
#include "ingest/live_table.h"
#include "ingest/mutation_log.h"
#include "layout/qdtree_layout.h"
#include "sampling/workload_stats.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/shard_router.h"
#include "test_util.h"

namespace oreo {
namespace {

using core::IngestBatch;
using core::IngestResult;

// Event-schema rows {ts, qty, cat} with ts starting at `ts_base` — appended
// chunks keep arrival order increasing past the seeded table.
Table MakeChunk(size_t rows, int64_t ts_base, uint64_t seed) {
  Table t(testutil::EventSchema());
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(ts_base + static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 1000)), Value(cats[rng.Uniform(4)])});
  }
  return t;
}

Query DeleteWhere(Predicate p) {
  Query q;
  q.conjuncts = {std::move(p)};
  return q;
}

// ------------------------------------------------------------ LiveTable ----

TEST(LiveTableTest, AppendsPublishChunksAtomically) {
  Table base = testutil::MakeEventTable(1000, 7);
  ingest::LiveTable live(&base);
  EXPECT_EQ(live.visible_rows(), 1000u);
  EXPECT_FALSE(live.has_mutations());

  ingest::LiveTable::ApplyStats stats =
      live.Apply(MakeChunk(200, 1000, 11), {}, /*version=*/1);
  EXPECT_EQ(stats.rows_appended, 200u);
  EXPECT_EQ(stats.rows_deleted, 0u);
  EXPECT_EQ(live.visible_rows(), 1200u);
  ASSERT_EQ(live.deltas().size(), 1u);
  EXPECT_EQ(live.deltas()[0].version, 1u);
  EXPECT_EQ(live.deltas()[0].rows.num_rows(), 200u);
  EXPECT_TRUE(live.has_mutations());
}

TEST(LiveTableTest, DeletesApplyToPreBatchRowsOnly) {
  Table base = testutil::MakeEventTable(100, 7);
  ingest::LiveTable live(&base);

  // Batch 1: rows with ts in [100, 200).
  live.Apply(MakeChunk(100, 100, 1), {}, 1);
  // Batch 2 deletes ts >= 100 AND appends fresh rows with ts >= 100: the
  // delete tombstones batch 1's rows, but batch 2's own appends are exempt.
  ingest::LiveTable::ApplyStats stats = live.Apply(
      MakeChunk(50, 150, 2), {DeleteWhere(Predicate::Ge(0, Value(int64_t{100})))},
      2);
  EXPECT_EQ(stats.rows_deleted, 100u);
  EXPECT_EQ(stats.rows_appended, 50u);
  EXPECT_EQ(live.visible_rows(), 100u + 50u);
  EXPECT_EQ(live.delta_tombstones(), 100u);
  EXPECT_EQ(live.base_tombstones(), 0u);  // base ts < 100 everywhere
}

TEST(LiveTableTest, FullRangeDeleteClearsEverythingVisible) {
  Table base = testutil::MakeEventTable(50, 3);
  ingest::LiveTable live(&base);
  live.Apply(MakeChunk(25, 1000, 4), {}, 1);
  // ts >= 0 matches every row, base and delta alike.
  ingest::LiveTable::ApplyStats stats = live.Apply(
      Table(), {DeleteWhere(Predicate::Ge(0, Value(int64_t{0})))}, 2);
  EXPECT_EQ(stats.rows_deleted, 75u);
  EXPECT_EQ(live.visible_rows(), 0u);
}

TEST(LiveTableTest, FoldPreservesTheLogicalTable) {
  Table base = testutil::MakeEventTable(300, 9);
  ingest::LiveTable live(&base);
  live.Apply(MakeChunk(100, 300, 10),
             {DeleteWhere(Predicate::Lt(0, Value(int64_t{40})))}, 1);
  live.Apply(MakeChunk(60, 400, 11),
             {DeleteWhere(Predicate::Between(0, Value(int64_t{320}),
                                             Value(int64_t{329})))},
             2);

  const uint64_t visible = live.visible_rows();
  Table logical_before = live.BuildLogicalTable();
  ASSERT_EQ(logical_before.num_rows(), visible);

  live.Fold();
  EXPECT_TRUE(live.folded());
  EXPECT_EQ(live.visible_rows(), visible);
  EXPECT_TRUE(live.deltas().empty());
  EXPECT_FALSE(live.has_mutations());
  EXPECT_EQ(live.base().num_rows(), visible);
  testutil::ExpectTablesEqual(live.BuildLogicalTable(), logical_before);
  // The fold result IS the logical table (same canonical row order).
  testutil::ExpectTablesEqual(live.base(), logical_before);
}

TEST(LiveTableTest, MutationFractionCountsDeltasAndTombstones) {
  Table base = testutil::MakeEventTable(900, 5);
  ingest::LiveTable live(&base);
  EXPECT_DOUBLE_EQ(live.MutationFraction(), 0.0);
  live.Apply(MakeChunk(100, 900, 6), {}, 1);
  // 100 delta rows over 1000 physical rows.
  EXPECT_DOUBLE_EQ(live.MutationFraction(), 0.1);
}

TEST(LiveTableTest, DeltaScanRowsPrunesByZoneMap) {
  Table base = testutil::MakeEventTable(100, 5);
  ingest::LiveTable live(&base);
  live.Apply(MakeChunk(64, 1000, 6), {}, 1);  // ts in [1000, 1064)
  live.Apply(MakeChunk(32, 5000, 7), {}, 2);  // ts in [5000, 5032)

  Query hits_first = DeleteWhere(
      Predicate::Between(0, Value(int64_t{1000}), Value(int64_t{1010})));
  Query hits_none = DeleteWhere(
      Predicate::Between(0, Value(int64_t{9000}), Value(int64_t{9010})));
  EXPECT_EQ(live.DeltaScanRows(hits_first), 64u);  // whole surviving chunk
  EXPECT_EQ(live.DeltaScanRows(hits_none), 0u);
  EXPECT_EQ(live.CountDeltaMatches(hits_first), 11u);
}

// ---------------------------------------------------------- MutationLog ----

TEST(MutationLogTest, VersionsAreMonotonicAndAccountingIsGlobal) {
  ingest::MutationLog log;
  EXPECT_EQ(log.version(), 0u);
  ingest::MutationLog::BatchRecord a = log.Commit(100, 0);
  ingest::MutationLog::BatchRecord b = log.Commit(50, 20);
  EXPECT_EQ(a.version, 1u);
  EXPECT_EQ(b.version, 2u);
  EXPECT_EQ(log.version(), 2u);
  EXPECT_EQ(log.num_batches(), 2u);
  EXPECT_EQ(log.total_appended(), 150u);
  EXPECT_EQ(log.total_deleted(), 20u);
}

// ----------------------------------------------------------- SplitIngest ----

TEST(SplitIngestTest, RowsRouteExactlyLikeTheInitialLoad) {
  Table base = testutil::MakeEventTable(2000, 21);
  ShardRouterOptions ropts;
  ropts.num_shards = 4;
  ropts.column = 0;
  ropts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(base, ropts);

  Table chunk = MakeChunk(500, 0, 22);  // ts overlapping the base domain
  std::vector<ingest::ShardIngest> split = ingest::SplitIngest(router, chunk, {});
  ASSERT_EQ(split.size(), 4u);
  size_t total = 0;
  for (size_t s = 0; s < split.size(); ++s) {
    total += split[s].rows.num_rows();
    for (uint32_t r = 0; r < split[s].rows.num_rows(); ++r) {
      EXPECT_EQ(router.ShardOfRow(split[s].rows, r), s)
          << "row routed to the wrong shard";
    }
  }
  EXPECT_EQ(total, 500u);  // routing is a partition: no loss, no duplication
}

TEST(SplitIngestTest, DeletesGoOnlyToShardsTheirPredicateCanTouch) {
  Table base = testutil::MakeEventTable(2000, 23);
  ShardRouterOptions ropts;
  ropts.num_shards = 4;
  ropts.column = 0;
  ropts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(base, ropts);

  // A narrow ts point-delete prunes to exactly the shards ShardsForQuery
  // names; a non-routing-column delete must reach every shard.
  Query narrow = DeleteWhere(Predicate::Eq(0, Value(int64_t{10})));
  Query broad = DeleteWhere(Predicate::Eq(1, Value(int64_t{10})));
  std::vector<ingest::ShardIngest> split =
      ingest::SplitIngest(router, Table(), {narrow, broad});
  std::vector<uint32_t> narrow_shards = router.ShardsForQuery(narrow);
  for (size_t s = 0; s < split.size(); ++s) {
    const bool narrow_expected =
        std::find(narrow_shards.begin(), narrow_shards.end(),
                  static_cast<uint32_t>(s)) != narrow_shards.end();
    EXPECT_EQ(split[s].deletes.size(), narrow_expected ? 2u : 1u);
  }
}

// ----------------------------------------------------------- Oreo::Ingest ----

core::OreoOptions IngestOpts(double fold_threshold = 2.0) {
  core::OreoOptions opts;
  opts.seed = 17;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.num_threads = 1;
  opts.fold_threshold = fold_threshold;
  return opts;
}

// The mutation-log invariant at every batch boundary, with queries stepped
// between batches and deletes that hit both base rows and appended rows. At
// threshold 2.0 nothing folds; at 0.1 the debt crosses the threshold several
// times, so the invariant must hold across folds too.
void CheckBatchBoundaries(double fold_threshold) {
  Table base = testutil::MakeEventTable(2000, 31);
  QdTreeGenerator gen;
  auto engine = core::MakeEngine(&base, &gen, 0, IngestOpts(fold_threshold));
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 2800, 120, 240, 9, /*assign_ids=*/true);

  constexpr int kBatches = 8;
  constexpr size_t kQueriesPerGap = 30;
  uint64_t appended = 0, deleted = 0, folds = 0;
  for (int b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kQueriesPerGap; ++i) {
      engine->Step(queries[static_cast<size_t>(b) * kQueriesPerGap + i]);
    }
    IngestBatch batch;
    batch.rows = MakeChunk(100, 2000 + b * 100, 40 + static_cast<uint64_t>(b));
    if (b % 2 == 1) {
      // 50 visible rows each: base ts at b = 1, 5; the rows batch b - 2
      // appended at b = 3, 7 (ts is unique, so the count is exact).
      const int64_t lo = b % 4 == 1 ? b * 100 : 2000 + (b - 2) * 100;
      batch.deletes.push_back(
          DeleteWhere(Predicate::Between(0, Value(lo), Value(lo + 49))));
    }
    Result<IngestResult> r = engine->Ingest(std::move(batch));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->version, static_cast<uint64_t>(b + 1));
    EXPECT_EQ(r->rows_deleted, b % 2 == 1 ? 50u : 0u) << "batch " << b;
    appended += r->rows_appended;
    deleted += r->rows_deleted;
    if (r->folded) ++folds;
    // The invariant the mutation log owns: visible == base + appended - deleted.
    EXPECT_EQ(r->visible_rows, 2000u + appended - deleted) << "batch " << b;
  }
  EXPECT_EQ(deleted, 200u);
  if (fold_threshold > 1.0) {
    EXPECT_EQ(folds, 0u);
  } else {
    EXPECT_GE(folds, 1u);
  }
  EXPECT_EQ(engine->core(0).folds(), folds);
  EXPECT_EQ(engine->core(0).data_version(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(engine->core(0).visible_rows(), 2000u + appended - deleted);
}

TEST(OreoIngestTest, BatchBoundaryVisibilityAndInvariant) {
  CheckBatchBoundaries(2.0);  // never folds
}

TEST(OreoIngestTest, BatchBoundaryInvariantHoldsAcrossFolds) {
  CheckBatchBoundaries(0.1);  // folds several times
}

TEST(OreoIngestTest, ValidationRejectsBadBatchesWithoutSideEffects) {
  Table base = testutil::MakeEventTable(500, 33);
  QdTreeGenerator gen;
  auto engine = core::MakeEngine(&base, &gen, 0, IngestOpts());

  IngestBatch wrong_schema;
  wrong_schema.rows = testutil::MakeSalesTable(10, 1);
  Result<IngestResult> r1 = engine->Ingest(std::move(wrong_schema));
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  IngestBatch bad_delete;
  bad_delete.deletes.push_back(DeleteWhere(Predicate::Eq(7, Value(int64_t{1}))));
  Result<IngestResult> r2 = engine->Ingest(std::move(bad_delete));
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Nothing was committed: version still 0, all rows visible.
  EXPECT_EQ(engine->core(0).data_version(), 0u);
  EXPECT_EQ(engine->core(0).visible_rows(), 500u);
}

TEST(OreoIngestTest, CrossingTheFoldThresholdCompacts) {
  Table base = testutil::MakeEventTable(1000, 35);
  QdTreeGenerator gen;
  auto engine = core::MakeEngine(&base, &gen, 0, IngestOpts(/*fold=*/0.25));
  core::Oreo& oreo = engine->core(0);

  // 100 delta rows / 1100 physical = 9% debt: no fold yet.
  Result<IngestResult> r1 = engine->Ingest(
      IngestBatch{MakeChunk(100, 1000, 51), {}});
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->folded);
  EXPECT_EQ(oreo.folds(), 0u);

  // +250 more delta rows: (350 delta) / (1350 physical) = 26% >= 25%.
  Result<IngestResult> r2 = engine->Ingest(
      IngestBatch{MakeChunk(250, 1100, 52), {}});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->folded);
  EXPECT_EQ(oreo.folds(), 1u);
  EXPECT_EQ(r2->visible_rows, 1350u);
  // Post-fold the base IS the logical table and the deltas are gone.
  EXPECT_EQ(oreo.base_table().num_rows(), 1350u);
  EXPECT_FALSE(oreo.live().has_mutations());
  EXPECT_EQ(oreo.live_scan_view(), nullptr);

  // The engine keeps serving and ingesting after the fold.
  Result<IngestResult> r3 = engine->Ingest(
      IngestBatch{MakeChunk(10, 2000, 53), {}});
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->version, 3u);
  EXPECT_EQ(r3->visible_rows, 1360u);
}

TEST(OreoIngestTest, QueriesChargeTheLiveCostWhileMutationsPend) {
  Table base = testutil::MakeEventTable(1000, 37);
  QdTreeGenerator gen;
  auto engine = core::MakeEngine(&base, &gen, 0, IngestOpts());
  core::Oreo& oreo = engine->core(0);

  Query q;
  q.id = 0;
  q.conjuncts = {
      Predicate::Between(0, Value(int64_t{0}), Value(int64_t{100}))};
  const double base_cost = oreo.registry().Cost(oreo.current_state(), q);

  // Append a chunk whose ts range does NOT overlap the query: the zone map
  // prunes it, so the live cost is the base fraction diluted by the larger
  // physical row count — strictly below the base cost.
  ASSERT_TRUE(engine->Ingest(IngestBatch{MakeChunk(200, 50000, 61), {}}).ok());
  core::StepResult pruned = engine->Step(q);
  EXPECT_LT(pruned.query_cost, base_cost);
  EXPECT_NEAR(pruned.query_cost, base_cost * 1000.0 / 1200.0, 1e-12);

  // Append a chunk the query cannot prune: its rows are scanned in full, so
  // the live cost gains d/(b + delta) relative to the diluted base term.
  ASSERT_TRUE(engine->Ingest(IngestBatch{MakeChunk(200, 0, 62), {}}).ok());
  q.id = 1;
  core::StepResult scanned = engine->Step(q);
  EXPECT_NEAR(scanned.query_cost,
              (base_cost * 1000.0 + 200.0) / 1400.0, 1e-12);
}

// Run is Step in a loop: with an un-folded delta chunk pending, it charges
// the live cost D-UMTS decides on and advances the pending swaps, so a Run
// engine and a Step-loop twin agree exactly.
TEST(OreoIngestTest, RunChargesTheLiveCostLikeStep) {
  Table base = testutil::MakeEventTable(1000, 37);
  QdTreeGenerator gen;
  core::OreoOptions opts = IngestOpts();
  opts.alpha = 2.0;  // cheap switches, so the stream reorganizes
  opts.reorg_delay = 3;
  std::vector<Query> stream = testutil::MakeRangeWorkload(0, 1200, 100, 90, 5);
  for (const Query& q : testutil::MakeRangeWorkload(1, 1000, 80, 90, 6)) {
    stream.push_back(q);
  }

  core::Oreo run(&base, &gen, 0, opts);
  core::Oreo step(&base, &gen, 0, opts);
  for (core::Oreo* oreo : {&run, &step}) {
    // Overlaps the base ts range: no query can prune the chunk.
    ASSERT_TRUE(oreo->Ingest(IngestBatch{MakeChunk(200, 0, 62), {}}).ok());
  }

  core::SimResult r = run.Run(stream, /*record_trace=*/true);
  double step_cost = 0.0;
  for (size_t t = 0; t < stream.size(); ++t) {
    core::StepResult s = step.Step(stream[t]);
    step_cost += s.query_cost;
    EXPECT_EQ(r.serving_state[t], s.state) << "query " << t;
  }
  EXPECT_EQ(r.query_cost, step_cost);
  EXPECT_EQ(r.num_switches, step.num_switches());
  EXPECT_EQ(r.reorg_cost, step.total_reorg_cost());
  EXPECT_GT(r.num_switches, 0);
  EXPECT_EQ(run.total_query_cost(), step.total_query_cost());
  EXPECT_EQ(run.physical_state(), step.physical_state());
  EXPECT_EQ(run.current_state(), step.current_state());
}

// ----------------------------------------- drift-tracking sample refresh ----

TEST(WorkloadStatsTest, DataVersionHistogramTracksIngestBoundaries) {
  WorkloadStatistics::Options wopts;
  wopts.sample_capacity = 16;
  wopts.chunk_size = 4;
  wopts.lambda = 0.2;  // strong recency bias: new arrivals displace old slots
  WorkloadStatistics stats(wopts, Rng(3));

  std::vector<Query> qs = testutil::MakeRangeWorkload(0, 1000, 50, 40, 5);
  for (size_t i = 0; i < 20; ++i) stats.Observe(qs[i]);
  std::map<uint64_t, size_t> before = stats.DataVersionHistogram();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before.count(0), 1u);  // everything sampled pre-ingest

  stats.NoteDataVersion(1);
  for (size_t i = 20; i < 40; ++i) stats.Observe(qs[i]);
  std::map<uint64_t, size_t> after = stats.DataVersionHistogram();
  ASSERT_TRUE(after.count(1));
  EXPECT_GT(after[1], 0u);  // post-ingest arrivals displaced stale slots
  size_t total = 0;
  for (const auto& [version, count] : after) total += count;
  EXPECT_EQ(total, stats.sample_size());
}

TEST(WorkloadStatsTest, ChunkVersionsBumpOnlyForTouchedSlots) {
  WorkloadStatistics::Options wopts;
  wopts.sample_capacity = 32;
  wopts.chunk_size = 8;
  WorkloadStatistics stats(wopts, Rng(7));

  std::vector<Query> qs = testutil::MakeRangeWorkload(0, 1000, 50, 200, 9);
  // Fill to capacity first.
  for (size_t i = 0; i < 32; ++i) stats.Observe(qs[i]);

  size_t steps_with_changes = 0;
  for (size_t i = 32; i < 200; ++i) {
    std::vector<WorkloadStatistics::ChunkView> before = stats.SampleChunks();
    stats.Observe(qs[i]);
    std::vector<WorkloadStatistics::ChunkView> after = stats.SampleChunks();
    ASSERT_EQ(before.size(), after.size());
    size_t changed = 0;
    for (size_t c = 0; c < after.size(); ++c) {
      if (after[c].version != before[c].version) ++changed;
    }
    // One arrival mutates at most one slot — so at most one chunk version
    // moves, and a cost cache keyed by chunk version re-evaluates exactly
    // the touched chunk.
    EXPECT_LE(changed, 1u);
    steps_with_changes += changed;
  }
  EXPECT_GT(steps_with_changes, 0u);  // evictions actually happened
}

TEST(OreoIngestTest, IngestRefreshesDriftTrackingWithoutDroppingTheCache) {
  Table base = testutil::MakeEventTable(2000, 41);
  QdTreeGenerator gen;
  core::OreoOptions opts = IngestOpts();
  auto engine = core::MakeEngine(&base, &gen, 0, opts);
  core::Oreo& oreo = engine->core(0);

  std::vector<Query> stream =
      testutil::MakeRangeWorkload(1, 1000, 50, 300, 43, /*assign_ids=*/true);
  // Two generation cadences warm the per-(state, chunk) cost cache.
  for (size_t i = 0; i < 120; ++i) engine->Step(stream[i]);
  const uint64_t reused_warm = oreo.manager().cost_evals_reused();
  EXPECT_GT(reused_warm, 0u);  // the cache is actually serving hits

  // Ingest without folding: the data version is stamped into the workload
  // sample and the dataset sample merges the chunk...
  ASSERT_TRUE(engine->Ingest(IngestBatch{MakeChunk(100, 2000, 44), {}}).ok());
  EXPECT_EQ(oreo.manager().workload_stats().data_version(), 1u);

  // ...while the cost cache survives (an un-folded ingest never changes the
  // base table the cached partitionings cover): the next cadences keep
  // reusing chunk costs.
  for (size_t i = 120; i < 240; ++i) engine->Step(stream[i]);
  EXPECT_GT(oreo.manager().cost_evals_reused(), reused_warm);

  // Post-ingest arrivals carry the new data version in the histogram.
  std::map<uint64_t, size_t> histogram =
      oreo.manager().workload_stats().DataVersionHistogram();
  ASSERT_TRUE(histogram.count(1));
  EXPECT_GT(histogram[1], 0u);
}

TEST(OreoIngestTest, FoldRedrawsTheSampleAndRecomputesCosts) {
  Table base = testutil::MakeEventTable(2000, 47);
  QdTreeGenerator gen;
  core::OreoOptions opts = IngestOpts(/*fold=*/0.10);
  auto engine = core::MakeEngine(&base, &gen, 0, opts);
  core::Oreo& oreo = engine->core(0);

  std::vector<Query> stream =
      testutil::MakeRangeWorkload(1, 1000, 50, 300, 49, /*assign_ids=*/true);
  for (size_t i = 0; i < 120; ++i) engine->Step(stream[i]);

  // 300 rows / 2300 physical = 13% >= 10%: folds immediately.
  Result<IngestResult> folded =
      engine->Ingest(IngestBatch{MakeChunk(300, 2000, 50), {}});
  ASSERT_TRUE(folded.ok());
  ASSERT_TRUE(folded->folded);

  const uint64_t computed_before = oreo.manager().cost_evals_computed();
  const size_t live_states = oreo.registry().num_live();
  const size_t sample_size =
      oreo.manager().workload_stats().sample_size();
  // One full cadence after the fold: the cache was dropped (the registry's
  // partitionings re-materialized over the folded table), so the live-state
  // cost matrix recomputes in full at least once.
  for (size_t i = 120; i < 180; ++i) engine->Step(stream[i]);
  EXPECT_GE(oreo.manager().cost_evals_computed() - computed_before,
            static_cast<uint64_t>(live_states) * sample_size);
}

// ------------------------------------------------------------- wire path ----

server::WireIngest MakeWireBatch(size_t rows, int64_t ts_base) {
  server::WireIngest ingest;
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    ingest.rows.push_back({Value(ts_base + static_cast<int64_t>(i)),
                           Value(static_cast<int64_t>(i % 1000)),
                           Value(cats[i % 4])});
  }
  return ingest;
}

TEST(IngestWireTest, IngestFrameRoundTripsExactly) {
  server::WireIngest ingest = MakeWireBatch(5, 100);
  ingest.deletes.push_back(DeleteWhere(Predicate::Lt(0, Value(int64_t{50}))));
  std::string frame = server::EncodeIngestFrame(7, 3, ingest, /*deadline=*/250);

  server::FrameHeader header;
  ASSERT_TRUE(server::DecodeHeader(frame, server::kDefaultMaxPayload, &header)
                  .ok());
  EXPECT_EQ(header.type, static_cast<uint16_t>(server::MsgType::kIngest));
  EXPECT_EQ(header.request_id, 7u);
  EXPECT_EQ(header.tenant_id, 3u);

  server::WireIngest decoded;
  uint64_t deadline = 0;
  ASSERT_TRUE(server::DecodeIngestPayload(
                  std::string_view(frame).substr(server::kHeaderBytes),
                  &decoded, &deadline)
                  .ok());
  EXPECT_EQ(deadline, 250u);
  ASSERT_EQ(decoded.rows.size(), 5u);
  ASSERT_EQ(decoded.rows[0].size(), 3u);
  EXPECT_EQ(decoded.rows[4][0].AsInt64(), 104);
  EXPECT_EQ(decoded.rows[2][2].AsString(), "c");
  ASSERT_EQ(decoded.deletes.size(), 1u);
  EXPECT_EQ(decoded.deletes[0].conjuncts[0].column, 0);
}

TEST(IngestWireTest, IngestReplyRoundTripsExactly) {
  server::IngestReply reply;
  reply.status = server::ReplyStatus::kDeadlineExceeded;
  reply.message = "deadline expired during ingest";
  reply.version = 9;
  reply.rows_appended = 100;
  reply.rows_deleted = 3;
  reply.visible_rows = 4097;
  reply.folded = true;
  std::string frame = server::EncodeIngestReplyFrame(11, 2, reply);

  server::FrameHeader header;
  ASSERT_TRUE(server::DecodeHeader(frame, server::kDefaultMaxPayload, &header)
                  .ok());
  EXPECT_EQ(header.type,
            static_cast<uint16_t>(server::MsgType::kIngestReply));
  server::IngestReply decoded;
  ASSERT_TRUE(server::DecodeIngestReplyPayload(
                  std::string_view(frame).substr(server::kHeaderBytes),
                  &decoded)
                  .ok());
  EXPECT_EQ(decoded.status, reply.status);
  EXPECT_EQ(decoded.message, reply.message);
  EXPECT_EQ(decoded.version, 9u);
  EXPECT_EQ(decoded.rows_appended, 100u);
  EXPECT_EQ(decoded.rows_deleted, 3u);
  EXPECT_EQ(decoded.visible_rows, 4097u);
  EXPECT_TRUE(decoded.folded);
}

TEST(IngestWireTest, MalformedIngestPayloadsAreRejected) {
  server::WireIngest ok = MakeWireBatch(3, 0);
  std::string frame = server::EncodeIngestFrame(1, 1, ok);
  std::string payload = frame.substr(server::kHeaderBytes);

  server::WireIngest out;
  // Truncated payload.
  EXPECT_FALSE(server::DecodeIngestPayload(
                   std::string_view(payload).substr(0, payload.size() - 3),
                   &out)
                   .ok());
  // Trailing garbage after a well-formed payload.
  EXPECT_FALSE(server::DecodeIngestPayload(payload + "x", &out).ok());
  // Too many delete queries.
  server::WireIngest floody;
  for (size_t i = 0; i < server::kMaxIngestDeletes + 1; ++i) {
    floody.deletes.push_back(DeleteWhere(Predicate::Eq(0, Value(int64_t{1}))));
  }
  std::string flood_frame = server::EncodeIngestFrame(1, 1, floody);
  EXPECT_FALSE(server::DecodeIngestPayload(
                   std::string_view(flood_frame).substr(server::kHeaderBytes),
                   &out)
                   .ok());
}

class IngestServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = testutil::MakeEventTable(2000, 55);
    server::TenantConfig cfg;
    cfg.name = "events";
    cfg.table = &table_;
    cfg.generator = &generator_;
    cfg.time_column = 0;
    cfg.options = IngestOpts();
    OREO_CHECK_OK(server_.AddTenant(1, cfg));
    OREO_CHECK_OK(server_.Start());
  }

  Table table_;
  QdTreeGenerator generator_;
  server::OreoServer server_;
};

TEST_F(IngestServerTest, IngestRoundTripMutatesTheTenantEngine) {
  server::LoopbackClient client(&server_);
  Result<server::IngestReply> r1 =
      client.CallIngest(1, MakeWireBatch(100, 2000));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->status, server::ReplyStatus::kOk);
  EXPECT_EQ(r1->version, 1u);
  EXPECT_EQ(r1->rows_appended, 100u);
  EXPECT_EQ(r1->visible_rows, 2100u);

  server::WireIngest del;
  del.deletes.push_back(DeleteWhere(Predicate::Lt(0, Value(int64_t{100}))));
  Result<server::IngestReply> r2 = client.CallIngest(1, del);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->version, 2u);
  EXPECT_EQ(r2->rows_deleted, 100u);
  EXPECT_EQ(r2->visible_rows, 2000u);

  // Queries and ingests interleave on the same connection.
  Query q;
  q.id = 1;
  q.conjuncts = {
      Predicate::Between(0, Value(int64_t{0}), Value(int64_t{500}))};
  Result<server::QueryReply> qr = client.Call(1, q);
  ASSERT_TRUE(qr.ok());
  EXPECT_EQ(qr->status, server::ReplyStatus::kOk);

  server_.Shutdown();
  server::ServerStats stats = server_.stats();
  EXPECT_EQ(stats.ingest_batches, 2u);
  EXPECT_EQ(stats.ingest_rows, 100u);
  auto* engine = server_.engine(1);
  EXPECT_EQ(engine->core(0).visible_rows(), 2000u);
  EXPECT_EQ(engine->core(0).data_version(), 2u);
}

TEST_F(IngestServerTest, SchemaViolationsAnswerBadRequestInKind) {
  server::LoopbackClient client(&server_);

  // Ragged row (arity mismatch against the tenant schema).
  server::WireIngest ragged;
  ragged.rows.push_back({Value(int64_t{1}), Value(int64_t{2})});
  Result<server::IngestReply> r1 = client.CallIngest(1, ragged);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->status, server::ReplyStatus::kBadRequest);
  EXPECT_EQ(r1->version, 0u);  // nothing committed

  // Right arity, wrong type in column 0.
  server::WireIngest mistyped;
  mistyped.rows.push_back({Value(1.5), Value(int64_t{2}), Value("a")});
  Result<server::IngestReply> r2 = client.CallIngest(1, mistyped);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->status, server::ReplyStatus::kBadRequest);

  // Delete predicate out of column range.
  server::WireIngest bad_delete;
  bad_delete.deletes.push_back(
      DeleteWhere(Predicate::Eq(9, Value(int64_t{1}))));
  Result<server::IngestReply> r3 = client.CallIngest(1, bad_delete);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->status, server::ReplyStatus::kBadRequest);

  // Unknown tenant.
  Result<server::IngestReply> r4 = client.CallIngest(42, MakeWireBatch(1, 0));
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4->status, server::ReplyStatus::kUnknownTenant);

  // The engine never saw any of it.
  EXPECT_EQ(server_.engine(1)->core(0).data_version(), 0u);
  EXPECT_EQ(server_.engine(1)->core(0).visible_rows(), 2000u);
}

TEST_F(IngestServerTest, RetiredProtocolVersionsGetUpgradeHints) {
  server::LoopbackClient client(&server_);
  // A v3-encoded ingest frame with the version field rewritten to 2: framing
  // is identical across versions, so the server answers just this request
  // with an upgrade hint and the stream survives.
  std::string frame = server::EncodeIngestFrame(5, 1, MakeWireBatch(1, 0));
  frame[4] = 2;
  frame[5] = 0;
  client.session()->Feed(frame);
  Result<server::IngestReply> hint = client.WaitIngest(5);
  ASSERT_TRUE(hint.ok()) << hint.status().ToString();
  EXPECT_EQ(hint->status, server::ReplyStatus::kBadRequest);
  EXPECT_NE(hint->message.find("upgrade to version 3"), std::string::npos);
  EXPECT_NE(hint->message.find("version 2 retired"), std::string::npos);
  EXPECT_FALSE(client.session()->broken());

  // The same connection still serves current-version traffic.
  Result<server::IngestReply> ok = client.CallIngest(1, MakeWireBatch(1, 0));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->status, server::ReplyStatus::kOk);
}

}  // namespace
}  // namespace oreo
