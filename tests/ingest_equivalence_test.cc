// The live-ingest equivalence wall. Pinned contracts:
//
//   1. Ingest/query interleavings are deterministic: for shard counts
//      {1, 4}, runs at thread counts {1, 8} produce bit-identical serving
//      states, per-query costs, switch decisions, ingest outcomes
//      (versions, row counters, fold points), physical match counts, and
//      final partition-file CRCs. The thread-1 run IS the serial reference
//      — mutation batches commit at their interleaving position regardless
//      of how many workers evaluate costs or scan partitions.
//   2. Every physical match count equals the ground truth computed on an
//      independently maintained logical mirror of the mutation schedule —
//      at every interleaving point, including mid-delta and post-fold.
//   3. Rebuild-from-scratch equivalence: a fresh engine constructed over
//      the final logical table (BuildLogicalTable of every shard) answers
//      every probe query with the same match counts as the mutated engine —
//      the mutation path loses and invents nothing.
//   4. Contract 2 holds when the first layout is not a range of row ids
//      (sorted by qty instead of arrival order): background rewrites out of
//      it must leave files whose row order the tombstone masks index.
//
// Runs under the TSan CI job with the other slow walls (the interleaved
// runs overlap batched physical execution, concurrent background rewrites,
// and compaction folds).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "ingest/live_table.h"
#include "layout/qdtree_layout.h"
#include "storage/backend.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

namespace fs = std::filesystem;

constexpr size_t kThreadCounts[] = {1, 8};
constexpr size_t kShardCounts[] = {1, 4};
constexpr size_t kBatchSize = 20;     // physical batch size (queries)
constexpr size_t kIngestEvery = 40;   // one mutation batch per 40 queries
constexpr size_t kRowsPerBatch = 150;

OreoOptions WallOpts(uint64_t seed, size_t num_threads, size_t num_shards) {
  OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = num_threads;
  opts.num_shards = num_shards;
  opts.shard_routing = ShardRouting::kRange;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// Two workload phases (ts ranges, then qty ranges) so managers admit states
// and D-UMTS switches while the data underneath mutates.
std::vector<Query> TwoPhaseStream(size_t rows, uint64_t seed) {
  std::vector<Query> stream = testutil::MakeRangeWorkload(
      0, static_cast<int64_t>(rows), 150, 150, seed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, 150, seed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i);
  }
  return stream;
}

// The drifting feed: event-schema rows whose ts values continue past the
// base domain, drawn from an unrelated seed so the appended distribution
// differs from what the initial layouts were fit to.
Table MakeFeedTable(size_t rows, uint64_t seed) {
  Table t(testutil::EventSchema());
  Rng rng(seed * 977 + 5);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(4000 + i)),
                 Value(rng.UniformInt(0, 1000)), Value(cats[rng.Uniform(4)])});
  }
  return t;
}

// The deterministic mutation schedule: batch b (1-based) appends feed rows
// [(b-1)*kRowsPerBatch, b*kRowsPerBatch) and every third batch also purges a
// qty band of the rows visible before it (hitting base and delta rows
// alike). The schedule is a pure function of b, so every configuration
// replays the identical interleaving.
IngestBatch ScheduledBatch(const Table& feed, size_t b) {
  IngestBatch batch;
  std::vector<uint32_t> ids;
  for (size_t r = (b - 1) * kRowsPerBatch; r < b * kRowsPerBatch; ++r) {
    ids.push_back(static_cast<uint32_t>(r % feed.num_rows()));
  }
  batch.rows = feed.Take(ids);
  if (b % 3 == 0) {
    const int64_t lo = static_cast<int64_t>(b) * 37 % 900;
    Query purge;
    purge.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 30))};
    batch.deletes.push_back(std::move(purge));
  }
  return batch;
}

struct RunFingerprint {
  // Per-query trace.
  std::vector<int> states;
  std::vector<double> costs;
  std::vector<bool> reorganized;
  std::vector<uint64_t> matches;
  // Per-ingest-batch outcome.
  std::vector<uint64_t> versions;
  std::vector<uint64_t> appended;
  std::vector<uint64_t> deleted;
  std::vector<uint64_t> visible;
  std::vector<bool> folded;
  // Totals and the final materialized bytes.
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;
  uint64_t folds = 0;
  std::vector<uint32_t> crcs;

  bool operator==(const RunFingerprint& o) const {
    return states == o.states && costs == o.costs &&
           reorganized == o.reorganized && matches == o.matches &&
           versions == o.versions && appended == o.appended &&
           deleted == o.deleted && visible == o.visible &&
           folded == o.folded && query_cost == o.query_cost &&
           reorg_cost == o.reorg_cost && num_switches == o.num_switches &&
           folds == o.folds && crcs == o.crcs;
  }
};

// Runs the interleaved ingest/query schedule through one engine
// configuration with a physical store attached, fingerprinting everything
// the determinism contract covers. When `expected_matches` is non-null,
// every physical match count is also checked against the ground truth.
RunFingerprint RunInterleaved(const Table& base, const Table& feed,
                              const LayoutGenerator& gen,
                              const OreoOptions& opts,
                              const std::vector<Query>& stream,
                              const std::string& dir_tag,
                              const std::vector<uint64_t>* expected_matches,
                              std::unique_ptr<OreoEngine>* out = nullptr,
                              int time_column = 0) {
  OreoOptions run_opts = opts;
  std::shared_ptr<StorageBackend> backend = MakeInMemoryBackend();
  run_opts.storage_backend = backend;
  auto engine = MakeEngine(&base, &gen, time_column, run_opts);
  std::string dir = testutil::ScratchDir(dir_tag);
  EXPECT_TRUE(engine->AttachPhysical(dir).ok());

  RunFingerprint fp;
  size_t qi = 0;
  size_t next_batch = 1;
  for (const QueryBatch& b : MakeBatches(stream, kBatchSize)) {
    // Mutation batches land on kIngestEvery boundaries, between physical
    // batches — the Ingest call is the visibility boundary.
    if (qi > 0 && qi % kIngestEvery == 0) {
      Result<IngestResult> r = engine->Ingest(ScheduledBatch(feed, next_batch));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      ++next_batch;
      fp.versions.push_back(r->version);
      fp.appended.push_back(r->rows_appended);
      fp.deleted.push_back(r->rows_deleted);
      fp.visible.push_back(r->visible_rows);
      fp.folded.push_back(r->folded);
    }
    BatchResult logical = engine->RunBatch(b);
    EXPECT_EQ(logical.steps.size(), b.size());
    for (const StepResult& step : logical.steps) {
      fp.states.push_back(step.state);
      fp.costs.push_back(step.query_cost);
      fp.reorganized.push_back(step.reorganized);
    }
    auto exec = engine->ExecuteBatchPhysical(b.queries);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    for (const auto& per_query : exec->per_query) {
      fp.matches.push_back(per_query.matches);
      if (expected_matches != nullptr) {
        EXPECT_EQ(per_query.matches, (*expected_matches)[qi])
            << "physical matches diverged from the logical mirror at query "
            << qi << " (threads=" << opts.num_threads
            << " shards=" << opts.num_shards << ")";
      }
      ++qi;
    }
    engine->SyncPhysical();
  }
  engine->WaitForReorgs();
  engine->SyncPhysical();  // adopt the last background rewrite, if any

  fp.query_cost = engine->total_query_cost();
  fp.reorg_cost = engine->total_reorg_cost();
  fp.num_switches = engine->num_switches();
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    fp.folds += engine->core(s).folds();
  }
  for (const auto& [path, crc] : testutil::DirCrcs(*backend, dir)) {
    fp.crcs.push_back(crc);
  }
  fs::remove_all(dir);
  if (out != nullptr) *out = std::move(engine);
  return fp;
}

// Ground truth: replay the identical mutation schedule on a bare LiveTable
// mirror and record CountMatches over the logical table at every query's
// interleaving position.
std::vector<uint64_t> MirrorExpectedMatches(const Table& base,
                                            const Table& feed,
                                            const std::vector<Query>& stream) {
  ingest::LiveTable mirror(&base);
  Table logical = mirror.BuildLogicalTable();
  std::vector<uint64_t> expected;
  size_t next_batch = 1;
  for (size_t qi = 0; qi < stream.size(); ++qi) {
    if (qi > 0 && qi % kIngestEvery == 0) {
      IngestBatch batch = ScheduledBatch(feed, next_batch);
      mirror.Apply(std::move(batch.rows), batch.deletes, next_batch);
      ++next_batch;
      logical = mirror.BuildLogicalTable();
    }
    expected.push_back(CountMatches(logical, stream[qi]));
  }
  return expected;
}

TEST(IngestEquivalenceTest, InterleavingsAreBitIdenticalAcrossThreadCounts) {
  const uint64_t seed = 13;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table base = testutil::MakeEventTable(kRows, seed);
  // The feed drifts: fresh ts values past the base domain, drawn from a
  // different seed.
  Table feed = MakeFeedTable(1200, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);
  std::vector<uint64_t> expected = MirrorExpectedMatches(base, feed, stream);

  for (size_t shards : kShardCounts) {
    RunFingerprint reference;  // the serial (threads=1) run
    bool have_reference = false;
    for (size_t threads : kThreadCounts) {
      OreoOptions opts = WallOpts(seed, threads, shards);
      RunFingerprint fp = RunInterleaved(
          base, feed, gen, opts, stream,
          "ingest_eq_s" + std::to_string(shards) + "_t" +
              std::to_string(threads),
          &expected);
      ASSERT_EQ(fp.versions.size(), stream.size() / kIngestEvery)
          << "every scheduled mutation batch must have committed";
      EXPECT_GT(fp.num_switches, 0) << "fixture too tame: no switch happened";
      EXPECT_GE(fp.folds, 1u)
          << "the schedule must cross fold_threshold at least once";
      // Versions are the engine-level commit sequence: strictly 1..N.
      for (size_t v = 0; v < fp.versions.size(); ++v) {
        EXPECT_EQ(fp.versions[v], v + 1);
      }
      if (!have_reference) {
        reference = fp;
        have_reference = true;
        ASSERT_FALSE(reference.crcs.empty());
        continue;
      }
      EXPECT_TRUE(fp == reference)
          << "interleaved run diverged from the serial reference at threads="
          << threads << " shards=" << shards;
    }
  }
}

// The first layout sorts by qty, so its partitions interleave row ids and
// a rewrite into a ts layout scatters each target's rows across all source
// files; deletes then tombstone rows of the rewritten layout. A cheap alpha
// switches within the ts phase, and no fold rewrites the files afterwards.
TEST(IngestEquivalenceTest, NonRangeFirstLayoutMatchesTheMirror) {
  const uint64_t seed = 17;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table base = testutil::MakeEventTable(kRows, seed);
  Table feed = MakeFeedTable(1200, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);
  std::vector<uint64_t> expected = MirrorExpectedMatches(base, feed, stream);

  for (size_t shards : kShardCounts) {
    OreoOptions opts = WallOpts(seed, /*num_threads=*/2, shards);
    opts.alpha = 10.0;
    opts.fold_threshold = 2.0;  // never folds
    RunFingerprint fp = RunInterleaved(
        base, feed, gen, opts, stream,
        "ingest_eq_qty_s" + std::to_string(shards), &expected,
        /*out=*/nullptr, /*time_column=*/1);
    EXPECT_GT(fp.num_switches, 0) << "fixture too tame: no switch happened";
    uint64_t deleted = 0;
    for (uint64_t d : fp.deleted) deleted += d;
    EXPECT_GT(deleted, 0u) << "fixture too tame: nothing was deleted";
  }
}

TEST(IngestEquivalenceTest, RebuildFromScratchAnswersIdentically) {
  const uint64_t seed = 29;
  const size_t kRows = 3000;
  QdTreeGenerator gen;
  Table base = testutil::MakeEventTable(kRows, seed);
  Table feed = MakeFeedTable(1200, seed);
  std::vector<Query> stream = TwoPhaseStream(kRows, seed);

  for (size_t shards : kShardCounts) {
    OreoOptions opts = WallOpts(seed, /*num_threads=*/2, shards);
    std::unique_ptr<OreoEngine> mutated;
    RunInterleaved(base, feed, gen, opts, stream,
                   "ingest_eq_rebuild_s" + std::to_string(shards),
                   /*expected_matches=*/nullptr, &mutated);

    // The final logical table: every shard's BuildLogicalTable, appended in
    // shard order. Row order is engine-internal; match counts are not.
    Table logical = mutated->core(0).live().BuildLogicalTable();
    uint64_t visible = mutated->core(0).visible_rows();
    for (size_t s = 1; s < mutated->num_shards(); ++s) {
      logical.Append(mutated->core(s).live().BuildLogicalTable());
      visible += mutated->core(s).visible_rows();
    }
    ASSERT_EQ(logical.num_rows(), visible);

    // A fresh engine over the final logical table, never mutated.
    OreoOptions rebuild_opts = WallOpts(seed, /*num_threads=*/2, shards);
    std::shared_ptr<StorageBackend> backend = MakeInMemoryBackend();
    rebuild_opts.storage_backend = backend;
    auto rebuilt = MakeEngine(&logical, &gen, /*time_column=*/0, rebuild_opts);
    std::string dir = testutil::ScratchDir("ingest_eq_rebuilt_s" +
                                           std::to_string(shards));
    ASSERT_TRUE(rebuilt->AttachPhysical(dir).ok());

    // Probe queries: the original stream plus a match-all query (counts the
    // whole visible row set) and band probes on both range columns.
    std::vector<Query> probes = stream;
    probes.push_back(Query{});
    for (int64_t lo = 0; lo < 1000; lo += 100) {
      Query q;
      q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 99))};
      probes.push_back(std::move(q));
    }

    for (const QueryBatch& b : MakeBatches(probes, kBatchSize)) {
      auto mutated_exec = mutated->ExecuteBatchPhysical(b.queries);
      auto rebuilt_exec = rebuilt->ExecuteBatchPhysical(b.queries);
      ASSERT_TRUE(mutated_exec.ok()) << mutated_exec.status().ToString();
      ASSERT_TRUE(rebuilt_exec.ok()) << rebuilt_exec.status().ToString();
      ASSERT_EQ(mutated_exec->per_query.size(), rebuilt_exec->per_query.size());
      for (size_t i = 0; i < b.queries.size(); ++i) {
        const uint64_t truth = CountMatches(logical, b.queries[i]);
        EXPECT_EQ(mutated_exec->per_query[i].matches, truth)
            << "mutated engine diverged (shards=" << shards << ")";
        EXPECT_EQ(rebuilt_exec->per_query[i].matches, truth)
            << "rebuilt engine diverged (shards=" << shards << ")";
      }
    }
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
