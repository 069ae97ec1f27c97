// StorageBackend unit wall: the interface contract (atomic publish, list,
// remove, stats) for the posix and in-memory implementations, and the
// PhysicalStore failure contract (a failed materialization or
// reorganization cleans up every object it wrote — no torn partition files)
// proved with a fault-injecting backend test double. The block-cache views
// are tested in shared_cache_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/physical.h"
#include "layout/sorted_layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/block.h"
#include "test_util.h"

namespace oreo {
namespace {

TEST(StorageBackendTest, RoundTripListRemove) {
  for (const char* kind : {"posix", "inmem"}) {
    std::shared_ptr<StorageBackend> backend =
        kind == std::string("posix") ? MakePosixBackend()
                                     : MakeInMemoryBackend();
    std::string dir = testutil::ScratchDir(std::string("backend_rt_") + kind);
    ASSERT_TRUE(backend->CreateDir(dir).ok()) << kind;

    ASSERT_TRUE(backend->AtomicWriteBlock(dir + "/b.blk", "bravo", false).ok());
    ASSERT_TRUE(backend->AtomicWriteBlock(dir + "/a.blk", "alpha", true).ok());

    auto read = backend->ReadBlock(dir + "/a.blk");
    ASSERT_TRUE(read.ok()) << kind;
    EXPECT_EQ(*read, "alpha");

    // Overwrite is a whole-object swap.
    ASSERT_TRUE(
        backend->AtomicWriteBlock(dir + "/a.blk", "alpha2", false).ok());
    read = backend->ReadBlock(dir + "/a.blk");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(*read, "alpha2");

    // List: sorted, complete, no stray temp objects from the atomic writes.
    auto listed = backend->List(dir);
    ASSERT_TRUE(listed.ok()) << kind;
    EXPECT_EQ(*listed,
              (std::vector<std::string>{dir + "/a.blk", dir + "/b.blk"}));

    EXPECT_TRUE(backend->Remove(dir + "/a.blk").ok());
    EXPECT_EQ(backend->Remove(dir + "/a.blk").code(), StatusCode::kNotFound);
    EXPECT_FALSE(backend->ReadBlock(dir + "/a.blk").ok());
    listed = backend->List(dir);
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(*listed, (std::vector<std::string>{dir + "/b.blk"}));

    EXPECT_TRUE(backend->List(dir + "_does_not_exist")->empty());
    EXPECT_TRUE(backend->Sync().ok());

    BackendStats stats = backend->stats();
    EXPECT_EQ(stats.writes, 3u);
    EXPECT_EQ(stats.removes, 1u);
    EXPECT_GE(stats.reads, 2u);
  }
}

TEST(StorageBackendTest, BlockAndMetadataBytesAreBackendInvariant) {
  Table t = testutil::MakeBlockTable(500, 7);

  std::shared_ptr<StorageBackend> posix = MakePosixBackend();
  std::shared_ptr<StorageBackend> inmem = MakeInMemoryBackend();
  std::string dir = testutil::ScratchDir("backend_invariant");
  ASSERT_TRUE(posix->CreateDir(dir).ok());

  for (auto& backend : {posix, inmem}) {
    ASSERT_TRUE(
        WriteBlockTo(backend.get(), dir + "/t.blk", t, /*sync=*/true).ok());
  }
  EXPECT_EQ(testutil::BackendCrc(*posix, dir + "/t.blk"),
            testutil::BackendCrc(*inmem, dir + "/t.blk"))
      << "posix and in-memory block bytes diverged";

  // Both round-trip to the same table.
  for (auto& backend : {posix, inmem}) {
    Result<Table> back = ReadBlockFrom(backend.get(), dir + "/t.blk");
    ASSERT_TRUE(back.ok());
    testutil::ExpectTablesEqual(t, *back);
  }
}

// ----------------------------------------------- failure propagation -----

using testutil::FaultInjectionBackend;

TEST(PhysicalStoreFaultTest, FailedMaterializationLeavesNoTornFiles) {
  Table t = testutil::MakeEventTable(2000, 41);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  auto base = MakeInMemoryBackend();
  // Fail the 4th partition write: earlier siblings succeed and must be
  // cleaned up.
  auto faulty = std::make_shared<FaultInjectionBackend>(base, "part_", 3);
  std::string dir = testutil::ScratchDir("fault_mat");
  core::PhysicalStore store(dir, /*num_threads=*/4, faulty);

  auto mat = store.MaterializeLayout(t, by_ts);
  ASSERT_FALSE(mat.ok());
  EXPECT_EQ(mat.status().code(), StatusCode::kIoError);
  auto leftover = base->List(dir);
  ASSERT_TRUE(leftover.ok());
  EXPECT_TRUE(leftover->empty())
      << leftover->size() << " torn partition files left behind, first: "
      << leftover->front();
}

// AttachPhysical is all or nothing: when a later shard fails to materialize,
// the shards before it give their stores back, so the engine reports no
// physical layer, keeps no half-attached store, and a retry succeeds.
TEST(PhysicalStoreFaultTest, FailedAttachDetachesEveryShardAndRetries) {
  Table t = testutil::MakeEventTable(2000, 47);
  SortLayoutGenerator gen(0);
  auto faulty = std::make_shared<FaultInjectionBackend>(MakeInMemoryBackend(),
                                                        "shard_001/", 0);
  core::OreoOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 1;
  opts.target_partitions = 8;
  opts.storage_backend = faulty;
  std::unique_ptr<core::OreoEngine> engine =
      core::MakeEngine(&t, &gen, /*time_column=*/0, opts);
  std::string dir = testutil::ScratchDir("fault_attach");

  Status first = engine->AttachPhysical(dir);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_FALSE(engine->has_physical());
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(engine->store(s), nullptr) << "shard " << s << " kept a store";
  }

  faulty->Heal();
  Status retry = engine->AttachPhysical(dir);
  ASSERT_TRUE(retry.ok()) << retry.ToString();
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 2000, 150, 20, 48);
  queries.push_back(Query{});
  auto exec = engine->ExecuteBatchPhysical(queries);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(exec->per_query[i].matches, CountMatches(t, queries[i]))
        << "query " << i;
  }
}

// A fold rewrites a shard's files in place, and MaterializeLayout removes
// the old files before it writes. When that write fails, Ingest reports the
// error with the batch already committed logically; the shard serves
// nothing until SyncPhysical has rewritten its files, and then serves the
// folded table correctly.
TEST(PhysicalStoreFaultTest, FailedFoldRewriteRecoversOnSync) {
  Table t = testutil::MakeEventTable(2000, 53);
  SortLayoutGenerator gen(0);
  auto faulty = std::make_shared<FaultInjectionBackend>(
      MakeInMemoryBackend(), "shard_001/", INT64_MAX);
  core::OreoOptions opts;
  opts.num_shards = 2;
  opts.shard_routing = ShardRouting::kHash;
  opts.num_threads = 1;
  opts.target_partitions = 8;
  opts.fold_threshold = 0.0;  // every mutating batch folds
  opts.storage_backend = faulty;
  std::unique_ptr<core::OreoEngine> engine =
      core::MakeEngine(&t, &gen, /*time_column=*/0, opts);
  ASSERT_TRUE(engine->AttachPhysical(testutil::ScratchDir("fault_fold")).ok());

  Table appended(testutil::EventSchema());
  Rng rng(54);
  for (int64_t i = 0; i < 300; ++i) {
    appended.AppendRow({Value(2000 + i), Value(rng.UniformInt(0, 1000)),
                        Value(i % 2 == 0 ? "a" : "e")});
  }
  Table mirror = t;
  mirror.Append(appended);

  faulty->Arm();
  Result<core::IngestResult> ingested =
      engine->Ingest(core::IngestBatch{std::move(appended), {}});
  ASSERT_FALSE(ingested.ok());
  EXPECT_EQ(ingested.status().code(), StatusCode::kIoError);
  // The batch stays committed on both logical cores.
  EXPECT_EQ(engine->core(0).visible_rows() + engine->core(1).visible_rows(),
            mirror.num_rows());

  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 2300, 200, 19, 55);
  queries.push_back(Query{});
  // Still failing: the retry fails too, and batches keep reporting it.
  EXPECT_EQ(engine->SyncPhysical(), 0u);
  auto stuck = engine->ExecuteBatchPhysical(queries);
  ASSERT_FALSE(stuck.ok());
  EXPECT_EQ(stuck.status().code(), StatusCode::kIoError);

  faulty->Heal();
  engine->SyncPhysical();
  auto exec = engine->ExecuteBatchPhysical(queries);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  ASSERT_EQ(exec->per_query.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(exec->per_query[i].matches, CountMatches(mirror, queries[i]))
        << "query " << i;
  }
}

TEST(PhysicalStoreFaultTest, FailedReorganizationKeepsServingOldLayout) {
  const uint64_t seed = 43;
  Table t = testutil::MakeEventTable(2000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  LayoutInstance by_qty = testutil::MakeSortedInstance(t, 1, 8, "by_qty", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 100, 10, seed + 1);

  struct Phase {
    const char* tag;
    const char* substring;  // which write class the fault hits
    int64_t fail_after;
  };
  for (const Phase phase : {Phase{"shuffle", "spill_", 2},
                            Phase{"merge", "part_e2", 1}}) {
    auto base = MakeInMemoryBackend();
    auto faulty = std::make_shared<FaultInjectionBackend>(
        base, phase.substring, phase.fail_after);
    std::string dir =
        testutil::ScratchDir(std::string("faultreorg_") + phase.tag);
    core::PhysicalStore store(dir, /*num_threads=*/4, faulty);
    ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    std::vector<std::string> old_files = store.GetSnapshot().files;

    auto reorg = store.Reorganize(t, by_qty);
    ASSERT_FALSE(reorg.ok()) << "fault " << phase.substring << " never fired";
    EXPECT_EQ(reorg.status().code(), StatusCode::kIoError);

    // No torn output: the directory holds exactly the old layout's files.
    auto listed = base->List(dir);
    ASSERT_TRUE(listed.ok());
    std::vector<std::string> expected = old_files;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(*listed, expected)
        << "orphaned spill or partition objects after a failed "
        << phase.substring << " write";

    // The store still serves the old layout, correctly.
    for (const Query& q : queries) {
      auto exec = store.ExecuteQuery(q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->matches, CountMatches(t, q));
    }
  }
}

}  // namespace
}  // namespace oreo
