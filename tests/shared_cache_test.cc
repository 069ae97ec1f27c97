// SharedBlockCache contracts: the cross-shard tiered cache behind the
// per-shard SharedCacheBackend views (a single store's private cache is one
// such view).
//
//   1. The doomed-fetch window is closed: a fetch that STARTS while a
//      mutation of the same path is active (Remove/AtomicWriteBlock still
//      inside the base backend) serves its bytes to the overlapping reader
//      but never repopulates the cache, so a read issued after the mutation
//      returns always observes the new bytes.
//   2. One global budget, per-shard accounting: per-shard resident sums
//      equal the global residency, never exceed capacity, and evictions are
//      charged to the victim's owner shard.
//   3. Single-flight dedup spans shards: concurrent readers of one path
//      through different shard views share one base fetch.
//   4. Async prefetch is advisory and invisible to correctness: it warms the
//      cache (demand reads become hits), failures never surface to later
//      demand reads, and PhysicalStore feeds it a batch's zone-map
//      survivors beyond the first partition it scans.
//   5. A single view behaves as a plain bounded block cache: hit/miss and
//      strict-LRU accounting, invalidation on write/remove, thread-count-
//      invariant hit/miss totals, and result-identical scans across a
//      reorganization.
//   6. The engine scans shard-major: with a budget that holds one shard's
//      files but not two, a batch reads every partition file from the base
//      exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "core/physical.h"
#include "layout/qdtree_layout.h"
#include "storage/backend.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace {

// Blocks one class of ops against `gated_path` so tests can hold a base
// operation open while racing another. Reads gate AFTER the base read (the
// stale bytes are already in hand); writes/removes gate BEFORE the base op
// (the mutation has begun — the cache bracket is open — but the new bytes
// have not landed).
class GatedOpBackend : public StorageBackend {
 public:
  enum class Gate { kRead, kWrite, kRemove };

  GatedOpBackend(std::shared_ptr<StorageBackend> base, Gate gate,
                 std::string gated_path)
      : base_(std::move(base)), gate_(gate),
        gated_path_(std::move(gated_path)) {}

  std::string name() const override { return "gated(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    Result<std::string> result = base_->ReadBlock(path);
    if (gate_ == Gate::kRead && path == gated_path_) Park();
    return result;
  }
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override {
    if (gate_ == Gate::kWrite && path == gated_path_) Park();
    return base_->AtomicWriteBlock(path, data, sync);
  }
  Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  Status Remove(const std::string& path) override {
    if (gate_ == Gate::kRemove && path == gated_path_) Park();
    return base_->Remove(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Sync() override { return base_->Sync(); }
  BackendStats stats() const override { return base_->stats(); }

  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  void Park() {
    std::unique_lock<std::mutex> lock(mu_);
    ++blocked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  std::shared_ptr<StorageBackend> base_;
  Gate gate_;
  std::string gated_path_;
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool open_ = false;
};

// The doomed-fetch window, write flavor. Timeline forced by the gate:
//   writer:  BeginMutation ──── base write (parked) ──────── lands ── End
//   reader:              miss ── base read (OLD bytes) ── done
// The reader's fetch starts after BeginMutation dropped the entry and
// finishes while the write is still parked, so it holds the PRE-write
// bytes. Serving them to that reader is legal (its read overlapped the
// write); caching them is the bug: a read issued after the write returns
// would then hit stale bytes forever.
template <typename MakeBackend>
void RunWriteRaceRegression(MakeBackend make_backend) {
  const std::string path = "race/w.blk";
  auto base = MakeInMemoryBackend();
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kWrite, path);
  std::shared_ptr<StorageBackend> backend = make_backend(gated);
  ASSERT_TRUE(base->AtomicWriteBlock(path, "old", false).ok());

  std::thread writer([&] {
    EXPECT_TRUE(backend->AtomicWriteBlock(path, "new", false).ok());
  });
  gated->WaitUntilBlocked();

  // Overlapping reader: legitimately sees the old bytes...
  Result<std::string> overlapped = backend->ReadBlock(path);
  ASSERT_TRUE(overlapped.ok());
  EXPECT_EQ(*overlapped, "old");

  gated->Open();
  writer.join();

  // ...but its fetch was born doomed, so the post-write read goes back to
  // the base and sees the new bytes.
  Result<std::string> after = backend->ReadBlock(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "new")
      << "a fetch overlapping the write repopulated the cache with stale "
         "bytes";
}

// Remove flavor of the same window: the doomed fetch must not resurrect a
// deleted object.
template <typename MakeBackend>
void RunRemoveRaceRegression(MakeBackend make_backend) {
  const std::string path = "race/d.blk";
  auto base = MakeInMemoryBackend();
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kRemove, path);
  std::shared_ptr<StorageBackend> backend = make_backend(gated);
  ASSERT_TRUE(base->AtomicWriteBlock(path, "doomed", false).ok());

  std::thread remover(
      [&] { EXPECT_TRUE(backend->Remove(path).ok()); });
  gated->WaitUntilBlocked();

  Result<std::string> overlapped = backend->ReadBlock(path);
  ASSERT_TRUE(overlapped.ok());
  EXPECT_EQ(*overlapped, "doomed");

  gated->Open();
  remover.join();

  Result<std::string> after = backend->ReadBlock(path);
  EXPECT_FALSE(after.ok())
      << "a fetch overlapping the remove resurrected the deleted object";
}

TEST(SharedCacheRaceTest, SharedViewWriteRaceNeverCachesStaleBytes) {
  RunWriteRaceRegression([](std::shared_ptr<StorageBackend> gated) {
    return MakeSharedCacheBackend(MakeSharedBlockCache(), std::move(gated),
                                  /*shard=*/3);
  });
}

TEST(SharedCacheRaceTest, SharedViewRemoveRaceNeverResurrectsObject) {
  RunRemoveRaceRegression([](std::shared_ptr<StorageBackend> gated) {
    return MakeSharedCacheBackend(MakeSharedBlockCache(), std::move(gated),
                                  /*shard=*/3);
  });
}

TEST(SharedBlockCacheTest, SingleFlightDedupSpansShards) {
  const std::string path = "dedup/p.blk";
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock(path, "payload", false).ok());
  auto gated = std::make_shared<GatedOpBackend>(
      base, GatedOpBackend::Gate::kRead, path);
  auto cache = MakeSharedBlockCache();
  auto view0 = MakeSharedCacheBackend(cache, gated, /*shard=*/0);
  auto view1 = MakeSharedCacheBackend(cache, gated, /*shard=*/1);

  // Shard 0's fetch parks inside the base; shard 1's read arrives while it
  // is in flight (or, at worst, just after insertion — either way the base
  // serves exactly one read).
  std::thread fetcher([&] {
    Result<std::string> r = view0->ReadBlock(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "payload");
    }
  });
  gated->WaitUntilBlocked();
  std::thread rider([&] {
    Result<std::string> r = view1->ReadBlock(path);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(*r, "payload");
    }
  });
  gated->Open();
  fetcher.join();
  rider.join();

  EXPECT_EQ(base->stats().reads, 1u)
      << "concurrent cross-shard readers did not share one base fetch";
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache->shard_stats(0).misses, 1u);
  EXPECT_EQ(cache->shard_stats(1).hits, 1u);
}

TEST(SharedBlockCacheTest, GlobalBudgetWithPerShardAccounting) {
  auto base = MakeInMemoryBackend();
  for (const char* p : {"a", "b", "c"}) {
    ASSERT_TRUE(base->AtomicWriteBlock(p, std::string(8, p[0]), false).ok());
  }
  SharedBlockCacheOptions options;
  options.capacity_bytes = 16;  // room for exactly two 8-byte objects
  auto cache = MakeSharedBlockCache(options);
  auto view0 = MakeSharedCacheBackend(cache, base, /*shard=*/0);
  auto view1 = MakeSharedCacheBackend(cache, base, /*shard=*/1);

  ASSERT_TRUE(view0->ReadBlock("a").ok());  // owner: shard 0
  ASSERT_TRUE(view1->ReadBlock("b").ok());  // owner: shard 1
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.resident_bytes, 16u);
  EXPECT_EQ(stats.resident_objects, 2u);
  EXPECT_EQ(cache->shard_stats(0).resident_bytes, 8u);
  EXPECT_EQ(cache->shard_stats(1).resident_bytes, 8u);

  // Third insert evicts the LRU victim "a" — charged to shard 0, its
  // OWNER, even though shard 1 drove the insertion.
  ASSERT_TRUE(view1->ReadBlock("c").ok());
  stats = cache->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache->shard_stats(0).evictions_charged, 1u);
  EXPECT_EQ(cache->shard_stats(1).evictions_charged, 0u);
  EXPECT_EQ(cache->shard_stats(0).resident_bytes, 0u);
  EXPECT_EQ(cache->shard_stats(1).resident_bytes, 16u);
  EXPECT_EQ(cache->shard_stats(1).resident_objects, 2u);

  // Invalidation is charged to the owner of the dropped object.
  ASSERT_TRUE(view0->AtomicWriteBlock("b", "bbbbbbbb", false).ok());
  EXPECT_EQ(cache->shard_stats(1).invalidations, 1u);
  EXPECT_EQ(cache->shard_stats(0).invalidations, 0u);

  // Oversized objects are served but never cached.
  ASSERT_TRUE(
      base->AtomicWriteBlock("huge", std::string(64, 'h'), false).ok());
  Result<std::string> huge = view0->ReadBlock("huge");
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->size(), 64u);

  // Invariants under churn: the budget is never exceeded, and the global
  // residency always equals the sum of the per-shard slices.
  for (int round = 0; round < 3; ++round) {
    for (const char* p : {"a", "b", "c", "huge"}) {
      ASSERT_TRUE((round % 2 == 0 ? view0 : view1)->ReadBlock(p).ok());
      stats = cache->stats();
      EXPECT_LE(stats.resident_bytes, options.capacity_bytes);
      uint64_t shard_bytes = 0, shard_objects = 0;
      for (const auto& [shard, s] : cache->all_shard_stats()) {
        (void)shard;
        shard_bytes += s.resident_bytes;
        shard_objects += s.resident_objects;
      }
      EXPECT_EQ(shard_bytes, stats.resident_bytes);
      EXPECT_EQ(shard_objects, stats.resident_objects);
    }
  }
}

TEST(SharedBlockCacheTest, PrefetchWarmsTheCache) {
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock("p1", "11111", false).ok());
  ASSERT_TRUE(base->AtomicWriteBlock("p2", "222", false).ok());
  SharedBlockCacheOptions options;
  options.prefetch_threads = 2;
  auto cache = MakeSharedBlockCache(options);

  cache->RequestPrefetch(0, base, "p1");
  cache->RequestPrefetch(1, base, "p2");
  cache->DrainPrefetches();

  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.prefetch_requests, 2u);
  EXPECT_EQ(stats.prefetch_fetches, 2u);
  EXPECT_EQ(stats.prefetch_bytes, 8u);
  EXPECT_EQ(cache->shard_stats(0).prefetch_fetches, 1u);
  EXPECT_EQ(cache->shard_stats(1).prefetch_fetches, 1u);
  const uint64_t base_reads_after_warmup = base->stats().reads;

  // Demand reads are now hits: no further base traffic.
  Result<std::string> r = cache->Read(0, base.get(), "p1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "11111");
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(base->stats().reads, base_reads_after_warmup);

  // Prefetching an already-cached object is a counted no-op.
  cache->RequestPrefetch(0, base, "p1");
  cache->DrainPrefetches();
  EXPECT_GE(cache->stats().prefetch_noops, 1u);
}

TEST(SharedBlockCacheTest, PrefetchWithoutWorkersIsDropped) {
  auto base = MakeInMemoryBackend();
  ASSERT_TRUE(base->AtomicWriteBlock("p", "x", false).ok());
  auto cache = MakeSharedBlockCache();  // prefetch_threads = 0
  cache->RequestPrefetch(0, base, "p");
  cache->DrainPrefetches();
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.prefetch_dropped, 1u);
  EXPECT_EQ(stats.prefetch_fetches, 0u);
  // Demand reads are unaffected.
  Result<std::string> r = cache->Read(0, base.get(), "p");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "x");
}

TEST(SharedBlockCacheTest, FailedPrefetchIsInvisibleToDemandReads) {
  auto base = MakeInMemoryBackend();
  SharedBlockCacheOptions options;
  options.prefetch_threads = 1;
  auto cache = MakeSharedBlockCache(options);

  cache->RequestPrefetch(0, base, "late");  // does not exist yet
  cache->DrainPrefetches();

  ASSERT_TRUE(base->AtomicWriteBlock("late", "now it does", false).ok());
  Result<std::string> r = cache->Read(0, base.get(), "late");
  ASSERT_TRUE(r.ok()) << "a failed prefetch leaked its error into a later "
                         "demand read: "
                      << r.status().ToString();
  EXPECT_EQ(*r, "now it does");
}

// End-to-end plumbing: PhysicalStore discovers the BlockPrefetcher interface
// on its backend and, while a batch's first partition scans, warms the
// batch's other zone-map survivors; results stay ground truth.
TEST(SharedBlockCacheTest, PhysicalStorePrefetchesUpcomingQueries) {
  const uint64_t seed = 7;
  Table t = testutil::MakeEventTable(2000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 8, "by_ts", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 2000, 400, 6, seed + 1);

  auto base = MakeInMemoryBackend();
  SharedBlockCacheOptions options;
  options.prefetch_threads = 2;
  auto cache = MakeSharedBlockCache(options);
  auto backend = MakeSharedCacheBackend(cache, base, /*shard=*/0);
  std::string dir = testutil::ScratchDir("shared_prefetch");
  core::PhysicalStore store(dir, /*num_threads=*/2, backend);
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());

  for (int pass = 0; pass < 2; ++pass) {
    auto exec = store.ExecuteQueryBatch(queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    ASSERT_EQ(exec->per_query.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(exec->per_query[i].matches, CountMatches(t, queries[i]))
          << "pass " << pass << " query " << i;
    }
    cache->DrainPrefetches();
    if (pass == 0) {
      EXPECT_GT(cache->stats().prefetch_requests, 0u)
          << "PhysicalStore never fed the prefetcher";
    }
  }
  // Each touched file came from the base once — by a demand read or by the
  // prefetcher — so the second pass was served from the warmed cache.
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(base->stats().reads, stats.misses + stats.prefetch_fetches);
  EXPECT_GT(stats.hits, 0u) << "the warmed cache served nothing";
}

// ------------------------------------------------- single-store view -----

// One view over a private SharedBlockCache: the single-store block cache.
std::shared_ptr<SharedCacheBackend> SingleStoreCache(
    std::shared_ptr<StorageBackend> base,
    SharedBlockCacheOptions options = {}) {
  return MakeSharedCacheBackend(MakeSharedBlockCache(options),
                                std::move(base), /*shard=*/0);
}

TEST(SharedCacheViewTest, HitMissAndInvalidation) {
  auto cached = SingleStoreCache(MakeInMemoryBackend());
  const std::string path = "cache_unit/a.blk";

  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v1", false).ok());
  auto r1 = cached->ReadBlock(path);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, "v1");
  auto r2 = cached->ReadBlock(path);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, "v1");
  SharedCacheStats stats = cached->cache()->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.hit_bytes, 2u);

  // A write invalidates: the next read must see the new bytes (a miss).
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v2!", false).ok());
  auto r3 = cached->ReadBlock(path);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, "v2!") << "cache served stale bytes after a write";
  stats = cached->cache()->stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_GE(stats.invalidations, 1u);

  // Remove invalidates too; the read then fails like the base would.
  ASSERT_TRUE(cached->Remove(path).ok());
  EXPECT_FALSE(cached->ReadBlock(path).ok());
}

TEST(SharedCacheViewTest, StrictLruEvictionNeverServesWrongBytes) {
  SharedBlockCacheOptions opts;
  opts.capacity_bytes = 8;  // fits exactly two 4-byte objects
  auto cached = SingleStoreCache(MakeInMemoryBackend(), opts);
  SharedBlockCache* cache = cached->cache();
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/a", "aaaa", false).ok());
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/b", "bbbb", false).ok());
  ASSERT_TRUE(cached->AtomicWriteBlock("ev/c", "cccc", false).ok());

  EXPECT_EQ(*cached->ReadBlock("ev/a"), "aaaa");  // miss, cache {a}
  EXPECT_EQ(*cached->ReadBlock("ev/b"), "bbbb");  // miss, cache {b, a}
  EXPECT_EQ(*cached->ReadBlock("ev/a"), "aaaa");  // hit, LRU order {a, b}
  EXPECT_EQ(*cached->ReadBlock("ev/c"), "cccc");  // miss, evicts b
  SharedCacheStats stats = cache->stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_objects, 2u);
  EXPECT_EQ(stats.resident_bytes, 8u);

  EXPECT_EQ(*cached->ReadBlock("ev/b"), "bbbb");  // miss again (was evicted)
  EXPECT_EQ(cache->stats().misses, 4u);
  EXPECT_EQ(cache->stats().hits, 1u);

  // An object larger than the whole cache is served but never cached.
  ASSERT_TRUE(
      cached->AtomicWriteBlock("ev/huge", "123456789", false).ok());
  EXPECT_EQ(*cached->ReadBlock("ev/huge"), "123456789");
  EXPECT_EQ(*cached->ReadBlock("ev/huge"), "123456789");
  EXPECT_EQ(cache->stats().misses, 6u) << "oversized object cached";
  EXPECT_LE(cache->stats().resident_bytes, 8u);
}

// Hit/miss accounting is exact and thread-count invariant: a batch reads
// each distinct surviving partition once, so the first batch misses once
// per file and hits nothing, and the same batch again hits once per file —
// regardless of how the pool interleaves the scan fan-out.
TEST(SharedCacheViewTest, HitMissAccountingIsThreadCountInvariant) {
  const uint64_t seed = 19;
  Table t = testutil::MakeEventTable(3000, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 12, "by_ts", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 3000, 400, 24, seed + 1);
  queries.push_back(Query{});  // full scan: touches every partition
  queries.push_back(Query{});

  struct Counts {
    uint64_t hits, misses, hit_bytes, miss_bytes;
  };
  std::vector<Counts> runs;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    auto cached = SingleStoreCache(MakeInMemoryBackend());
    std::string dir =
        testutil::ScratchDir("cache_det_" + std::to_string(threads));
    core::PhysicalStore store(dir, threads, cached);
    ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    // The full scans touch every partition.
    const uint64_t files = store.GetSnapshot().files.size();
    auto exec = store.ExecuteQueryBatch(queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    SharedCacheStats stats = cached->cache()->stats();
    EXPECT_EQ(stats.misses, files);
    EXPECT_EQ(stats.hits, 0u) << "a batch read some partition twice";
    exec = store.ExecuteQueryBatch(queries);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    stats = cached->cache()->stats();
    EXPECT_EQ(stats.hits, files);
    EXPECT_EQ(stats.misses, files);
    runs.push_back(Counts{stats.hits, stats.misses, stats.hit_bytes,
                          stats.miss_bytes});
  }
  EXPECT_EQ(runs[0].hits, runs[1].hits) << "hit count depends on threads";
  EXPECT_EQ(runs[0].misses, runs[1].misses);
  EXPECT_EQ(runs[0].hit_bytes, runs[1].hit_bytes);
  EXPECT_EQ(runs[0].miss_bytes, runs[1].miss_bytes);
}

// A reader that coalesces onto a fetch doomed by a completed write must not
// be served the pre-write bytes (the fetcher itself may keep them: its read
// overlapped the write).
TEST(SharedCacheViewTest, CoalescedReadAfterWriteNeverSeesStaleBytes) {
  const std::string path = "gate/p.blk";
  auto gated = std::make_shared<GatedOpBackend>(
      MakeInMemoryBackend(), GatedOpBackend::Gate::kRead, path);
  auto cached = SingleStoreCache(gated);
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v1", false).ok());

  std::string first_read;
  std::thread fetcher([&] {
    auto r = cached->ReadBlock(path);
    ASSERT_TRUE(r.ok());
    first_read = *r;
  });
  gated->WaitUntilBlocked();  // the fetch holds "v1" and is in flight

  // The write completes while the fetch is frozen: it dooms the fetch.
  ASSERT_TRUE(cached->AtomicWriteBlock(path, "v2", false).ok());

  // A reader starting strictly after the write. Give it time to coalesce
  // onto the doomed fetch before the gate opens (if it arrives later it
  // reads fresh anyway — the assertion is valid either way).
  std::string second_read;
  std::thread late_reader([&] {
    auto r = cached->ReadBlock(path);
    ASSERT_TRUE(r.ok());
    second_read = *r;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gated->Open();
  fetcher.join();
  late_reader.join();

  EXPECT_EQ(first_read, "v1");  // overlapped the write: old bytes are legal
  EXPECT_EQ(second_read, "v2")
      << "a read that began after the write was served stale bytes";
  // And the doomed bytes were never cached.
  auto r = cached->ReadBlock(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "v2");
}

// A reorganization swaps every partition; the cache must serve the new
// layout's bytes afterwards (on/off runs agree query by query).
TEST(SharedCacheViewTest, CacheOnOffIsResultIdenticalAcrossReorganization) {
  const uint64_t seed = 23;
  Table t = testutil::MakeEventTable(2500, seed);
  LayoutInstance by_ts = testutil::MakeSortedInstance(t, 0, 10, "by_ts", 3);
  LayoutInstance by_qty = testutil::MakeSortedInstance(t, 1, 10, "by_qty", 3);
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 120, 20, seed + 1);
  queries.push_back(Query{});

  struct RunResult {
    std::vector<uint64_t> matches_before, matches_after;
    std::vector<uint32_t> crcs_after;
  };
  auto run = [&](std::shared_ptr<StorageBackend> backend,
                 const std::string& tag) {
    RunResult r;
    core::PhysicalStore store(testutil::ScratchDir(tag), /*num_threads=*/4,
                              std::move(backend));
    EXPECT_TRUE(store.MaterializeLayout(t, by_ts).ok());
    auto before = store.ExecuteQueryBatch(queries);
    EXPECT_TRUE(before.ok());
    for (const auto& exec : before->per_query) {
      r.matches_before.push_back(exec.matches);
    }
    EXPECT_TRUE(store.Reorganize(t, by_qty).ok());
    store.Vacuum();
    auto after = store.ExecuteQueryBatch(queries);
    EXPECT_TRUE(after.ok());
    for (const auto& exec : after->per_query) {
      r.matches_after.push_back(exec.matches);
    }
    r.crcs_after = testutil::PartitionCrcs(store);
    return r;
  };

  RunResult plain = run(MakeInMemoryBackend(), "cache_onoff_plain");
  auto cached = SingleStoreCache(MakeInMemoryBackend());
  RunResult with_cache = run(cached, "cache_onoff_cached");

  EXPECT_EQ(plain.matches_before, with_cache.matches_before);
  EXPECT_EQ(plain.matches_after, with_cache.matches_after)
      << "cache served stale partitions across the reorganization";
  EXPECT_EQ(plain.crcs_after, with_cache.crcs_after);
  EXPECT_GT(cached->cache()->stats().hits, 0u);
  EXPECT_GT(cached->cache()->stats().invalidations, 0u)
      << "the reorganization never invalidated a cached partition";

  // The ground truth: every query's matches against the raw table.
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(plain.matches_after[i], CountMatches(t, queries[i]))
        << "query " << i;
  }
}

// ------------------------------------------------ shard-major engine scan --

// The engine scans a batch shard by shard: each shard's whole sub-batch
// runs while that shard's files are resident. Under a budget that holds one
// shard's files but not two, a batch of full scans must therefore fetch
// every partition file from the base exactly once. (Visiting shards
// interleaved per query would evict each shard's blocks before the next
// query reads them, and miss once per query per file.)
TEST(SharedBlockCacheTest, ShardMajorBatchFetchesEachFileOnce) {
  const uint64_t seed = 31;
  constexpr size_t kShards = 4;
  Table t = testutil::MakeEventTable(4000, seed);
  QdTreeGenerator gen;
  core::OreoOptions opts;
  opts.seed = seed;
  opts.num_shards = kShards;
  opts.shard_routing = ShardRouting::kHash;
  opts.num_threads = 1;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;

  // Per-shard materialized bytes (backend- and cache-invariant) size the
  // budget: the largest shard fits, no two shards do.
  uint64_t max_shard = 0;
  uint64_t min_shard = UINT64_MAX;
  {
    core::OreoOptions probe_opts = opts;
    probe_opts.storage_backend = MakeInMemoryBackend();
    auto probe = core::MakeEngine(&t, &gen, /*time_column=*/0, probe_opts);
    ASSERT_TRUE(probe->AttachPhysical(testutil::ScratchDir("shard_major_p"),
                                      /*store_threads=*/1)
                    .ok());
    for (size_t s = 0; s < kShards; ++s) {
      const uint64_t bytes = probe->store(s)->MaterializedBytes();
      max_shard = std::max(max_shard, bytes);
      min_shard = std::min(min_shard, bytes);
    }
  }
  ASSERT_LT(max_shard, 2 * min_shard) << "shards too unbalanced for the test";

  SharedBlockCacheOptions cache_opts;  // prefetch_threads = 0: no prefetch
  cache_opts.capacity_bytes = max_shard;
  auto cache = MakeSharedBlockCache(cache_opts);
  opts.storage_backend = MakeInMemoryBackend();
  opts.shared_cache = cache;
  auto engine = core::MakeEngine(&t, &gen, /*time_column=*/0, opts);
  ASSERT_TRUE(engine->AttachPhysical(testutil::ScratchDir("shard_major"),
                                     /*store_threads=*/1)
                  .ok());
  size_t files = 0;
  for (size_t s = 0; s < kShards; ++s) {
    files += engine->store(s)->GetSnapshot().files.size();
  }

  const std::vector<Query> batch(8);  // conjunct-free: every file survives
  auto exec = engine->ExecuteBatchPhysical(batch);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  for (const auto& per_query : exec->per_query) {
    EXPECT_EQ(per_query.matches, t.num_rows());
  }
  EXPECT_EQ(cache->stats().misses, files)
      << "a shard's files were evicted before its sub-batch finished";
}

}  // namespace
}  // namespace oreo
