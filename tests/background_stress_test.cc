// Concurrency stress for the background reorganizer (ReorgPool): a worker
// thread keeps rewriting the store into alternating layouts while
// foreground threads hammer GetSnapshot / ExecuteQueryBatchOnSnapshot /
// busy() / MaterializedBytes. Results must stay correct throughout — every
// snapshot query sees exactly the matches the table implies, no matter where
// the swap lands. Run under -DOREO_SANITIZE=thread this doubles as the race
// detector for the whole PhysicalStore + ThreadPool + ReorgPool stack (the
// TSan CI job does exactly that).
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/background.h"
#include "core/physical.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

TEST(BackgroundStressTest, SnapshotQueriesStayCorrectAcrossRepeatedSwaps) {
  Table t = testutil::MakeEventTable(6000, 41);
  // Targets must outlive every in-flight reorganization.
  LayoutInstance by_ts =
      testutil::MakeSortedInstance(t, 0, 16, "by_ts", /*sample_seed=*/3);
  LayoutInstance by_qty =
      testutil::MakeSortedInstance(t, 1, 16, "by_qty", /*sample_seed=*/3);
  LayoutInstance coarse =
      testutil::MakeSortedInstance(t, 0, 8, "coarse", /*sample_seed=*/3);

  PhysicalStore store(testutil::ScratchDir("bg_stress"), /*num_threads=*/2);
  ASSERT_TRUE(store.MaterializeLayout(t, by_ts).ok());

  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 120, 4, 42);
  std::vector<uint64_t> expected;
  for (const Query& q : queries) expected.push_back(CountMatches(t, q));

  ReorgPool bg;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::atomic<uint64_t> reads{0};

  // Foreground readers: pin a snapshot, query it, spot-check the counters.
  // Outgoing files are only vacuumed after the readers join, so a snapshot
  // taken right before a swap must keep serving correct results.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_acquire)) {
        PhysicalStore::Snapshot snap = store.GetSnapshot();
        const Query& q = queries[i % queries.size()];
        auto exec = testutil::ScanSnapshot(store, snap, q);
        if (!exec.ok() || exec->matches != expected[i % queries.size()]) {
          ++reader_errors;
        }
        (void)store.MaterializedBytes();
        (void)bg.busy(0);
        ++reads;
        ++i;
      }
    });
  }

  // Driver: six full swaps, alternating targets; Submit may bounce while a
  // rewrite is in flight (that is the documented single-process contract).
  const LayoutInstance* targets[] = {&by_qty, &coarse, &by_ts};
  int completed_rounds = 0;
  for (int round = 0; round < 6; ++round) {
    const LayoutInstance* target = targets[round % 3];
    while (!bg.Submit(testutil::RewriteJob(&store, &t, target))) {
      std::this_thread::yield();
    }
    bg.Wait(0);
    ASSERT_TRUE(bg.last_status(0).ok()) << bg.last_status(0).ToString();
    ++completed_rounds;
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();
  bg.Wait(0);

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bg.stats().completed, completed_rounds);
  // Readers are gone: now reclaiming outgoing files is safe, and fresh
  // queries serve the final layout correctly.
  store.Vacuum();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto exec = store.ExecuteQuery(queries[i]);
    ASSERT_TRUE(exec.ok()) << exec.status().ToString();
    EXPECT_EQ(exec->matches, expected[i]);
  }
}

TEST(BackgroundStressTest, ConcurrentSubmittersNeverDoubleBook) {
  Table t = testutil::MakeEventTable(3000, 43);
  LayoutInstance a =
      testutil::MakeSortedInstance(t, 0, 8, "a", /*sample_seed=*/3);
  LayoutInstance b =
      testutil::MakeSortedInstance(t, 1, 8, "b", /*sample_seed=*/3);
  LayoutInstance c =
      testutil::MakeSortedInstance(t, 0, 4, "c", /*sample_seed=*/3);

  PhysicalStore store(testutil::ScratchDir("bg_submit"), /*num_threads=*/2);
  ASSERT_TRUE(store.MaterializeLayout(t, a).ok());

  ReorgPool bg;
  std::atomic<int> accepted{0};

  // Two threads race Submit; every accepted submission must eventually be
  // one completed reorganization (single in-flight rewrite at a time).
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&, s] {
      const LayoutInstance* mine = (s == 0) ? &b : &c;
      for (int i = 0; i < 40; ++i) {
        if (bg.Submit(testutil::RewriteJob(&store, &t, mine))) ++accepted;
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& th : submitters) th.join();
  bg.Wait(0);
  ASSERT_TRUE(bg.last_status(0).ok()) << bg.last_status(0).ToString();
  EXPECT_GE(accepted.load(), 1);
  EXPECT_EQ(bg.stats().completed, accepted.load());
  // The store still holds exactly one consistent layout with all rows.
  store.Vacuum();
  Query full;
  auto exec = store.ExecuteQuery(full);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->matches, t.num_rows());
}

// ---------------------------------------------------- ReorgPool tests ----

// Four shards share the one worker. A start gate holds the worker inside the
// first rewrite until every shard has submitted, so each shard's job is
// queued or running when its duplicate arrives, and the duplicate must
// bounce. Every shard's rewrite then completes and swaps.
TEST(BackgroundStressTest, PerShardJobsBounceDuplicatesAndAllComplete) {
  constexpr uint32_t kShards = 4;
  std::vector<Table> tables;
  std::vector<std::unique_ptr<PhysicalStore>> stores;
  // Stores keep pointers to their materialized instances: no reallocation.
  std::vector<LayoutInstance> from;
  std::vector<LayoutInstance> to;
  from.reserve(kShards);
  to.reserve(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    tables.push_back(testutil::MakeEventTable(1500, 50 + s));
  }
  for (uint32_t s = 0; s < kShards; ++s) {
    from.push_back(
        testutil::MakeSortedInstance(tables[s], 0, 8, "from", /*seed=*/3));
    to.push_back(
        testutil::MakeSortedInstance(tables[s], 1, 8, "to", /*seed=*/3));
    stores.push_back(std::make_unique<PhysicalStore>(
        testutil::ScratchDir("reorg_pool_" + std::to_string(s)),
        /*num_threads=*/1));
    ASSERT_TRUE(stores[s]->MaterializeLayout(tables[s], from[s]).ok());
  }

  // The gate outlives the pool, whose worker waits on it.
  std::mutex mu;
  std::condition_variable cv;
  bool all_submitted = false;
  std::atomic<int> completions{0};
  ReorgPool pool;
  for (uint32_t s = 0; s < kShards; ++s) {
    ReorgPool::Job job;
    job.shard = s;
    job.store = stores[s].get();
    job.table = &tables[s];
    job.target = &to[s];
    job.on_start = [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return all_submitted; });
    };
    job.on_done = [&](const Status& st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      ++completions;
    };
    // EXPECT, not ASSERT: returning early would leave the worker at the gate.
    EXPECT_TRUE(pool.Submit(std::move(job))) << "shard " << s;
    // Within a shard, a second submission must bounce while one is queued
    // or running.
    ReorgPool::Job dup;
    dup.shard = s;
    dup.store = stores[s].get();
    dup.table = &tables[s];
    dup.target = &from[s];
    EXPECT_FALSE(pool.Submit(std::move(dup)));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    all_submitted = true;
  }
  cv.notify_all();
  pool.WaitAll();
  EXPECT_EQ(completions.load(), static_cast<int>(kShards));
  EXPECT_EQ(pool.stats().completed, static_cast<int64_t>(kShards));
  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(pool.generation(s), 1u);
    EXPECT_TRUE(pool.last_status(s).ok());
    EXPECT_EQ(stores[s]->current_instance(), &to[s]);
    // Data survived the swap.
    stores[s]->Vacuum();
    auto exec = stores[s]->ExecuteQuery(Query{});
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->matches, tables[s].num_rows());
  }
}

// Shutdown-ordering regression (latent use-after-free found reviewing the
// PR 3 callback Submit): a job still *queued* when the pool is destroyed
// must be discarded — its reorganization never runs and its completion
// callback never fires — because by the time the worker could run it, the
// owning engine's other members may already be mid-destruction. The running
// job's callback still fires before the destructor returns.
TEST(BackgroundStressTest, DestructionDiscardsQueuedJobsWithoutFiringThem) {
  Table t = testutil::MakeEventTable(1500, 61);
  LayoutInstance a = testutil::MakeSortedInstance(t, 0, 8, "a", 3);
  LayoutInstance b = testutil::MakeSortedInstance(t, 1, 8, "b", 3);
  PhysicalStore store_a(testutil::ScratchDir("reorg_shutdown_a"), 1);
  PhysicalStore store_b(testutil::ScratchDir("reorg_shutdown_b"), 1);
  ASSERT_TRUE(store_a.MaterializeLayout(t, a).ok());
  ASSERT_TRUE(store_b.MaterializeLayout(t, a).ok());

  std::atomic<bool> running_done{false};
  std::atomic<bool> queued_done{false};
  std::mutex mu;
  std::condition_variable cv;
  bool first_started = false;
  bool queued_job_destroyed = false;
  {
    // One worker: the first job runs, the second stays queued behind it.
    ReorgPool pool;
    ReorgPool::Job first;
    first.shard = 0;
    first.store = &store_a;
    first.table = &t;
    first.target = &b;
    first.on_start = [&] {
      // Hold the running job until the destructor has provably discarded
      // the queued one (its callback's sentinel has been destroyed), so the
      // discard-vs-pickup order is deterministic.
      std::unique_lock<std::mutex> lock(mu);
      first_started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return queued_job_destroyed; });
    };
    first.on_done = [&](const Status&) { running_done = true; };
    ASSERT_TRUE(pool.Submit(std::move(first)));
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return first_started; });
    }
    // The queued job's callback owns a sentinel; when the destructor
    // discards the job, the callback — and with it the sentinel — is
    // destroyed, which releases the gate above.
    auto sentinel = std::shared_ptr<int>(new int(0), [&](int* p) {
      delete p;
      std::lock_guard<std::mutex> lock(mu);
      queued_job_destroyed = true;
      cv.notify_all();
    });
    ReorgPool::Job queued;
    queued.shard = 1;
    queued.store = &store_b;
    queued.table = &t;
    queued.target = &b;
    queued.on_done = [&queued_done, sentinel](const Status&) {
      queued_done = true;
    };
    sentinel.reset();  // the job's callback now holds the only reference
    ASSERT_TRUE(pool.Submit(std::move(queued)));
    EXPECT_EQ(pool.stats().discarded, 0);
    // ~ReorgPool: discards `queued` (destroying its callback → sentinel →
    // gate opens), then joins the worker, whose on_done fires on the way
    // out. store_b is never rewritten.
  }
  EXPECT_TRUE(running_done.load())
      << "the running job's callback must fire before the destructor returns";
  EXPECT_FALSE(queued_done.load())
      << "a queued job's callback fired during/after destruction";
  EXPECT_EQ(store_a.current_instance(), &b);
  EXPECT_EQ(store_b.current_instance(), &a) << "a discarded job ran anyway";
}

// A single-store pool keeps the shutdown contract: destroying it right
// after an accepted Submit must be safe — the callback either fired on the
// worker before the join or was discarded unfired, and it can never touch
// freed state afterwards (ASan/TSan verify the "never after" half).
TEST(BackgroundStressTest, ReorganizerDestructionAfterSubmitIsSafe) {
  Table t = testutil::MakeEventTable(1500, 62);
  LayoutInstance a = testutil::MakeSortedInstance(t, 0, 8, "a", 3);
  LayoutInstance b = testutil::MakeSortedInstance(t, 1, 8, "b", 3);
  for (int round = 0; round < 8; ++round) {
    PhysicalStore store(testutil::ScratchDir("bg_dtor_race"), 1);
    ASSERT_TRUE(store.MaterializeLayout(t, a).ok());
    std::atomic<bool> fired{false};
    bool accepted = false;
    {
      ReorgPool bg;
      accepted = bg.Submit(
          testutil::RewriteJob(&store, &t, &b, [&](const Status& st) {
            EXPECT_TRUE(st.ok()) << st.ToString();
            fired = true;
          }));
      // Destructor races the worker's pickup of the queued job.
    }
    ASSERT_TRUE(accepted);
    // Exactly two legal outcomes: the rewrite completed (callback fired,
    // store swapped) or it was discarded unstarted (callback unfired,
    // store untouched).
    if (fired.load()) {
      EXPECT_EQ(store.current_instance(), &b);
    } else {
      EXPECT_EQ(store.current_instance(), &a);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
