// The parallel==serial equivalence wall. The engine's determinism contract
// (see common/thread_pool.h) promises that every parallel hot path —
// physical scans, materialization, reorganization, and candidate cost
// evaluation — produces bit-identical costs, switch sequences, counters and
// on-disk bytes versus the serial (num_threads=1) baseline, for any thread
// count. These tests pin that contract for seeds × thread counts {1, 2, 8}.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/oreo.h"
#include "core/physical.h"
#include "layout/qdtree_layout.h"
#include "layout/sorted_layout.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

// The wall runs on the in-memory backend by default (no disk, same bytes);
// OREO_TEST_BACKEND=posix pins the file path — partition CRCs are read
// through the backend either way and must not change.

// Everything a physical run produces that must not depend on the pool size.
struct PhysicalFingerprint {
  uint64_t mat_bytes = 0;
  uint64_t mat_partitions = 0;
  std::vector<uint32_t> mat_crcs;
  std::vector<uint64_t> scan_counters;  // per query: parts, rows, matches, bytes
  uint64_t reorg_bytes = 0;
  uint64_t reorg_partitions = 0;
  std::vector<uint32_t> reorg_crcs;
  std::vector<uint64_t> post_reorg_matches;

  bool operator==(const PhysicalFingerprint& o) const {
    return mat_bytes == o.mat_bytes && mat_partitions == o.mat_partitions &&
           mat_crcs == o.mat_crcs && scan_counters == o.scan_counters &&
           reorg_bytes == o.reorg_bytes &&
           reorg_partitions == o.reorg_partitions &&
           reorg_crcs == o.reorg_crcs &&
           post_reorg_matches == o.post_reorg_matches;
  }
};

PhysicalFingerprint RunPhysical(uint64_t seed, size_t num_threads) {
  Table t = testutil::MakeEventTable(4000, seed);
  LayoutInstance by_ts =
      testutil::MakeSortedInstance(t, 0, 16, "by_ts", /*sample_seed=*/3);
  LayoutInstance by_qty =
      testutil::MakeSortedInstance(t, 1, 16, "by_qty", /*sample_seed=*/3);
  std::string dir = testutil::ScratchDir(
      "par_eq_" + std::to_string(seed) + "_" + std::to_string(num_threads));
  PhysicalStore store(dir, num_threads, testutil::TestBackend("inmem"));

  PhysicalFingerprint fp;
  auto mat = store.MaterializeLayout(t, by_ts);
  EXPECT_TRUE(mat.ok()) << mat.status().ToString();
  fp.mat_bytes = mat->bytes;
  fp.mat_partitions = mat->partitions;
  fp.mat_crcs = testutil::PartitionCrcs(store);

  std::vector<Query> queries =
      testutil::MakeRangeWorkload(0, 4000, 300, 8, seed + 1);
  {
    Query full;  // conjunct-free full scan exercises the widest fan-out
    queries.push_back(full);
  }
  for (const Query& q : queries) {
    auto exec = store.ExecuteQuery(q);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    fp.scan_counters.push_back(exec->partitions_read);
    fp.scan_counters.push_back(exec->rows_scanned);
    fp.scan_counters.push_back(exec->matches);
    fp.scan_counters.push_back(exec->bytes_read);
  }

  auto reorg = store.Reorganize(t, by_qty);
  EXPECT_TRUE(reorg.ok()) << reorg.status().ToString();
  store.Vacuum();
  fp.reorg_bytes = reorg->bytes;
  fp.reorg_partitions = reorg->partitions;
  fp.reorg_crcs = testutil::PartitionCrcs(store);

  std::vector<Query> after =
      testutil::MakeRangeWorkload(1, 1000, 80, 8, seed + 2);
  for (const Query& q : after) {
    auto exec = store.ExecuteQuery(q);
    EXPECT_TRUE(exec.ok()) << exec.status().ToString();
    fp.post_reorg_matches.push_back(exec->matches);
  }
  return fp;
}

TEST(ParallelEquivalenceTest, PhysicalStoreBitIdenticalAcrossThreadCounts) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    PhysicalFingerprint serial = RunPhysical(seed, /*num_threads=*/1);
    ASSERT_FALSE(serial.mat_crcs.empty());
    for (size_t threads : {2u, 8u}) {
      PhysicalFingerprint parallel = RunPhysical(seed, threads);
      EXPECT_TRUE(serial == parallel)
          << "physical fingerprint diverged at seed " << seed << ", "
          << threads << " threads";
    }
  }
}

// Full framework run: the Layout Manager's parallel candidate cost
// evaluation must not change a single admission, eviction, switch decision
// or cost account.
SimResult RunOreo(uint64_t seed, size_t num_threads, const Table& t,
                  const std::vector<Query>& stream,
                  const LayoutGenerator& gen) {
  OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = num_threads;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;  // small cap: exercise eviction + pruning paths
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  Oreo oreo(&t, &gen, /*time_column=*/0, opts);
  return oreo.Run(stream, /*record_trace=*/true);
}

TEST(ParallelEquivalenceTest, OreoRunBitIdenticalAcrossThreadCounts) {
  QdTreeGenerator gen;
  for (uint64_t seed : {5u, 6u}) {
    Table t = testutil::MakeEventTable(3000, seed);
    // Two workload phases so the manager admits states and D-UMTS switches.
    std::vector<Query> stream =
        testutil::MakeRangeWorkload(0, 3000, 150, 150, seed + 1);
    std::vector<Query> phase2 =
        testutil::MakeRangeWorkload(1, 1000, 50, 150, seed + 2);
    stream.insert(stream.end(), phase2.begin(), phase2.end());

    SimResult serial = RunOreo(seed, 1, t, stream, gen);
    EXPECT_GT(serial.num_switches, 0) << "fixture too tame to test switches";
    for (size_t threads : {2u, 8u}) {
      SimResult parallel = RunOreo(seed, threads, t, stream, gen);
      // Bit-identical: exact double equality is intentional.
      EXPECT_EQ(serial.query_cost, parallel.query_cost);
      EXPECT_EQ(serial.reorg_cost, parallel.reorg_cost);
      EXPECT_EQ(serial.num_switches, parallel.num_switches);
      EXPECT_EQ(serial.serving_state, parallel.serving_state);
      EXPECT_EQ(serial.switch_events, parallel.switch_events);
      EXPECT_EQ(serial.cumulative, parallel.cumulative);
      EXPECT_EQ(serial.final_live_states, parallel.final_live_states);
    }
  }
}

// The kernel-mode dimension of the wall: the vectorized scan kernels
// (query/kernels.h), codec fast paths and Eytzinger lookups must reproduce
// the scalar reference implementations bit-for-bit — same partition CRCs,
// same scan counters, same costs and switch decisions — at any thread count.
TEST(ParallelEquivalenceTest, KernelModesBitIdentical) {
  for (uint64_t seed : {21u, 22u}) {
    PhysicalFingerprint scalar_fp, vector_fp;
    {
      testutil::ScopedKernelMode mode(simd::KernelMode::kScalar);
      scalar_fp = RunPhysical(seed, /*num_threads=*/4);
    }
    {
      testutil::ScopedKernelMode mode(simd::KernelMode::kVector);
      vector_fp = RunPhysical(seed, /*num_threads=*/4);
    }
    ASSERT_FALSE(scalar_fp.mat_crcs.empty());
    EXPECT_TRUE(scalar_fp == vector_fp)
        << "physical fingerprint diverged between kernel modes at seed "
        << seed;
  }
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(3000, 5);
  std::vector<Query> stream = testutil::MakeRangeWorkload(0, 3000, 150, 150, 6);
  SimResult scalar_sim, vector_sim;
  {
    testutil::ScopedKernelMode mode(simd::KernelMode::kScalar);
    scalar_sim = RunOreo(5, 4, t, stream, gen);
  }
  {
    testutil::ScopedKernelMode mode(simd::KernelMode::kVector);
    vector_sim = RunOreo(5, 4, t, stream, gen);
  }
  EXPECT_EQ(scalar_sim.query_cost, vector_sim.query_cost);
  EXPECT_EQ(scalar_sim.reorg_cost, vector_sim.reorg_cost);
  EXPECT_EQ(scalar_sim.num_switches, vector_sim.num_switches);
  EXPECT_EQ(scalar_sim.serving_state, vector_sim.serving_state);
  EXPECT_EQ(scalar_sim.switch_events, vector_sim.switch_events);
  EXPECT_EQ(scalar_sim.cumulative, vector_sim.cumulative);
}

// ReplayPhysical ties the two layers together: same trace, same files, same
// counters at any pool size (only wall-clock seconds may differ).
TEST(ParallelEquivalenceTest, ReplayPhysicalCountersMatch) {
  Table t = testutil::MakeEventTable(2000, 31);
  StateRegistry reg;
  int s0 = reg.Add(testutil::MakeSortedInstance(t, 0, 8, "s0", 3));
  int s1 = reg.Add(testutil::MakeSortedInstance(t, 1, 8, "s1", 3));
  std::vector<Query> queries =
      testutil::MakeRangeWorkload(1, 1000, 100, 24, 32);
  SimResult sim;
  sim.serving_state.assign(queries.size(), s0);
  for (size_t i = 12; i < queries.size(); ++i) sim.serving_state[i] = s1;

  auto baseline = ReplayPhysical(t, reg, sim, queries, /*stride=*/2,
                                 testutil::ScratchDir("par_eq_replay_1"),
                                 /*num_threads=*/1, /*batch_size=*/1,
                                 testutil::TestBackend("inmem"));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  for (size_t threads : {2u, 8u}) {
    auto parallel = ReplayPhysical(
        t, reg, sim, queries, /*stride=*/2,
        testutil::ScratchDir("par_eq_replay_" + std::to_string(threads)),
        threads, /*batch_size=*/1, testutil::TestBackend("inmem"));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(baseline->num_switches, parallel->num_switches);
    EXPECT_EQ(baseline->queries_executed, parallel->queries_executed);
    EXPECT_EQ(baseline->partitions_read, parallel->partitions_read);
    EXPECT_EQ(baseline->matches, parallel->matches);
  }
}

// The pool itself: dynamic index claiming must still run every index exactly
// once, and inline (1-thread) pools must behave identically.
TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "index " << i;
    }
    pool.ParallelFor(0, [&](size_t) { FAIL() << "n=0 must not run tasks"; });
  }
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
}

TEST(ThreadPoolTest, ManySmallBatchesFromOnePool) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::vector<size_t> out(7, 0);
    pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
