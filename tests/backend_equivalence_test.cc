// The backend-equivalence wall for the StorageBackend / OreoEngine
// redesign. Pinned contracts, all through the MakeEngine factory:
//
//   1. For a fixed seed and workload, (posix, in-memory) backends × thread
//      counts {1, 8} × shard counts {1, 4} produce bit-identical costs,
//      switch decisions, decision traces, replay counters and
//      materialized-partition CRCs (read through each backend).
//   2. Live streaming (AttachPhysical + RunBatch + ExecuteBatchPhysical +
//      SyncPhysical with background rewrites) returns ground-truth matches
//      on every backend and thread count.
//   3. A block cache (one SharedCacheBackend view) on/off is
//      result-identical while measurably reducing the bytes fetched from
//      the base backend (read amplification).
//
// Runs under the TSan CI job (label `slow`).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "storage/shared_cache.h"
#include "test_util.h"

namespace oreo {
namespace core {
namespace {

constexpr uint64_t kSeed = 17;
constexpr size_t kRows = 3000;

OreoOptions BaseOpts(size_t num_threads, size_t num_shards,
                     std::shared_ptr<StorageBackend> backend) {
  OreoOptions opts;
  opts.seed = kSeed;
  opts.num_threads = num_threads;
  opts.num_shards = num_shards;
  opts.shard_routing = ShardRouting::kRange;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  opts.storage_backend = std::move(backend);
  return opts;
}

// Two workload phases so managers admit states and D-UMTS switches.
std::vector<Query> TwoPhaseStream() {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, kRows, 150, 150, kSeed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, 150, kSeed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i);
  }
  return stream;
}

std::shared_ptr<StorageBackend> MakeBackend(const std::string& kind) {
  return kind == "posix" ? MakePosixBackend() : MakeInMemoryBackend();
}

// Everything a (backend, threads, shards) combo produces that must not
// depend on the backend or the pool size.
struct ComboFingerprint {
  // Logical: per-shard decision traces and merged accounting.
  std::vector<std::vector<int>> serving_states;
  std::vector<std::vector<std::tuple<int64_t, int, int>>> switch_events;
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;
  // Physical replay counters.
  int64_t replay_switches = 0;
  uint64_t queries_executed = 0;
  uint64_t partitions_read = 0;
  uint64_t matches = 0;
  // Materialized partitions: dir-relative path -> CRC, in path order.
  std::vector<std::pair<std::string, uint32_t>> crcs;

  bool operator==(const ComboFingerprint& o) const {
    return serving_states == o.serving_states &&
           switch_events == o.switch_events && query_cost == o.query_cost &&
           reorg_cost == o.reorg_cost && num_switches == o.num_switches &&
           replay_switches == o.replay_switches &&
           queries_executed == o.queries_executed &&
           partitions_read == o.partitions_read && matches == o.matches &&
           crcs == o.crcs;
  }
};

ComboFingerprint RunCombo(const Table& t, const LayoutGenerator& gen,
                          const std::vector<Query>& stream,
                          const std::string& backend_kind, size_t threads,
                          size_t shards) {
  OreoOptions opts = BaseOpts(threads, shards, MakeBackend(backend_kind));
  std::unique_ptr<OreoEngine> engine =
      MakeEngine(&t, &gen, /*time_column=*/0, opts);
  EXPECT_EQ(engine->num_shards(), shards);

  ComboFingerprint fp;
  EngineSimResult sim = engine->RunTrace(stream, /*record_trace=*/true);
  EXPECT_EQ(sim.shards.size(), shards);
  for (const SimResult& shard : sim.shards) {
    fp.serving_states.push_back(shard.serving_state);
    fp.switch_events.push_back(shard.switch_events);
  }
  fp.query_cost = sim.query_cost;
  fp.reorg_cost = sim.reorg_cost;
  fp.num_switches = sim.num_switches;

  const std::string dir = testutil::ScratchDir(
      "backend_eq_" + backend_kind + "_t" + std::to_string(threads) + "_s" +
      std::to_string(shards));
  auto replay = engine->ReplayTrace(sim, /*stride=*/3, dir, threads,
                                    /*batch_size=*/4);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) {
    fp.replay_switches = replay->num_switches;
    fp.queries_executed = replay->queries_executed;
    fp.partitions_read = replay->partitions_read;
    fp.matches = replay->matches;
  }
  for (auto& [path, crc] : testutil::DirCrcs(*opts.storage_backend, dir)) {
    fp.crcs.emplace_back(path.substr(dir.size()), crc);
  }
  return fp;
}

TEST(BackendEquivalenceTest, PosixAndInMemoryAreBitIdentical) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  for (size_t shards : {size_t{1}, size_t{4}}) {
    ComboFingerprint baseline =
        RunCombo(t, gen, stream, "posix", /*threads=*/1, shards);
    ASSERT_FALSE(baseline.crcs.empty());
    ASSERT_GT(baseline.num_switches, 0) << "fixture too tame";
    for (const std::string backend_kind : {"posix", "inmem"}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        if (backend_kind == "posix" && threads == 1) continue;  // baseline
        ComboFingerprint combo =
            RunCombo(t, gen, stream, backend_kind, threads, shards);
        EXPECT_TRUE(combo == baseline)
            << "fingerprint diverged: backend=" << backend_kind
            << " threads=" << threads << " shards=" << shards;
      }
    }
  }
}

// Live streaming through the unified handle: logical decisions, physical
// batches against pinned snapshots, background rewrites reconciled at batch
// boundaries. Matches are ground truth at all times; costs/switches are
// backend- and thread-count-invariant.
TEST(BackendEquivalenceTest, StreamingMatchesGroundTruthOnEveryBackend) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();
  std::vector<uint64_t> expected;
  for (const Query& q : stream) expected.push_back(CountMatches(t, q));

  struct StreamingFingerprint {
    double query_cost = 0.0;
    double reorg_cost = 0.0;
    int64_t num_switches = 0;
  };
  for (size_t shards : {size_t{1}, size_t{4}}) {
    bool have_baseline = false;
    StreamingFingerprint baseline;
    for (const std::string backend_kind : {"posix", "inmem"}) {
      for (size_t threads : {size_t{1}, size_t{8}}) {
        OreoOptions opts =
            BaseOpts(threads, shards, MakeBackend(backend_kind));
        std::unique_ptr<OreoEngine> engine =
            MakeEngine(&t, &gen, /*time_column=*/0, opts);
        std::string dir = testutil::ScratchDir(
            "backend_eq_stream_" + backend_kind + "_t" +
            std::to_string(threads) + "_s" + std::to_string(shards));
        ASSERT_TRUE(
            engine->AttachPhysical(dir, /*store_threads=*/2).ok());
        ASSERT_TRUE(engine->has_physical());

        size_t qi = 0;
        for (const QueryBatch& b : MakeBatches(stream, /*batch_size=*/32)) {
          engine->RunBatch(b);
          auto exec = engine->ExecuteBatchPhysical(b.queries);
          ASSERT_TRUE(exec.ok()) << exec.status().ToString();
          for (const auto& per_query : exec->per_query) {
            ASSERT_EQ(per_query.matches, expected[qi])
                << "backend=" << backend_kind << " threads=" << threads
                << " shards=" << shards << " query " << qi;
            ++qi;
          }
          engine->SyncPhysical();
        }
        engine->WaitForReorgs();

        StreamingFingerprint fp{engine->total_query_cost(),
                                engine->total_reorg_cost(),
                                engine->num_switches()};
        if (!have_baseline) {
          baseline = fp;
          have_baseline = true;
          EXPECT_GT(fp.num_switches, 0) << "fixture too tame";
        } else {
          EXPECT_EQ(fp.query_cost, baseline.query_cost)
              << "backend=" << backend_kind << " threads=" << threads;
          EXPECT_EQ(fp.reorg_cost, baseline.reorg_cost);
          EXPECT_EQ(fp.num_switches, baseline.num_switches);
        }
      }
    }
  }
}

// The cache read-amplification contract is measured on the fully
// deterministic replay path (streaming reorg timing could legally vary the
// number of rewrites, and with it the raw read totals).
TEST(BackendEquivalenceTest, BlockCacheCutsBaseReadsWithoutChangingResults) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  struct CacheRun {
    int64_t num_switches = 0;
    uint64_t queries_executed = 0;
    uint64_t partitions_read = 0;
    uint64_t matches = 0;
    std::vector<std::pair<std::string, uint32_t>> crcs;  // dir-relative
    uint64_t base_read_bytes = 0;
  };
  auto run = [&](std::shared_ptr<StorageBackend> backend,
                 StorageBackend* base, const std::string& tag) {
    CacheRun r;
    OreoOptions opts = BaseOpts(/*num_threads=*/8, /*num_shards=*/1,
                                std::move(backend));
    std::unique_ptr<OreoEngine> engine =
        MakeEngine(&t, &gen, /*time_column=*/0, opts);
    EngineSimResult sim = engine->RunTrace(stream, /*record_trace=*/true);
    std::string dir = testutil::ScratchDir("backend_eq_cache_" + tag);
    auto replay = engine->ReplayTrace(sim, /*stride=*/3, dir,
                                      /*num_threads=*/8, /*batch_size=*/8);
    EXPECT_TRUE(replay.ok()) << replay.status().ToString();
    if (replay.ok()) {
      r.num_switches = replay->num_switches;
      r.queries_executed = replay->queries_executed;
      r.partitions_read = replay->partitions_read;
      r.matches = replay->matches;
    }
    for (auto& [path, crc] :
         testutil::DirCrcs(*opts.storage_backend, dir)) {
      r.crcs.emplace_back(path.substr(dir.size()), crc);
    }
    r.base_read_bytes = base->stats().read_bytes;
    return r;
  };

  std::shared_ptr<StorageBackend> plain = MakeInMemoryBackend();
  CacheRun uncached = run(plain, plain.get(), "off");
  ASSERT_GT(uncached.num_switches, 0) << "fixture too tame";

  std::shared_ptr<SharedCacheBackend> cached = MakeSharedCacheBackend(
      MakeSharedBlockCache(), MakeInMemoryBackend(), /*shard=*/0);
  CacheRun with_cache = run(cached, cached->base(), "on");

  // Result-identical: counters and the final partition bytes agree bit for
  // bit.
  EXPECT_EQ(uncached.num_switches, with_cache.num_switches);
  EXPECT_EQ(uncached.queries_executed, with_cache.queries_executed);
  EXPECT_EQ(uncached.partitions_read, with_cache.partitions_read);
  EXPECT_EQ(uncached.matches, with_cache.matches);
  EXPECT_EQ(uncached.crcs, with_cache.crcs);

  // And the cache actually absorbed reads: the base backend served
  // measurably fewer bytes than the uncached run's backend did for the
  // exact same (deterministic) operation sequence.
  SharedCacheStats stats = cached->cache()->stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_LT(with_cache.base_read_bytes, uncached.base_read_bytes)
      << "the block cache never reduced base-backend read amplification";
  EXPECT_EQ(stats.hit_bytes,
            uncached.base_read_bytes - with_cache.base_read_bytes)
      << "every avoided base read must be accounted as hit bytes";
}

}  // namespace
}  // namespace core
}  // namespace oreo
