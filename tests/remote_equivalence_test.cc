// The remote-tier equivalence wall. The engine's determinism contract —
// bit-identical costs, switch decisions, decision traces, replay counters
// and partition CRCs for a fixed seed — must survive the storage moving to
// a slow, failure-prone remote tier, with and without the cross-shard
// SharedBlockCache (async prefetch on) in front of it:
//
//   remote(inmem) × {shared cache off, on} × {faults off, on}
//                 × threads {1, 8} × shards {1, 4}
//
// all equal the plain in-memory baseline. Injected transient faults are
// absorbed by the retry policy without touching any observable output, and
// the fault/retry accounting itself is run-invariant (the schedule is a
// pure function of the seed, not of thread timing).
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
#include "storage/remote_backend.h"
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

struct RemoteConfig {
  bool remote = false;        // wrap the in-memory base in RemoteBackend
  bool faults = false;        // inject seeded transient faults
  bool shared_cache = false;  // cross-shard cache + async prefetch
};

std::shared_ptr<RemoteBackend> MakeFaultyRemote(bool faults) {
  RemoteBackendOptions ro;
  ro.sleep_for_real = false;  // deterministic accounting, fast wall
  if (faults) {
    ro.fault_rate = 0.25;
    ro.max_faults_per_key = 2;
    ro.max_retries = 5;
    ro.fault_seed = kSeed;
  }
  return MakeRemoteBackend(MakeInMemoryBackend(), ro);
}

// Everything a combo produces that must not depend on the storage tier,
// the cache, injected faults, or the pool size.
struct ComboFingerprint {
  std::vector<std::vector<int>> serving_states;
  std::vector<std::vector<std::tuple<int64_t, int, int>>> switch_events;
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;
  int64_t replay_switches = 0;
  uint64_t queries_executed = 0;
  uint64_t partitions_read = 0;
  uint64_t matches = 0;
  std::vector<std::pair<std::string, uint32_t>> crcs;  // dir-relative

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
                          const RemoteConfig& cfg, size_t threads,
                          size_t shards, const std::string& tag,
                          RemoteBackendStats* out_remote_stats = nullptr) {
  std::shared_ptr<RemoteBackend> remote;
  std::shared_ptr<StorageBackend> backend;
  if (cfg.remote) {
    remote = MakeFaultyRemote(cfg.faults);
    backend = remote;
  } else {
    backend = MakeInMemoryBackend();
  }
  OreoOptions opts = BaseOpts(threads, shards, backend);
  if (cfg.shared_cache) {
    SharedBlockCacheOptions cache_opts;
    cache_opts.prefetch_threads = 2;
    opts.shared_cache = MakeSharedBlockCache(cache_opts);
  }
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

  const std::string dir = testutil::ScratchDir("remote_eq_" + tag);
  auto replay = engine->ReplayTrace(sim, /*stride=*/3, dir, threads,
                                    /*batch_size=*/4);
  EXPECT_TRUE(replay.ok()) << replay.status().ToString();
  if (replay.ok()) {
    fp.replay_switches = replay->num_switches;
    fp.queries_executed = replay->queries_executed;
    fp.partitions_read = replay->partitions_read;
    fp.matches = replay->matches;
  }
  // CRCs read back through the remote tier itself: retries must also absorb
  // faults on this verification path.
  for (auto& [path, crc] : testutil::DirCrcs(*opts.storage_backend, dir)) {
    fp.crcs.emplace_back(path.substr(dir.size()), crc);
  }
  if (out_remote_stats != nullptr && remote != nullptr) {
    *out_remote_stats = remote->remote_stats();
  }
  if (cfg.shared_cache) {
    // The tier was actually exercised, not bypassed.
    EXPECT_GT(opts.shared_cache->stats().hits, 0u)
        << "shared cache saw no traffic: " << tag;
  }
  return fp;
}

TEST(RemoteEquivalenceTest, RemoteTierIsBitIdenticalToLocalUnderFaults) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  for (size_t shards : {size_t{1}, size_t{4}}) {
    ComboFingerprint baseline =
        RunCombo(t, gen, stream, RemoteConfig{}, /*threads=*/1, shards,
                 "base_s" + std::to_string(shards));
    ASSERT_FALSE(baseline.crcs.empty());
    ASSERT_GT(baseline.num_switches, 0) << "fixture too tame";

    for (bool shared_cache : {false, true}) {
      for (bool faults : {false, true}) {
        for (size_t threads : {size_t{1}, size_t{8}}) {
          RemoteConfig cfg;
          cfg.remote = true;
          cfg.faults = faults;
          cfg.shared_cache = shared_cache;
          const std::string tag =
              std::string("remote_c") + (shared_cache ? "1" : "0") + "_f" +
              (faults ? "1" : "0") + "_t" + std::to_string(threads) + "_s" +
              std::to_string(shards);
          RemoteBackendStats remote_stats;
          ComboFingerprint combo = RunCombo(t, gen, stream, cfg, threads,
                                            shards, tag, &remote_stats);
          EXPECT_TRUE(combo == baseline)
              << "fingerprint diverged from the local baseline: " << tag;
          if (faults) {
            EXPECT_GT(remote_stats.injected_faults, 0u)
                << "fault injection never fired: " << tag;
            EXPECT_EQ(remote_stats.exhausted, 0u)
                << "a transient fault leaked through the retries: " << tag;
          } else {
            EXPECT_EQ(remote_stats.injected_faults, 0u);
          }
        }
      }
    }
  }
}

// The fault/retry accounting itself is deterministic on the synchronous
// replay path: same seed, same config => the same number of injected
// faults, retries and backoff microseconds, run after run.
TEST(RemoteEquivalenceTest, FaultAccountingIsRunInvariant) {
  QdTreeGenerator gen;
  Table t = testutil::MakeEventTable(kRows, kSeed);
  std::vector<Query> stream = TwoPhaseStream();

  RemoteConfig cfg;
  cfg.remote = true;
  cfg.faults = true;
  // Same tag on purpose: the fault schedule is keyed on (seed, op, path)
  // and the replay paths embed the directory, so run invariance is defined
  // over identical directories (fresh backends each run).
  RemoteBackendStats first, second;
  ComboFingerprint fp_a = RunCombo(t, gen, stream, cfg, /*threads=*/1,
                                   /*shards=*/1, "acct", &first);
  ComboFingerprint fp_b = RunCombo(t, gen, stream, cfg, /*threads=*/1,
                                   /*shards=*/1, "acct", &second);
  EXPECT_TRUE(fp_a == fp_b);
  EXPECT_GT(first.injected_faults, 0u);
  EXPECT_EQ(first.ops, second.ops);
  EXPECT_EQ(first.attempts, second.attempts);
  EXPECT_EQ(first.injected_faults, second.injected_faults);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.exhausted, second.exhausted);
  EXPECT_EQ(first.backoff_sleep_us, second.backoff_sleep_us);
}

// Live streaming on the full remote stack (remote tier + shared cache +
// async prefetch + injected faults): matches are ground truth at all times
// and the logical accounting equals the local baseline's.
TEST(RemoteEquivalenceTest, StreamingOnRemoteStackMatchesGroundTruth) {
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
  StreamingFingerprint baseline;
  bool have_baseline = false;
  for (bool remote_stack : {false, true}) {
    OreoOptions opts = BaseOpts(/*num_threads=*/8, /*num_shards=*/4,
                                remote_stack
                                    ? MakeFaultyRemote(/*faults=*/true)
                                    : MakeInMemoryBackend());
    if (remote_stack) {
      SharedBlockCacheOptions cache_opts;
      cache_opts.prefetch_threads = 2;
      opts.shared_cache = MakeSharedBlockCache(cache_opts);
    }
    std::unique_ptr<OreoEngine> engine =
        MakeEngine(&t, &gen, /*time_column=*/0, opts);
    std::string dir = testutil::ScratchDir(
        remote_stack ? "remote_eq_stream_remote" : "remote_eq_stream_local");
    ASSERT_TRUE(engine->AttachPhysical(dir, /*store_threads=*/2).ok());

    size_t qi = 0;
    for (const QueryBatch& b : MakeBatches(stream, /*batch_size=*/32)) {
      engine->RunBatch(b);
      auto exec = engine->ExecuteBatchPhysical(b.queries);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      for (const auto& per_query : exec->per_query) {
        ASSERT_EQ(per_query.matches, expected[qi])
            << "remote_stack=" << remote_stack << " query " << qi;
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
      EXPECT_EQ(fp.query_cost, baseline.query_cost);
      EXPECT_EQ(fp.reorg_cost, baseline.reorg_cost);
      EXPECT_EQ(fp.num_switches, baseline.num_switches);
      EXPECT_GT(opts.shared_cache->stats().hits, 0u)
          << "the shared cache never served the streaming scans";
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace oreo
