// Micro-benchmark for the sharded store:
//
//   1. Batched scan throughput: the same query stream executes through an
//      OreoEngine at shard counts {1, 2, 4, 8} × engine thread counts
//      {1, 8}. Each shard keeps its own k-partition layout, so sharding
//      both refines pruning (N×k total partitions, plus the range router
//      skipping whole shards) and widens the parallel fan-out (shard-major:
//      one sub-batch scan per touched shard). Total matches are checked
//      identical at every configuration — the sharded determinism contract.
//
//   2. Reorganization overlap: every shard submits a full rewrite to a
//      shared ReorgPool; wall clock with 1 worker (serialized, the engine's
//      single background rewriter) is compared against one worker per shard
//      (concurrent per-shard rewrites), recording the observed concurrency
//      high-water mark.
//
// Emits a JSON document (schema documented in docs/BENCHMARKS.md) so the
// perf trajectory can be recorded run over run.
//
// Flags: --rows=N --queries=N --shard_counts=1,2,4,8
//        --threads=1,8 --seed=N --dir=path --out=path.json (default:
//        BENCH_micro_sharded_stream.json in the working directory; run from
//        the repo root to land it next to the other BENCH_*.json files)
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/background.h"
#include "core/engine.h"
#include "layout/sorted_layout.h"
#include "storage/shard_router.h"

namespace oreo {
namespace bench {
namespace {

namespace fs = std::filesystem;

Table MakeScanTable(size_t rows, uint64_t seed) {
  Table t(Schema({{"ts", DataType::kInt64},
                  {"qty", DataType::kInt64},
                  {"val", DataType::kDouble},
                  {"cat", DataType::kString}}));
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d", "e", "f", "g", "h"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 100000)),
                 Value(rng.UniformDouble(0, 1000)),
                 Value(cats[rng.Uniform(8)])});
  }
  return t;
}

// Mostly narrow ts ranges: their dominant cost is partition-granularity
// overshoot (a query matching 1% of the rows still decompresses whole
// surviving partitions), so refining the granularity — N shards × k
// partitions instead of k — cuts the scanned bytes roughly with the shard
// count, on top of the range router pruning non-overlapping shards
// outright. A few qty ranges fan out across every shard (sharding must not
// slow those down much). On multi-core hosts the shard-major fan-out (one
// sub-batch scan per touched shard) adds thread scaling on top.
std::vector<Query> MakeMixedWorkload(size_t n, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<int64_t>(i);
    if (i % 16 != 0) {
      int64_t width = static_cast<int64_t>(rows) / 150;
      int64_t lo = rng.UniformInt(0, static_cast<int64_t>(rows) - width);
      q.conjuncts = {Predicate::Between(0, Value(lo), Value(lo + width))};
    } else {
      int64_t lo = rng.UniformInt(0, 90000);
      q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 10000))};
    }
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<size_t> ParseSizeList(const Flags& flags, const std::string& name,
                                  const std::string& def) {
  std::vector<size_t> out;
  const std::string spec = flags.GetString(name, def);
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    OREO_CHECK(!item.empty() && item.size() <= 9 &&
               item.find_first_not_of("0123456789") == std::string::npos)
        << "--" << name << " must be positive integers, got '" << spec << "'";
    const size_t value = std::stoul(item);
    OREO_CHECK_GT(value, 0u)
        << "--" << name << " must be positive integers, got '" << spec << "'";
    out.push_back(value);
  }
  OREO_CHECK(!out.empty()) << "--" << name << " list is empty";
  return out;
}

struct ScanRun {
  size_t shards = 0;
  size_t threads = 0;
  double seconds = 0.0;
  double queries_per_second = 0.0;
  uint64_t matches = 0;  // configuration-invariant correctness fingerprint
};

ScanRun RunShardedScan(const Table& t, const std::vector<Query>& workload,
                       size_t shards, size_t threads, const std::string& dir,
                       uint64_t seed) {
  core::OreoOptions opts;
  opts.seed = seed;
  opts.num_shards = shards;
  opts.shard_routing = ShardRouting::kRange;  // prune ts ranges by shard
  opts.num_threads = threads;
  opts.target_partitions = 16;  // per shard: sharding refines pruning
  // Scan measurement only: no generation cadence, no reorganizations.
  opts.generate_every = workload.size() + 1;
  opts.window_size = 64;
  SortLayoutGenerator gen(0);
  core::OreoEngine engine(&t, &gen, /*time_column=*/0, opts);
  fs::remove_all(dir);
  auto attach = engine.AttachPhysical(dir);
  OREO_CHECK(attach.ok()) << attach.ToString();

  ScanRun r;
  r.shards = shards;
  r.threads = threads;
  Stopwatch sw;
  for (const QueryBatch& b : MakeBatches(workload, 32)) {
    auto exec = engine.ExecuteBatchPhysical(b.queries);
    OREO_CHECK(exec.ok()) << exec.status().ToString();
    for (const auto& per_query : exec->per_query) r.matches += per_query.matches;
  }
  r.seconds = sw.ElapsedSeconds();
  r.queries_per_second =
      r.seconds > 0 ? static_cast<double>(workload.size()) / r.seconds : 0.0;
  fs::remove_all(dir);
  return r;
}

struct OverlapRun {
  size_t shards = 0;
  size_t workers = 0;
  double seconds = 0.0;
  size_t max_concurrent = 0;
};

// One full rewrite per shard through a shared pool with `workers` threads.
OverlapRun RunReorgOverlap(const Table& t, size_t shards, size_t workers,
                           const std::string& dir, uint64_t seed) {
  ShardRouterOptions router_opts;
  router_opts.num_shards = shards;
  router_opts.column = 0;
  router_opts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(t, router_opts);
  std::vector<Table> tables = router.SplitTable(t);

  std::vector<std::unique_ptr<core::PhysicalStore>> stores;
  std::vector<LayoutInstance> from;
  std::vector<LayoutInstance> to;
  for (size_t s = 0; s < shards; ++s) {
    Rng rng(seed + s);
    Table sample = tables[s].SampleRows(1000, &rng);
    SortLayoutGenerator by_ts(0);
    SortLayoutGenerator by_qty(1);
    from.push_back(Materialize(
        "by_ts",
        std::shared_ptr<const Layout>(by_ts.Generate(sample, {}, 16)),
        tables[s]));
    to.push_back(Materialize(
        "by_qty",
        std::shared_ptr<const Layout>(by_qty.Generate(sample, {}, 16)),
        tables[s]));
    std::string shard_dir = core::ShardDirName(dir, static_cast<uint32_t>(s));
    fs::remove_all(shard_dir);
    stores.push_back(
        std::make_unique<core::PhysicalStore>(shard_dir, /*num_threads=*/1));
    OREO_CHECK(stores[s]->MaterializeLayout(tables[s], from[s]).ok());
  }

  OverlapRun r;
  r.shards = shards;
  r.workers = workers;
  {
    core::ReorgPool pool(workers);
    Stopwatch sw;
    for (size_t s = 0; s < shards; ++s) {
      core::ReorgPool::Job job;
      job.shard = static_cast<uint32_t>(s);
      job.store = stores[s].get();
      job.table = &tables[s];
      job.target = &to[s];
      OREO_CHECK(pool.Submit(std::move(job)));
    }
    pool.WaitAll();
    r.seconds = sw.ElapsedSeconds();
    r.max_concurrent = pool.max_concurrent_observed();
    OREO_CHECK_EQ(pool.stats().completed, static_cast<int64_t>(shards));
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 150000));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 240));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 13));
  const std::string dir =
      flags.GetString("dir", DefaultScratchDir("micro_sharded_stream"));
  std::vector<size_t> shard_counts =
      ParseSizeList(flags, "shard_counts", "1,2,4,8");
  std::vector<size_t> thread_counts = ParseSizeList(flags, "threads", "1,8");

  std::fprintf(stderr,
               "micro_sharded_stream: rows=%zu queries=%zu (hardware: %u)\n",
               rows, num_queries, std::thread::hardware_concurrency());

  Table t = MakeScanTable(rows, seed);
  std::vector<Query> workload = MakeMixedWorkload(num_queries, rows, seed + 1);

  // Part 1 — batched scan throughput across shard × thread configurations.
  std::vector<ScanRun> scans;
  for (size_t threads : thread_counts) {
    for (size_t shards : shard_counts) {
      scans.push_back(
          RunShardedScan(t, workload, shards, threads, dir, seed));
      const ScanRun& r = scans.back();
      OREO_CHECK_EQ(r.matches, scans.front().matches)
          << "sharded determinism contract violated at shards=" << shards;
      std::fprintf(stderr,
                   "  scan shards=%zu threads=%zu seconds=%.3f q/s=%.1f\n",
                   r.shards, r.threads, r.seconds, r.queries_per_second);
    }
  }

  // Part 2 — reorganization overlap: serialized vs one worker per shard.
  std::vector<OverlapRun> overlaps;
  for (size_t shards : shard_counts) {
    OverlapRun serial = RunReorgOverlap(t, shards, 1, dir, seed);
    OverlapRun parallel = RunReorgOverlap(t, shards, shards, dir, seed);
    overlaps.push_back(serial);
    overlaps.push_back(parallel);
    std::fprintf(stderr,
                 "  reorg shards=%zu serial=%.3fs pooled=%.3fs "
                 "(max_concurrent=%zu)\n",
                 shards, serial.seconds, parallel.seconds,
                 parallel.max_concurrent);
  }

  // JSON emission (stable key order).
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"micro_sharded_stream\",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"queries\": " << workload.size() << ",\n"
       << "  \"partitions_per_shard\": 16,\n"
       << "  \"batched_scan\": [\n";
  for (size_t i = 0; i < scans.size(); ++i) {
    const ScanRun& r = scans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"shards\": %zu, \"threads\": %zu, "
                  "\"seconds\": %.6f, \"queries_per_second\": %.2f}%s\n",
                  r.shards, r.threads, r.seconds, r.queries_per_second,
                  i + 1 < scans.size() ? "," : "");
    json << buf;
  }
  json << "  ],\n  \"reorg_overlap\": [\n";
  for (size_t i = 0; i < overlaps.size(); i += 2) {
    const OverlapRun& serial = overlaps[i];
    const OverlapRun& parallel = overlaps[i + 1];
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"shards\": %zu, \"serial_seconds\": %.6f, "
        "\"pooled_seconds\": %.6f, \"max_concurrent\": %zu, "
        "\"speedup_vs_serial\": %.3f}%s\n",
        serial.shards, serial.seconds, parallel.seconds,
        parallel.max_concurrent,
        parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0.0,
        i + 2 < overlaps.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";

  EmitBenchJson(flags, "micro_sharded_stream", json.str());
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
