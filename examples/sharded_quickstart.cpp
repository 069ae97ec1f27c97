// Sharded quickstart: run OREO over a horizontally sharded table with
// per-shard background reorganizations.
//
// Each shard runs its own independent Oreo core (LayoutManager + D-UMTS), so
// the paper's worst-case guarantee holds shard by shard while batches fan
// out across shards; the range router prunes shards a query's time
// predicate cannot touch, like a coarse zone map.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_sharded_quickstart
#include <cstdio>
#include <filesystem>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;

int main() {
  // 1. A telemetry-style table: 40k ingestion-log rows.
  workloads::WorkloadDataset ds = workloads::MakeTelemetry(40000, /*seed=*/1);

  // 2. A drifting workload: 4000 queries that switch template every ~600.
  workloads::WorkloadOptions wopts;
  wopts.num_queries = 4000;
  wopts.num_segments = 7;
  wopts.seed = 3;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  // 3. OREO sharded 4 ways on the time column (range routing), one Oreo
  //    core per shard, behind the unified MakeEngine handle. The same
  //    OreoOptions knobs drive every shard; shard cores derive their own
  //    seeds. (Set num_shards = 1 and this very code runs one shard over
  //    the whole table; set opts.storage_backend and the bytes move off
  //    disk.)
  QdTreeGenerator generator;
  core::OreoOptions opts;
  opts.alpha = 80.0;
  opts.target_partitions = 12;  // per shard
  opts.num_shards = 4;
  opts.shard_routing = ShardRouting::kRange;
  auto oreo = core::MakeEngine(&ds.table, &generator, ds.time_column, opts);

  // 4. Physical stores, one directory per shard, plus the table's single
  //    background rewriter: shards rewrite one after another while queries
  //    keep serving from their snapshots.
  std::string dir =
      (std::filesystem::temp_directory_path() / "oreo_sharded_quickstart")
          .string();
  std::filesystem::remove_all(dir);
  Status attached = oreo->AttachPhysical(dir);
  if (!attached.ok()) {
    std::printf("AttachPhysical failed: %s\n", attached.ToString().c_str());
    return 1;
  }

  // 5. Stream the workload in batches: logical decisions per shard, batched
  //    physical execution against per-shard snapshots, and background
  //    rewrites reconciled at every batch boundary.
  uint64_t matches = 0;
  size_t rewrites = 0;
  for (const QueryBatch& batch : MakeBatches(wl.queries, /*batch_size=*/64)) {
    oreo->RunBatch(batch);
    auto exec = oreo->ExecuteBatchPhysical(batch.queries);
    if (!exec.ok()) {
      std::printf("batch failed: %s\n", exec.status().ToString().c_str());
      return 1;
    }
    for (const auto& per_query : exec->per_query) matches += per_query.matches;
    rewrites += oreo->SyncPhysical();
  }
  oreo->WaitForReorgs();

  // 6. Report per-shard cores and merged accounting.
  std::printf("%-8s %12s %12s %10s %12s\n", "shard", "query_cost",
              "reorg_cost", "switches", "live_states");
  for (size_t s = 0; s < oreo->num_shards(); ++s) {
    const core::Oreo& shard_core = oreo->core(s);
    std::printf("%-8zu %12.1f %12.1f %10lld %12zu\n", s,
                shard_core.total_query_cost(), shard_core.total_reorg_cost(),
                static_cast<long long>(shard_core.num_switches()),
                shard_core.registry().num_live());
  }
  std::printf("\nmerged (row-weighted): query_cost=%.1f reorg_cost=%.1f "
              "switches=%lld\n",
              oreo->total_query_cost(), oreo->total_reorg_cost(),
              static_cast<long long>(oreo->num_switches()));
  std::printf("background rewrites submitted: %zu\n", rewrites);
  std::printf("total matches streamed: %llu\n",
              static_cast<unsigned long long>(matches));
  std::filesystem::remove_all(dir);
  return 0;
}
