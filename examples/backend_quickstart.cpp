// Storage-backend quickstart: the same engine, the same workload, three
// physical byte stores — posix files, pure RAM, and a cached file store —
// selected with one OreoOptions knob. The layout decisions (Theorem IV.1's
// territory) are bit-identical on every backend; only where the bytes live
// and how fast they come back differs.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_backend_quickstart
#include <cstdio>
#include <filesystem>
#include <string>

#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "storage/shared_cache.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;

namespace {

struct RunReport {
  double query_cost = 0.0;
  int64_t switches = 0;
  uint64_t matches = 0;
  double seconds = 0.0;
};

RunReport RunOn(const workloads::WorkloadDataset& ds,
                const std::vector<Query>& queries,
                std::shared_ptr<StorageBackend> backend,
                const std::string& dir) {
  QdTreeGenerator generator;
  core::OreoOptions opts;
  opts.target_partitions = 16;
  opts.num_threads = 4;
  opts.storage_backend = std::move(backend);  // <- the whole difference
  auto engine = core::MakeEngine(&ds.table, &generator, ds.time_column, opts);

  std::filesystem::remove_all(dir);
  Status attached = engine->AttachPhysical(dir, /*store_threads=*/4);
  OREO_CHECK(attached.ok()) << attached.ToString();

  RunReport report;
  Stopwatch sw;
  for (const QueryBatch& batch : MakeBatches(queries, /*batch_size=*/64)) {
    engine->RunBatch(batch);
    auto exec = engine->ExecuteBatchPhysical(batch.queries);
    OREO_CHECK(exec.ok()) << exec.status().ToString();
    for (const auto& per_query : exec->per_query) {
      report.matches += per_query.matches;
    }
    engine->SyncPhysical();
  }
  engine->WaitForReorgs();
  report.seconds = sw.ElapsedSeconds();
  report.query_cost = engine->total_query_cost();
  report.switches = engine->num_switches();
  std::filesystem::remove_all(dir);
  return report;
}

}  // namespace

int main() {
  workloads::WorkloadDataset ds = workloads::MakeTelemetry(40000, /*seed=*/1);
  workloads::WorkloadOptions wopts;
  wopts.num_queries = 3000;
  wopts.num_segments = 5;
  wopts.seed = 3;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  std::string base =
      (std::filesystem::temp_directory_path() / "oreo_backend_quickstart")
          .string();

  // A bounded block cache in front of the file store: one view of a
  // private SharedBlockCache (shard 0).
  std::shared_ptr<SharedCacheBackend> cached = MakeSharedCacheBackend(
      MakeSharedBlockCache(), MakePosixBackend(), /*shard=*/0);
  struct Config {
    const char* label;
    std::shared_ptr<StorageBackend> backend;
  };
  Config configs[] = {
      {"posix", MakePosixBackend()},
      {"inmem", MakeInMemoryBackend()},
      {"cached(posix)", cached},
  };

  std::printf("%-14s %12s %9s %12s %9s\n", "backend", "query_cost",
              "switches", "matches", "seconds");
  RunReport first;
  bool have_first = false;
  for (Config& config : configs) {
    RunReport r =
        RunOn(ds, wl.queries, config.backend, base + "_" + config.label[0]);
    std::printf("%-14s %12.1f %9lld %12llu %9.3f\n", config.label,
                r.query_cost, static_cast<long long>(r.switches),
                static_cast<unsigned long long>(r.matches), r.seconds);
    if (!have_first) {
      first = r;
      have_first = true;
    } else {
      // The determinism contract across backends, checked live.
      OREO_CHECK_EQ(r.matches, first.matches);
      OREO_CHECK_EQ(r.switches, first.switches);
      OREO_CHECK(r.query_cost == first.query_cost);
    }
  }

  SharedCacheStats stats = cached->cache()->stats();
  const uint64_t logical = stats.hit_bytes + stats.miss_bytes;
  std::printf("\ncached(posix): %llu hits / %llu misses; %.1f%% of logically "
              "read bytes never touched the file store\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              logical > 0 ? 100.0 * static_cast<double>(stats.hit_bytes) /
                                static_cast<double>(logical)
                          : 0.0);
  std::printf("Same costs, same switches, same matches on every backend: "
              "the online guarantee is storage-independent.\n");
  return 0;
}
