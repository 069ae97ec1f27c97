// Micro-benchmark for the pluggable storage backends: batched scan and
// reorganization throughput on posix files, the in-memory backend, and a
// block cache (one SharedCacheBackend view: bounded LRU + read coalescing,
// no prefetch) in front of posix at 1/8
// worker threads. Emits a JSON document recording, for the cached runs, the
// measured read-amplification reduction: the fraction of logically
// requested bytes the cache absorbed instead of the base backend
// re-decompressing whole partitions per batch.
//
// Correctness is cross-checked while measuring: every backend must produce
// the identical match fingerprint (the determinism contract extends to
// backends).
//
// Flags: --rows=N --partitions=K --scan_reps=N --queries=N --threads=1,8
//        --seed=N --out=path.json (default: BENCH_micro_backend.json)
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/physical.h"
#include "layout/sorted_layout.h"
#include "storage/backend.h"
#include "storage/shared_cache.h"

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

LayoutInstance SortedInstance(const Table& t, int column, uint32_t k,
                              const std::string& name) {
  Rng rng(3);
  Table sample = t.SampleRows(1000, &rng);
  SortLayoutGenerator gen(column);
  return Materialize(
      name, std::shared_ptr<const Layout>(gen.Generate(sample, {}, k)), t);
}

struct BackendConfig {
  std::string label;  // "posix" | "inmem" | "cached"
  std::shared_ptr<StorageBackend> backend;
  SharedCacheBackend* cached = nullptr;  // non-null for the cached config
};

BackendConfig MakeConfig(const std::string& label) {
  BackendConfig cfg;
  cfg.label = label;
  if (label == "posix") {
    cfg.backend = MakePosixBackend();
  } else if (label == "inmem") {
    cfg.backend = MakeInMemoryBackend();
  } else {
    // The cache sits where it matters: in front of the file backend whose
    // whole-partition decompress-per-batch reads it absorbs.
    std::shared_ptr<SharedCacheBackend> cached = MakeSharedCacheBackend(
        MakeSharedBlockCache(), MakePosixBackend(), /*shard=*/0);
    cfg.cached = cached.get();
    cfg.backend = std::move(cached);
  }
  return cfg;
}

struct RunResult {
  std::string backend;
  size_t threads = 0;
  double materialize_s = 0.0;
  double scan_s = 0.0;
  double reorg_s = 0.0;
  uint64_t bytes = 0;    // materialized partition bytes
  uint64_t matches = 0;  // correctness fingerprint, backend-invariant
  // Cached config only.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t logical_read_bytes = 0;
  uint64_t base_read_bytes = 0;
};

RunResult RunOnce(const Table& t, const LayoutInstance& by_ts,
                  const LayoutInstance& by_qty,
                  const std::vector<Query>& batch, const std::string& label,
                  size_t threads, size_t scan_reps, const std::string& dir) {
  fs::remove_all(dir);
  BackendConfig cfg = MakeConfig(label);
  RunResult r;
  r.backend = label;
  r.threads = threads;
  core::PhysicalStore store(dir, threads, cfg.backend);

  auto mat = store.MaterializeLayout(t, by_ts);
  OREO_CHECK(mat.ok()) << mat.status().ToString();
  r.materialize_s = mat->seconds;
  r.bytes = mat->bytes;

  // Batched scans with overlapping survivors: the batch re-reads the same
  // partitions query after query, the exact access pattern the block cache
  // coalesces.
  for (size_t rep = 0; rep < scan_reps; ++rep) {
    auto exec = store.ExecuteQueryBatch(batch);
    OREO_CHECK(exec.ok()) << exec.status().ToString();
    r.scan_s += exec->seconds;
    for (const auto& per_query : exec->per_query) r.matches += per_query.matches;
  }

  auto reorg = store.Reorganize(t, by_qty);
  OREO_CHECK(reorg.ok()) << reorg.status().ToString();
  store.Vacuum();
  r.reorg_s = reorg->seconds;

  if (cfg.cached != nullptr) {
    SharedCacheStats stats = cfg.cached->cache()->stats();
    r.cache_hits = stats.hits;
    r.cache_misses = stats.misses;
    r.logical_read_bytes = stats.hit_bytes + stats.miss_bytes;
    r.base_read_bytes = cfg.cached->base()->stats().read_bytes;
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 100000));
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("partitions", 32));
  const size_t scan_reps = static_cast<size_t>(flags.GetInt("scan_reps", 3));
  const size_t num_queries =
      static_cast<size_t>(flags.GetInt("queries", 48));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const std::string dir =
      flags.GetString("dir", DefaultScratchDir("micro_backend"));

  std::vector<size_t> thread_counts;
  {
    const std::string spec = flags.GetString("threads", "1,8");
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
      OREO_CHECK(!item.empty() &&
                 item.find_first_not_of("0123456789") == std::string::npos)
          << "--threads must be a comma-separated list of integers, got '"
          << spec << "'";
      thread_counts.push_back(ThreadPool::ResolveThreads(std::stoul(item)));
    }
    OREO_CHECK(!thread_counts.empty()) << "--threads list is empty";
  }

  Table t = MakeScanTable(rows, seed);
  LayoutInstance by_ts = SortedInstance(t, 0, k, "by_ts");
  LayoutInstance by_qty = SortedInstance(t, 1, k, "by_qty");

  // Range queries over ts (wide enough that survivor sets overlap) plus two
  // full scans per batch.
  std::vector<Query> batch;
  {
    Rng rng(seed + 1);
    for (size_t i = 0; i + 2 < num_queries; ++i) {
      Query q;
      int64_t width = static_cast<int64_t>(rows) / 4;
      int64_t lo = rng.UniformInt(0, static_cast<int64_t>(rows) - width);
      q.conjuncts = {
          Predicate::Between(0, Value(lo), Value(lo + width))};
      batch.push_back(std::move(q));
    }
    batch.push_back(Query{});
    batch.push_back(Query{});
  }

  std::fprintf(stderr,
               "micro_backend: rows=%zu partitions=%u queries=%zu "
               "scan_reps=%zu (hardware threads: %u)\n",
               rows, k, batch.size(), scan_reps,
               std::thread::hardware_concurrency());

  std::vector<RunResult> results;
  for (const char* label : {"posix", "inmem", "cached"}) {
    for (size_t threads : thread_counts) {
      results.push_back(
          RunOnce(t, by_ts, by_qty, batch, label, threads, scan_reps, dir));
      const RunResult& r = results.back();
      OREO_CHECK_EQ(r.matches, results.front().matches)
          << "backend determinism contract violated: " << label << " at "
          << threads << " threads";
      std::fprintf(stderr,
                   "  backend=%-6s threads=%zu materialize=%.3fs "
                   "scan=%.3fs reorg=%.3fs\n",
                   r.backend.c_str(), r.threads, r.materialize_s, r.scan_s,
                   r.reorg_s);
    }
  }

  // JSON emission (stable key order; one result object per config).
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"micro_backend\",\n"
       << "  \"rows\": " << rows << ",\n  \"partitions\": " << k << ",\n"
       << "  \"queries_per_batch\": " << batch.size() << ",\n"
       << "  \"scan_reps\": " << scan_reps << ",\n"
       << "  \"materialized_bytes\": " << results.front().bytes << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    const double mb = static_cast<double>(r.bytes) / 1e6;
    // Fraction of logically requested bytes the cache absorbed (0 for the
    // uncached configs; the ROADMAP perf gap this attacks).
    const double read_amp_reduction =
        r.logical_read_bytes > 0
            ? 1.0 - static_cast<double>(r.base_read_bytes) /
                        static_cast<double>(r.logical_read_bytes)
            : 0.0;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"backend\": \"%s\", \"threads\": %zu, "
        "\"materialize_s\": %.6f, \"scan_s\": %.6f, "
        "\"scan_mb_per_s\": %.2f, \"reorg_s\": %.6f, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"logical_read_bytes\": %llu, \"base_read_bytes\": %llu, "
        "\"read_amp_reduction\": %.4f}%s\n",
        r.backend.c_str(), r.threads, r.materialize_s, r.scan_s,
        r.scan_s > 0 ? mb * static_cast<double>(scan_reps) / r.scan_s : 0.0,
        r.reorg_s, static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.cache_misses),
        static_cast<unsigned long long>(r.logical_read_bytes),
        static_cast<unsigned long long>(r.base_read_bytes),
        read_amp_reduction, i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";

  EmitBenchJson(flags, "micro_backend", json.str());
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
