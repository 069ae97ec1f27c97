// Layer probes for the traced run. Everything here observes the engine from
// outside: decorators around interfaces the engine is handed
// (LayoutGenerator, StorageBackend), the storage stack each workload
// configures, and a direct replay that calls the engine's batch-loop entry
// points one by one and times each call.
#ifndef OREO_E2EBENCH_TRACING_H_
#define OREO_E2EBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "layout/layout.h"
#include "storage/backend.h"
#include "storage/remote_backend.h"
#include "storage/shared_cache.h"

namespace e2e {

/// Counts and times LayoutGenerator::Generate, the layout manager's
/// candidate step. Thread-safe: sharded engines generate concurrently.
class TimedGenerator : public oreo::LayoutGenerator {
 public:
  /// `inner` must outlive this object.
  explicit TimedGenerator(const oreo::LayoutGenerator* inner)
      : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<oreo::Layout> Generate(
      const oreo::Table& sample, const std::vector<oreo::Query>& workload,
      uint32_t target_partitions) const override;

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  double seconds() const {
    return static_cast<double>(nanos_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  const oreo::LayoutGenerator* inner_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> nanos_{0};
};

/// Reads and writes that reached a TimedBackend; times are busy time summed
/// over every calling thread.
struct IoCounters {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  double read_s = 0.0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  double write_s = 0.0;
};

/// A pass-through StorageBackend that counts and times reads and writes.
class TimedBackend : public oreo::StorageBackend {
 public:
  explicit TimedBackend(std::shared_ptr<oreo::StorageBackend> base)
      : base_(std::move(base)) {}

  std::string name() const override { return base_->name(); }
  oreo::Result<std::string> ReadBlock(const std::string& path) override;
  oreo::Status AtomicWriteBlock(const std::string& path,
                                const std::string& data, bool sync) override;
  oreo::Result<std::vector<std::string>> List(
      const std::string& dir) override {
    return base_->List(dir);
  }
  oreo::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  oreo::Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  oreo::Status Sync() override { return base_->Sync(); }
  oreo::BackendStats stats() const override { return base_->stats(); }

  IoCounters counters() const;

 private:
  std::shared_ptr<oreo::StorageBackend> base_;
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> read_nanos_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> write_nanos_{0};
};

/// The storage a workload's engine is handed: in-memory, then (remote
/// tier) a RemoteBackend with injected read latency, then (traced) a
/// TimedBackend. The engine wraps `backend` in its own SharedBlockCache
/// view per shard, so the timed layer sits under the cache and sees base
/// traffic only: demand misses, prefetch fetches and writes.
struct BackendStack {
  std::shared_ptr<oreo::StorageBackend> backend;  ///< null: logical-only
  std::shared_ptr<oreo::SharedBlockCache> cache;  ///< remote tier only
  std::shared_ptr<oreo::RemoteBackend> remote;    ///< remote tier only
  std::shared_ptr<TimedBackend> timed;            ///< traced passes only
};

BackendStack MakeBackendStack(const WorkloadSpec& spec, bool traced);

/// Storage-tier counters of one served pass.
struct StorageCounters {
  IoCounters io;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t prefetch_fetches = 0;
  double remote_sleep_s = 0.0;  ///< injected latency + retry backoff slept
};

/// Reads the stack's counters once queued prefetches have drained.
StorageCounters ReadStorageCounters(const BackendStack& stack);

/// Timings and counters of the direct replay. The spans are taken on the
/// replay thread around each engine call, so they are disjoint and sum to
/// at most `wall_s`; generate_s is busy time spent inside decide_s.
struct ReplayResult {
  double wall_s = 0.0;
  double decide_s = 0.0;        ///< OreoEngine::RunBatch
  double scan_s = 0.0;          ///< OreoEngine::ExecuteBatchPhysical
  double reorg_s = 0.0;         ///< SyncPhysical, plus the wait it submits
  double ingest_apply_s = 0.0;  ///< Ingest calls that did not fold
  double ingest_fold_s = 0.0;   ///< Ingest calls that folded
  uint64_t partitions_read = 0;
  uint64_t rows_scanned = 0;
  uint64_t bytes_read = 0;
  uint64_t matches = 0;
  uint64_t reorgs = 0;  ///< rewrites SyncPhysical submitted
  uint64_t ingest_batches = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_deleted = 0;
  uint64_t folds = 0;
  uint64_t generate_calls = 0;
  double generate_s = 0.0;
  double total_cost = 0.0;
  int64_t switches = 0;
};

/// Feeds the request stream to a fresh engine built with the same options,
/// cut at the served pass's batch boundaries and split into query runs and
/// ingests exactly as the scheduler splits a mixed batch. After every
/// SyncPhysical that submits a rewrite it waits for the rewrite, so the
/// rewrite's time lands in reorg_s. Scan results are checked against `in`;
/// problems are appended to `errors`.
ReplayResult RunReplay(const WorkloadSpec& spec, uint64_t seed,
                       const Inputs& in,
                       const std::vector<size_t>& batch_sizes,
                       std::vector<std::string>* errors);

}  // namespace e2e

#endif  // OREO_E2EBENCH_TRACING_H_
