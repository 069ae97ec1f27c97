#include "tracing.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "layout/qdtree_layout.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double NanosToSeconds(const std::atomic<uint64_t>& nanos) {
  return static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9;
}

}  // namespace

std::unique_ptr<oreo::Layout> TimedGenerator::Generate(
    const oreo::Table& sample, const std::vector<oreo::Query>& workload,
    uint32_t target_partitions) const {
  const Clock::time_point start = Clock::now();
  std::unique_ptr<oreo::Layout> layout =
      inner_->Generate(sample, workload, target_partitions);
  nanos_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return layout;
}

oreo::Result<std::string> TimedBackend::ReadBlock(const std::string& path) {
  const Clock::time_point start = Clock::now();
  oreo::Result<std::string> data = base_->ReadBlock(path);
  read_nanos_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  reads_.fetch_add(1, std::memory_order_relaxed);
  if (data.ok()) {
    read_bytes_.fetch_add(data->size(), std::memory_order_relaxed);
  }
  return data;
}

oreo::Status TimedBackend::AtomicWriteBlock(const std::string& path,
                                            const std::string& data,
                                            bool sync) {
  const Clock::time_point start = Clock::now();
  oreo::Status status = base_->AtomicWriteBlock(path, data, sync);
  write_nanos_.fetch_add(NanosSince(start), std::memory_order_relaxed);
  writes_.fetch_add(1, std::memory_order_relaxed);
  write_bytes_.fetch_add(data.size(), std::memory_order_relaxed);
  return status;
}

IoCounters TimedBackend::counters() const {
  IoCounters c;
  c.reads = reads_.load(std::memory_order_relaxed);
  c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
  c.read_s = NanosToSeconds(read_nanos_);
  c.writes = writes_.load(std::memory_order_relaxed);
  c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
  c.write_s = NanosToSeconds(write_nanos_);
  return c;
}

BackendStack MakeBackendStack(const WorkloadSpec& spec, bool traced) {
  BackendStack stack;
  if (!spec.physical) return stack;
  std::shared_ptr<oreo::StorageBackend> base = oreo::MakeInMemoryBackend();
  if (spec.remote) {
    oreo::RemoteBackendOptions remote;
    remote.read_latency_us = spec.remote_read_latency_us;
    stack.remote = oreo::MakeRemoteBackend(base, remote);
    base = stack.remote;
    oreo::SharedBlockCacheOptions cache;
    cache.capacity_bytes = spec.cache_budget_bytes;
    cache.prefetch_threads = spec.prefetch_threads;
    stack.cache = oreo::MakeSharedBlockCache(cache);
  }
  if (traced) {
    stack.timed = std::make_shared<TimedBackend>(base);
    base = stack.timed;
  }
  stack.backend = std::move(base);
  return stack;
}

StorageCounters ReadStorageCounters(const BackendStack& stack) {
  StorageCounters c;
  if (stack.cache) {
    stack.cache->DrainPrefetches();
    const oreo::SharedCacheStats cache = stack.cache->stats();
    c.cache_hits = cache.hits;
    c.cache_misses = cache.misses;
    c.cache_evictions = cache.evictions;
    c.cache_invalidations = cache.invalidations;
    c.prefetch_fetches = cache.prefetch_fetches;
  }
  if (stack.remote) {
    const oreo::RemoteBackendStats remote = stack.remote->remote_stats();
    c.remote_sleep_s =
        static_cast<double>(remote.latency_sleep_us + remote.backoff_sleep_us) *
        1e-6;
  }
  if (stack.timed) c.io = stack.timed->counters();
  return c;
}

ReplayResult RunReplay(const WorkloadSpec& spec, uint64_t seed,
                       const Inputs& in,
                       const std::vector<size_t>& batch_sizes,
                       std::vector<std::string>* errors) {
  ReplayResult r;
  oreo::QdTreeGenerator qdtree;
  TimedGenerator generator(&qdtree);
  oreo::workloads::WorkloadDataset ds = MakeStartDataset(spec, seed);
  BackendStack stack = MakeBackendStack(spec, /*traced=*/false);
  oreo::core::OreoOptions options = spec.options;
  options.storage_backend = stack.backend;
  options.shared_cache = stack.cache;
  std::unique_ptr<oreo::core::OreoEngine> engine = oreo::core::MakeEngine(
      &ds.table, &generator, ds.time_column, options);
  if (spec.physical) {
    OREO_CHECK_OK(
        engine->AttachPhysical("e2e_replay/" + spec.name, spec.store_threads));
  }
  const uint64_t calls_before = generator.calls();
  const double generate_before = generator.seconds();

  std::vector<oreo::Query> run;
  std::vector<size_t> run_queries;  // indices into in.queries
  auto flush = [&] {
    if (run.empty()) return;
    const oreo::QueryBatch batch(std::move(run));
    run.clear();
    const Clock::time_point decide = Clock::now();
    engine->RunBatch(batch);
    const Clock::time_point scan = Clock::now();
    r.decide_s += Seconds(decide, scan);
    if (spec.physical) {
      oreo::Result<oreo::core::PhysicalStore::BatchExec> exec =
          engine->ExecuteBatchPhysical(batch.queries);
      const Clock::time_point reorg = Clock::now();
      r.scan_s += Seconds(scan, reorg);
      if (exec.ok()) {
        for (size_t k = 0; k < exec->per_query.size(); ++k) {
          const oreo::core::PhysicalStore::QueryExec& q = exec->per_query[k];
          r.partitions_read += q.partitions_read;
          r.rows_scanned += q.rows_scanned;
          r.bytes_read += q.bytes_read;
          r.matches += q.matches;
          if (q.matches != in.expected_matches[run_queries[k]]) {
            errors->push_back("replay: query " +
                              std::to_string(run_queries[k]) +
                              " matched " + std::to_string(q.matches) +
                              " rows, expected " +
                              std::to_string(in.expected_matches[run_queries[k]]));
          }
        }
        // The served path reconciles only after a successful scan too.
        const size_t submitted = engine->SyncPhysical();
        if (submitted > 0) engine->WaitForReorgs();
        r.reorgs += submitted;
        r.reorg_s += Seconds(reorg, Clock::now());
      } else {
        errors->push_back("replay scan failed: " + exec.status().ToString());
      }
    }
    run_queries.clear();
  };

  const Clock::time_point start = Clock::now();
  size_t next = 0;
  for (size_t size : batch_sizes) {
    for (size_t k = next; k < next + size && k < in.requests.size(); ++k) {
      const Request& req = in.requests[k];
      if (!req.ingest) {
        run.push_back(in.queries[req.index]);
        run_queries.push_back(req.index);
        continue;
      }
      // A mixed batch runs in arrival order: the query run before an ingest
      // flushes first, as in FairScheduler::ServeTenant.
      flush();
      oreo::core::IngestBatch batch =
          ToIngestBatch(ds.table.schema(), in.ingests[req.index]);
      const Clock::time_point ingest = Clock::now();
      oreo::Result<oreo::core::IngestResult> applied =
          engine->Ingest(std::move(batch));
      const double seconds = Seconds(ingest, Clock::now());
      if (!applied.ok()) {
        errors->push_back("replay ingest failed: " +
                          applied.status().ToString());
        continue;
      }
      (applied->folded ? r.ingest_fold_s : r.ingest_apply_s) += seconds;
      ++r.ingest_batches;
      r.rows_appended += applied->rows_appended;
      r.rows_deleted += applied->rows_deleted;
      if (applied->folded) ++r.folds;
    }
    flush();
    next += size;
  }
  if (spec.physical) {
    const Clock::time_point drain = Clock::now();
    engine->WaitForReorgs();
    r.reorg_s += Seconds(drain, Clock::now());
  }
  r.wall_s = Seconds(start, Clock::now());
  if (next != in.requests.size()) {
    errors->push_back("replay: batch boundaries cover " +
                      std::to_string(next) + " of " +
                      std::to_string(in.requests.size()) + " requests");
  }
  r.generate_calls = generator.calls() - calls_before;
  r.generate_s = generator.seconds() - generate_before;
  r.total_cost = engine->total_cost();
  r.switches = engine->num_switches();
  return r;
}

}  // namespace e2e
