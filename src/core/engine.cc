#include "core/engine.h"

#include <algorithm>
#include <cstdio>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/logging.h"
#include "common/stopwatch.h"
#include "ingest/coordinator.h"
#include "storage/shared_cache.h"

namespace oreo {
namespace core {

namespace {

// Per-shard seed derivation. Shard 0 keeps the master seed, so a 1-shard
// engine drives a core bit-identical to a bare Oreo.
uint64_t ShardSeed(uint64_t master, uint32_t shard) {
  return master + static_cast<uint64_t>(shard) * 0x9e3779b97f4a7c15ULL;
}

// First (lowest-index) non-OK status of a parallel stage, so the reported
// error does not depend on task scheduling.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

ShardRouter BuildRouterFor(const Table* table, int time_column,
                           const OreoOptions& options) {
  OREO_CHECK(table != nullptr);
  OREO_CHECK_GT(options.num_shards, 0u);
  ShardRouterOptions router_opts;
  router_opts.num_shards = options.num_shards;
  router_opts.column =
      options.shard_column < 0 ? time_column : options.shard_column;
  router_opts.routing = options.shard_routing;
  return ShardRouter::Build(*table, router_opts);
}

}  // namespace

std::string ShardDirName(const std::string& base_dir, uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard_%03u", shard);
  return base_dir + buf;
}

OreoEngine::OreoEngine(const Table* table, const LayoutGenerator* generator,
                       int time_column, const OreoOptions& options)
    : router_(BuildRouterFor(table, time_column, options)) {
  OREO_CHECK(generator != nullptr);
  std::vector<std::vector<uint32_t>> shard_rows = router_.SplitRows(*table);
  // A single shard is the whole table: its core reads the caller's table,
  // which outlives the engine anyway, instead of a copy.
  if (options.num_shards > 1) {
    shard_tables_.reserve(options.num_shards);
    for (const std::vector<uint32_t>& rows : shard_rows) {
      shard_tables_.push_back(table->Take(rows));
    }
  }
  shards_.reserve(options.num_shards);
  weights_.reserve(options.num_shards);
  const double total_rows = static_cast<double>(table->num_rows());
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    // Empty shards cannot bootstrap a default layout; the routing column
    // must spread values across every shard (pick a higher-cardinality
    // column or fewer shards otherwise).
    OREO_CHECK(!shard_rows[s].empty())
        << "shard " << s << " is empty: routing column " << router_.column()
        << " cannot fill " << options.num_shards << " shards";
    OreoOptions shard_opts = options;
    shard_opts.seed = ShardSeed(options.seed, s);
    // With several shards, parallelism comes from the engine's fan-out
    // *across* shards; per-core internals run serial so N cores do not
    // multiply persistent thread pools and oversubscribe the host. Results
    // are unchanged either way (the determinism contract is thread-count
    // invariant). A 1-shard engine passes the knob through, keeping its
    // core configured exactly like a bare Oreo.
    if (options.num_shards > 1) shard_opts.num_threads = 1;
    Shard& shard = shards_.emplace_back();
    shard.oreo = std::make_unique<Oreo>(
        shard_tables_.empty() ? table : &shard_tables_[s], generator,
        time_column, shard_opts);
    weights_.push_back(total_rows > 0
                           ? static_cast<double>(shard_rows[s].size()) /
                                 total_rows
                           : 0.0);
  }
  // The fan-out only ever runs one task per shard: more threads would idle
  // (a 1-shard engine runs everything inline on the caller).
  pool_ = std::make_unique<ThreadPool>(std::min(
      ThreadPool::ResolveThreads(options.num_threads), options.num_shards));
}

OreoEngine::~OreoEngine() {
  // Join the workers before the state they touch goes: in-flight rewrite
  // callbacks reach into shards and stores.
  reorg_pool_.reset();
  pool_.reset();
  shards_.clear();
  shard_tables_.clear();
#if defined(__GLIBC__)
  // The engine's threads allocated from several malloc arenas, and glibc
  // keeps their freed pages resident. Return them, so a process that builds
  // and drops engines (a server's tenants, one benchmark round after
  // another) does not grow with the number of engines it has built.
  malloc_trim(0);
#endif
}

StepResult OreoEngine::Step(const Query& query) {
  QueryBatch batch;
  batch.queries.push_back(query);
  return RunBatch(batch).steps.front();
}

BatchResult OreoEngine::RunBatch(const QueryBatch& batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  const size_t n = shards_.size();
  // Serial routing in stream order: the per-shard sub-streams (and their
  // order) never depend on the pool.
  std::vector<std::vector<uint32_t>> touched(batch.size());
  std::vector<QueryBatch> sub(n);
  for (size_t qi = 0; qi < batch.size(); ++qi) {
    touched[qi] = router_.ShardsForQuery(batch.queries[qi]);
    for (uint32_t s : touched[qi]) {
      sub[s].queries.push_back(batch.queries[qi]);
    }
  }
  // Shard fan-out: each core makes its (inherently sequential) decisions
  // over its own sub-stream, independent of every other shard.
  std::vector<BatchResult> results(n);
  pool_->ParallelFor(n, [&](size_t s) {
    results[s] = shards_[s].oreo->RunBatch(sub[s]);
  });
  // Serial merge in stream order; within a query, shards ascend. The
  // serving state is only meaningful when exactly one shard served.
  BatchResult out;
  out.steps.reserve(batch.size());
  std::vector<size_t> cursor(n, 0);
  for (size_t qi = 0; qi < batch.size(); ++qi) {
    StepResult step{-1, false, 0.0};
    for (uint32_t s : touched[qi]) {
      const StepResult& shard_step = results[s].steps[cursor[s]++];
      if (touched[qi].size() == 1) step.state = shard_step.state;
      step.query_cost += weights_[s] * shard_step.query_cost;
      step.reorganized = step.reorganized || shard_step.reorganized;
    }
    out.query_cost += step.query_cost;
    if (step.reorganized) ++out.num_switches;
    out.steps.push_back(step);
  }
  return out;
}

EngineSimResult OreoEngine::RunTrace(const std::vector<Query>& queries,
                                     bool record_trace) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  const size_t n = shards_.size();
  EngineSimResult result;
  result.shard_streams.assign(n, {});
  for (const Query& q : queries) {
    for (uint32_t s : router_.ShardsForQuery(q)) {
      result.shard_streams[s].push_back(q);
    }
  }
  result.shards.resize(n);
  pool_->ParallelFor(n, [&](size_t s) {
    result.shards[s] =
        shards_[s].oreo->Run(result.shard_streams[s], record_trace);
  });
  for (size_t s = 0; s < n; ++s) {
    result.query_cost += weights_[s] * result.shards[s].query_cost;
    result.reorg_cost += weights_[s] * result.shards[s].reorg_cost;
    result.num_switches += result.shards[s].num_switches;
  }
  return result;
}

Result<IngestResult> OreoEngine::Ingest(IngestBatch batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  // Validate the whole batch up front: every shard's Oreo::Ingest
  // re-validates, but by the time shard s rejected the batch, shards < s
  // would already have committed their slices.
  const Schema& schema = shards_.front().oreo->base_table().schema();
  if (batch.rows.num_rows() > 0 && !batch.rows.schema().Equals(schema)) {
    return Status::InvalidArgument(
        "ingest rows do not match the table schema: expected " +
        schema.ToString() + ", got " + batch.rows.schema().ToString());
  }
  for (const Query& q : batch.deletes) {
    for (const Predicate& p : q.conjuncts) {
      if (p.column < 0 ||
          static_cast<size_t>(p.column) >= schema.num_fields()) {
        return Status::InvalidArgument(
            "delete predicate references column " + std::to_string(p.column) +
            " of a " + std::to_string(schema.num_fields()) + "-column table");
      }
    }
  }
  // A fold rematerializes registry layout instances in place; quiesce
  // rewrites that may still be reading them before any shard can fold.
  if (reorg_pool_ != nullptr) WaitForReorgs();

  std::vector<ingest::ShardIngest> split =
      ingest::SplitIngest(router_, batch.rows, batch.deletes);
  IngestResult out;
  out.version = ++ingest_version_;
  // A failed fold rewrite does not stop the batch: the remaining shards
  // still apply their slices, so the batch commits on every logical core.
  Status physical_status;
  // Serial application in ascending shard order: each shard's mutation
  // sequence is a deterministic function of the batch stream alone.
  for (size_t s = 0; s < shards_.size(); ++s) {
    ingest::ShardIngest& slice = split[s];
    if (slice.rows.num_rows() == 0 && slice.deletes.empty()) continue;
    Shard& shard = shards_[s];
    IngestBatch shard_batch;
    shard_batch.rows = std::move(slice.rows);
    shard_batch.deletes = std::move(slice.deletes);
    OREO_ASSIGN_OR_RETURN(IngestResult shard_result,
                          shard.oreo->Ingest(std::move(shard_batch)));
    out.rows_appended += shard_result.rows_appended;
    out.rows_deleted += shard_result.rows_deleted;
    if (shard_result.folded) {
      out.folded = true;
      // The shard's Oreo has no store of its own; compact its files here.
      if (shard.store != nullptr) {
        Status st = RematerializeShard(shard);
        if (physical_status.ok()) physical_status = std::move(st);
      }
    }
    if (shard.store != nullptr && shard.rematerialize_status.ok()) {
      shard.oreo->RebuildLiveView(shard.snapshot.instance);
    }
  }
  // Row weights track the shards' physical scan sizes — LiveCost normalizes
  // a shard's cost by its base + delta rows, so weighting by the same
  // denominator keeps the merged accounting row-weighted (pre-ingest this
  // reproduces the construction-time weights exactly).
  std::vector<double> scan_rows(shards_.size());
  double total_rows = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const ingest::LiveTable& live = shards_[s].oreo->live();
    scan_rows[s] = static_cast<double>(live.base().num_rows()) +
                   static_cast<double>(live.delta_rows());
    total_rows += scan_rows[s];
    out.visible_rows += shards_[s].oreo->visible_rows();
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    weights_[s] = total_rows > 0 ? scan_rows[s] / total_rows : 0.0;
  }
  OREO_RETURN_NOT_OK(physical_status);
  return out;
}

Status OreoEngine::RematerializeShard(Shard& shard) {
  // A fold is compaction, not a switch: the shard's current physical layout
  // is rebuilt over its folded base (registry instances were already
  // rematerialized by Oreo::Fold), so no alpha is charged anywhere.
  const Oreo& core = *shard.oreo;
  const int current = core.physical_state();
  Result<PhysicalStore::Timing> timing = shard.store->MaterializeLayout(
      core.base_table(), core.registry().Get(current));
  if (!timing.ok()) {
    // MaterializeLayout removed the old files first: the snapshot names
    // files that are gone, so the shard must not serve until a retry.
    shard.rematerialize_status = timing.status();
    return timing.status();
  }
  shard.rematerialize_status = Status::OK();
  shard.materialized_state = current;
  shard.pending_target.reset();
  shard.failed_target.reset();
  shard.snapshot = shard.store->GetSnapshot();
  shard.store->Vacuum();
  return Status::OK();
}

Status OreoEngine::AttachPhysical(const std::string& base_dir,
                                  size_t store_threads) {
  OREO_CHECK(reorg_pool_ == nullptr) << "physical layer already attached";
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    Oreo& core = *shard.oreo;
    // Each shard gets its own view of the (optional) shared cache, so hits,
    // misses and evictions are charged to this shard while the budget and
    // single-flight dedup stay global.
    shard.store = std::make_unique<PhysicalStore>(
        ShardDirName(base_dir, s), store_threads,
        WrapWithSharedCache(core.options().shared_cache,
                            core.options().storage_backend, s));
    const int current = core.physical_state();
    // base_table(), not the construction-time table: mutations (and folds)
    // can precede the attach.
    Result<PhysicalStore::Timing> timing = shard.store->MaterializeLayout(
        core.base_table(), core.registry().Get(current));
    if (!timing.ok()) {
      // All or nothing: a half-attached engine would rematerialize files on
      // the attached shards while reporting no physical layer.
      for (Shard& attached : shards_) {
        attached.store.reset();
        attached.snapshot = PhysicalStore::Snapshot{};
        attached.oreo->RebuildLiveView(nullptr);
      }
      return timing.status();
    }
    shard.materialized_state = current;
    shard.pending_target.reset();
    shard.snapshot = shard.store->GetSnapshot();
    core.RebuildLiveView(shard.snapshot.instance);
  }
  // One background rewriter per table, as in the paper (§III-B): shards
  // queue behind it.
  reorg_pool_ = std::make_unique<ReorgPool>();
  return Status::OK();
}

Result<PhysicalStore::BatchExec> OreoEngine::ExecuteBatchPhysical(
    const std::vector<Query>& queries) {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  Stopwatch sw;
  const size_t n = shards_.size();
  // Serial routing in stream order: each shard's sub-batch keeps the stream
  // order of the queries that touch it.
  std::vector<std::vector<uint32_t>> touched(queries.size());
  std::vector<std::vector<Query>> sub(n);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    touched[qi] = router_.ShardsForQuery(queries[qi]);
    for (uint32_t s : touched[qi]) sub[s].push_back(queries[qi]);
  }
  // Shard-major fan-out: one batch scan per touched shard against its
  // pinned snapshot, which reads each of the shard's surviving blocks once
  // for its whole sub-batch and warms the rest while the first one scans.
  std::vector<PhysicalStore::BatchExec> execs(n);
  std::vector<Status> statuses(n);
  pool_->ParallelFor(n, [&](size_t s) {
    if (sub[s].empty()) return;
    Shard& shard = shards_[s];
    if (!shard.rematerialize_status.ok()) {
      statuses[s] = shard.rematerialize_status;
      return;
    }
    Result<PhysicalStore::BatchExec> exec =
        shard.store->ExecuteQueryBatchOnSnapshot(
            shard.snapshot, sub[s], shard.oreo->live_scan_view());
    if (!exec.ok()) {
      statuses[s] = exec.status();
      return;
    }
    execs[s] = std::move(*exec);
  });
  OREO_RETURN_NOT_OK(FirstError(statuses));
  // Serial reduction in stream order, shards ascending within a query.
  PhysicalStore::BatchExec batch;
  batch.per_query.resize(queries.size());
  std::vector<size_t> cursor(n, 0);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    PhysicalStore::QueryExec& agg = batch.per_query[qi];
    for (uint32_t s : touched[qi]) {
      const PhysicalStore::QueryExec& exec = execs[s].per_query[cursor[s]++];
      agg.partitions_read += exec.partitions_read;
      agg.rows_scanned += exec.rows_scanned;
      agg.matches += exec.matches;
      agg.bytes_read += exec.bytes_read;
    }
  }
  batch.seconds = sw.ElapsedSeconds();
  return batch;
}

size_t OreoEngine::SyncPhysical() {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  size_t submitted = 0;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    // A shard whose fold rewrite failed has no files: rewrite them first.
    if (!shard.rematerialize_status.ok()) {
      if (!RematerializeShard(shard).ok()) continue;
      shard.oreo->RebuildLiveView(shard.snapshot.instance);
    }
    // A still-running rewrite keeps serving from the pinned snapshot.
    if (reorg_pool_->busy(s)) continue;
    if (shard.pending_target.has_value()) {
      // The rewrite finished since the last reconciliation: adopt it. The
      // engine holds the only snapshots, so superseded files are
      // reclaimable right here at the batch boundary.
      if (reorg_pool_->last_status(s).ok()) {
        shard.materialized_state = *shard.pending_target;
        shard.failed_target.reset();
      } else {
        // Remember the failed target: it is not resubmitted until the
        // desired state moves on, so reconciliation always terminates and
        // last_status(s) keeps reporting the failure.
        shard.failed_target = shard.pending_target;
      }
      shard.pending_target.reset();
      shard.snapshot = shard.store->GetSnapshot();
      shard.store->Vacuum();
      // The snapshot moved to a new partitioning; tombstone masks are
      // indexed by partition, so rebuild the shard's overlay against it.
      shard.oreo->RebuildLiveView(shard.snapshot.instance);
    }
    const int desired = shard.oreo->physical_state();
    if (desired != shard.materialized_state &&
        shard.failed_target != std::optional<int>(desired)) {
      ReorgPool::Job job;
      job.shard = s;
      job.store = shard.store.get();
      // base_table(), not the construction-time table: after a fold the
      // registry's partitionings cover the folded row set.
      job.table = &shard.oreo->base_table();
      job.target = &shard.oreo->registry().Get(desired);
      if (reorg_pool_->Submit(std::move(job))) {
        shard.pending_target = desired;
        ++submitted;
      }
    }
  }
  return submitted;
}

void OreoEngine::WaitForReorgs() {
  OREO_CHECK(reorg_pool_ != nullptr) << "call AttachPhysical first";
  // Reconciliation can queue follow-up rewrites (the logical state may have
  // moved again mid-rewrite); loop until the store is quiescent.
  for (;;) {
    reorg_pool_->WaitAll();
    if (SyncPhysical() == 0) break;
  }
}

double OreoEngine::total_query_cost() const {
  double total = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    total += weights_[s] * shards_[s].oreo->total_query_cost();
  }
  return total;
}

double OreoEngine::total_reorg_cost() const {
  double total = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    total += weights_[s] * shards_[s].oreo->total_reorg_cost();
  }
  return total;
}

int64_t OreoEngine::num_switches() const {
  int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.oreo->num_switches();
  return total;
}

Result<PhysicalReplayResult> OreoEngine::ReplayTrace(
    const EngineSimResult& sim, size_t stride, const std::string& dir,
    size_t num_threads, size_t batch_size) const {
  OREO_CHECK_EQ(sim.shards.size(), shards_.size())
      << "sim does not match this engine";
  OREO_CHECK_EQ(sim.shard_streams.size(), shards_.size());
  PhysicalReplayResult total;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const Oreo& core = *shards_[s].oreo;
    // Mirror the serving path: each shard's replay store reads through its
    // own shard-charged view of the shared cache, when there is one.
    OREO_ASSIGN_OR_RETURN(
        PhysicalReplayResult shard,
        ReplayPhysical(core.base_table(), core.registry(), sim.shards[s],
                       sim.shard_streams[s], stride, ShardDirName(dir, s),
                       num_threads, batch_size,
                       WrapWithSharedCache(core.options().shared_cache,
                                           core.options().storage_backend,
                                           s)));
    total.query_seconds += shard.query_seconds;
    total.reorg_seconds += shard.reorg_seconds;
    total.num_switches += shard.num_switches;
    total.queries_executed += shard.queries_executed;
    total.partitions_read += shard.partitions_read;
    total.matches += shard.matches;
  }
  return total;
}

BatchResult BatchSubmitter::Run(const QueryBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->RunBatch(batch);
}

Result<PhysicalStore::BatchExec> BatchSubmitter::RunPhysical(
    const QueryBatch& batch, BatchResult* logical) {
  std::lock_guard<std::mutex> lock(mu_);
  OREO_CHECK(engine_->has_physical()) << "call AttachPhysical first";
  BatchResult decisions = engine_->RunBatch(batch);
  Result<PhysicalStore::BatchExec> exec =
      engine_->ExecuteBatchPhysical(batch.queries);
  if (exec.ok()) engine_->SyncPhysical();
  if (logical != nullptr) *logical = std::move(decisions);
  return exec;
}

Result<IngestResult> BatchSubmitter::RunIngest(IngestBatch batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->Ingest(std::move(batch));
}

std::unique_ptr<OreoEngine> MakeEngine(const Table* table,
                                       const LayoutGenerator* generator,
                                       int time_column,
                                       const OreoOptions& options) {
  return std::make_unique<OreoEngine>(table, generator, time_column, options);
}

}  // namespace core
}  // namespace oreo
