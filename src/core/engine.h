// The OREO engine: the client handle tests, benches, examples, the server and
// replay drive every (sharding x storage backend) combination through. It
// splits the table into `OreoOptions::num_shards` horizontal shards
// (ShardRouter over `shard_column`, hash or range routing), runs one logical
// `Oreo` core per shard — LayoutManager, D-UMTS instance and state registry —
// plus, after AttachPhysical, that shard's store, and routes every query to
// exactly the shards its routing-column predicates can touch. Range routing
// prunes shards like a coarse zone map, so a selective query often runs on a
// single shard. `num_shards = 1` is simply one shard over the whole table.
//
//   core::OreoOptions opts;
//   opts.num_shards = 4;                       // 1 = one shard, same code
//   opts.storage_backend = MakeInMemoryBackend();  // null = posix files
//   auto engine = core::MakeEngine(&table, &generator, time_column, opts);
//   engine->AttachPhysical(dir);
//   for (const QueryBatch& b : MakeBatches(stream, 64)) {
//     engine->RunBatch(b);                     // logical decisions
//     engine->ExecuteBatchPhysical(b.queries); // scans against snapshots
//     engine->SyncPhysical();                  // adopt/submit bg rewrites
//   }
//   engine->WaitForReorgs();
//
// Determinism contract (pinned by tests/sharded_equivalence_test.cc and
// tests/backend_equivalence_test.cc):
//   - a 1-shard engine is bit-identical to a bare logical Oreo — costs,
//     switch decisions and decision traces;
//   - for a fixed seed and workload, costs, switch decisions, decision
//     traces, scan counters and materialized partition bytes are identical
//     across storage backends, thread counts and batch sizes: decisions
//     inside a shard are sequential in sub-stream order, shards are
//     independent, and every fan-out stages per-slot results reduced
//     serially in stream order. Only wall-clock seconds vary.
//
// Cost accounting: shard costs are row-weighted. c(s, q) is the *fraction*
// of a table's rows a query must touch, so the merged per-query cost is
//   sum over touched shards of (shard rows / total rows) * c_shard(q),
// and each shard switch charges (shard rows / total rows) * alpha — pruned
// shards contribute zero, exactly like partitions skipped by a zone map.
// With one shard the weight is 1 and the accounting collapses to Oreo's.
// Theorem IV.1 holds per shard in shard-local units; scaling a shard's ALG
// and OPT by the same weight preserves every ratio, so the worst-case
// guarantee survives sharding shard by shard.
//
// Physical mode (the paper's REORGANIZER, §III-B): AttachPhysical gives
// every shard a store under `base_dir/shard_NNN`. A batch executes
// shard-major: one PhysicalStore::ExecuteQueryBatchOnSnapshot call per
// touched shard against its pinned snapshot, fanned out over shards, so a
// shard's blocks stay cache-resident while its whole sub-batch reads them.
// One background rewriter serves the table, as in the paper — shards
// rewrite one after another — and SyncPhysical reconciles snapshots and
// submits newly needed rewrites at batch boundaries.
#ifndef OREO_CORE_ENGINE_H_
#define OREO_CORE_ENGINE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/background.h"
#include "core/oreo.h"
#include "core/physical.h"
#include "query/query.h"
#include "storage/shard_router.h"
#include "storage/table.h"

namespace oreo {
namespace core {

/// Online data-layout reorganization over a horizontally sharded table (one
/// shard or many), logical and physical, behind one handle.
class OreoEngine {
 public:
  /// `table` and `generator` must outlive this object. Shard cores are
  /// configured from `options` with per-shard derived seeds (shard 0 keeps
  /// the master seed). `options.shard_column == -1` routes on `time_column`.
  OreoEngine(const Table* table, const LayoutGenerator* generator,
             int time_column, const OreoOptions& options);
  /// Joins the worker pools, frees the cores and shard tables, and returns
  /// the freed heap to the OS (glibc's malloc_trim).
  ~OreoEngine();

  OreoEngine(const OreoEngine&) = delete;
  OreoEngine& operator=(const OreoEngine&) = delete;

  /// Streaming API: routes one query, steps every touched shard, and returns
  /// the merged outcome (see RunBatch).
  StepResult Step(const Query& query);

  /// Batched streaming API: routes each query in stream order, fans the
  /// per-shard sub-batches out across the pool (decisions stay sequential
  /// within a shard), and merges per-query results serially in stream order,
  /// so results are bit-identical to calling Step per query. A query's
  /// `state` is the serving layout when exactly one shard served it, -1
  /// otherwise (per-shard states live in core(s)); its cost is the
  /// row-weighted sum over the touched shards.
  ///
  /// External-synchronization contract: like Oreo::RunBatch, the engine
  /// assumes a single caller — concurrent Step / RunBatch / RunTrace / Ingest
  /// callers would interleave routing and per-shard decision state and abort
  /// under the debug assert (internal::SingleCallerGuard). Serialize
  /// multi-producer submission through a core::BatchSubmitter.
  BatchResult RunBatch(const QueryBatch& batch);

  /// Convenience API: routes the whole stream, runs every shard core's
  /// simulation, and returns per-shard traces plus merged accounting.
  /// Intended for a fresh instance (mirrors Oreo::Run).
  EngineSimResult RunTrace(const std::vector<Query>& queries,
                           bool record_trace = false);

  // --- live ingest ---------------------------------------------------------

  /// Applies one mutation batch: deletes tombstone currently visible rows
  /// (word-AND of a kernel match bitmap, never a per-row branch), appended
  /// rows are published as zone-mapped delta chunks, and everything becomes
  /// query-visible atomically before the call returns — the Ingest call IS
  /// the batch boundary, so visibility is a pure function of the request
  /// interleaving (multiplexing front ends go through
  /// BatchSubmitter::RunIngest). When a shard's mutation debt crosses
  /// OreoOptions::fold_threshold it compacts: tombstones drop out, delta
  /// chunks fold into the base, the physical layout rematerializes, and the
  /// layout manager redraws its dataset sample.
  ///
  /// Routing: the batch always goes through ingest::SplitIngest, which
  /// copies the appended rows into per-shard slices by the routing column
  /// (ShardRouter::SplitRows) and sends every delete query to each shard it
  /// can touch (ShardsForQuery, conservative-complete). The slices apply
  /// serially in ascending shard order, so the sequence of mutations a shard
  /// sees is a deterministic function of the batch stream, independent of
  /// threads; a 1-shard engine stays bit-identical to a bare Oreo. The whole
  /// batch is validated up front (schema + delete columns) so a rejected
  /// batch leaves no shard partially applied.
  ///
  /// Row weights are recomputed from the shards' post-ingest physical scan
  /// sizes (base + delta rows), keeping the merged cost accounting
  /// consistent with what each shard's LiveCost normalizes by. With a
  /// physical layer attached, in-flight rewrites are quiesced first (a fold
  /// rematerializes registry layouts a running rewrite may read), folded
  /// shards are re-materialized from their folded base, and every mutated
  /// shard's scan overlay is rebuilt against its pinned snapshot.
  ///
  /// A failed fold rematerialization is the one error returned after the
  /// batch is applied: the batch stays committed on every shard's logical
  /// core, the failed shard serves no batch until a later SyncPhysical
  /// rewrites its files, and the first such error is returned.
  ///
  /// The returned version is an engine-level batch counter; per-shard
  /// versions advance only on shards the batch touched (idle shards see no
  /// batch boundary).
  Result<IngestResult> Ingest(IngestBatch batch);

  // --- accounting ---------------------------------------------------------

  /// Row-weighted totals across shards (1 shard: identical to Oreo's).
  double total_query_cost() const;
  double total_reorg_cost() const;
  /// Total shard switches across all shards.
  int64_t num_switches() const;
  double total_cost() const { return total_query_cost() + total_reorg_cost(); }

  // --- introspection ------------------------------------------------------

  /// Number of shards (>= 1).
  size_t num_shards() const { return shards_.size(); }

  /// The shard's logical core — registry, manager, strategy and trace
  /// accessors live there. `shard` must be < num_shards().
  Oreo& core(size_t shard) { return *shards_[shard].oreo; }
  const Oreo& core(size_t shard) const { return *shards_[shard].oreo; }

  // --- physical execution -------------------------------------------------

  /// Creates one PhysicalStore per shard under `base_dir/shard_NNN` (through
  /// OreoOptions::storage_backend, wrapped in a shard-charged view of
  /// OreoOptions::shared_cache when set), materializes every shard's current
  /// layout, and starts the background rewriter. All or nothing: when any
  /// shard fails, every shard is detached again, so the call can be retried.
  Status AttachPhysical(const std::string& base_dir, size_t store_threads = 1);
  bool has_physical() const { return reorg_pool_ != nullptr; }

  /// The shard's store (nullptr before AttachPhysical).
  PhysicalStore* store(size_t shard) { return shards_[shard].store.get(); }

  /// Executes a batch against the pinned per-shard snapshots, shard-major:
  /// each touched shard scans its sub-batch (stream order) in one
  /// ExecuteQueryBatchOnSnapshot call — one read of each surviving block per
  /// batch, with the shard's other surviving partitions prefetched while
  /// the first scans when the backend can — and the calls fan out over
  /// shards. Per-query counters are summed across touched shards and reduced
  /// serially in stream order. Counter totals (matches above all) are
  /// layout- and thread-count-invariant.
  Result<PhysicalStore::BatchExec> ExecuteBatchPhysical(
      const std::vector<Query>& queries);

  /// Batch-boundary reconciliation: adopts finished background rewrites
  /// (refresh snapshot, vacuum superseded files, update the materialized
  /// state) and submits a rewrite for every shard whose logical serving
  /// layout moved ahead of its materialized one. At most one rewrite is in
  /// flight per shard. A shard whose fold rematerialization failed (see
  /// Ingest) is first rematerialized again; while that keeps failing, the
  /// shard submits nothing and ExecuteBatchPhysical keeps returning the
  /// error for batches that touch it. Returns the number of rewrites
  /// submitted.
  size_t SyncPhysical();

  /// Blocks until no shard has a rewrite queued or running, then reconciles.
  void WaitForReorgs();

  /// Replays per-shard decision traces physically: every shard runs
  /// ReplayPhysical over its own sub-stream, trace and registry, into
  /// `dir/shard_NNN` through its own view of the storage backend (and of the
  /// shared cache, when set); counters are summed across shards. `sim` must
  /// come from RunTrace(..., record_trace=true) on this engine. Counters are
  /// bit-identical at any `num_threads`/`batch_size`.
  Result<PhysicalReplayResult> ReplayTrace(const EngineSimResult& sim,
                                           size_t stride,
                                           const std::string& dir,
                                           size_t num_threads = 0,
                                           size_t batch_size = 1) const;

 private:
  /// One shard: its logical core plus, after AttachPhysical, its store, the
  /// snapshot batches execute against (refreshed only at reconciliation
  /// points, never mid-batch) and the registry ids SyncPhysical reconciles.
  struct Shard {
    std::unique_ptr<Oreo> oreo;
    std::unique_ptr<PhysicalStore> store;
    PhysicalStore::Snapshot snapshot;
    /// The layout currently materialized in the store.
    int materialized_state = -1;
    /// The target of the in-flight background rewrite, if any.
    std::optional<int> pending_target;
    /// The last rewrite target that *failed*, if any. It is not resubmitted
    /// until the desired state moves on, so a persistently failing shard
    /// cannot trap reconciliation in a retry loop (the error stays visible
    /// via ReorgPool::last_status).
    std::optional<int> failed_target;
    /// Not OK while the shard's files are gone: a fold's rematerialization
    /// failed after MaterializeLayout had removed the old layout's files.
    /// SyncPhysical retries the rematerialization before anything else, and
    /// batches touching the shard fail with this status until it succeeds.
    Status rematerialize_status;
  };

  /// Re-materializes a folded shard's store from its folded base and adopts
  /// the fresh snapshot (fold = compaction: same layout, fewer rows). On
  /// failure the shard is marked via `rematerialize_status`.
  Status RematerializeShard(Shard& shard);

  ShardRouter router_;
  mutable internal::SingleCallerGuard caller_guard_;
  std::vector<Table> shard_tables_;  // per-shard rows; empty for 1 shard
  std::vector<Shard> shards_;
  std::vector<double> weights_;  // shard rows / total rows
  uint64_t ingest_version_ = 0;  ///< engine-level ingest batch counter
  // Batch fan-out across shards; never more threads than shards.
  std::unique_ptr<ThreadPool> pool_;
  // Reset first by the destructor: in-flight rewrite callbacks touch
  // shards/stores and must never outlive them.
  std::unique_ptr<ReorgPool> reorg_pool_;
};

/// Builds the engine `options` describe: `options.num_shards` shards, each
/// with its own logical `Oreo` core (and, after AttachPhysical, its own
/// store). `table` and `generator` must outlive the returned engine.
std::unique_ptr<OreoEngine> MakeEngine(const Table* table,
                                       const LayoutGenerator* generator,
                                       int time_column,
                                       const OreoOptions& options);

/// Shard subdirectory name used by AttachPhysical and ReplayTrace.
std::string ShardDirName(const std::string& base_dir, uint32_t shard);

/// The reusable batch-submission hook: serializes batch submission from many
/// producer threads onto one engine.
///
/// OreoEngine::Step / RunBatch assume a single caller (see
/// internal::SingleCallerGuard); any multiplexing front end — the
/// `server::FairScheduler` is the in-tree user — funnels its traffic through
/// one BatchSubmitter per engine instead of calling the engine directly.
/// Submissions are mutually exclusive and each batch's logical decisions,
/// physical execution and reconciliation happen under one critical section,
/// so batches from different producers can interleave only at batch
/// boundaries — exactly the granularity at which results are
/// order-dependent but never torn.
class BatchSubmitter {
 public:
  /// `engine` must outlive this object.
  explicit BatchSubmitter(OreoEngine* engine) : engine_(engine) {}

  /// Runs the batch's logical decisions under the submission lock.
  BatchResult Run(const QueryBatch& batch);

  /// Runs the batch logically, executes it against the engine's pinned
  /// snapshot(s), then reconciles background rewrites at the batch boundary
  /// (SyncPhysical) — all under the submission lock. `logical` (optional)
  /// receives the decision results. Requires AttachPhysical.
  Result<PhysicalStore::BatchExec> RunPhysical(
      const QueryBatch& batch, BatchResult* logical = nullptr);

  /// Applies one mutation batch under the submission lock, so ingest and
  /// query batches from different producers interleave only at batch
  /// boundaries — the deterministic-visibility granularity.
  Result<IngestResult> RunIngest(IngestBatch batch);

  OreoEngine* engine() { return engine_; }

 private:
  OreoEngine* engine_;  // not owned
  std::mutex mu_;
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_ENGINE_H_
