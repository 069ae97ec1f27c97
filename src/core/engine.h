// The client handle: tests, benches, examples, the server and replay drive
// every (sharding x storage backend) combination through this interface.
// There is one engine path — MakeEngine always builds the `ShardedOreo`
// facade, which runs one logical `Oreo` core plus one physical store per
// shard; `num_shards = 1` is simply one shard.
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
// Determinism contract (pinned by tests/backend_equivalence_test.cc): for a
// fixed seed and workload, costs, switch decisions, decision traces, scan
// counters and materialized partition bytes are identical across storage
// backends, thread counts and batch sizes; only wall-clock seconds vary.
#ifndef OREO_CORE_ENGINE_H_
#define OREO_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/physical.h"
#include "core/simulator.h"
#include "query/query.h"
#include "storage/table.h"

namespace oreo {
namespace core {

class Oreo;
struct OreoOptions;

namespace internal {

/// Debug detector for the engines' external-synchronization contract.
///
/// The online algorithm is inherently sequential — every query updates the
/// window, the admission samples and the D-UMTS counters — so Step / RunBatch
/// / RunTrace require external synchronization: at most one caller thread may
/// be inside the engine at a time (nested entry from the same thread is fine;
/// RunBatch runs through the Step code path). Violations used to corrupt
/// state silently; the guard makes them abort in debug builds instead. Use
/// `BatchSubmitter` (below) when multiple producer threads must feed one
/// engine. All counters are relaxed atomics, so the guard itself is
/// data-race-free under TSan; release (NDEBUG) builds compile it away.
class SingleCallerGuard {
 public:
  class Scope {
   public:
    explicit Scope(SingleCallerGuard* guard);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
#ifndef NDEBUG
    SingleCallerGuard* guard_;
#endif
  };

 private:
#ifndef NDEBUG
  std::atomic<int> depth_{0};
  std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace internal

/// Per-shard traces plus merged accounting from OreoEngine::RunTrace.
/// A 1-shard engine fills exactly one slot (the whole stream).
struct EngineSimResult {
  /// Per-shard simulation results, in shard-local (unweighted) units —
  /// feed these to the per-shard competitive-ratio machinery.
  std::vector<SimResult> shards;
  /// The sub-stream each shard observed, in stream order.
  std::vector<std::vector<Query>> shard_streams;
  /// Row-weighted merged accounting (1 shard: equals the SimResult totals).
  double query_cost = 0.0;
  double reorg_cost = 0.0;
  int64_t num_switches = 0;
  double total_cost() const { return query_cost + reorg_cost; }
};

/// One live mutation batch: rows to append plus delete predicates. The
/// deletes apply to the rows visible *before* the batch (rows appended by
/// the same batch are exempt); an empty-conjunct delete query deletes every
/// visible row. `rows` must match the engine table's schema (an empty table
/// — zero rows — is fine for delete-only batches).
struct IngestBatch {
  Table rows;
  std::vector<Query> deletes;
};

/// Outcome of one OreoEngine::Ingest call. The batch is the visibility unit:
/// its mutations became query-visible atomically when the call returned.
struct IngestResult {
  uint64_t version = 0;        ///< monotonic batch version (facade-level
                               ///< when sharded; per-shard logs advance too)
  uint64_t rows_appended = 0;  ///< rows appended by this batch
  uint64_t rows_deleted = 0;   ///< rows tombstoned by this batch
  uint64_t visible_rows = 0;   ///< logical row count after the batch
  bool folded = false;         ///< the batch triggered a compaction fold
};

/// Online data-layout reorganization behind one handle, logical and
/// physical. Implemented by the `ShardedOreo` facade (see MakeEngine).
class OreoEngine {
 public:
  virtual ~OreoEngine() = default;

  /// Outcome of one streamed query, merged across whatever served it.
  struct StepResult {
    int state;          ///< serving layout (single-engine step; the sharded
                        ///< facade reports -1 when several shards served)
    bool reorganized;   ///< a reorganization was initiated on this query
    double query_cost;  ///< c(state, q), row-weighted when sharded
  };

  /// Outcome of one batched step: per-query results in stream order plus
  /// the batch's cost/switch totals.
  struct BatchResult {
    std::vector<StepResult> steps;
    double query_cost = 0.0;   ///< sum of per-query costs in this batch
    int64_t num_switches = 0;  ///< queries that initiated a reorganization
  };

  /// Streaming API: observe one query, get the serving layout and any
  /// reorganization decision.
  virtual StepResult Step(const Query& query) = 0;

  /// Batched streaming API; decisions are made in stream order, so results
  /// are bit-identical to calling Step per query.
  virtual BatchResult RunBatch(const QueryBatch& batch) = 0;

  /// Convenience API: run a whole stream and return per-engine traces plus
  /// merged accounting. Intended for a fresh instance.
  virtual EngineSimResult RunTrace(const std::vector<Query>& queries,
                                   bool record_trace = false) = 0;

  // --- live ingest ---------------------------------------------------------

  /// Applies one mutation batch: deletes tombstone currently visible rows
  /// (word-AND of a kernel match bitmap, never a per-row branch), appended
  /// rows are published as zone-mapped delta chunks, and everything becomes
  /// query-visible atomically before the call returns — the Ingest call IS
  /// the batch boundary, so visibility is a pure function of the request
  /// interleaving (same external-synchronization contract as Step/RunBatch;
  /// multiplexing front ends go through BatchSubmitter::RunIngest). When the
  /// mutation debt crosses OreoOptions::fold_threshold the engine compacts:
  /// tombstones drop out, delta chunks fold into the base, the physical
  /// layout rematerializes, and the layout manager redraws its dataset
  /// sample. Sharded engines route rows through their ShardRouter and apply
  /// per-shard batches in ascending shard order.
  virtual Result<IngestResult> Ingest(IngestBatch batch) = 0;

  // --- accounting ---------------------------------------------------------

  virtual double total_query_cost() const = 0;
  virtual double total_reorg_cost() const = 0;
  virtual int64_t num_switches() const = 0;
  double total_cost() const { return total_query_cost() + total_reorg_cost(); }

  // --- trace / introspection ----------------------------------------------

  /// Number of independent per-shard engines (>= 1).
  virtual size_t num_shards() const = 0;

  /// The shard's logical core — registry, manager, strategy and trace
  /// accessors live there. `shard` must be < num_shards().
  virtual Oreo& core(size_t shard) = 0;
  virtual const Oreo& core(size_t shard) const = 0;

  // --- physical execution -------------------------------------------------

  /// Creates the engine's on-disk (or in-memory, per
  /// OreoOptions::storage_backend) stores under `base_dir/shard_NNN`,
  /// materializes the current layout(s), and starts the background rewrite
  /// machinery.
  virtual Status AttachPhysical(const std::string& base_dir,
                                size_t store_threads = 1,
                                size_t reorg_workers = 0) = 0;
  virtual bool has_physical() const = 0;

  /// The shard's store (nullptr before AttachPhysical).
  virtual PhysicalStore* store(size_t shard) = 0;

  /// Executes a batch against the pinned snapshot(s): per-query counters in
  /// stream order, layout- and thread-count-invariant.
  virtual Result<PhysicalStore::BatchExec> ExecuteBatchPhysical(
      const std::vector<Query>& queries) = 0;

  /// Batch-boundary reconciliation: adopts finished background rewrites and
  /// submits newly needed ones. Returns the number of rewrites submitted.
  virtual size_t SyncPhysical() = 0;

  /// Blocks until no rewrite is queued or running, then reconciles.
  virtual void WaitForReorgs() = 0;

  /// Replays a recorded decision trace physically into `dir` (one
  /// `shard_NNN` subdirectory per shard), through the engine's storage
  /// backend. `sim` must come from RunTrace(..., record_trace=true) on this
  /// engine. Counters are bit-identical at any `num_threads`/`batch_size`.
  virtual Result<PhysicalReplayResult> ReplayTrace(
      const EngineSimResult& sim, size_t stride, const std::string& dir,
      size_t num_threads = 0, size_t batch_size = 1) const = 0;
};

/// Builds the engine `options` describe: the `ShardedOreo` facade over
/// `options.num_shards` shards, each with its own logical `Oreo` core (and,
/// after AttachPhysical, its own store). `table` and `generator` must
/// outlive the returned engine.
std::unique_ptr<OreoEngine> MakeEngine(const Table* table,
                                       const LayoutGenerator* generator,
                                       int time_column,
                                       const OreoOptions& options);

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
  OreoEngine::BatchResult Run(const QueryBatch& batch);

  /// Runs the batch logically, executes it against the engine's pinned
  /// snapshot(s), then reconciles background rewrites at the batch boundary
  /// (SyncPhysical) — all under the submission lock. `logical` (optional)
  /// receives the decision results. Requires AttachPhysical.
  Result<PhysicalStore::BatchExec> RunPhysical(
      const QueryBatch& batch, OreoEngine::BatchResult* logical = nullptr);

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
