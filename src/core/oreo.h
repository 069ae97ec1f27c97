// The logical OREO core: the LAYOUT MANAGER plus the D-UMTS decision loop
// (paper Figure 1) for one table, and the live-ingest overlay its costs and
// scans account for. It owns no files: the REORGANIZER half — the physical
// store, pinned snapshots and background rewrites — lives in the engine
// (core/engine.h), which runs one Oreo per shard. Build engines with
// core::MakeEngine; use an Oreo directly for logical-only work (simulation,
// cost studies, the paper figures).
//
// Typical use:
//   QdTreeGenerator gen;
//   Oreo oreo(&table, &gen, /*time_column=*/5, OreoOptions{});
//   for (const Query& q : stream) {
//     auto step = oreo.Step(q);
//     // serve q on layout `step.state`; step.reorganized marks a switch
//   }
// Clients that accumulate queries between reorganization cadences feed
// whole batches instead (RunBatch), bit-identical to stepping one by one.
#ifndef OREO_CORE_OREO_H_
#define OREO_CORE_OREO_H_

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/status.h"
#include "core/layout_manager.h"
#include "core/physical.h"
#include "core/simulator.h"
#include "core/state_registry.h"
#include "core/strategy.h"
#include "ingest/live_table.h"
#include "ingest/mutation_log.h"
#include "storage/backend.h"
#include "storage/shard_router.h"

namespace oreo {

class SharedBlockCache;  // storage/shared_cache.h

namespace core {

/// All tuning knobs of the framework, with the paper's defaults.
struct OreoOptions {
  double alpha = 80.0;        ///< relative reorganization cost
  double epsilon = 0.08;      ///< layout admission distance threshold
  double gamma = 1.0;         ///< predictor transition-bias exponent
  size_t window_size = 200;   ///< sliding window of recent queries
  size_t generate_every = 200;  ///< generation cadence (queries)
  uint32_t target_partitions = 32;  ///< partitions per layout (k)
  size_t max_states = 16;     ///< dynamic state-space cap (0 = unbounded)
  size_t reorg_delay = 0;     ///< Delta: queries served on the old layout
  size_t dataset_sample_rows = 2000;  ///< sample for generate_layout
  size_t admission_sample_size = 50;  ///< time-biased query sample size
  CandidateSource source = CandidateSource::kSlidingWindow;
  MidPhasePolicy mid_phase_policy = MidPhasePolicy::kDefer;
  /// §V-B periodic pruning of redundant (epsilon-similar) states.
  bool prune_similar_states = true;
  /// §IV-A stay-in-place optimization at phase resets.
  bool stay_at_phase_start = true;
  /// Reuse cached per-(state, sample-chunk) cost contributions across
  /// generation cadences (see LayoutManagerOptions::incremental_cost_cache).
  /// Decisions are bit-identical with the cache on or off.
  bool incremental_cost_cache = true;
  /// Worker threads for the parallel hot paths (candidate cost evaluation
  /// here; scans and rewrites in PhysicalStore take the same knob). 0 = one
  /// per hardware core, 1 = serial. Determinism contract: costs, switch
  /// decisions and traces are bit-identical at any thread count.
  size_t num_threads = 0;
  /// --- sharding (consumed by OreoEngine; a bare Oreo ignores them)
  /// Number of horizontal shards; each shard runs its own independent
  /// engine (LayoutManager + D-UMTS + PhysicalStore), preserving the
  /// per-shard competitive guarantee. 1 = one shard over the whole table.
  size_t num_shards = 1;
  /// Routing column for the shard split (-1 = the time column).
  int shard_column = -1;
  /// Row→shard routing function (see storage/shard_router.h).
  ShardRouting shard_routing = ShardRouting::kHash;
  /// Physical byte store for the engine's AttachPhysical / ReplayTrace (see
  /// storage/backend.h): nullptr = local posix files; MakeInMemoryBackend()
  /// serves disklessly; a bounded block cache with read coalescing comes
  /// from `shared_cache` below. The determinism contract extends to
  /// backends: costs, switches, traces and partition bytes are
  /// backend-invariant.
  std::shared_ptr<StorageBackend> storage_backend;
  /// Cross-shard tiered block cache (see storage/shared_cache.h). When set,
  /// every shard's store wraps `storage_backend` (or posix when null) in a
  /// shard-charged SharedCacheBackend view: one global memory budget,
  /// single-flight dedup across shards, and async prefetch of a batch's
  /// zone-map-surviving partitions while its first partition scans. Serving
  /// results stay bit-identical with the cache on or off.
  std::shared_ptr<SharedBlockCache> shared_cache;
  /// Compaction trigger for live ingest: fold delta chunks and tombstones
  /// into a fresh base (and rematerialize the physical layout) when the
  /// mutation debt — (delta rows + tombstoned base rows) / physical rows —
  /// reaches this fraction at an Ingest boundary. Bounds both the delta-scan
  /// overhead and the memory held by dead rows; <= 0 folds after every
  /// mutating batch, > 1 never folds automatically.
  double fold_threshold = 0.25;
  /// Scan-kernel dispatch (common/simd.h): kAuto runs the vectorized
  /// predicate/decode/lookup kernels, kScalar pins the scalar reference
  /// implementations. Results are bit-identical either way (the OREO_FORCE_
  /// SCALAR env var still wins over this knob). The mode is process-wide:
  /// a non-kAuto value is applied globally at engine construction.
  simd::KernelMode kernel_mode = simd::KernelMode::kAuto;
  uint64_t seed = 42;  ///< master seed; sub-components derive their own
};

/// Outcome of one streamed query.
struct StepResult {
  int state;          ///< serving layout (the engine reports -1 when several
                      ///< shards served the query)
  bool reorganized;   ///< a reorganization was initiated on this query
  double query_cost;  ///< c(state, q), row-weighted across the engine's shards
};

/// Outcome of one batched step: per-query results in stream order plus the
/// batch's cost/switch totals.
struct BatchResult {
  std::vector<StepResult> steps;
  double query_cost = 0.0;   ///< sum of per-query costs in this batch
  int64_t num_switches = 0;  ///< queries that initiated a reorganization
};

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

/// Outcome of one Ingest call. The batch is the visibility unit: its
/// mutations became query-visible atomically when the call returned.
struct IngestResult {
  uint64_t version = 0;        ///< monotonic batch version (engine-level
                               ///< when sharded; per-shard logs advance too)
  uint64_t rows_appended = 0;  ///< rows appended by this batch
  uint64_t rows_deleted = 0;   ///< rows tombstoned by this batch
  uint64_t visible_rows = 0;   ///< logical row count after the batch
  bool folded = false;         ///< the batch triggered a compaction fold
};

namespace internal {

/// Debug detector for the external-synchronization contract of Oreo and
/// OreoEngine.
///
/// The online algorithm is inherently sequential — every query updates the
/// window, the admission samples and the D-UMTS counters — so Step / RunBatch
/// / RunTrace require external synchronization: at most one caller thread may
/// be inside the engine at a time (nested entry from the same thread is fine;
/// RunBatch runs through the Step code path). Violations used to corrupt
/// state silently; the guard makes them abort in debug builds instead. Use
/// `BatchSubmitter` (core/engine.h) when multiple producer threads must feed
/// one engine. All counters are relaxed atomics, so the guard itself is
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

/// Online data-layout decisions with worst-case guarantees for one table:
/// layout states, costs and switch decisions, plus the live-ingest overlay.
/// Logical only — the engine attaches the physical store and rebuilds the
/// scan overlay (RebuildLiveView) against its snapshots.
class Oreo {
 public:
  /// `table` and `generator` must outlive this object. `time_column` defines
  /// the initial default layout (sort by arrival time).
  Oreo(const Table* table, const LayoutGenerator* generator, int time_column,
       const OreoOptions& options);
  ~Oreo();

  Oreo(const Oreo&) = delete;
  Oreo& operator=(const Oreo&) = delete;

  /// Streaming API: observe one query, get the serving layout and any
  /// reorganization decision.
  StepResult Step(const Query& query);

  /// Batched streaming API: admits a vector of queries in one step. The
  /// online algorithm is inherently sequential (every arrival updates the
  /// window, the samples and the D-UMTS counters), so decisions are made in
  /// stream order through the exact Step code path — results are
  /// bit-identical to calling Step per query. Batching buys amortized
  /// dispatch and hands the caller per-batch switch points.
  ///
  /// External-synchronization contract: Step / RunBatch / Run assume a
  /// single caller — concurrent entry from two threads corrupts the
  /// sequential decision state and is a programmer error (aborted by a debug
  /// assert, see internal::SingleCallerGuard). Multiplexing front ends must
  /// serialize submission through a core::BatchSubmitter.
  BatchResult RunBatch(const QueryBatch& batch);

  /// Convenience API: run a whole stream through Step and return its cost
  /// accounting (per-run totals; the engine totals advance too). Resets
  /// nothing; switch-event indices count from the first query of `queries`.
  SimResult Run(const std::vector<Query>& queries, bool record_trace = false);

  // --- live ingest (see OreoEngine::Ingest) --------------------------------

  /// Applies one mutation batch. Deletes tombstone the visible rows their
  /// predicates match (same-batch appends exempt); appended rows become a
  /// zone-mapped delta chunk, visible to every subsequent query. While
  /// mutations are pending, D-UMTS decides on — and the engine charges — the
  /// live cost
  ///   c_live(s, q) = (c_base(s, q) * B + D(q)) / (B + Delta)
  /// (B = physical base rows, Delta = physical delta rows, D(q) = zone-map-
  /// surviving delta rows): the true scanned-fraction of the mutated store.
  /// Theorem IV.1 holds verbatim on this matrix — D-UMTS is 2·H(|S_max|)-
  /// competitive for any cost matrix in [0, 1] — and with no pending
  /// mutations c_live is exactly c_base, so pre-ingest runs are bit-identical
  /// to builds without this subsystem. Crossing fold_threshold triggers the
  /// compaction fold (tombstones drop, deltas merge into a fresh base, every
  /// registry state rematerializes, the manager's dataset sample redraws);
  /// the caller must quiesce background rewrites reading registry layouts
  /// first and rebuild the physical layout after a fold. Single-caller
  /// contract applies, like Step/RunBatch.
  Result<IngestResult> Ingest(IngestBatch batch);

  /// The mutable logical table (base + deltas + tombstone masks).
  const ingest::LiveTable& live() const { return live_; }
  /// Rows currently visible to queries.
  uint64_t visible_rows() const { return live_.visible_rows(); }
  /// Version of the last committed ingest batch (0 before any ingest).
  uint64_t data_version() const { return mutation_log_.version(); }
  /// The current physical base table: the engine's original table until the
  /// first fold, the owned fold result afterwards. Background rewrites and
  /// replays must read this, never the construction-time table.
  const Table& base_table() const { return live_.base(); }
  /// Number of compaction folds performed so far.
  uint64_t folds() const { return folds_; }
  /// The tombstone/delta overlay for snapshot scans, or nullptr when no
  /// mutation is pending or no overlay was built. The engine threads this
  /// into its per-shard ExecuteQueryBatchOnSnapshot calls.
  const PhysicalStore::LiveScanView* live_scan_view() const {
    return live_view_active_ ? &live_view_ : nullptr;
  }
  /// Rebuilds the overlay against `instance`'s partitioning — the layout the
  /// caller's snapshot serves. The engine calls this after every ingest and
  /// snapshot refresh, never mid-batch. Passing nullptr deactivates the view.
  void RebuildLiveView(const LayoutInstance* instance);

  // --- introspection ------------------------------------------------------

  const OreoOptions& options() const { return options_; }

  const StateRegistry& registry() const { return registry_; }
  const LayoutManager& manager() const { return *manager_; }
  const OreoStrategy& strategy() const { return *strategy_; }
  int current_state() const { return strategy_->current_state(); }
  int default_state() const { return default_state_; }
  /// Layout that physically serves queries right now (trails current_state
  /// by `reorg_delay` queries after a switch decision).
  int physical_state() const { return physical_state_; }

  double total_query_cost() const { return query_cost_; }
  double total_reorg_cost() const { return reorg_cost_; }
  int64_t num_switches() const { return num_switches_; }

 private:
  /// The live cost c_live(s, q) D-UMTS decides on and Step charges; equals
  /// the registry's base cost exactly when no mutations are pending.
  double LiveCost(int state, const Query& query) const;
  /// The compaction fold (see Ingest).
  void Fold();

  OreoOptions options_;
  ingest::LiveTable live_;
  ingest::MutationLog mutation_log_;
  uint64_t folds_ = 0;
  mutable internal::SingleCallerGuard caller_guard_;
  StateRegistry registry_;
  std::unique_ptr<LayoutManager> manager_;
  std::unique_ptr<OreoStrategy> strategy_;
  int default_state_;
  int physical_state_;
  std::deque<std::pair<size_t, int>> pending_;
  size_t queries_seen_ = 0;
  double query_cost_ = 0.0;
  double reorg_cost_ = 0.0;
  int64_t num_switches_ = 0;
  PhysicalStore::LiveScanView live_view_;
  bool live_view_active_ = false;
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_OREO_H_
