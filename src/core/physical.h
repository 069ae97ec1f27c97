// Physical execution substrate for the end-to-end experiments (Figure 3,
// Table I). This replaces the paper's shallow Spark integration (DESIGN.md,
// substitutions): partitions live as compressed block files on local disk;
// a query prunes partitions via zone maps and scans the survivors; a
// reorganization reads every partition, re-assigns rows under the new layout,
// and compresses + writes the new partition files.
#ifndef OREO_CORE_PHYSICAL_H_
#define OREO_CORE_PHYSICAL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/simulator.h"
#include "core/state_registry.h"
#include "layout/layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/table.h"

namespace oreo {
namespace core {

/// On-disk partition store for one table under one layout at a time.
///
/// Threading model: the three physical hot paths (ExecuteQuery scans,
/// MaterializeLayout writes, Reorganize shuffle+merge) fan out across an
/// internal thread pool of `num_threads` workers (0 = one per hardware
/// core, 1 = fully serial). Determinism contract: counts, bytes, statuses
/// and on-disk file contents are bit-identical for any thread count — every
/// parallel path stages per-partition outputs and reduces them in partition
/// order. Only the wall-clock `seconds` fields vary with the pool size.
class PhysicalStore {
 public:
  /// Files are created under `dir` (created if missing) through `backend`
  /// (nullptr = the process-wide posix backend). Failure contract: a
  /// MaterializeLayout or Reorganize that returns non-OK has removed every
  /// object it wrote (no torn or orphaned partition files) and left the
  /// previously materialized layout fully readable.
  explicit PhysicalStore(std::string dir, size_t num_threads = 0,
                         std::shared_ptr<StorageBackend> backend = nullptr);

  /// Wall-clock result of a physical operation.
  struct Timing {
    double seconds = 0.0;
    uint64_t bytes = 0;
    uint64_t partitions = 0;
  };

  /// Writes all partitions of `instance` (rows taken from `table`).
  /// Replaces any previously materialized layout (old files deleted,
  /// untimed). Returns write timing.
  Result<Timing> MaterializeLayout(const Table& table,
                                   const LayoutInstance& instance);

  /// Result of one physical query execution.
  struct QueryExec {
    double seconds = 0.0;
    uint64_t partitions_read = 0;
    uint64_t rows_scanned = 0;
    uint64_t matches = 0;
    uint64_t bytes_read = 0;
  };

  /// Executes `query` against the materialized layout: zone-map pruning,
  /// then scan of the surviving partition files (a single-query batch, so
  /// the per-query and batched paths cannot diverge).
  Result<QueryExec> ExecuteQuery(const Query& query);

  /// Result of one batched execution: per-query counters (stream order) and
  /// the batch's wall clock. Per-query `seconds` fields are zero — scan work
  /// from the whole batch interleaves on the pool, so only the batch total
  /// is meaningful.
  struct BatchExec {
    double seconds = 0.0;
    std::vector<QueryExec> per_query;
  };

  /// Executes a whole batch against one snapshot of the materialized layout
  /// as a shared scan: per-query zone-map pruning runs serially (metadata
  /// only), then one ParallelFor runs a task per distinct surviving
  /// partition. Each task reads and CRC-checks its block once, decodes the
  /// union of the columns its queries reference (all of them if one query
  /// is conjunct-free), and counts every query that survives on it against
  /// that one decoded table. Per-query counters are reduced serially in
  /// stream order and are bit-identical to executing the queries one at a
  /// time; on failure the first error in (query, partition) order is
  /// returned, as the per-query path would.
  Result<BatchExec> ExecuteQueryBatch(const std::vector<Query>& queries);

  /// Full reorganization into `to`: reads every current partition file
  /// (decompression included), re-partitions `table` rows, writes the new
  /// files. The returned timing covers read + assign + compress + write.
  /// Every file is written in canonical row order — the order of
  /// `to.partitioning().partitions[pid]` — so its bytes equal a fresh
  /// MaterializeLayout of `to`, and per-partition tombstone masks
  /// (LiveScanView) line up with it whatever layout the rows came from.
  Result<Timing> Reorganize(const Table& table, const LayoutInstance& to);

  /// Total bytes of the currently materialized files.
  uint64_t MaterializedBytes() const;

  const LayoutInstance* current_instance() const { return instance_; }

  /// An immutable view of one materialized layout: queries executed against
  /// a snapshot keep working while a background reorganization swaps the
  /// store to a new layout (paper SIII-B). Outgoing files are kept as
  /// garbage until Vacuum(), so snapshot readers never lose their files.
  struct Snapshot {
    const LayoutInstance* instance = nullptr;
    Schema schema;
    std::vector<std::string> files;
    std::vector<uint64_t> file_bytes;
  };

  /// Current layout as a snapshot (thread-safe).
  Snapshot GetSnapshot() const;

  /// Live-ingest overlay for snapshot scans: per-partition tombstone masks
  /// over the materialized base plus the un-folded delta chunks (see
  /// src/ingest/live_table.h). The engine rebuilds the view at every ingest
  /// and snapshot-refresh boundary, never mid-batch, so a batch executes
  /// against one frozen (snapshot, view) pair.
  struct LiveScanView {
    /// Live-row mask per partition, indexed like the snapshot instance's
    /// partitioning: bit j of partition_masks[pid] covers the row stored at
    /// parts.partitions[pid][j] — exactly the row order of the partition's
    /// block file. Empty means no base row is tombstoned (every partition
    /// fully live); otherwise the size must equal the partition count.
    std::vector<BitVector> partition_masks;
    /// One un-folded append chunk: rows + zone map (pruned like a
    /// partition) + live-row bitmap. Pointers are borrowed from the
    /// engine's LiveTable and stay valid for the batch.
    struct Delta {
      const Table* rows = nullptr;
      const ZoneMap* zones = nullptr;
      const BitVector* live = nullptr;
    };
    std::vector<Delta> deltas;
  };

  /// Batch execution against an explicit snapshot (thread-safe, read-only);
  /// see ExecuteQueryBatch for the determinism contract. When the backend
  /// implements BlockPrefetcher, every distinct surviving partition but the
  /// lowest-pid one — the task the pool claims first, whose demand fetch is
  /// imminent — is prefetched asynchronously. Prefetch is advisory: results
  /// and counters never depend on whether it happened, was dropped, or
  /// failed.
  ///
  /// With a non-null `live` view, every partition's match count is masked by
  /// its tombstone bitmap (one word-AND per 64 rows) and the view's delta
  /// chunks are counted after the base partitions, serially in chunk order —
  /// trivially thread-count-invariant, and bounded because the engine folds
  /// deltas at its mutation threshold. Delta scans contribute to `matches`
  /// and `rows_scanned` only; `partitions_read`/`bytes_read` stay file-level
  /// counters (delta chunks live in memory, not in partition files).
  Result<BatchExec> ExecuteQueryBatchOnSnapshot(
      const Snapshot& snapshot, const std::vector<Query>& queries,
      const LiveScanView* live = nullptr) const;

  /// Deletes files superseded by completed reorganizations. Call when no
  /// snapshot readers can still reference them.
  void Vacuum();

  /// Resolved worker count of the internal pool (>= 1).
  size_t num_threads() const { return pool_->num_threads(); }

  /// The byte store partitions live in (never null).
  StorageBackend* backend() const { return backend_.get(); }
  const std::string& dir() const { return dir_; }

 private:
  std::string PartitionPath(size_t epoch, size_t pid) const;
  void DeleteCurrentFiles();

  std::string dir_;
  std::shared_ptr<StorageBackend> backend_;
  BlockPrefetcher* prefetcher_ = nullptr;  // backend_'s, when it has one
  std::unique_ptr<ThreadPool> pool_;
  mutable std::mutex mu_;  // guards the members below
  const LayoutInstance* instance_ = nullptr;  // not owned
  Schema schema_;                             // of the materialized table
  std::vector<std::string> files_;            // per partition id
  std::vector<uint64_t> file_bytes_;
  std::vector<std::string> garbage_;          // outgoing files awaiting Vacuum
  size_t epoch_ = 0;
};

/// Replays a simulated decision trace physically: materializes the initial
/// layout, reorganizes whenever the trace switches layouts, and executes
/// every `stride`-th query for real (the paper estimates total query time
/// from a ~10% sample, §VI-A1). Query seconds are scaled by `stride`.
struct PhysicalReplayResult {
  double query_seconds = 0.0;       ///< scaled estimate over the full stream
  double reorg_seconds = 0.0;
  int64_t num_switches = 0;
  uint64_t queries_executed = 0;
  uint64_t partitions_read = 0;
  uint64_t matches = 0;
};

/// With `batch_size > 1`, consecutive sampled queries served by the same
/// layout are executed as one ExecuteQueryBatch (flushed before every
/// reorganization), modeling a high-throughput client that accumulates
/// queries between layout changes. All counters are bit-identical to
/// `batch_size = 1`; only wall-clock seconds differ.
Result<PhysicalReplayResult> ReplayPhysical(
    const Table& table, const StateRegistry& registry, const SimResult& sim,
    const std::vector<Query>& queries, size_t stride, const std::string& dir,
    size_t num_threads = 0, size_t batch_size = 1,
    std::shared_ptr<StorageBackend> backend = nullptr);

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_PHYSICAL_H_
