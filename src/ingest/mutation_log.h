// Versioning authority for live mutations.
//
// Every OreoEngine::Ingest call commits exactly one batch here and receives a
// monotonically increasing version number. A batch is the unit of visibility:
// its rows and deletes become query-visible atomically when Commit returns,
// never mid-batch, so the executed stream — and therefore every equivalence
// wall (costs, switches, traces, replay CRCs) — is a pure function of the
// request interleaving, independent of thread count, shard count or batch
// size.
//
// The log retains no row data: the logical table is always reconstructible
// from LiveTable (base ∖ tombstones ++ live delta rows), so memory stays
// bounded under sustained ingest. What the log owns is the version counter
// and the global appended/deleted accounting that backs the
//   visible_rows == total_appended − total_deleted
// invariant checked at every batch boundary, across folds, by
// OreoIngestTest.BatchBoundary* (tests/ingest_test.cc).
#ifndef OREO_INGEST_MUTATION_LOG_H_
#define OREO_INGEST_MUTATION_LOG_H_

#include <cstdint>

namespace oreo {
namespace ingest {

/// Monotonic batch-version counter plus global mutation accounting.
class MutationLog {
 public:
  /// One committed ingest batch.
  struct BatchRecord {
    uint64_t version = 0;        ///< batch version (1-based, monotonic)
    uint64_t rows_appended = 0;  ///< rows appended by this batch
    uint64_t rows_deleted = 0;   ///< rows tombstoned by this batch
  };

  /// Commits one batch and returns its record. Version numbers start at 1
  /// (version 0 means "initial load, nothing ingested yet").
  BatchRecord Commit(uint64_t rows_appended, uint64_t rows_deleted) {
    BatchRecord rec;
    rec.version = ++version_;
    rec.rows_appended = rows_appended;
    rec.rows_deleted = rows_deleted;
    total_appended_ += rows_appended;
    total_deleted_ += rows_deleted;
    return rec;
  }

  /// Version of the most recently committed batch (0 before any ingest).
  uint64_t version() const { return version_; }
  /// Total rows appended across all committed batches.
  uint64_t total_appended() const { return total_appended_; }
  /// Total rows deleted across all committed batches.
  uint64_t total_deleted() const { return total_deleted_; }
  /// Number of committed batches.
  uint64_t num_batches() const { return version_; }

 private:
  uint64_t version_ = 0;
  uint64_t total_appended_ = 0;
  uint64_t total_deleted_ = 0;
};

}  // namespace ingest
}  // namespace oreo

#endif  // OREO_INGEST_MUTATION_LOG_H_
