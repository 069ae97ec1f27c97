// One shard's complete engine over the shard's rows (a slice the facade
// owns, or the caller's whole table for one shard): its own logical Oreo
// core (LayoutManager + D-UMTS state + StateRegistry) and an optional
// PhysicalStore — the only place a store is attached to a core.
//
// The paper's online algorithm (Theorem IV.1) is per-table, so every shard
// runs an *independent* MTS instance over its own sub-stream — the
// worst-case competitive guarantee holds shard by shard, and shards never
// exchange state. ShardedOreo owns N >= 1 of these behind the routing
// facade; a 1-shard engine over the whole table decides bit-identically to
// a bare Oreo (pinned by tests/sharded_equivalence_test.cc).
//
// Physical mode: AttachPhysical materializes the engine's current layout
// into a per-shard directory. The engine then tracks the materialized state,
// the pinned snapshot batches execute against, and the in-flight
// reorganization target; ShardedOreo reconciles all three against the
// shared ReorgPool at batch boundaries (see ShardedOreo::SyncPhysical).
#ifndef OREO_CORE_SHARD_ENGINE_H_
#define OREO_CORE_SHARD_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "core/oreo.h"
#include "core/physical.h"

namespace oreo {
namespace core {

/// A per-shard Oreo + optional PhysicalStore composition.
class ShardEngine {
 public:
  /// `shard_table` and `generator` must outlive the engine.
  /// `options.seed` must already be derived for this shard (ShardedOreo
  /// keeps shard 0 on the master seed so 1-shard runs replay bit-identically).
  ShardEngine(uint32_t shard_id, const Table* shard_table,
              const LayoutGenerator* generator, int time_column,
              const OreoOptions& options);

  uint32_t shard_id() const { return shard_id_; }
  Oreo& oreo() { return *oreo_; }
  const Oreo& oreo() const { return *oreo_; }

  /// Creates the shard's on-disk store under `dir` and materializes the
  /// engine's current physical layout into it.
  Status AttachPhysical(const std::string& dir, size_t num_threads);
  bool has_physical() const { return store_ != nullptr; }
  PhysicalStore* store() { return store_.get(); }

  /// The snapshot batches execute against (valid after AttachPhysical;
  /// refreshed only at reconciliation points, never mid-batch).
  const PhysicalStore::Snapshot& snapshot() const { return snapshot_; }
  void RefreshSnapshot() { snapshot_ = store_->GetSnapshot(); }

  /// Registry id of the layout currently materialized in the store.
  int materialized_state() const { return materialized_state_; }
  void set_materialized_state(int state) { materialized_state_ = state; }

  /// Registry id an in-flight background reorganization is rewriting
  /// towards, if any.
  const std::optional<int>& pending_target() const { return pending_target_; }
  void set_pending_target(std::optional<int> target) {
    pending_target_ = std::move(target);
  }

  /// Registry id of the last rewrite target that *failed*, if any. The
  /// facade refuses to resubmit it until the desired state moves on, so a
  /// persistently failing shard cannot trap reconciliation in a retry loop
  /// (the error stays visible via ReorgPool::last_status).
  const std::optional<int>& failed_target() const { return failed_target_; }
  void set_failed_target(std::optional<int> target) {
    failed_target_ = std::move(target);
  }

 private:
  uint32_t shard_id_;
  std::unique_ptr<Oreo> oreo_;
  std::unique_ptr<PhysicalStore> store_;
  PhysicalStore::Snapshot snapshot_;
  int materialized_state_ = -1;
  std::optional<int> pending_target_;
  std::optional<int> failed_target_;
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_SHARD_ENGINE_H_
