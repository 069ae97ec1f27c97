#include "core/shard_engine.h"

#include "common/logging.h"
#include "storage/shared_cache.h"

namespace oreo {
namespace core {

ShardEngine::ShardEngine(uint32_t shard_id, const Table* shard_table,
                         const LayoutGenerator* generator, int time_column,
                         const OreoOptions& options)
    : shard_id_(shard_id),
      oreo_(std::make_unique<Oreo>(shard_table, generator, time_column,
                                   options)) {}

Status ShardEngine::AttachPhysical(const std::string& dir,
                                   size_t num_threads) {
  OREO_CHECK(store_ == nullptr) << "shard " << shard_id_
                                << " already has a physical store";
  // Each shard gets its own view of the (optional) shared cache, so hits,
  // misses and evictions are charged to this shard while the budget and
  // single-flight dedup stay global.
  store_ = std::make_unique<PhysicalStore>(
      dir, num_threads,
      WrapWithSharedCache(oreo_->options().shared_cache,
                          oreo_->options().storage_backend, shard_id_));
  const int current = oreo_->physical_state();
  // base_table(), not the construction-time table: mutations (and folds)
  // can precede the attach.
  Result<PhysicalStore::Timing> timing = store_->MaterializeLayout(
      oreo_->base_table(), oreo_->registry().Get(current));
  if (!timing.ok()) {
    store_.reset();
    return timing.status();
  }
  materialized_state_ = current;
  pending_target_.reset();
  snapshot_ = store_->GetSnapshot();
  oreo_->RebuildLiveView(snapshot_.instance);
  return Status::OK();
}

}  // namespace core
}  // namespace oreo
