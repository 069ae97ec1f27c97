#include "core/engine.h"

#include "common/logging.h"
#include "core/sharded_oreo.h"

namespace oreo {
namespace core {
namespace internal {

#ifndef NDEBUG
SingleCallerGuard::Scope::Scope(SingleCallerGuard* guard) : guard_(guard) {
  int prev = guard_->depth_.fetch_add(1, std::memory_order_acq_rel);
  if (prev == 0) {
    guard_->owner_.store(std::this_thread::get_id(),
                         std::memory_order_release);
  } else {
    // Re-entry from the owning thread (RunBatch -> Step) is fine; a second
    // thread inside the engine is the silent-corruption bug this exists to
    // catch.
    OREO_CHECK(guard_->owner_.load(std::memory_order_acquire) ==
               std::this_thread::get_id())
        << "concurrent Step/RunBatch callers on one engine: the online "
           "algorithm is sequential and requires external synchronization "
           "(wrap the engine in a core::BatchSubmitter)";
  }
}

SingleCallerGuard::Scope::~Scope() {
  guard_->depth_.fetch_sub(1, std::memory_order_acq_rel);
}
#else
SingleCallerGuard::Scope::Scope(SingleCallerGuard*) {}
SingleCallerGuard::Scope::~Scope() = default;
#endif

}  // namespace internal

OreoEngine::BatchResult BatchSubmitter::Run(const QueryBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  return engine_->RunBatch(batch);
}

Result<PhysicalStore::BatchExec> BatchSubmitter::RunPhysical(
    const QueryBatch& batch, OreoEngine::BatchResult* logical) {
  std::lock_guard<std::mutex> lock(mu_);
  OREO_CHECK(engine_->has_physical()) << "call AttachPhysical first";
  OreoEngine::BatchResult decisions = engine_->RunBatch(batch);
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
  return std::make_unique<ShardedOreo>(table, generator, time_column, options);
}

}  // namespace core
}  // namespace oreo
