// Background reorganization (paper SIII-B): "reorganization happens via a
// separate process in the background using a (partial) copy of the data and
// queries are still serviced on the existing data layout while
// reorganization is in progress. After reorganization is completed, the new
// layout is swapped with the existing layout."
//
// ReorgPool is that background process: one worker thread executes
// PhysicalStore reorganizations in submission order, with at most one
// queued or running per shard (a second Submit for a busy shard bounces).
// A sharded engine's shards share the one worker, so their rewrites run one
// after another. The foreground keeps executing queries against per-shard
// snapshots (PhysicalStore::GetSnapshot / ExecuteQueryBatchOnSnapshot) and
// refreshes them at batch boundaries when a shard's generation() advances.
//
// Shutdown ordering: destroying the pool *discards* jobs that are queued but
// not yet started — their completion callbacks are destroyed unfired — and
// joins the worker, so a running job's callback always fires before the
// destructor returns and no callback can ever run after the pool is gone.
// Owners must therefore destroy the pool before anything a callback touches
// (declare it after the engines/stores it serves). Submit during or after
// shutdown returns false instead of enqueueing work that could outlive the
// owner.
#ifndef OREO_CORE_BACKGROUND_H_
#define OREO_CORE_BACKGROUND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/physical.h"

namespace oreo {
namespace core {

/// Asynchronous single-worker executor for per-shard layout rewrites.
class ReorgPool {
 public:
  /// Spawns the worker thread.
  ReorgPool();
  /// Discards queued-but-unstarted jobs, waits for the running one, joins.
  ~ReorgPool();

  ReorgPool(const ReorgPool&) = delete;
  ReorgPool& operator=(const ReorgPool&) = delete;

  /// One reorganization request. `store`, `table` and `target` must outlive
  /// the run; `shard` only identifies the serialization domain (any id works,
  /// ids need not be dense).
  struct Job {
    uint32_t shard = 0;
    PhysicalStore* store = nullptr;
    const Table* table = nullptr;
    const LayoutInstance* target = nullptr;
    /// Runs on the worker right after the layout swap (success or failure),
    /// before the shard reports idle — a concurrent Submit for the same
    /// shard cannot start until it returns. Discarded unfired if the job is
    /// still queued when the pool shuts down.
    std::function<void(const Status&)> on_done;
    /// Test hook: runs on the worker right before the reorganization.
    std::function<void()> on_start;
  };

  /// Requests a reorganization. Returns false — and does nothing — if the
  /// job's shard already has a reorganization queued or running, or if the
  /// pool is shutting down.
  bool Submit(Job job);

  /// True while `shard` has a reorganization queued or running.
  bool busy(uint32_t shard) const;

  /// Blocks until `shard` has no queued or running reorganization.
  void Wait(uint32_t shard);

  /// Blocks until no shard has queued or running work.
  void WaitAll();

  /// Monotonic count of completed reorganizations of `shard` (successful or
  /// not). A foreground batch loop polls this between batches: an unchanged
  /// value proves its snapshot is still that shard's current layout.
  uint64_t generation(uint32_t shard) const;

  /// Status of `shard`'s most recently completed reorganization.
  Status last_status(uint32_t shard) const;

  struct Stats {
    int64_t completed = 0;       ///< successful reorganizations, all shards
    int64_t discarded = 0;       ///< jobs dropped unstarted at shutdown
    double total_seconds = 0.0;  ///< summed wall clock of successful runs
  };
  Stats stats() const;

 private:
  struct ShardState {
    bool queued = false;
    bool running = false;
    uint64_t generation = 0;
    Status last_status;
  };

  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;       // wakes the worker on submit/shutdown
  std::condition_variable idle_cv_;  // wakes Wait/WaitAll on completion
  std::deque<Job> queue_;
  std::unordered_map<uint32_t, ShardState> shards_;
  bool shutdown_ = false;
  Stats stats_;
  std::thread worker_;  // last: starts after every member it reads exists
};

}  // namespace core
}  // namespace oreo

#endif  // OREO_CORE_BACKGROUND_H_
