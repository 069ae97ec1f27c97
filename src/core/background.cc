#include "core/background.h"

#include "common/logging.h"

namespace oreo {
namespace core {

ReorgPool::ReorgPool() : worker_([this] { WorkerLoop(); }) {}

ReorgPool::~ReorgPool() {
  std::deque<Job> discarded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Discard queued-but-unstarted jobs so no reorganization (and no
    // completion callback) can begin while the owner is mid-destruction.
    // The callbacks die unfired with the queue entries.
    for (const Job& job : queue_) {
      shards_[job.shard].queued = false;
      ++stats_.discarded;
    }
    discarded.swap(queue_);
  }
  cv_.notify_all();
  idle_cv_.notify_all();
  // Destroy the discarded jobs (and their callbacks) outside the lock: a
  // callback capture's destructor may call back into the pool (stats(),
  // Submit() — which now bounces), which would self-deadlock under mu_.
  discarded.clear();
  worker_.join();
}

bool ReorgPool::Submit(Job job) {
  OREO_CHECK(job.store != nullptr && job.table != nullptr &&
             job.target != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return false;
    ShardState& state = shards_[job.shard];
    if (state.queued || state.running) return false;
    state.queued = true;
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

bool ReorgPool::busy(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard);
  return it != shards_.end() && (it->second.queued || it->second.running);
}

void ReorgPool::Wait(uint32_t shard) {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this, shard] {
    auto it = shards_.find(shard);
    return it == shards_.end() || (!it->second.queued && !it->second.running);
  });
}

void ReorgPool::WaitAll() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    for (const auto& [shard, state] : shards_) {
      if (state.queued || state.running) return false;
    }
    return true;
  });
}

uint64_t ReorgPool::generation(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.generation;
}

Status ReorgPool::last_status(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(shard);
  return it == shards_.end() ? Status::OK() : it->second.last_status;
}

ReorgPool::Stats ReorgPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ReorgPool::WorkerLoop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // On shutdown the queue has already been discarded by the destructor;
      // a job already running finishes below before the worker exits.
      if (shutdown_) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      ShardState& state = shards_[job.shard];
      state.queued = false;
      state.running = true;
    }
    if (job.on_start) job.on_start();
    Result<PhysicalStore::Timing> timing =
        job.store->Reorganize(*job.table, *job.target);
    Status status = timing.ok() ? Status::OK() : timing.status();
    // The callback observes the post-swap store but a still-busy shard, so a
    // concurrent Submit for this shard cannot start before it returns.
    if (job.on_done) job.on_done(status);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ShardState& state = shards_[job.shard];
      state.running = false;
      ++state.generation;
      state.last_status = status;
      if (timing.ok()) {
        ++stats_.completed;
        stats_.total_seconds += timing->seconds;
      }
    }
    idle_cv_.notify_all();
  }
}

}  // namespace core
}  // namespace oreo
