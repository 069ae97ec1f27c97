// Cross-shard tiered block cache. A private cache per store would splinter
// the memory budget over many shards on one slow remote tier and re-fetch
// the same object once per shard. The SharedBlockCache holds ONE global
// budget with per-shard accounting and single-flight dedup across every
// shard view, plus an async prefetch executor that warms a batch's
// zone-map-surviving partitions while the first of them scans.
//
// A single store's private cache is simply one view:
// MakeSharedCacheBackend(MakeSharedBlockCache(options), base, /*shard=*/0).
//
// Staleness contract: a mutation of `path` brackets its base op with
// BeginMutation/EndMutation. BeginMutation drops the cached object and dooms
// any in-flight fetch; every fetch started while a mutation is active is
// *born doomed* — its bytes are served to the reader whose read legitimately
// overlapped the mutation, but they are never inserted, so a read that
// begins after the mutation returns always observes the new bytes.
//
// Determinism: the cache only affects *where* bytes are served from, never
// which bytes — reads return exactly what the base backend holds. With
// prefetching off, hit/miss totals for a fixed multiset of reads are
// thread-count invariant (each distinct path is fetched once). Prefetching
// keeps byte-identical results but turns some demand misses into hits, so
// hit/miss totals are only comparable between runs with the same prefetch
// configuration.
#ifndef OREO_STORAGE_SHARED_CACHE_H_
#define OREO_STORAGE_SHARED_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/backend.h"

namespace oreo {

struct SharedBlockCacheOptions {
  /// Total bytes of cached objects across ALL shards; strict-LRU eviction
  /// when an insertion would exceed it. Objects larger than the capacity are
  /// served but never cached.
  size_t capacity_bytes = size_t{64} << 20;

  /// Worker threads for async prefetch. 0 disables prefetching entirely
  /// (StartPrefetch/RequestPrefetch become counted no-ops).
  size_t prefetch_threads = 0;

  /// Bound on queued prefetch requests; requests beyond it are dropped
  /// (prefetch is advisory, never load-bearing).
  size_t max_queued_prefetches = 256;
};

/// Global cache counters (sums over all shards, plus prefetch activity).
struct SharedCacheStats {
  uint64_t hits = 0;        ///< reads served without a base fetch of their own
  uint64_t misses = 0;      ///< demand reads that fetched from the base
  uint64_t coalesced = 0;   ///< hits that waited on an in-flight fetch
  uint64_t evictions = 0;   ///< objects dropped by the LRU bound
  uint64_t invalidations = 0;  ///< objects dropped by writes/removes
  uint64_t hit_bytes = 0;   ///< bytes served from cache (base reads avoided)
  uint64_t miss_bytes = 0;  ///< bytes fetched from the base by demand reads
  uint64_t resident_bytes = 0;
  uint64_t resident_objects = 0;
  uint64_t prefetch_requests = 0;  ///< accepted (queued) prefetch requests
  uint64_t prefetch_dropped = 0;   ///< dropped: queue full or no workers
  uint64_t prefetch_noops = 0;     ///< skipped: cached / in flight / mutating
  uint64_t prefetch_fetches = 0;   ///< base fetches issued by the prefetcher
  uint64_t prefetch_bytes = 0;     ///< bytes fetched by the prefetcher
};

/// One shard's slice of the accounting. resident_* sums over shards equal
/// the global resident_*; evictions_charged names the shard whose object
/// was dropped (the victim's owner, not the inserter).
struct ShardCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t hit_bytes = 0;
  uint64_t miss_bytes = 0;
  uint64_t resident_bytes = 0;
  uint64_t resident_objects = 0;
  uint64_t evictions_charged = 0;
  uint64_t invalidations = 0;
  uint64_t prefetch_fetches = 0;
};

/// The shared tier itself. Thread-safe; shard views (SharedCacheBackend)
/// route every cacheable op through it.
class SharedBlockCache {
 public:
  explicit SharedBlockCache(SharedBlockCacheOptions options = {});
  ~SharedBlockCache();

  SharedBlockCache(const SharedBlockCache&) = delete;
  SharedBlockCache& operator=(const SharedBlockCache&) = delete;

  /// Serves `path` from cache, an in-flight fetch, or `base` (single-flight:
  /// concurrent readers of one path across ALL shards share one base fetch).
  /// The hit/miss is charged to `shard`; an inserted object is owned by the
  /// shard whose fetch inserted it.
  Result<std::string> Read(uint32_t shard, StorageBackend* base,
                           const std::string& path);

  /// Mutation bracket around a base write/remove of `path`. Begin drops the
  /// cached object, dooms any in-flight fetch, and marks the path mutating
  /// so fetches started before End are born doomed; invalidations are
  /// charged to the owner shard of the dropped object. Calls must balance;
  /// brackets for the same path may nest (concurrent same-path writers).
  void BeginMutation(const std::string& path);
  void EndMutation(const std::string& path);

  /// Queues an async warm-up of `path` through `base`, charged to `shard`.
  /// Advisory: dropped when the queue is full or no workers exist, skipped
  /// when the object is already cached, in flight, or mutating; a failed
  /// prefetch is invisible to later demand reads.
  void RequestPrefetch(uint32_t shard, std::shared_ptr<StorageBackend> base,
                       const std::string& path);

  /// Blocks until the prefetch queue is empty and no prefetch is running
  /// (tests and deterministic warm-up).
  void DrainPrefetches();

  SharedCacheStats stats() const;
  ShardCacheStats shard_stats(uint32_t shard) const;
  /// Every shard that has touched the cache, in shard-id order.
  std::map<uint32_t, ShardCacheStats> all_shard_stats() const;
  size_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  struct Fetch {
    bool done = false;
    bool doomed = false;  // raced a mutation (or failed prefetch): not cached
    std::shared_ptr<const std::string> data;
    Status status;
  };
  struct Entry {
    std::shared_ptr<const std::string> data;
    uint32_t owner;  // shard charged for residency and eviction
    std::list<std::string>::iterator lru_it;  // position in lru_
  };
  struct PrefetchTask {
    uint32_t shard;
    std::shared_ptr<StorageBackend> base;
    std::string path;
  };
  enum class DropReason { kReplace, kEviction, kInvalidation };

  // All Locked helpers require mu_ held.
  void EraseLocked(const std::string& path, DropReason reason);
  void InsertLocked(const std::string& path, uint32_t shard,
                    std::shared_ptr<const std::string> data);
  bool MutationActiveLocked(const std::string& path) const {
    return active_mutations_.find(path) != active_mutations_.end();
  }

  void PrefetchLoop();
  void RunPrefetch(const PrefetchTask& task);

  SharedBlockCacheOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes readers waiting on an in-flight fetch
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, Entry> cache_;
  std::unordered_map<std::string, std::shared_ptr<Fetch>> inflight_;
  std::unordered_map<std::string, uint32_t> active_mutations_;  // nest depth
  SharedCacheStats stats_;
  std::map<uint32_t, ShardCacheStats> shard_stats_;

  // Prefetch executor. queue_mu_ is never held together with mu_.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<PrefetchTask> queue_;
  size_t active_prefetches_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// One shard's StorageBackend view of a SharedBlockCache: reads go through
/// the shared tier, writes/removes are write-through with the mutation
/// bracket, StartPrefetch feeds the shared async prefetcher.
class SharedCacheBackend : public StorageBackend, public BlockPrefetcher {
 public:
  SharedCacheBackend(std::shared_ptr<SharedBlockCache> cache,
                     std::shared_ptr<StorageBackend> base, uint32_t shard);

  std::string name() const override;
  Result<std::string> ReadBlock(const std::string& path) override;
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override;
  Result<std::vector<std::string>> List(const std::string& dir) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status Sync() override;
  BackendStats stats() const override { return stats_.snapshot(); }

  void StartPrefetch(const std::string& path) override;

  SharedBlockCache* cache() const { return cache_.get(); }
  StorageBackend* base() const { return base_.get(); }
  uint32_t shard() const { return shard_; }

 private:
  std::shared_ptr<SharedBlockCache> cache_;
  std::shared_ptr<StorageBackend> base_;
  uint32_t shard_;
  internal::AtomicBackendStats stats_;
};

std::shared_ptr<SharedBlockCache> MakeSharedBlockCache(
    SharedBlockCacheOptions options = {});
std::shared_ptr<SharedCacheBackend> MakeSharedCacheBackend(
    std::shared_ptr<SharedBlockCache> cache,
    std::shared_ptr<StorageBackend> base, uint32_t shard);

/// The backend a shard's store should use: when `cache` is null this is just
/// `base` (possibly null → the store's own default); otherwise `base` (or
/// the default posix backend when null) wrapped in a shard-charged view.
std::shared_ptr<StorageBackend> WrapWithSharedCache(
    std::shared_ptr<SharedBlockCache> cache,
    std::shared_ptr<StorageBackend> base, uint32_t shard);

}  // namespace oreo

#endif  // OREO_STORAGE_SHARED_CACHE_H_
