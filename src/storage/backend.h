// Pluggable physical byte storage. The paper's guarantee (Theorem IV.1) is
// about *when* to reorganize, not *where* bytes live; this interface
// separates the logical layout decision from the physical representation so
// the same engine can serve from local files, RAM, or a caching tier.
//
// Contract every implementation must honor:
//   - AtomicWriteBlock publishes a whole object atomically: a concurrent or
//     subsequent ReadBlock of `path` sees either the previous bytes (or a
//     read error if none existed) or the complete new bytes, never a torn
//     prefix. With `sync=true` the bytes are durable (as durable as the
//     medium allows) before the call returns.
//   - ReadBlock returns the complete object or a non-OK Status (IoError,
//     absent objects included); it never returns partial data.
//   - List returns every object whose path starts with `dir` + "/", sorted
//     lexicographically (deterministic across backends and platforms).
//   - Remove of a missing path returns NotFound; all other errors are
//     IoError. Callers that treat removal as best-effort ignore the status.
//   - All methods are thread-safe; concurrent writers to *different* paths
//     never interfere. Concurrent writers to the same path are last-wins.
//   - Stats counters are monotonic and thread-safe.
#ifndef OREO_STORAGE_BACKEND_H_
#define OREO_STORAGE_BACKEND_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace oreo {

/// Operation counters kept by every backend.
struct BackendStats {
  uint64_t reads = 0;
  uint64_t read_bytes = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t removes = 0;
};

namespace internal {

/// Backend op counters as relaxed atomics. Backends record ops from many
/// threads (including the remote tier's background retries); keeping each
/// field a std::atomic makes snapshot() torn-read-free per field without a
/// lock. Cross-field consistency is not promised — BackendStats only
/// guarantees monotonic per-field counters.
struct AtomicBackendStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> removes{0};

  void RecordRead(uint64_t bytes) {
    reads.fetch_add(1, std::memory_order_relaxed);
    read_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordWrite(uint64_t bytes) {
    writes.fetch_add(1, std::memory_order_relaxed);
    write_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  void RecordRemove() { removes.fetch_add(1, std::memory_order_relaxed); }

  BackendStats snapshot() const {
    BackendStats s;
    s.reads = reads.load(std::memory_order_relaxed);
    s.read_bytes = read_bytes.load(std::memory_order_relaxed);
    s.writes = writes.load(std::memory_order_relaxed);
    s.write_bytes = write_bytes.load(std::memory_order_relaxed);
    s.removes = removes.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace internal

/// Optional capability interface for backends that can warm an object into
/// their cache tier asynchronously. StartPrefetch is advisory fire-and-
/// forget: it may be dropped under load and its failure is never surfaced —
/// a later ReadBlock of the same path remains the source of truth.
class BlockPrefetcher {
 public:
  virtual ~BlockPrefetcher() = default;
  virtual void StartPrefetch(const std::string& path) = 0;
};

/// Abstract byte-object store keyed by slash-separated paths.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Implementation name ("posix", "inmem", "sharedcache#<shard>(<base>)", ...).
  virtual std::string name() const = 0;

  /// Reads the complete object at `path`.
  virtual Result<std::string> ReadBlock(const std::string& path) = 0;

  /// Atomically publishes `data` at `path` (see the header contract).
  virtual Status AtomicWriteBlock(const std::string& path,
                                  const std::string& data, bool sync) = 0;

  /// Sorted paths of every object under `dir` (empty if none).
  virtual Result<std::vector<std::string>> List(const std::string& dir) = 0;

  /// Removes the object at `path` (NotFound if absent).
  virtual Status Remove(const std::string& path) = 0;

  /// Ensures `dir` exists (no-op where directories have no physical form).
  virtual Status CreateDir(const std::string& dir) = 0;

  /// Flushes any buffered state not yet covered by per-write `sync` flags.
  virtual Status Sync() = 0;

  virtual BackendStats stats() const = 0;
};

/// Local-filesystem backend; writes go to a temp file then rename, reads
/// are whole-file. Partition files it produces are bit-identical to the
/// pre-backend writer.
class PosixFileBackend : public StorageBackend {
 public:
  std::string name() const override { return "posix"; }
  Result<std::string> ReadBlock(const std::string& path) override;
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override;
  Result<std::vector<std::string>> List(const std::string& dir) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& dir) override;
  Status Sync() override { return Status::OK(); }
  BackendStats stats() const override { return stats_.snapshot(); }

 private:
  internal::AtomicBackendStats stats_;
};

/// Diskless backend: a lock-sharded path -> bytes map. Enables serving
/// entirely from RAM and much faster test walls; object contents are
/// byte-identical to what posix would have written.
class InMemoryBackend : public StorageBackend {
 public:
  std::string name() const override { return "inmem"; }
  Result<std::string> ReadBlock(const std::string& path) override;
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override;
  Result<std::vector<std::string>> List(const std::string& dir) override;
  Status Remove(const std::string& path) override;
  Status CreateDir(const std::string& /*dir*/) override {
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  BackendStats stats() const override { return stats_.snapshot(); }

  /// Objects currently stored (tests).
  size_t num_objects() const;

 private:
  static constexpr size_t kNumShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const std::string>>
        objects;
  };
  Shard& ShardFor(const std::string& path);
  const Shard& ShardFor(const std::string& path) const;

  std::array<Shard, kNumShards> shards_;
  internal::AtomicBackendStats stats_;
};

std::shared_ptr<StorageBackend> MakePosixBackend();
std::shared_ptr<StorageBackend> MakeInMemoryBackend();

/// Process-wide PosixFileBackend used by the legacy path-based helpers
/// (WriteBlockFile / ReadBlockFile) and by components constructed
/// without an explicit backend.
StorageBackend* DefaultPosixBackend();

}  // namespace oreo

#endif  // OREO_STORAGE_BACKEND_H_
