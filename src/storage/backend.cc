#include "storage/backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <utility>

namespace oreo {

namespace fs = std::filesystem;

// ----------------------------------------------------------- posix -------

Result<std::string> PosixFileBackend::ReadBlock(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::string data(static_cast<size_t>(size), '\0');
  in.read(data.data(), size);
  if (!in) return Status::IoError("read failed: " + path);
  stats_.RecordRead(data.size());
  return data;
}

Status PosixFileBackend::AtomicWriteBlock(const std::string& path,
                                          const std::string& data,
                                          bool sync) {
  // Write-to-temp then rename: a reader of `path` sees the old bytes or the
  // complete new bytes, never a torn prefix (same publish protocol the
  // metadata writer has always used). The temp name is unique per call so
  // the contract's last-wins concurrent same-path writers cannot interleave
  // inside one temp file.
  static std::atomic<uint64_t> temp_counter{0};
  const std::string tmp = path + ".oreotmp" +
                          std::to_string(temp_counter.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError("cannot open for write: " + tmp);
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (sync && ::fdatasync(fd) != 0) {
    ::close(fd);
    std::remove(tmp.c_str());
    return Status::IoError("fdatasync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  stats_.RecordWrite(data.size());
  return Status::OK();
}

Result<std::vector<std::string>> PosixFileBackend::List(
    const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec), end;
  if (ec) return paths;  // a missing directory holds no objects
  for (; it != end; it.increment(ec)) {
    if (ec) return Status::IoError("list failed: " + dir + ": " + ec.message());
    if (!it->is_regular_file(ec) || ec) continue;
    std::string path = it->path().string();
    // Unpublished temp files are not objects.
    if (path.find(".oreotmp") != std::string::npos) continue;
    paths.push_back(std::move(path));
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Status PosixFileBackend::Remove(const std::string& path) {
  std::error_code ec;
  bool removed = fs::remove(path, ec);
  if (ec) return Status::IoError("remove failed: " + path + ": " + ec.message());
  if (!removed) return Status::NotFound("no such object: " + path);
  stats_.RecordRemove();
  return Status::OK();
}

Status PosixFileBackend::CreateDir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + dir + ": " + ec.message());
  }
  return Status::OK();
}

// ----------------------------------------------------------- in-memory ---

InMemoryBackend::Shard& InMemoryBackend::ShardFor(const std::string& path) {
  return shards_[std::hash<std::string>{}(path) % kNumShards];
}

const InMemoryBackend::Shard& InMemoryBackend::ShardFor(
    const std::string& path) const {
  return shards_[std::hash<std::string>{}(path) % kNumShards];
}

Result<std::string> InMemoryBackend::ReadBlock(const std::string& path) {
  std::shared_ptr<const std::string> data;
  {
    Shard& shard = ShardFor(path);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.objects.find(path);
    if (it == shard.objects.end()) {
      return Status::IoError("cannot open for read: " + path);
    }
    data = it->second;
  }
  stats_.RecordRead(data->size());
  return std::string(*data);
}

Status InMemoryBackend::AtomicWriteBlock(const std::string& path,
                                         const std::string& data,
                                         bool /*sync*/) {
  auto obj = std::make_shared<const std::string>(data);
  {
    Shard& shard = ShardFor(path);
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.objects[path] = std::move(obj);  // whole-object swap: atomic
  }
  stats_.RecordWrite(data.size());
  return Status::OK();
}

Result<std::vector<std::string>> InMemoryBackend::List(
    const std::string& dir) {
  const std::string prefix = dir + "/";
  std::vector<std::string> paths;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [path, data] : shard.objects) {
      if (path.compare(0, prefix.size(), prefix) == 0) paths.push_back(path);
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

Status InMemoryBackend::Remove(const std::string& path) {
  {
    Shard& shard = ShardFor(path);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.objects.erase(path) == 0) {
      return Status::NotFound("no such object: " + path);
    }
  }
  stats_.RecordRemove();
  return Status::OK();
}

size_t InMemoryBackend::num_objects() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.objects.size();
  }
  return total;
}

// ----------------------------------------------------------- factories ---

std::shared_ptr<StorageBackend> MakePosixBackend() {
  return std::make_shared<PosixFileBackend>();
}

std::shared_ptr<StorageBackend> MakeInMemoryBackend() {
  return std::make_shared<InMemoryBackend>();
}

StorageBackend* DefaultPosixBackend() {
  static PosixFileBackend* backend = new PosixFileBackend();
  return backend;
}

}  // namespace oreo
