// Shared test fixtures. The seed suites grew identical copies of
// TestSchema()/MakeTable() and friends; the canonical versions live here.
// The table-building helpers are seed-stable: identical (rows, seed) inputs
// must keep producing bit-identical tables, because many suites pin
// expectations to the data these generate.
#ifndef OREO_TESTS_TEST_UTIL_H_
#define OREO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/background.h"
#include "core/physical.h"
#include "layout/layout.h"
#include "layout/sorted_layout.h"
#include "query/query.h"
#include "storage/backend.h"
#include "storage/table.h"

namespace oreo {
namespace testutil {

// Pins the process-wide kernel mode for one scope, restoring kAuto on exit.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(simd::KernelMode m) { simd::SetGlobalKernelMode(m); }
  ~ScopedKernelMode() { simd::SetGlobalKernelMode(simd::KernelMode::kAuto); }
};

// 3-column table (int64, double, string) with adversarial values mixed into
// a random base distribution: INT64_MIN/MAX, NaN, ±inf, ±0.0, ±1e308, the
// empty string and a non-ASCII one.
inline Table MakeAdversarialTable(size_t n, uint64_t seed) {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
  Table t(schema);
  Rng rng(seed);
  const std::vector<int64_t> int_specials = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      0, -1, 1};
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> dbl_specials = {
      std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0.0, -0.0,
      1e308, -1e308};
  const std::vector<std::string> cats = {"", "a", "aa", "ab", "b",
                                         "zebra", "\x7f\x01"};
  for (size_t r = 0; r < n; ++r) {
    int64_t i = rng.Bernoulli(0.1)
                    ? int_specials[rng.Uniform(int_specials.size())]
                    : rng.UniformInt(-100, 100);
    double d = rng.Bernoulli(0.1)
                   ? dbl_specials[rng.Uniform(dbl_specials.size())]
                   : rng.UniformDouble(-50.0, 50.0);
    const std::string& s = cats[rng.Uniform(cats.size())];
    t.AppendRow({Value(i), Value(d), Value(s)});
  }
  return t;
}

// {ts, qty, cat} — event stream used by the core / physical / integration
// style suites: ts is arrival order, qty uniform in [0, 1000], 4 categories.
inline Schema EventSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"qty", DataType::kInt64},
                 {"cat", DataType::kString}});
}

inline Table MakeEventTable(size_t rows, uint64_t seed) {
  Table t(EventSchema());
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 1000)), Value(cats[rng.Uniform(4)])});
  }
  return t;
}

// {ts, qty, price, cat} — the wider variant the layout suite exercises
// (adds a double column and six categories).
inline Schema WideEventSchema() {
  return Schema({{"ts", DataType::kInt64},
                 {"qty", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"cat", DataType::kString}});
}

inline Table MakeWideEventTable(size_t rows, uint64_t seed) {
  Table t(WideEventSchema());
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d", "e", "f"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i)),  // ts: arrival order
                 Value(rng.UniformInt(0, 1000)),
                 Value(rng.UniformDouble(0, 100)),
                 Value(cats[rng.Uniform(6)])});
  }
  return t;
}

// {id, ts, score, tag} — block-format suite: ts is sorted so the serializer
// picks delta encoding, id spans negatives, tag has a tiny dictionary.
inline Schema BlockSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"ts", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"tag", DataType::kString}});
}

inline Table MakeBlockTable(size_t rows, uint64_t seed) {
  Table t(BlockSchema());
  Rng rng(seed);
  const char* tags[] = {"red", "green", "blue"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(rng.UniformInt(-1000, 1000))),
                 Value(static_cast<int64_t>(i)),  // sorted -> delta encoding
                 Value(rng.UniformDouble(-1, 1)),
                 Value(tags[rng.Uniform(3)])});
  }
  return t;
}

// {qty, price, region} — query suite's sales-style table.
inline Schema SalesSchema() {
  return Schema({{"qty", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"region", DataType::kString}});
}

inline Table MakeSalesTable(size_t rows, uint64_t seed) {
  Table t(SalesSchema());
  Rng rng(seed);
  const char* regions[] = {"asia", "europe", "america", "africa", "oceania"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(rng.UniformInt(0, 100)),
                 Value(rng.UniformDouble(0.0, 50.0)),
                 Value(regions[rng.Uniform(5)])});
  }
  return t;
}

// {id, score, tag} — storage suite's hand-written 4-row table.
inline Schema IdScoreTagSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"score", DataType::kDouble},
                 {"tag", DataType::kString}});
}

inline Table SmallIdScoreTagTable() {
  Table t(IdScoreTagSchema());
  t.AppendRow({Value(int64_t{1}), Value(0.5), Value("a")});
  t.AppendRow({Value(int64_t{5}), Value(1.5), Value("b")});
  t.AppendRow({Value(int64_t{3}), Value(-2.0), Value("a")});
  t.AppendRow({Value(int64_t{9}), Value(0.0), Value("c")});
  return t;
}

// Materializes a single-column sort layout generated from a 300-row sample.
// `sample_seed` feeds the sampling Rng; suites pin different seeds, so it is
// part of the fixture contract.
inline LayoutInstance MakeSortedInstance(const Table& t, int column,
                                         uint32_t k, const std::string& name,
                                         uint64_t sample_seed) {
  Rng rng(sample_seed);
  Table sample = t.SampleRows(300, &rng);
  SortLayoutGenerator gen(column);
  return Materialize(
      name, std::shared_ptr<const Layout>(gen.Generate(sample, {}, k)), t);
}

// n BETWEEN-range queries of fixed `width` over [0, domain) on `column`.
// When `assign_ids` is set, query i gets id i (the core suite relies on it).
inline std::vector<Query> MakeRangeWorkload(int column, int64_t domain,
                                            int64_t width, size_t n,
                                            uint64_t seed,
                                            bool assign_ids = false) {
  Rng rng(seed);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    if (assign_ids) q.id = static_cast<int64_t>(i);
    int64_t lo = rng.UniformInt(0, domain - width);
    q.conjuncts = {Predicate::Between(column, Value(lo), Value(lo + width))};
    out.push_back(std::move(q));
  }
  return out;
}

inline void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema().Equals(b.schema()));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    for (uint32_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_TRUE(a.column(c).GetValue(r) == b.column(c).GetValue(r))
          << "col " << c << " row " << r;
    }
  }
}

// Fresh scratch directory under the system temp dir; removes any leftover
// from a previous run so tests start clean.
inline std::string ScratchDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("oreo_" + tag)).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Storage backend selected by the OREO_TEST_BACKEND environment variable
// ("posix" or "inmem"); `def` names the suite's default when the variable is
// unset. Storage-level suites default to "posix" (they test the real file
// path); the heavy equivalence walls default to "inmem" (bit-identical
// bytes, no disk). CI runs both sides of the matrix.
inline std::string TestBackendName(const std::string& def = "posix") {
  const char* env = std::getenv("OREO_TEST_BACKEND");
  return (env != nullptr && *env != '\0') ? std::string(env) : def;
}

inline std::shared_ptr<StorageBackend> TestBackend(
    const std::string& def = "posix") {
  const std::string name = TestBackendName(def);
  if (name == "inmem") return MakeInMemoryBackend();
  if (name == "posix") return MakePosixBackend();
  ADD_FAILURE() << "unknown OREO_TEST_BACKEND value: " << name;
  return MakePosixBackend();
}

// Test double: forwards to a wrapped backend but fails every write whose
// path contains `fail_substring`, from the Nth on (or from Arm()), until
// Heal(), and every read of a path named by FailReadsOf().
class FaultInjectionBackend : public StorageBackend {
 public:
  FaultInjectionBackend(std::shared_ptr<StorageBackend> base,
                        std::string fail_substring, int64_t fail_after)
      : base_(std::move(base)),
        fail_substring_(std::move(fail_substring)),
        remaining_(fail_after) {}

  std::string name() const override { return "fault(" + base_->name() + ")"; }
  Result<std::string> ReadBlock(const std::string& path) override {
    if (failed_reads_.count(path) != 0) {
      return Status::IoError("injected read failure: " + path);
    }
    return base_->ReadBlock(path);
  }
  Status AtomicWriteBlock(const std::string& path, const std::string& data,
                          bool sync) override {
    if (path.find(fail_substring_) != std::string::npos &&
        remaining_.fetch_sub(1) <= 0) {
      return Status::IoError("injected write failure: " + path);
    }
    return base_->AtomicWriteBlock(path, data, sync);
  }
  Result<std::vector<std::string>> List(const std::string& dir) override {
    return base_->List(dir);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status CreateDir(const std::string& dir) override {
    return base_->CreateDir(dir);
  }
  Status Sync() override { return base_->Sync(); }
  BackendStats stats() const override { return base_->stats(); }

  void Heal() { remaining_ = INT64_MAX; }
  /// Fails every matching write from now on.
  void Arm() { remaining_ = 0; }
  /// Fails every read of `path` from now on. Not thread-safe: call it while
  /// no read is in flight.
  void FailReadsOf(const std::string& path) { failed_reads_.insert(path); }

 private:
  std::shared_ptr<StorageBackend> base_;
  std::string fail_substring_;
  std::atomic<int64_t> remaining_;
  std::set<std::string> failed_reads_;
};

// Content fingerprint of one object read through `backend` (0 plus a test
// failure if the object cannot be read): the CRC-32C of its bytes without
// the trailing 4-byte checksum every block file ends with. (A CRC over a
// message followed by its own CRC is the same constant for every message,
// so hashing whole block files would tell no two apart.)
inline uint32_t BackendCrc(StorageBackend& backend, const std::string& path) {
  Result<std::string> data = backend.ReadBlock(path);
  EXPECT_TRUE(data.ok()) << "cannot read " << path << ": "
                         << data.status().ToString();
  if (!data.ok()) return 0;
  const size_t n = data->size() >= sizeof(uint32_t)
                       ? data->size() - sizeof(uint32_t)
                       : data->size();
  return Crc32c(data->data(), n);
}

// CRCs of the store's current partition files, in partition-id order, read
// through the store's own backend (works for posix and in-memory alike).
inline std::vector<uint32_t> PartitionCrcs(const core::PhysicalStore& store) {
  std::vector<uint32_t> crcs;
  for (const std::string& f : store.GetSnapshot().files) {
    crcs.push_back(BackendCrc(*store.backend(), f));
  }
  return crcs;
}

// One query against an explicit snapshot, as a single-query batch.
inline Result<core::PhysicalStore::QueryExec> ScanSnapshot(
    const core::PhysicalStore& store,
    const core::PhysicalStore::Snapshot& snapshot, const Query& query) {
  OREO_ASSIGN_OR_RETURN(core::PhysicalStore::BatchExec batch,
                        store.ExecuteQueryBatchOnSnapshot(snapshot, {query}));
  return batch.per_query.front();
}

// A ReorgPool job rewriting `store` (shard 0) into `target`.
inline core::ReorgPool::Job RewriteJob(
    core::PhysicalStore* store, const Table* table,
    const LayoutInstance* target,
    std::function<void(const Status&)> on_done = nullptr) {
  core::ReorgPool::Job job;
  job.store = store;
  job.table = table;
  job.target = target;
  job.on_done = std::move(on_done);
  return job;
}

// CRCs of every object under `dir`, in sorted path order — the fingerprint
// of a replay's final materialized layout.
inline std::vector<std::pair<std::string, uint32_t>> DirCrcs(
    StorageBackend& backend, const std::string& dir) {
  std::vector<std::pair<std::string, uint32_t>> crcs;
  Result<std::vector<std::string>> paths = backend.List(dir);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  if (!paths.ok()) return crcs;
  for (const std::string& path : *paths) {
    crcs.emplace_back(path, BackendCrc(backend, path));
  }
  return crcs;
}

// Harmonic number H(n) — the paper's competitive bounds are stated as
// 2*H(|S_max|) (Theorem IV.1).
inline double Harmonic(size_t n) {
  double h = 0;
  for (size_t i = 1; i <= n; ++i) h += 1.0 / static_cast<double>(i);
  return h;
}

}  // namespace testutil
}  // namespace oreo

#endif  // OREO_TESTS_TEST_UTIL_H_
