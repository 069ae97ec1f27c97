#include "core/physical.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "query/kernels.h"
#include "storage/block.h"

namespace oreo {
namespace core {

namespace {

// Returns the first (lowest-index) non-OK status of a parallel stage, so
// the reported error does not depend on task scheduling.
Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

// Best-effort removal for failure-path cleanup and garbage reclamation.
// A flaky backend may answer NotFound (a doomed write that never published,
// or a remove whose earlier attempt already won) or a transient IoError;
// cleanup absorbs both so the ORIGINAL failure — the write error that
// aborted the operation — is what the caller sees, never a secondary
// cleanup status. Empty entries (slots whose write never happened) are
// skipped.
void BestEffortRemoveAll(StorageBackend* backend,
                         const std::vector<std::string>& paths) {
  for (const std::string& path : paths) {
    if (path.empty()) continue;
    backend->Remove(path).ok();  // NotFound / IoError intentionally ignored
  }
}

}  // namespace

PhysicalStore::PhysicalStore(std::string dir, size_t num_threads,
                             std::shared_ptr<StorageBackend> backend)
    : dir_(std::move(dir)),
      backend_(backend != nullptr ? std::move(backend) : MakePosixBackend()),
      prefetcher_(dynamic_cast<BlockPrefetcher*>(backend_.get())),
      pool_(std::make_unique<ThreadPool>(num_threads)) {
  Status st = backend_->CreateDir(dir_);
  OREO_CHECK(st.ok()) << st.ToString();
}

std::string PhysicalStore::PartitionPath(size_t epoch, size_t pid) const {
  return dir_ + "/part_e" + std::to_string(epoch) + "_p" +
         std::to_string(pid) + ".blk";
}

void PhysicalStore::DeleteCurrentFiles() {
  BestEffortRemoveAll(backend_.get(), files_);
  files_.clear();
  file_bytes_.clear();
}

Result<PhysicalStore::Timing> PhysicalStore::MaterializeLayout(
    const Table& table, const LayoutInstance& instance) {
  // Full (re)initialization: not safe against concurrent snapshot readers;
  // use Reorganize for live layout changes.
  DeleteCurrentFiles();
  Vacuum();
  ++epoch_;
  Timing timing;
  Stopwatch sw;
  const Partitioning& parts = instance.partitioning();
  const size_t n = parts.num_partitions();
  // Parallel fan-out: each partition compresses and writes its own file, so
  // tasks touch disjoint outputs; the byte totals are reduced in pid order.
  std::vector<std::string> new_files(n);
  std::vector<uint64_t> new_bytes(n);
  std::vector<Status> statuses(n);
  const size_t epoch = epoch_;
  pool_->ParallelFor(n, [&](size_t pid) {
    Table part = table.Take(parts.partitions[pid]);
    std::string path = PartitionPath(epoch, pid);
    Result<uint64_t> bytes =
        WriteBlockTo(backend_.get(), path, part, /*sync=*/true);
    if (!bytes.ok()) {
      statuses[pid] = bytes.status();
      return;
    }
    new_files[pid] = path;
    new_bytes[pid] = *bytes;
  });
  {
    // Partial-write cleanup: a failed materialization must not leave the
    // successfully written sibling partitions behind as orphans, and the
    // removals are best-effort — the write error is returned, never masked
    // by a cleanup status. The old files were already deleted on entry, so
    // the store is left explicitly empty rather than pointing at a
    // vanished instance.
    Status first = FirstError(statuses);
    if (!first.ok()) {
      BestEffortRemoveAll(backend_.get(), new_files);
      std::lock_guard<std::mutex> lock(mu_);
      instance_ = nullptr;
      schema_ = Schema();
      return first;
    }
  }
  for (size_t pid = 0; pid < n; ++pid) {
    timing.bytes += new_bytes[pid];
    ++timing.partitions;
  }
  timing.seconds = sw.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    files_ = std::move(new_files);
    file_bytes_ = std::move(new_bytes);
    instance_ = &instance;
    schema_ = table.schema();
  }
  return timing;
}

PhysicalStore::Snapshot PhysicalStore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.instance = instance_;
  snap.schema = schema_;
  snap.files = files_;
  snap.file_bytes = file_bytes_;
  return snap;
}

Result<PhysicalStore::QueryExec> PhysicalStore::ExecuteQuery(
    const Query& query) {
  OREO_ASSIGN_OR_RETURN(BatchExec batch,
                        ExecuteQueryBatchOnSnapshot(GetSnapshot(), {query}));
  QueryExec exec = batch.per_query.front();
  exec.seconds = batch.seconds;
  return exec;
}

Result<PhysicalStore::BatchExec> PhysicalStore::ExecuteQueryBatch(
    const std::vector<Query>& queries) {
  return ExecuteQueryBatchOnSnapshot(GetSnapshot(), queries);
}

Result<PhysicalStore::BatchExec> PhysicalStore::ExecuteQueryBatchOnSnapshot(
    const Snapshot& snapshot, const std::vector<Query>& queries,
    const LiveScanView* live) const {
  OREO_CHECK(snapshot.instance != nullptr) << "no layout materialized";
  BatchExec batch;
  Stopwatch sw;
  const Partitioning& parts = snapshot.instance->partitioning();
  const bool masked = live != nullptr && !live->partition_masks.empty();
  if (masked) {
    OREO_CHECK_EQ(live->partition_masks.size(), parts.num_partitions())
        << "live view does not match the snapshot's partitioning";
  }
  const size_t num_fields = snapshot.schema.num_fields();

  // Serial zone-map pruning in stream order (metadata only), so the
  // (query, surviving partition) pairs never depend on the pool. Pair slots
  // are numbered in flat (query, pid) order; each partition collects the
  // (query, slot) pairs that survive on it, in stream order.
  std::vector<std::vector<uint32_t>> survivors(queries.size());
  std::vector<std::vector<std::pair<size_t, size_t>>> pairs_of(
      parts.num_partitions());
  size_t num_pairs = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (const Predicate& p : queries[qi].conjuncts) {
      OREO_CHECK(p.column >= 0 && static_cast<size_t>(p.column) < num_fields);
    }
    survivors[qi] = PartitionsToRead(parts, queries[qi]);
    for (uint32_t pid : survivors[qi]) {
      pairs_of[pid].emplace_back(qi, num_pairs++);
    }
  }
  // One scan task per distinct surviving partition, ascending pid.
  std::vector<uint32_t> tasks;
  for (uint32_t pid = 0; pid < pairs_of.size(); ++pid) {
    if (!pairs_of[pid].empty()) tasks.push_back(pid);
  }

  // Async prefetch tier: the pool claims the lowest-pid task first, so its
  // demand fetch is imminent; warm every later task's file meanwhile.
  // Advisory only: counters and results are identical with prefetch off.
  if (prefetcher_ != nullptr) {
    for (size_t t = 1; t < tasks.size(); ++t) {
      prefetcher_->StartPrefetch(snapshot.files[tasks[t]]);
    }
  }

  // Shared scan: each task reads (and CRC-checks) its block once, decodes
  // the union of the columns its queries reference — every column if one of
  // them is conjunct-free, e.g. the paper's Table I full-table scan — and
  // evaluates each of its queries against the one decoded table. The block
  // reader returns columns in block (schema) order, so each query's
  // predicates are remapped to their column's rank among the decoded ones.
  // Every task writes only its own pairs' slots.
  std::vector<uint64_t> matches(num_pairs);
  std::vector<Status> statuses(num_pairs);
  pool_->ParallelFor(tasks.size(), [&](size_t t) {
    const uint32_t pid = tasks[t];
    const std::vector<std::pair<size_t, size_t>>& pairs = pairs_of[pid];
    std::vector<bool> referenced(num_fields, false);
    bool all_columns = false;
    for (const auto& [qi, slot] : pairs) {
      all_columns |= queries[qi].conjuncts.empty();
      for (const Predicate& p : queries[qi].conjuncts) {
        referenced[static_cast<size_t>(p.column)] = true;
      }
    }
    std::vector<std::string> needed;
    std::vector<int> position(num_fields, -1);
    for (size_t col = 0; col < num_fields; ++col) {
      if (!all_columns && !referenced[col]) continue;
      position[col] = static_cast<int>(needed.size());
      needed.push_back(snapshot.schema.field(col).name);
    }
    BlockReadOptions read_opts;
    if (!all_columns) read_opts.columns = &needed;
    Result<Table> part =
        ReadBlockFrom(backend_.get(), snapshot.files[pid], read_opts);
    if (!part.ok()) {
      for (const auto& [qi, slot] : pairs) statuses[slot] = part.status();
      return;
    }
    Query projected;
    for (const auto& [qi, slot] : pairs) {
      projected.conjuncts = queries[qi].conjuncts;
      for (Predicate& p : projected.conjuncts) {
        p.column = position[static_cast<size_t>(p.column)];
      }
      if (masked) {
        // Tombstone-respecting count: the partition's live mask word-ANDs
        // the query bitmap (conjunct-free queries count the mask directly).
        matches[slot] = KernelCountMatchesMasked(*part, projected,
                                                 live->partition_masks[pid]);
      } else if (projected.conjuncts.empty()) {
        matches[slot] = part->num_rows();
      } else {
        // Vectorized predicate kernels (query/kernels.h): each projected
        // column is touched once per conjunct as a flat array, not
        // dereferenced per row.
        matches[slot] = CountMatches(*part, projected);
      }
    }
  });
  // Slots are in flat (stream order, partition order) order, so the first
  // error reported equals the one the per-query path would have returned.
  OREO_RETURN_NOT_OK(FirstError(statuses));

  // Serial reduction in stream order, partitions in pid order within each
  // query — the exact sequence a one-at-a-time execution accumulates.
  batch.per_query.resize(queries.size());
  size_t slot = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    QueryExec& exec = batch.per_query[qi];
    for (uint32_t pid : survivors[qi]) {
      ++exec.partitions_read;
      exec.bytes_read += snapshot.file_bytes[pid];
      exec.rows_scanned += parts.zones[pid].num_rows;
      exec.matches += matches[slot++];
    }
    if (live != nullptr) {
      // Delta chunks after the base partitions, serially in chunk order:
      // in-memory scans bounded by the engine's fold threshold, so the
      // serial pass stays cheap and trivially thread-count-invariant. The
      // un-projected query applies — chunks carry the full schema.
      for (const LiveScanView::Delta& delta : live->deltas) {
        if (queries[qi].CanSkipPartition(*delta.zones)) continue;
        exec.rows_scanned += delta.rows->num_rows();
        exec.matches +=
            KernelCountMatchesMasked(*delta.rows, queries[qi], *delta.live);
      }
    }
  }
  batch.seconds = sw.ElapsedSeconds();
  return batch;
}

void PhysicalStore::Vacuum() {
  std::vector<std::string> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victims = std::move(garbage_);
    garbage_.clear();
  }
  BestEffortRemoveAll(backend_.get(), victims);
}

Result<PhysicalStore::Timing> PhysicalStore::Reorganize(
    const Table& table, const LayoutInstance& to) {
  // Runs against a snapshot of the current files; concurrent snapshot
  // readers are unaffected. Only the final swap takes the lock.
  Snapshot source = GetSnapshot();
  OREO_CHECK(source.instance != nullptr) << "no layout materialized";
  Timing timing;
  Stopwatch sw;

  const uint32_t raw_partitions = to.layout().NumPartitionsUpperBound();
  size_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_;
  }

  // Pass 1 — shuffle: read and decompress every current partition, route its
  // rows through the new layout (the "update the BID column" step), and
  // spill one run file per (source, target) pair. Real systems repartition
  // out-of-core exactly like this; the table cannot be assumed to fit in
  // memory. Every run remembers the base row ids of its rows: file row r of
  // source partition src is base row source.partitions[src][r], because
  // every file is written in canonical order. Sources shuffle in parallel:
  // every task writes only spill files named after its own source id and
  // its own result slot; the per-target run lists are then assembled
  // serially in source order, so the merge pass sees the exact run order a
  // serial shuffle would.
  struct SpillRun {
    std::string path;
    std::vector<uint32_t> ids;  // base row ids, ascending
  };
  struct ShuffleResult {
    uint64_t rows = 0;
    std::vector<std::pair<uint32_t, SpillRun>> runs;  // (target, run)
    Status status;
  };
  const Partitioning& source_parts = source.instance->partitioning();
  std::vector<ShuffleResult> shuffled(source.files.size());
  pool_->ParallelFor(source.files.size(), [&](size_t src) {
    ShuffleResult& out = shuffled[src];
    Result<Table> part = ReadBlockFrom(backend_.get(), source.files[src]);
    if (!part.ok()) {
      out.status = part.status();
      return;
    }
    const std::vector<uint32_t>& base_ids = source_parts.partitions[src];
    OREO_CHECK_EQ(part->num_rows(), base_ids.size())
        << "partition file does not match its snapshot's partitioning";
    out.rows = part->num_rows();
    std::vector<uint32_t> assignment = to.layout().Assign(*part);
    std::vector<std::vector<uint32_t>> rows_per_target(raw_partitions);
    for (uint32_t r = 0; r < assignment.size(); ++r) {
      rows_per_target[assignment[r]].push_back(r);
    }
    for (uint32_t tgt = 0; tgt < raw_partitions; ++tgt) {
      if (rows_per_target[tgt].empty()) continue;
      SpillRun run;
      run.path = dir_ + "/spill_e" + std::to_string(epoch) + "_s" +
                 std::to_string(src) + "_t" + std::to_string(tgt) + ".blk";
      out.status = WriteBlockTo(backend_.get(), run.path,
                                part->Take(rows_per_target[tgt]),
                                /*sync=*/false)
                       .status();
      if (!out.status.ok()) return;
      run.ids.reserve(rows_per_target[tgt].size());
      for (uint32_t r : rows_per_target[tgt]) run.ids.push_back(base_ids[r]);
      out.runs.emplace_back(tgt, std::move(run));
    }
  });
  // Partial-write cleanup on shuffle failure: drop every spill run written
  // so far; the source layout is untouched and keeps serving.
  uint64_t rows_read = 0;
  std::vector<std::vector<SpillRun>> spills(raw_partitions);
  auto spill_paths = [&spills](uint32_t tgt) {
    std::vector<std::string> paths;
    for (const SpillRun& run : spills[tgt]) paths.push_back(run.path);
    return paths;
  };
  {
    Status first;
    for (ShuffleResult& s : shuffled) {
      if (!s.status.ok() && first.ok()) first = s.status;
      rows_read += s.rows;
      for (auto& [tgt, run] : s.runs) spills[tgt].push_back(std::move(run));
    }
    if (!first.ok()) {
      for (uint32_t tgt = 0; tgt < raw_partitions; ++tgt) {
        BestEffortRemoveAll(backend_.get(), spill_paths(tgt));
      }
      return first;
    }
  }
  OREO_CHECK_EQ(rows_read, table.num_rows());

  // Pass 2 — merge: per target partition, read its runs back, merge them
  // into ascending base-row-id order (the canonical order of
  // `to.partitioning()`, which the tombstone masks index by), compress and
  // durably write the final partition file. Raw target ids with no rows are
  // dropped, mirroring BuildPartitioning's compaction, so file order lines
  // up with `to.partitioning()`'s zone maps. The dense pid of every
  // surviving target is known up front, so the merges are independent and
  // fan out across the pool.
  size_t next_epoch = epoch + 1;
  const Partitioning& parts = to.partitioning();
  std::vector<uint32_t> surviving;  // raw target ids with rows, ascending
  for (uint32_t tgt = 0; tgt < raw_partitions; ++tgt) {
    if (!spills[tgt].empty()) surviving.push_back(tgt);
  }
  OREO_CHECK_EQ(surviving.size(), parts.num_partitions())
      << "shuffle partition count diverged from the canonical partitioning";
  std::vector<std::string> new_files(surviving.size());
  std::vector<uint64_t> new_bytes(surviving.size());
  std::vector<Status> statuses(surviving.size());
  pool_->ParallelFor(surviving.size(), [&](size_t pid) {
    // The first run seeds the merged table, string dictionary included:
    // every block carries its table's whole dictionary (Take shares it), so
    // the later runs append into the same codes and the file bytes match a
    // fresh materialization.
    std::optional<Table> merged;
    std::vector<uint32_t> ids;
    for (const SpillRun& spill : spills[surviving[pid]]) {
      Result<Table> run = ReadBlockFrom(backend_.get(), spill.path);
      if (!run.ok()) {
        statuses[pid] = run.status();
        return;
      }
      if (merged.has_value()) {
        merged->Append(*run);
      } else {
        merged = std::move(*run);
      }
      ids.insert(ids.end(), spill.ids.begin(), spill.ids.end());
    }
    // Runs are each ascending; they interleave unless every source
    // partition is a range of row ids, so restore the id order.
    if (!std::is_sorted(ids.begin(), ids.end())) {
      std::vector<uint32_t> order(ids.size());
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [&ids](uint32_t a, uint32_t b) { return ids[a] < ids[b]; });
      merged = merged->Take(order);
      std::vector<uint32_t> sorted_ids(ids.size());
      for (size_t i = 0; i < order.size(); ++i) sorted_ids[i] = ids[order[i]];
      ids = std::move(sorted_ids);
    }
    OREO_CHECK(ids == parts.partitions[pid])
        << "shuffle rows diverged from the canonical partitioning";
    std::string path = PartitionPath(next_epoch, pid);
    // Durable write: the swap must not expose a layout that could vanish.
    Result<uint64_t> bytes =
        WriteBlockTo(backend_.get(), path, *merged, /*sync=*/true);
    if (!bytes.ok()) {
      statuses[pid] = bytes.status();
      return;
    }
    new_files[pid] = path;
    new_bytes[pid] = *bytes;
    BestEffortRemoveAll(backend_.get(), spill_paths(surviving[pid]));
  });
  {
    // Partial-write cleanup on merge failure: remove the new-epoch files and
    // every spill run that was not yet reclaimed; the source layout keeps
    // serving untouched.
    Status first = FirstError(statuses);
    if (!first.ok()) {
      for (size_t pid = 0; pid < surviving.size(); ++pid) {
        if (!new_files[pid].empty()) {
          BestEffortRemoveAll(backend_.get(), {new_files[pid]});
        } else {
          BestEffortRemoveAll(backend_.get(), spill_paths(surviving[pid]));
        }
      }
      return first;
    }
  }
  for (size_t pid = 0; pid < new_files.size(); ++pid) {
    timing.bytes += new_bytes[pid];
    ++timing.partitions;
  }
  timing.seconds = sw.ElapsedSeconds();

  // Swap (brief, under the lock): outgoing files become garbage so snapshot
  // readers opened before the swap keep working; Vacuum() reclaims them.
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_ = next_epoch;
    for (std::string& f : files_) garbage_.push_back(std::move(f));
    files_ = std::move(new_files);
    file_bytes_ = std::move(new_bytes);
    instance_ = &to;
  }
  return timing;
}

uint64_t PhysicalStore::MaterializedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t b : file_bytes_) total += b;
  return total;
}

Result<PhysicalReplayResult> ReplayPhysical(
    const Table& table, const StateRegistry& registry, const SimResult& sim,
    const std::vector<Query>& queries, size_t stride, const std::string& dir,
    size_t num_threads, size_t batch_size,
    std::shared_ptr<StorageBackend> backend) {
  OREO_CHECK_EQ(sim.serving_state.size(), queries.size())
      << "simulation must be run with record_trace=true";
  OREO_CHECK_GT(stride, 0u);
  OREO_CHECK_GT(batch_size, 0u);
  PhysicalReplayResult result;
  PhysicalStore store(dir, num_threads, std::move(backend));

  // Sampled queries awaiting execution on the current layout; flushed when
  // full and before every reorganization, so every query runs against the
  // exact layout its trace entry recorded.
  std::vector<Query> pending;
  pending.reserve(batch_size);
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    auto batch = store.ExecuteQueryBatch(pending);
    if (!batch.ok()) return batch.status();
    result.query_seconds += batch->seconds * static_cast<double>(stride);
    for (const PhysicalStore::QueryExec& exec : batch->per_query) {
      ++result.queries_executed;
      result.partitions_read += exec.partitions_read;
      result.matches += exec.matches;
    }
    pending.clear();
    return Status::OK();
  };

  int current = sim.serving_state.empty() ? 0 : sim.serving_state.front();
  {
    // Initial materialization is not part of the measured costs (the system
    // starts with the default layout already on disk).
    auto st = store.MaterializeLayout(table, registry.Get(current));
    if (!st.ok()) return st.status();
  }
  for (size_t t = 0; t < queries.size(); ++t) {
    int state = sim.serving_state[t];
    if (state != current) {
      OREO_RETURN_NOT_OK(flush());
      OREO_ASSIGN_OR_RETURN(PhysicalStore::Timing timing,
                            store.Reorganize(table, registry.Get(state)));
      store.Vacuum();  // replay is single-threaded: no snapshot readers
      result.reorg_seconds += timing.seconds;
      ++result.num_switches;
      current = state;
    }
    if (t % stride == 0) {
      pending.push_back(queries[t]);
      if (pending.size() >= batch_size) OREO_RETURN_NOT_OK(flush());
    }
  }
  OREO_RETURN_NOT_OK(flush());
  return result;
}

}  // namespace core
}  // namespace oreo
