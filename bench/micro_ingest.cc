// Micro-benchmark for the live-ingest subsystem:
//
//   1. Sustained ingest: mutation batches (appends plus periodic predicate
//      deletes) stream into an engine with no query traffic, measuring
//      rows/second through the full path — validation, delete kernels,
//      delta-chunk publication, drift-tracking sample refresh, and the
//      compaction folds the schedule triggers. At EVERY batch boundary the
//      harness hard-checks the mutation-log invariant
//        visible_rows == base_rows + total_appended - total_deleted
//      (OREO_CHECK aborts the run on violation — the numbers are only
//      published if the accounting is exact at all times).
//
//   2. Ingest/query interleaving: the same mutation schedule with query
//      traffic between batches, measuring query throughput while the data
//      mutates underneath (the live-cost path: zone-map pruning over delta
//      chunks on every candidate-state evaluation) and ingest throughput
//      under concurrent decision-making. The boundary invariant is checked
//      at every batch here too.
//
// Emits a JSON document (schema documented in docs/BENCHMARKS.md) so the
// perf trajectory can be recorded run over run.
//
// Flags: --rows=N --batch-rows=N --batches=N --queries=N --seed=N
//        --out=path.json (default: BENCH_ingest.json in the working
//        directory; run from the repo root to land it next to the other
//        BENCH_*.json files)
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"

namespace oreo {
namespace bench {
namespace {

Table MakeIngestTable(size_t rows, int64_t ts_base, uint64_t seed) {
  Table t(Schema({{"ts", DataType::kInt64},
                  {"qty", DataType::kInt64},
                  {"cat", DataType::kString}}));
  Rng rng(seed);
  const char* cats[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < rows; ++i) {
    t.AppendRow({Value(ts_base + static_cast<int64_t>(i)),
                 Value(rng.UniformInt(0, 100000)),
                 Value(cats[rng.Uniform(4)])});
  }
  return t;
}

// Batch b (1-based): batch_rows fresh rows with ts continuing past
// everything appended so far, plus (every third batch) a qty-band purge of
// the rows visible before the batch.
core::IngestBatch ScheduledBatch(size_t b, size_t batch_rows, size_t base_rows,
                                 uint64_t seed) {
  core::IngestBatch batch;
  batch.rows = MakeIngestTable(
      batch_rows, static_cast<int64_t>(base_rows + b * batch_rows),
      seed * 131 + b);
  if (b % 3 == 0) {
    const int64_t lo = static_cast<int64_t>(b) * 3700 % 90000;
    Query purge;
    purge.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 2000))};
    batch.deletes.push_back(std::move(purge));
  }
  return batch;
}

std::vector<Query> MakeQueryStream(size_t n, size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> out;
  for (size_t i = 0; i < n; ++i) {
    Query q;
    q.id = static_cast<int64_t>(i);
    if (i % 8 != 0) {
      int64_t width = static_cast<int64_t>(rows) / 100;
      int64_t lo = rng.UniformInt(0, static_cast<int64_t>(rows) - width);
      q.conjuncts = {Predicate::Between(0, Value(lo), Value(lo + width))};
    } else {
      int64_t lo = rng.UniformInt(0, 90000);
      q.conjuncts = {Predicate::Between(1, Value(lo), Value(lo + 10000))};
    }
    out.push_back(std::move(q));
  }
  return out;
}

core::OreoOptions IngestEngineOptions(uint64_t seed) {
  core::OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = 2;
  opts.window_size = 200;
  opts.generate_every = 200;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// The invariant hard-checked at every batch boundary: what the mutation log
// says is visible must equal base + appended - deleted, exactly, forever.
void CheckBoundaryInvariant(const core::IngestResult& r, size_t base_rows,
                            uint64_t total_appended, uint64_t total_deleted,
                            size_t* checks) {
  OREO_CHECK_EQ(r.visible_rows,
                static_cast<uint64_t>(base_rows) + total_appended -
                    total_deleted)
      << "batch-boundary invariant broken at version " << r.version;
  ++(*checks);
}

struct IngestOnlyRun {
  size_t batches = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_deleted = 0;
  uint64_t folds = 0;
  uint64_t visible_rows = 0;
  size_t invariant_checks = 0;
  double seconds = 0.0;
  double rows_per_second = 0.0;
};

IngestOnlyRun RunIngestOnly(const Table& table, LayoutGenerator* gen,
                            size_t batches, size_t batch_rows, uint64_t seed) {
  auto engine =
      core::MakeEngine(&table, gen, /*time_column=*/0,
                       IngestEngineOptions(seed));
  IngestOnlyRun r;
  r.batches = batches;
  Stopwatch sw;
  for (size_t b = 1; b <= batches; ++b) {
    Result<core::IngestResult> applied = engine->Ingest(
        ScheduledBatch(b, batch_rows, table.num_rows(), seed));
    OREO_CHECK(applied.ok()) << applied.status().ToString();
    r.rows_appended += applied->rows_appended;
    r.rows_deleted += applied->rows_deleted;
    if (applied->folded) ++r.folds;
    CheckBoundaryInvariant(*applied, table.num_rows(), r.rows_appended,
                           r.rows_deleted, &r.invariant_checks);
    r.visible_rows = applied->visible_rows;
  }
  r.seconds = sw.ElapsedSeconds();
  r.rows_per_second =
      r.seconds > 0 ? static_cast<double>(r.rows_appended) / r.seconds : 0.0;
  OREO_CHECK_EQ(r.invariant_checks, batches);
  return r;
}

struct InterleavedRun {
  size_t queries = 0;
  size_t ingest_batches = 0;
  uint64_t rows_appended = 0;
  uint64_t rows_deleted = 0;
  uint64_t folds = 0;
  uint64_t visible_rows = 0;
  size_t invariant_checks = 0;
  int64_t num_switches = 0;
  double mean_query_cost = 0.0;
  double query_seconds = 0.0;   // time inside Step calls
  double ingest_seconds = 0.0;  // time inside Ingest calls
  double queries_per_second = 0.0;
  double ingest_rows_per_second = 0.0;
};

InterleavedRun RunInterleaved(const Table& table, LayoutGenerator* gen,
                              size_t queries, size_t batches,
                              size_t batch_rows, uint64_t seed) {
  auto engine = core::MakeEngine(&table, gen, /*time_column=*/0,
                                 IngestEngineOptions(seed + 1));
  std::vector<Query> stream =
      MakeQueryStream(queries, table.num_rows(), seed + 23);
  const size_t ingest_every = queries / (batches + 1);
  OREO_CHECK_GT(ingest_every, 0u) << "--queries too small for --batches";

  InterleavedRun r;
  r.queries = queries;
  double total_cost = 0.0;
  Stopwatch sw;
  for (size_t qi = 0; qi < stream.size(); ++qi) {
    if (qi > 0 && qi % ingest_every == 0 && r.ingest_batches < batches) {
      const size_t b = ++r.ingest_batches;
      sw.Restart();
      Result<core::IngestResult> applied = engine->Ingest(
          ScheduledBatch(b, batch_rows, table.num_rows(), seed + 1));
      r.ingest_seconds += sw.ElapsedSeconds();
      OREO_CHECK(applied.ok()) << applied.status().ToString();
      r.rows_appended += applied->rows_appended;
      r.rows_deleted += applied->rows_deleted;
      if (applied->folded) ++r.folds;
      CheckBoundaryInvariant(*applied, table.num_rows(), r.rows_appended,
                             r.rows_deleted, &r.invariant_checks);
      r.visible_rows = applied->visible_rows;
    }
    sw.Restart();
    core::StepResult step = engine->Step(stream[qi]);
    r.query_seconds += sw.ElapsedSeconds();
    total_cost += step.query_cost;
  }
  r.num_switches = engine->num_switches();
  r.mean_query_cost = total_cost / static_cast<double>(queries);
  r.queries_per_second =
      r.query_seconds > 0 ? static_cast<double>(queries) / r.query_seconds
                          : 0.0;
  r.ingest_rows_per_second =
      r.ingest_seconds > 0
          ? static_cast<double>(r.rows_appended) / r.ingest_seconds
          : 0.0;
  OREO_CHECK_EQ(r.invariant_checks, r.ingest_batches);
  OREO_CHECK_EQ(r.ingest_batches, batches) << "schedule never completed";
  return r;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 50000));
  const size_t batch_rows =
      static_cast<size_t>(flags.GetInt("batch-rows", 2000));
  const size_t batches = static_cast<size_t>(flags.GetInt("batches", 12));
  const size_t queries = static_cast<size_t>(flags.GetInt("queries", 4000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  std::fprintf(stderr, "micro_ingest: rows=%zu batch_rows=%zu batches=%zu\n",
               rows, batch_rows, batches);

  Table table = MakeIngestTable(rows, 0, seed);
  QdTreeGenerator generator;

  // Part 1 — sustained ingest, no query traffic.
  IngestOnlyRun io = RunIngestOnly(table, &generator, batches, batch_rows,
                                   seed);
  std::fprintf(stderr,
               "  ingest-only: %.0f rows/s (+%llu -%llu, %llu folds, "
               "%llu visible, %zu boundary checks)\n",
               io.rows_per_second,
               static_cast<unsigned long long>(io.rows_appended),
               static_cast<unsigned long long>(io.rows_deleted),
               static_cast<unsigned long long>(io.folds),
               static_cast<unsigned long long>(io.visible_rows),
               io.invariant_checks);

  // Part 2 — queries stream while the data mutates underneath.
  InterleavedRun il = RunInterleaved(table, &generator, queries, batches,
                                     batch_rows, seed);
  std::fprintf(stderr,
               "  interleaved: %.0f q/s, %.0f ingest rows/s, mean cost %.4f, "
               "%lld switches, %llu folds\n",
               il.queries_per_second, il.ingest_rows_per_second,
               il.mean_query_cost, static_cast<long long>(il.num_switches),
               static_cast<unsigned long long>(il.folds));

  // JSON emission (stable key order).
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"micro_ingest\",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"batch_rows\": " << batch_rows << ",\n"
       << "  \"batches\": " << batches << ",\n"
       << "  \"ingest_only\": ";
  {
    char buf[400];
    std::snprintf(
        buf, sizeof(buf),
        "{\"rows_appended\": %llu, \"rows_deleted\": %llu, \"folds\": %llu, "
        "\"visible_rows\": %llu, \"invariant_checks\": %zu, "
        "\"seconds\": %.6f, \"rows_per_second\": %.2f},\n",
        static_cast<unsigned long long>(io.rows_appended),
        static_cast<unsigned long long>(io.rows_deleted),
        static_cast<unsigned long long>(io.folds),
        static_cast<unsigned long long>(io.visible_rows),
        io.invariant_checks, io.seconds, io.rows_per_second);
    json << buf;
  }
  json << "  \"interleaved\": ";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"queries\": %zu, \"ingest_batches\": %zu, "
        "\"rows_appended\": %llu, \"rows_deleted\": %llu, \"folds\": %llu, "
        "\"visible_rows\": %llu, \"invariant_checks\": %zu, "
        "\"num_switches\": %lld, \"mean_query_cost\": %.6f, "
        "\"query_seconds\": %.6f, \"ingest_seconds\": %.6f, "
        "\"queries_per_second\": %.2f, \"ingest_rows_per_second\": %.2f}\n",
        il.queries, il.ingest_batches,
        static_cast<unsigned long long>(il.rows_appended),
        static_cast<unsigned long long>(il.rows_deleted),
        static_cast<unsigned long long>(il.folds),
        static_cast<unsigned long long>(il.visible_rows),
        il.invariant_checks, static_cast<long long>(il.num_switches),
        il.mean_query_cost, il.query_seconds, il.ingest_seconds,
        il.queries_per_second, il.ingest_rows_per_second);
    json << buf;
  }
  json << "}\n";

  EmitBenchJson(flags, "ingest", json.str());
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
