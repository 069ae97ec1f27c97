// Telemetry drift scenario (the paper's SuperCollider use case, SVI-A2),
// now with *data* drift alongside workload drift: an ingestion-log table
// that keeps growing while it is being queried. Demonstrates the streaming
// Step() API together with the live-ingest subsystem — mutation batches
// append fresh log records and tombstone stale ones mid-stream, each batch
// becoming query-visible atomically at its Ingest() boundary, and the
// engine folds the accumulated deltas back into a compact base when the
// mutation debt crosses OreoOptions::fold_threshold.
//
// Run: ./build/examples/telemetry_drift [--queries=N]
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;

namespace {

// Slices `source` into consecutive ingest batches of `rows` rows each,
// wrapping around when the source is exhausted — a stand-in for the live
// collector feed.
Table NextSlice(const Table& source, size_t rows, size_t* cursor) {
  std::vector<uint32_t> ids;
  ids.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    ids.push_back(static_cast<uint32_t>((*cursor + r) % source.num_rows()));
  }
  *cursor = (*cursor + rows) % source.num_rows();
  return source.Take(ids);
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_queries = 12000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--queries=", 0) == 0) num_queries = std::stoul(arg.substr(10));
  }

  std::printf("Loading telemetry table (ingestion-log, 60k rows seeded)...\n");
  workloads::WorkloadDataset ds = workloads::MakeTelemetry(60000, 21);
  // The "live feed": telemetry drawn from a different seed, so the appended
  // rows drift away from the distribution the initial layout was built for.
  workloads::WorkloadDataset feed = workloads::MakeTelemetry(30000, 77);

  workloads::WorkloadOptions wopts;
  wopts.num_queries = num_queries;
  wopts.num_segments = 12;
  wopts.seed = 22;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  QdTreeGenerator generator;
  core::OreoOptions opts;  // paper defaults: alpha=80, eps=0.08, gamma=1
  opts.target_partitions = 24;
  auto oreo = core::MakeEngine(&ds.table, &generator, ds.time_column, opts);

  // Every `kIngestEvery` queries one mutation batch arrives: fresh rows
  // from the feed, and (each fourth batch) a purge of the highest-severity
  // records that were visible before the batch.
  const size_t kIngestEvery = 1500;
  const size_t kIngestRows = 2000;
  size_t feed_cursor = 0;
  uint64_t ingest_batches = 0;
  uint64_t rows_appended = 0, rows_deleted = 0, folds = 0;
  uint64_t visible_rows = ds.table.num_rows();

  std::printf("Streaming %zu queries through OREO (alpha=%.0f, "
              "fold threshold=%.2f), ingesting %zu rows every %zu queries"
              "...\n\n",
              wl.queries.size(), opts.alpha, opts.fold_threshold, kIngestRows,
              kIngestEvery);
  std::printf("%-9s %-18s %s\n", "query#", "event", "detail");

  size_t next_segment = 1;
  double window_cost = 0.0;
  size_t window_n = 0;
  for (const Query& q : wl.queries) {
    // Narrate workload drift as it happens.
    if (next_segment < wl.segment_starts.size() &&
        static_cast<size_t>(q.id) == wl.segment_starts[next_segment]) {
      std::printf("%-9lld %-18s template -> %s\n",
                  static_cast<long long>(q.id), "workload drift",
                  ds.templates[static_cast<size_t>(
                                   wl.segment_templates[next_segment])]
                      .name.c_str());
      ++next_segment;
    }
    // Data drift: one mutation batch per kIngestEvery queries.
    if (q.id > 0 && static_cast<size_t>(q.id) % kIngestEvery == 0) {
      core::IngestBatch batch;
      batch.rows = NextSlice(feed.table, kIngestRows, &feed_cursor);
      if (ingest_batches % 4 == 3) {
        Query purge;
        purge.conjuncts.push_back(
            Predicate::Ge(/*severity=*/7, Value(int64_t{4})));
        batch.deletes.push_back(std::move(purge));
      }
      Result<core::IngestResult> applied = oreo->Ingest(std::move(batch));
      OREO_CHECK_OK(applied.status());
      ++ingest_batches;
      rows_appended += applied->rows_appended;
      rows_deleted += applied->rows_deleted;
      visible_rows = applied->visible_rows;
      if (applied->folded) ++folds;
      std::printf("%-9lld %-18s v%llu: +%llu rows, -%llu purged, "
                  "%llu visible%s\n",
                  static_cast<long long>(q.id),
                  applied->folded ? "INGEST + FOLD" : "ingest",
                  static_cast<unsigned long long>(applied->version),
                  static_cast<unsigned long long>(applied->rows_appended),
                  static_cast<unsigned long long>(applied->rows_deleted),
                  static_cast<unsigned long long>(applied->visible_rows),
                  applied->folded ? " (deltas compacted into the base)" : "");
    }
    core::StepResult step = oreo->Step(q);
    window_cost += step.query_cost;
    ++window_n;
    if (step.reorganized) {
      std::printf("%-9lld %-18s now on '%s' (%zu live layouts)\n",
                  static_cast<long long>(q.id), "REORGANIZE",
                  oreo->core(0).registry().Get(step.state).name().c_str(),
                  oreo->core(0).registry().num_live());
    }
    if (window_n == 2000) {
      std::printf("%-9lld %-18s mean fraction scanned = %.3f\n",
                  static_cast<long long>(q.id), "checkpoint",
                  window_cost / static_cast<double>(window_n));
      window_cost = 0.0;
      window_n = 0;
    }
  }

  std::printf("\nTotals: query cost = %.1f, reorg cost = %.1f (%lld switches), "
              "combined = %.1f\n",
              oreo->total_query_cost(), oreo->total_reorg_cost(),
              static_cast<long long>(oreo->num_switches()),
              oreo->total_cost());
  std::printf("Ingest: %llu batches (+%llu rows, -%llu purged), %llu folds, "
              "%llu rows visible at the end\n",
              static_cast<unsigned long long>(ingest_batches),
              static_cast<unsigned long long>(rows_appended),
              static_cast<unsigned long long>(rows_deleted),
              static_cast<unsigned long long>(folds),
              static_cast<unsigned long long>(visible_rows));
  std::printf("Candidate layouts generated: %zu admitted, %zu rejected by the "
              "epsilon-distance test\n",
              oreo->core(0).manager().candidates_admitted(),
              oreo->core(0).manager().candidates_rejected());
  return 0;
}
