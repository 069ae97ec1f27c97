#include "inputs.h"

#include <numeric>
#include <utility>

#include "common/rng.h"

namespace e2e {
namespace {

using oreo::Query;
using oreo::Table;
using oreo::Value;

// The drift pattern is part of a workload's definition, like its template
// family: every seed runs the same template order, drawn once from this
// seed. The run seed draws the data and every query's constants. (A
// per-seed template order would let one seed's mix of cheap and expensive
// templates swing throughput by tens of percent between seeds.)
constexpr uint64_t kScheduleSeed = 2024;

// The paper's Offline Optimal makes 20 template changes: 21 segments.
constexpr size_t kSegments = 21;

// kSegments equal-length template segments (no template twice in a row),
// each query freshly instantiated from its segment's template.
std::vector<Query> DrawStream(
    const std::vector<oreo::workloads::QueryTemplate>& templates,
    size_t queries, uint64_t seed) {
  oreo::Rng schedule(kScheduleSeed);
  oreo::Rng constants(seed);
  std::vector<Query> stream;
  stream.reserve(queries);
  size_t previous = templates.size();
  for (size_t s = 0; s < kSegments; ++s) {
    size_t tpl = previous;
    while (tpl == previous) tpl = schedule.Uniform(templates.size());
    previous = tpl;
    const size_t end = (s + 1) * queries / kSegments;
    while (stream.size() < end) {
      Query q = templates[tpl].instantiate(&constants);
      q.id = static_cast<int64_t>(stream.size());
      q.template_id = static_cast<int>(tpl);
      stream.push_back(std::move(q));
    }
  }
  return stream;
}

std::vector<uint32_t> RowRange(size_t begin, size_t end) {
  std::vector<uint32_t> ids(end - begin);
  std::iota(ids.begin(), ids.end(), static_cast<uint32_t>(begin));
  return ids;
}

// Rows [begin, end) of `table` as row-major wire values.
std::vector<std::vector<Value>> WireRows(const Table& table, size_t begin,
                                         size_t end) {
  std::vector<std::vector<Value>> rows;
  rows.reserve(end - begin);
  for (size_t r = begin; r < end; ++r) {
    std::vector<Value> row;
    row.reserve(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      row.push_back(table.column(c).GetValue(r));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Rows the engine starts with: half the generated table when the rest
// arrives as ingest frames, all of it otherwise.
size_t StartRows(const WorkloadSpec& spec) {
  return spec.ingest_frames > 0 ? spec.rows / 2 : spec.rows;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "tpch_scan", "tpcds_decide", "telemetry_ingest"};
  return kNames;
}

bool MakeSpec(const std::string& name, bool tiny, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  // The paper's framework parameters (SVI-A2): alpha = 80, epsilon = 0.08,
  // a sliding window of W = 200 queries and one generation per window.
  spec.options.alpha = 80.0;
  spec.options.epsilon = 0.08;
  spec.options.window_size = 200;
  spec.options.generate_every = 200;
  spec.options.target_partitions = 32;
  spec.options.max_states = 16;
  spec.options.dataset_sample_rows = tiny ? 500 : 2000;
  spec.options.num_threads = 2;
  spec.batch.max_batch = kWindow;
  // Sizes keep one stream to a few seconds, so a run of about 30 s serves
  // several.
  if (name == "tpch_scan") {
    spec.dataset = "tpch";
    spec.rows = tiny ? 3000 : 4000;
    spec.queries = tiny ? 1200 : 12000;
    spec.streams = 5;
    spec.physical = true;
    spec.store_threads = 2;
  } else if (name == "tpcds_decide") {
    spec.dataset = "tpcds";
    spec.rows = tiny ? 3000 : 20000;
    spec.queries = tiny ? 1200 : 30000;
    spec.streams = 5;
  } else if (name == "telemetry_ingest") {
    spec.dataset = "telemetry";
    spec.rows = tiny ? 3000 : 12000;
    spec.queries = tiny ? 1200 : 6000;
    spec.streams = 3;
    spec.physical = true;
    spec.options.num_shards = 4;
    spec.remote = true;
    spec.remote_read_latency_us = 100;
    // About 0.4-0.8 MB stay materialized over the run (the table grows
    // from 6k to 12k rows, over 4 shards). The budget sits below even the
    // start, and serves a mid-range share of the demand reads, so a change
    // that moves the hit rate either way shows.
    spec.cache_budget_bytes = tiny ? (size_t{64} << 10) : (size_t{384} << 10);
    spec.prefetch_threads = 2;
    spec.ingest_frames = 100;
  } else {
    return false;
  }
  *out = std::move(spec);
  return true;
}

oreo::workloads::WorkloadDataset MakeStartDataset(const WorkloadSpec& spec,
                                                  uint64_t seed) {
  oreo::workloads::WorkloadDataset ds =
      oreo::workloads::MakeDataset(spec.dataset, spec.rows, seed);
  const size_t start = StartRows(spec);
  if (start < spec.rows) ds.table = ds.table.Take(RowRange(0, start));
  return ds;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  const oreo::workloads::WorkloadDataset ds =
      oreo::workloads::MakeDataset(spec.dataset, spec.rows, seed);
  in.queries = DrawStream(ds.templates, spec.queries, seed + 1);

  // Ingest frames carry the rows the start table left out, in arrival
  // order; the delta debt they build up forces compaction folds. (The
  // frames carry no deletes: see the README's note on retention deletes.)
  const size_t start = StartRows(spec);
  const size_t tail = spec.rows - start;
  std::vector<std::pair<size_t, size_t>> frame_rows;
  for (size_t k = 0; k < spec.ingest_frames; ++k) {
    const size_t begin = start + k * tail / spec.ingest_frames;
    const size_t end = start + (k + 1) * tail / spec.ingest_frames;
    oreo::server::WireIngest frame;
    frame.rows = WireRows(ds.table, begin, end);
    frame_rows.emplace_back(begin, end);
    in.ingests.push_back(std::move(frame));
  }

  // Frame k goes out just before query (k + 1) * Q / (F + 1): the frames
  // interleave evenly with the query stream on the same connection.
  const size_t q = in.queries.size();
  const size_t f = in.ingests.size();
  size_t next_frame = 0;
  for (size_t qi = 0; qi < q; ++qi) {
    while (next_frame < f && (next_frame + 1) * q / (f + 1) <= qi) {
      in.requests.push_back({true, next_frame++});
    }
    in.requests.push_back({false, qi});
  }
  while (next_frame < f) in.requests.push_back({true, next_frame++});

  if (!spec.physical) return in;
  // The mirror: ids (into the generated table) of the rows visible at this
  // point of the stream, replayed request by request.
  std::vector<uint32_t> visible = RowRange(0, start);
  for (const Request& r : in.requests) {
    if (!r.ingest) {
      in.expected_matches.push_back(
          oreo::CountMatches(ds.table, visible, in.queries[r.index]));
      continue;
    }
    const auto [begin, end] = frame_rows[r.index];
    for (size_t row = begin; row < end; ++row) {
      visible.push_back(static_cast<uint32_t>(row));
    }
    in.expected_ingests.push_back({end - begin, 0, visible.size()});
  }
  return in;
}

oreo::core::IngestBatch ToIngestBatch(const oreo::Schema& schema,
                                      const oreo::server::WireIngest& frame) {
  oreo::core::IngestBatch batch;
  batch.rows = Table(schema);
  batch.rows.Reserve(frame.rows.size());
  for (const std::vector<Value>& row : frame.rows) batch.rows.AppendRow(row);
  batch.deletes = frame.deletes;
  return batch;
}

}  // namespace e2e
