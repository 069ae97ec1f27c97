// Workload definitions and seeded input generation for the end-to-end
// benchmark. The engine only ever sees what these functions generate: a
// starting table, a stream of query and ingest frames, and nothing else.
// The expected answers are computed here too, by brute force over a mirror
// of the data, so every reply the server sends can be checked.
#ifndef OREO_E2EBENCH_INPUTS_H_
#define OREO_E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/oreo.h"
#include "query/query.h"
#include "server/scheduler.h"
#include "server/wire.h"
#include "workloads/dataset.h"

namespace e2e {

/// The load shape, the same for every workload: one closed-loop connection
/// keeps this many requests outstanding, and the server batches up to that
/// many. One dispatcher: FairScheduler serves a tenant on one dispatcher at
/// a time, so with one tenant a second dispatcher would sit idle.
constexpr size_t kWindow = 32;
constexpr size_t kDispatchers = 1;

/// One workload's fixed configuration: everything except the seed.
struct WorkloadSpec {
  std::string name;
  std::string dataset;  ///< "tpch", "tpcds" or "telemetry"
  size_t rows = 0;      ///< rows generated (ingest workloads load half)
  size_t queries = 0;  ///< in 21 equal template segments, as in the paper
  /// Independent streams a measured run serves, each drawn from its own
  /// seed: one seed's luck in the data and constants then moves the
  /// end-to-end figures less, and the work per run stays fixed.
  size_t streams = 1;
  /// Attach an in-memory store: queries are also scanned and replies carry
  /// match counts. False = a logical-only tenant (decisions only).
  bool physical = false;
  size_t store_threads = 1;
  /// Serve the store through RemoteBackend(in-memory) with injected read
  /// latency, under a SharedBlockCache with async prefetch.
  bool remote = false;
  uint64_t remote_read_latency_us = 0;
  size_t cache_budget_bytes = 0;
  size_t prefetch_threads = 0;
  size_t ingest_frames = 0;  ///< kIngest frames interleaved with queries
  /// Engine knobs. The engine's own seed stays at its default for every
  /// run: the run seed draws the inputs, not the algorithm's coin flips.
  oreo::core::OreoOptions options;
  oreo::server::BatchPolicy batch;
};

/// The workload names the benchmark knows, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Fills `out` for a known workload name; `tiny` shrinks every size for the
/// self-test. Returns false for an unknown name.
bool MakeSpec(const std::string& name, bool tiny, WorkloadSpec* out);

/// The dataset the engine starts from (for ingest workloads, the first half
/// of the generated rows). Generating it is part of set-up.
oreo::workloads::WorkloadDataset MakeStartDataset(const WorkloadSpec& spec,
                                                  uint64_t seed);

/// One request of the stream, in send order.
struct Request {
  bool ingest = false;
  size_t index = 0;  ///< into Inputs::queries or Inputs::ingests
};

/// What one ingest frame must report, from the mirror.
struct ExpectedIngest {
  uint64_t appended = 0;
  uint64_t deleted = 0;
  uint64_t visible = 0;
};

/// Everything a run sends, plus the answers it must get back.
struct Inputs {
  std::vector<oreo::Query> queries;
  std::vector<oreo::server::WireIngest> ingests;
  std::vector<Request> requests;
  /// Match count of each query over the data visible at its position in
  /// the stream (physical workloads; empty for logical-only ones).
  std::vector<uint64_t> expected_matches;
  std::vector<ExpectedIngest> expected_ingests;
};

/// Draws the stream from the seed and computes the expected answers by
/// brute force over a mirror of the data. Not part of any timed phase.
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Rebuilds an ingest frame as the engine batch the server hands the engine
/// (the conversion OreoServer::SubmitIngest performs).
oreo::core::IngestBatch ToIngestBatch(const oreo::Schema& schema,
                                      const oreo::server::WireIngest& frame);

}  // namespace e2e

#endif  // OREO_E2EBENCH_INPUTS_H_
