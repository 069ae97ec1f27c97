// The served pass: one tenant behind OreoServer, driven through one
// LoopbackClient connection as a closed loop with a window of outstanding
// requests, every reply checked against the expected answers.
//
// One connection per tenant is a rule, not a convenience: it keeps the
// executed order equal to the generated order, so D-UMTS decisions (and
// total_cost) repeat exactly at a fixed seed. Splitting a stream over
// several connections lets timing reorder it, and the decisions with it.
#ifndef OREO_E2EBENCH_SERVED_H_
#define OREO_E2EBENCH_SERVED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "inputs.h"
#include "tracing.h"

namespace e2e {

/// The engine's accounting, read after the server shut down.
struct EngineCounters {
  double total_cost = 0.0;
  double query_cost = 0.0;
  int64_t switches = 0;
  uint64_t cost_evals = 0;         ///< candidate cost evaluations computed
  uint64_t cost_evals_reused = 0;  ///< answered from the incremental cache
  int64_t phases = 0;              ///< D-UMTS phases, summed over shards
  uint64_t max_states = 0;         ///< |S_max|, the largest over shards
  uint64_t folds = 0;
  uint64_t visible_rows = 0;
  uint64_t stored_bytes = 0;  ///< materialized bytes of the final layout
};

/// Reads `engine`'s accounting. Also checks, shard by shard, that the
/// reorganization cost is exactly alpha per switch: a binary whose view of
/// the engine's classes differs from the library's (a build-flag mismatch)
/// reads garbage there and fails instead of reporting it.
EngineCounters ReadEngineCounters(oreo::core::OreoEngine* engine,
                                  double alpha,
                                  std::vector<std::string>* errors);

struct ServedOptions {
  /// Install the probes: the backend decorator and the batch-start hook.
  bool traced = false;
  /// Self-test: expect a wrong match count for one query.
  bool corrupt_expected = false;
};

/// One served pass.
struct ServedRun {
  double wall_s = 0.0;   ///< first send to last reply, plus the reorg drain
  uint64_t queries = 0;
  uint64_t attempted = 0;  ///< frames sent (queries + ingests)
  uint64_t failed = 0;     ///< non-OK or transport-failed replies
  std::vector<double> query_ms;     ///< send to reply, per query
  std::vector<double> ingest_ms;    ///< send to reply, per ingest frame
  std::vector<std::string> errors;  ///< output-check failures
  EngineCounters engine;
  // Traced passes only.
  std::vector<size_t> batch_sizes;    ///< requests per server batch
  std::vector<double> queue_wait_ms;  ///< send to batch start, per request
  double batch_exec_s = 0.0;  ///< batch start to its last reply, summed
  StorageCounters storage;
};

ServedRun RunServed(const WorkloadSpec& spec, uint64_t seed, const Inputs& in,
                    const ServedOptions& options);

/// Set-up alone (dataset, server start, initial materialize), then a clean
/// shutdown; returns the set-up seconds.
double TimeSetup(const WorkloadSpec& spec, uint64_t seed);

}  // namespace e2e

#endif  // OREO_E2EBENCH_SERVED_H_
