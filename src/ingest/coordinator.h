// Shard routing for ingest batches.
//
// The write path reuses the read path's routing function: appended rows go
// through ShardRouter::SplitRows (the exact mapping the initial table load
// used, so a row ingested later lands on the same shard it would have loaded
// onto), and delete predicates go to ShardRouter::ShardsForQuery's shard set.
// Routing completeness — shard s holds exactly the rows the routing function
// assigns to s — makes the delete filter sound: a shard pruned for the
// delete's predicate cannot hold a matching row, so skipping it removes
// nothing.
//
// The split itself is pure and deterministic (no engine state), so
// OreoEngine can route first and then apply per-shard batches in ascending
// shard order — the serial application order that keeps the sharded engine
// bit-identical to per-shard serial references.
#ifndef OREO_INGEST_COORDINATOR_H_
#define OREO_INGEST_COORDINATOR_H_

#include <vector>

#include "query/query.h"
#include "storage/shard_router.h"
#include "storage/table.h"

namespace oreo {
namespace ingest {

/// One shard's slice of an ingest batch.
struct ShardIngest {
  Table rows;                  ///< appended rows routed to this shard
  std::vector<Query> deletes;  ///< delete predicates this shard must apply
};

/// Splits an ingest batch across `router.num_shards()` shards: rows by the
/// routing function, deletes by shard pruning. Result is indexed by shard id.
std::vector<ShardIngest> SplitIngest(const ShardRouter& router,
                                     const Table& rows,
                                     const std::vector<Query>& deletes);

}  // namespace ingest
}  // namespace oreo

#endif  // OREO_INGEST_COORDINATOR_H_
