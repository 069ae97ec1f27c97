// A query: a conjunction of predicates over one table, with workload
// bookkeeping (arrival order, originating template) used by the workload
// generators and the evaluation harness.
#ifndef OREO_QUERY_QUERY_H_
#define OREO_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"
#include "storage/partitioning.h"

namespace oreo {

/// A conjunctive filter query. An empty conjunct list is a full scan.
struct Query {
  int64_t id = 0;           ///< arrival position in the stream
  int template_id = -1;     ///< originating workload template (-1 = unknown)
  std::vector<Predicate> conjuncts;

  /// True if row `row` of `table` satisfies all conjuncts.
  bool Matches(const Table& table, uint32_t row) const;

  /// True if the zone map proves no row of the partition matches
  /// (any conjunct proving emptiness suffices).
  bool CanSkipPartition(const ZoneMap& zone) const;

  std::string ToString(const Schema* schema = nullptr) const;
};

/// Number of rows among `row_ids` that match `query` (full scan within a
/// partition; used by the physical engine and by selectivity estimation).
uint64_t CountMatches(const Table& table, const std::vector<uint32_t>& row_ids,
                      const Query& query);

/// Number of matching rows over the whole table.
uint64_t CountMatches(const Table& table, const Query& query);

/// Fraction of matching rows in a sample table (selectivity estimate).
double EstimateSelectivity(const Table& sample, const Query& query);

/// The paper's query cost c(s, q): fraction of rows residing in partitions
/// that zone-map pruning cannot skip, in [0, 1].
double FractionAccessed(const Partitioning& partitioning, const Query& query);

/// Ids of partitions that must be read for `query` (the "BID list").
std::vector<uint32_t> PartitionsToRead(const Partitioning& partitioning,
                                       const Query& query);

/// A group of queries admitted to the framework in one step, in stream
/// order. Batching changes *when* work is scheduled, never *what* is
/// decided: consumers (Oreo::RunBatch, PhysicalStore::ExecuteQueryBatch)
/// guarantee results bit-identical to feeding the queries one at a time.
struct QueryBatch {
  std::vector<Query> queries;

  QueryBatch() = default;
  explicit QueryBatch(std::vector<Query> qs) : queries(std::move(qs)) {}

  size_t size() const { return queries.size(); }
  bool empty() const { return queries.empty(); }
};

/// Splits a stream into consecutive batches of at most `batch_size` queries
/// (the last batch may be short). Precondition: batch_size > 0.
std::vector<QueryBatch> MakeBatches(const std::vector<Query>& stream,
                                    size_t batch_size);

}  // namespace oreo

#endif  // OREO_QUERY_QUERY_H_
