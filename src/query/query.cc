#include "query/query.h"

#include <algorithm>

#include "common/logging.h"
#include "query/kernels.h"

namespace oreo {

bool Query::Matches(const Table& table, uint32_t row) const {
  for (const Predicate& p : conjuncts) {
    if (!p.Matches(table, row)) return false;
  }
  return true;
}

bool Query::CanSkipPartition(const ZoneMap& zone) const {
  for (const Predicate& p : conjuncts) {
    OREO_DCHECK(p.column >= 0 &&
                static_cast<size_t>(p.column) < zone.columns.size());
    if (p.ProvesEmpty(zone.columns[static_cast<size_t>(p.column)])) {
      return true;
    }
  }
  return false;
}

std::string Query::ToString(const Schema* schema) const {
  if (conjuncts.empty()) return "SELECT * (full scan)";
  std::string out = "WHERE ";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i].ToString(schema);
  }
  return out;
}

uint64_t CountMatches(const Table& table, const std::vector<uint32_t>& row_ids,
                      const Query& query) {
  return KernelCountMatches(table, row_ids, query);
}

uint64_t CountMatches(const Table& table, const Query& query) {
  return KernelCountMatches(table, query);
}

double EstimateSelectivity(const Table& sample, const Query& query) {
  if (sample.num_rows() == 0) return 0.0;
  return static_cast<double>(CountMatches(sample, query)) /
         static_cast<double>(sample.num_rows());
}

double FractionAccessed(const Partitioning& partitioning, const Query& query) {
  if (partitioning.total_rows == 0) return 0.0;
  uint64_t accessed = 0;
  for (size_t i = 0; i < partitioning.zones.size(); ++i) {
    if (!query.CanSkipPartition(partitioning.zones[i])) {
      accessed += partitioning.zones[i].num_rows;
    }
  }
  return static_cast<double>(accessed) /
         static_cast<double>(partitioning.total_rows);
}

std::vector<uint32_t> PartitionsToRead(const Partitioning& partitioning,
                                       const Query& query) {
  std::vector<uint32_t> out;
  for (size_t i = 0; i < partitioning.zones.size(); ++i) {
    if (!query.CanSkipPartition(partitioning.zones[i])) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

std::vector<QueryBatch> MakeBatches(const std::vector<Query>& stream,
                                    size_t batch_size) {
  OREO_CHECK_GT(batch_size, 0u);
  std::vector<QueryBatch> out;
  out.reserve((stream.size() + batch_size - 1) / batch_size);
  for (size_t start = 0; start < stream.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, stream.size());
    out.emplace_back(std::vector<Query>(stream.begin() + static_cast<ptrdiff_t>(start),
                                        stream.begin() + static_cast<ptrdiff_t>(end)));
  }
  return out;
}

}  // namespace oreo
