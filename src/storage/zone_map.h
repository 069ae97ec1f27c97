// Partition-level metadata ("zone maps"): per-column min/max plus a bounded
// distinct-value set for categoricals. This is the only information the
// query optimizer uses to decide whether a partition can be skipped
// (paper §III-B, Figure 2), so query costs can be estimated without touching
// the underlying data.
#ifndef OREO_STORAGE_ZONE_MAP_H_
#define OREO_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/table.h"

namespace oreo {

/// Zone metadata for one column of one partition.
struct ColumnZone {
  DataType type = DataType::kInt64;
  bool empty = true;

  // Numeric bounds (kInt64 / kDouble).
  int64_t int_min = 0;
  int64_t int_max = 0;
  double dbl_min = 0.0;
  double dbl_max = 0.0;

  // String bounds and distinct set (kString). The distinct set is capped at
  // kMaxDistinct values; past that only min/max remain usable.
  std::string str_min;
  std::string str_max;
  std::set<std::string> distinct;
  bool distinct_overflow = false;

  static constexpr size_t kMaxDistinct = 64;
};

/// Zone metadata for one partition: one ColumnZone per schema field plus the
/// row count.
struct ZoneMap {
  std::vector<ColumnZone> columns;
  uint64_t num_rows = 0;

  /// Initializes empty zones for every field in `schema`.
  static ZoneMap ForSchema(const Schema& schema);
};

/// Builds a zone map covering the given rows of `table`, one column at a
/// time. Live-ingest delta chunks and folds get their zones here, and it is
/// the reference BuildPartitionZoneMaps must equal.
///   - int64: one min/max pass over the column's flat array.
///   - double: one pass in `row_ids` order. std::min/std::max keep their
///     first argument for NaN and for -0.0 vs +0.0, so the order is part of
///     the result.
///   - string: marks the dictionary codes the rows use, then folds each used
///     entry once. A partition shares its table's whole dictionary, so the
///     cost is O(rows + used codes), with per-thread marks reused across
///     calls rather than sized per call.
ZoneMap BuildZoneMap(const Table& table, const std::vector<uint32_t>& row_ids);

/// Builds a zone map covering the entire table.
ZoneMap BuildZoneMap(const Table& table);

/// Builds the zone maps of k partitions in one pass per column, equal to
/// BuildZoneMap(table, partitions[p]) for every p. `part_of_row[r]` is the
/// partition of row r, and `partitions[p]` lists its rows ascending and is
/// not empty. Numeric columns fold each row, in row order, into its
/// partition's min/max, so every partition sees its values in row-id order.
/// String columns mark (code, partition) pairs, then fold each partition's
/// used entries with the row-list builder's code.
std::vector<ZoneMap> BuildPartitionZoneMaps(
    const Table& table, const std::vector<uint32_t>& part_of_row,
    const std::vector<std::vector<uint32_t>>& partitions);

}  // namespace oreo

#endif  // OREO_STORAGE_ZONE_MAP_H_
