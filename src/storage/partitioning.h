// A concrete partitioning of a table: the row->partition assignment produced
// by a data layout, together with per-partition zone maps. This is the
// "partition-level metadata" the paper's query optimizer consults.
#ifndef OREO_STORAGE_PARTITIONING_H_
#define OREO_STORAGE_PARTITIONING_H_

#include <cstdint>
#include <vector>

#include "storage/table.h"
#include "storage/zone_map.h"

namespace oreo {

/// Row-id lists per partition plus zone maps. Invariant: every row of the
/// source table appears in exactly one partition.
struct Partitioning {
  std::vector<std::vector<uint32_t>> partitions;
  std::vector<ZoneMap> zones;
  uint64_t total_rows = 0;

  size_t num_partitions() const { return partitions.size(); }
};

/// Builds a Partitioning from per-row partition ids.
/// `assignment[r]` is the partition id (contiguous, 0-based) of row r.
/// Empty partitions are dropped. Row lists are ascending and sized exactly;
/// zones come from BuildPartitionZoneMaps, one pass per column.
Partitioning BuildPartitioning(const Table& table,
                               const std::vector<uint32_t>& assignment,
                               uint32_t num_partitions);

/// Validates the exactly-once row coverage invariant (test helper).
bool ValidatePartitioning(const Partitioning& p, uint64_t expected_rows);

}  // namespace oreo

#endif  // OREO_STORAGE_PARTITIONING_H_
