#include "storage/partitioning.h"

#include "common/logging.h"

namespace oreo {

Partitioning BuildPartitioning(const Table& table,
                               const std::vector<uint32_t>& assignment,
                               uint32_t num_partitions) {
  OREO_CHECK_EQ(assignment.size(), table.num_rows());
  std::vector<uint32_t> sizes(num_partitions, 0);
  for (uint32_t a : assignment) {
    OREO_CHECK_LT(a, num_partitions);
    ++sizes[a];
  }
  // Dense ids in partition-id order drop the empty partitions, which keeps
  // the metadata compact.
  std::vector<uint32_t> dense(num_partitions, 0);
  Partitioning out;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (sizes[p] == 0) continue;
    dense[p] = static_cast<uint32_t>(out.partitions.size());
    out.partitions.emplace_back().reserve(sizes[p]);
  }
  std::vector<uint32_t> part_of_row(assignment.size());
  for (uint32_t r = 0; r < assignment.size(); ++r) {
    const uint32_t p = dense[assignment[r]];
    part_of_row[r] = p;
    out.partitions[p].push_back(r);
  }
  out.zones = BuildPartitionZoneMaps(table, part_of_row, out.partitions);
  out.total_rows = table.num_rows();
  return out;
}

bool ValidatePartitioning(const Partitioning& p, uint64_t expected_rows) {
  std::vector<uint8_t> seen(expected_rows, 0);
  uint64_t count = 0;
  for (const auto& part : p.partitions) {
    for (uint32_t r : part) {
      if (r >= expected_rows) return false;
      if (seen[r]) return false;
      seen[r] = 1;
      ++count;
    }
  }
  if (count != expected_rows) return false;
  if (p.zones.size() != p.partitions.size()) return false;
  for (size_t i = 0; i < p.partitions.size(); ++i) {
    if (p.zones[i].num_rows != p.partitions[i].size()) return false;
  }
  return true;
}

}  // namespace oreo
