#include "storage/zone_map.h"

#include <algorithm>

#include "common/logging.h"

namespace oreo {

ZoneMap ZoneMap::ForSchema(const Schema& schema) {
  ZoneMap zm;
  zm.columns.resize(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    zm.columns[i].type = schema.field(i).type;
  }
  return zm;
}

namespace {

// Per-thread dictionary-code marks of the row-list string builder. Between
// calls every mark is zero: a call clears only the codes it marked, so it
// costs O(rows + used codes) however large the shared dictionary is, and the
// buffer grows once to the largest dictionary the thread has seen.
thread_local std::vector<uint8_t> tls_code_seen;
thread_local std::vector<uint32_t> tls_used_codes;

// Running min/max of one numeric zone, seeded with its first value. Add
// keeps std::min/std::max's rule of returning the first argument when the
// values are unordered (NaN) or equal (-0.0 vs +0.0), so the bounds depend
// on the order values arrive in, and adding the seed again changes nothing.
template <typename T>
struct MinMax {
  T lo;
  T hi;
  explicit MinMax(T first) : lo(first), hi(first) {}
  void Add(T x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
};

void StoreBounds(const MinMax<int64_t>& m, ColumnZone* zone) {
  zone->int_min = m.lo;
  zone->int_max = m.hi;
}

void StoreBounds(const MinMax<double>& m, ColumnZone* zone) {
  zone->dbl_min = m.lo;
  zone->dbl_max = m.hi;
}

// `row_at(i)` is the i-th row id of the zone, for i in [0, n), n > 0.
template <typename T, typename RowAt>
void BuildNumericZone(const std::vector<T>& v, size_t n, const RowAt& row_at,
                      ColumnZone* zone) {
  MinMax<T> m(v[row_at(0)]);
  for (size_t i = 1; i < n; ++i) m.Add(v[row_at(i)]);
  StoreBounds(m, zone);
}

// Folds the dictionary entries a zone uses, each listed at least once.
// Min, max, the distinct set and its overflow depend only on the set of
// values, not on their order or multiplicity.
void FoldStringEntries(const std::vector<std::string>& dict,
                       const std::vector<uint32_t>& used, ColumnZone* zone) {
  const std::string* lo = &dict[used.front()];
  const std::string* hi = lo;
  for (uint32_t c : used) {
    const std::string& s = dict[c];
    if (s < *lo) lo = &s;
    if (*hi < s) hi = &s;
    if (!zone->distinct_overflow) {
      zone->distinct.insert(s);
      if (zone->distinct.size() > ColumnZone::kMaxDistinct) {
        zone->distinct.clear();
        zone->distinct_overflow = true;
      }
    }
  }
  zone->str_min = *lo;
  zone->str_max = *hi;
}

// Marks the dictionary codes the rows use, then folds each used entry once.
template <typename RowAt>
void BuildStringZone(const Column& col, size_t n, const RowAt& row_at,
                     ColumnZone* zone) {
  const std::vector<uint32_t>& codes = col.codes();
  std::vector<uint8_t>& seen = tls_code_seen;
  std::vector<uint32_t>& used = tls_used_codes;
  if (seen.size() < col.dictionary().size()) {
    seen.resize(col.dictionary().size(), 0);
  }
  used.clear();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = codes[row_at(i)];
    if (seen[c] == 0) {
      seen[c] = 1;
      used.push_back(c);
    }
  }
  for (uint32_t c : used) seen[c] = 0;
  FoldStringEntries(col.dictionary(), used, zone);
}

template <typename RowAt>
ZoneMap BuildZones(const Table& table, size_t n, const RowAt& row_at) {
  ZoneMap zm = ZoneMap::ForSchema(table.schema());
  OREO_DCHECK(zm.columns.size() == table.num_columns());
  zm.num_rows = n;
  if (n == 0) return zm;
  for (size_t c = 0; c < zm.columns.size(); ++c) {
    const Column& col = table.column(c);
    ColumnZone* zone = &zm.columns[c];
    zone->empty = false;
    switch (col.type()) {
      case DataType::kInt64:
        BuildNumericZone(col.ints(), n, row_at, zone);
        break;
      case DataType::kDouble:
        BuildNumericZone(col.doubles(), n, row_at, zone);
        break;
      case DataType::kString:
        BuildStringZone(col, n, row_at, zone);
        break;
    }
  }
  return zm;
}

// One pass over the column in row order, one accumulator per partition,
// each seeded with its partition's first row. A partition's rows reach its
// accumulator in ascending order, as they would from its row list.
template <typename T>
void BuildNumericZones(const std::vector<T>& v,
                       const std::vector<uint32_t>& part_of_row,
                       const std::vector<std::vector<uint32_t>>& partitions,
                       size_t column, std::vector<ZoneMap>* zones) {
  std::vector<MinMax<T>> acc;
  acc.reserve(partitions.size());
  for (const std::vector<uint32_t>& rows : partitions) {
    acc.emplace_back(v[rows.front()]);
  }
  for (size_t r = 0; r < v.size(); ++r) acc[part_of_row[r]].Add(v[r]);
  for (size_t p = 0; p < acc.size(); ++p) {
    StoreBounds(acc[p], &(*zones)[p].columns[column]);
  }
}

// One pass over the codes marks (code, partition) pairs in a code-major
// bit matrix; each partition's used codes are then its column of the
// matrix, listed once each.
void BuildStringZones(const Column& col,
                      const std::vector<uint32_t>& part_of_row,
                      size_t num_partitions, size_t column,
                      std::vector<ZoneMap>* zones) {
  const std::vector<uint32_t>& codes = col.codes();
  const size_t words = (num_partitions + 63) / 64;
  std::vector<uint64_t> marks(col.dictionary().size() * words, 0);
  for (size_t r = 0; r < codes.size(); ++r) {
    const uint32_t p = part_of_row[r];
    marks[codes[r] * words + p / 64] |= uint64_t{1} << (p % 64);
  }
  std::vector<std::vector<uint32_t>> used(num_partitions);
  for (uint32_t c = 0; c < col.dictionary().size(); ++c) {
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = marks[c * words + w];
      while (bits != 0) {
        used[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))].push_back(c);
        bits &= bits - 1;
      }
    }
  }
  for (size_t p = 0; p < num_partitions; ++p) {
    FoldStringEntries(col.dictionary(), used[p], &(*zones)[p].columns[column]);
  }
}

}  // namespace

ZoneMap BuildZoneMap(const Table& table, const std::vector<uint32_t>& row_ids) {
  return BuildZones(table, row_ids.size(),
                    [&row_ids](size_t i) { return row_ids[i]; });
}

ZoneMap BuildZoneMap(const Table& table) {
  return BuildZones(table, table.num_rows(), [](size_t i) { return i; });
}

std::vector<ZoneMap> BuildPartitionZoneMaps(
    const Table& table, const std::vector<uint32_t>& part_of_row,
    const std::vector<std::vector<uint32_t>>& partitions) {
  OREO_CHECK_EQ(part_of_row.size(), table.num_rows());
  std::vector<ZoneMap> zones(partitions.size(),
                             ZoneMap::ForSchema(table.schema()));
  for (size_t p = 0; p < partitions.size(); ++p) {
    OREO_CHECK(!partitions[p].empty());
    zones[p].num_rows = partitions[p].size();
    for (ColumnZone& zone : zones[p].columns) zone.empty = false;
  }
  if (partitions.empty()) return zones;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    switch (col.type()) {
      case DataType::kInt64:
        BuildNumericZones(col.ints(), part_of_row, partitions, c, &zones);
        break;
      case DataType::kDouble:
        BuildNumericZones(col.doubles(), part_of_row, partitions, c, &zones);
        break;
      case DataType::kString:
        BuildStringZones(col, part_of_row, partitions.size(), c, &zones);
        break;
    }
  }
  return zones;
}

}  // namespace oreo
