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

// Per-thread dictionary-code marks of the string builder. Between calls
// every mark is zero: a call clears only the codes it marked, so it costs
// O(rows + used codes) however large the shared dictionary is, and the
// buffer grows once to the largest dictionary the thread has seen.
thread_local std::vector<uint8_t> tls_code_seen;
thread_local std::vector<uint32_t> tls_used_codes;

// `row_at(i)` is the i-th row id of the zone, for i in [0, n), n > 0.
template <typename RowAt>
void BuildInt64Zone(const std::vector<int64_t>& v, size_t n,
                    const RowAt& row_at, ColumnZone* zone) {
  int64_t lo = v[row_at(0)];
  int64_t hi = lo;
  for (size_t i = 1; i < n; ++i) {
    const int64_t x = v[row_at(i)];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  zone->int_min = lo;
  zone->int_max = hi;
}

// Row-id order on purpose: std::min/std::max keep their first argument when
// the values are unordered (NaN) or equal (-0.0 vs +0.0), so the bounds
// depend on the order values arrive in.
template <typename RowAt>
void BuildDoubleZone(const std::vector<double>& v, size_t n,
                     const RowAt& row_at, ColumnZone* zone) {
  double lo = v[row_at(0)];
  double hi = lo;
  for (size_t i = 1; i < n; ++i) {
    const double x = v[row_at(i)];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  zone->dbl_min = lo;
  zone->dbl_max = hi;
}

// Marks the dictionary codes the rows use, then folds each used entry once.
// Min, max, the distinct set and its overflow depend only on the set of
// values, not on their order or multiplicity.
template <typename RowAt>
void BuildStringZone(const Column& col, size_t n, const RowAt& row_at,
                     ColumnZone* zone) {
  const std::vector<uint32_t>& codes = col.codes();
  const std::vector<std::string>& dict = col.dictionary();
  std::vector<uint8_t>& seen = tls_code_seen;
  std::vector<uint32_t>& used = tls_used_codes;
  if (seen.size() < dict.size()) seen.resize(dict.size(), 0);
  used.clear();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = codes[row_at(i)];
    if (seen[c] == 0) {
      seen[c] = 1;
      used.push_back(c);
    }
  }
  const std::string* lo = &dict[used.front()];
  const std::string* hi = lo;
  for (uint32_t c : used) {
    seen[c] = 0;
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
        BuildInt64Zone(col.ints(), n, row_at, zone);
        break;
      case DataType::kDouble:
        BuildDoubleZone(col.doubles(), n, row_at, zone);
        break;
      case DataType::kString:
        BuildStringZone(col, n, row_at, zone);
        break;
    }
  }
  return zm;
}

}  // namespace

ZoneMap BuildZoneMap(const Table& table, const std::vector<uint32_t>& row_ids) {
  return BuildZones(table, row_ids.size(),
                    [&row_ids](size_t i) { return row_ids[i]; });
}

ZoneMap BuildZoneMap(const Table& table) {
  return BuildZones(table, table.num_rows(), [](size_t i) { return i; });
}

}  // namespace oreo
