#include "storage/table.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace oreo {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

void Table::AppendRow(const std::vector<Value>& values) {
  OREO_CHECK_EQ(values.size(), columns_.size());
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].AppendValue(values[i]);
  }
  ++num_rows_;
}

void Table::FinishAppends() {
  if (columns_.empty()) {
    num_rows_ = 0;
    return;
  }
  num_rows_ = columns_[0].size();
  for (const Column& c : columns_) {
    OREO_CHECK_EQ(c.size(), num_rows_) << "ragged columns";
  }
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

Table Table::Take(const std::vector<uint32_t>& row_ids) const {
  Table out(schema_);
  for (size_t i = 0; i < columns_.size(); ++i) {
    out.columns_[i] = columns_[i].Take(row_ids);
  }
  out.num_rows_ = row_ids.size();
  return out;
}

void Table::Append(const Table& other) {
  OREO_CHECK(schema_.Equals(other.schema())) << "schema mismatch in Append";
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].Append(other.columns_[c]);
  }
  num_rows_ += other.num_rows();
}

Table Table::SampleRows(size_t n, Rng* rng,
                        std::vector<uint32_t>* out_row_ids) const {
  n = std::min(n, num_rows_);
  // Floyd's algorithm for sampling without replacement.
  std::vector<uint32_t> chosen;
  chosen.reserve(n);
  // For small tables relative to n, a partial shuffle is simpler.
  std::vector<uint32_t> ids(num_rows_);
  std::iota(ids.begin(), ids.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    size_t j = i + rng->Uniform(num_rows_ - i);
    std::swap(ids[i], ids[j]);
  }
  chosen.assign(ids.begin(), ids.begin() + static_cast<long>(n));
  std::sort(chosen.begin(), chosen.end());
  if (out_row_ids != nullptr) *out_row_ids = chosen;
  return Take(chosen);
}

size_t Table::MemoryBytes() const {
  size_t total = 0;
  for (const Column& c : columns_) {
    switch (c.type()) {
      case DataType::kInt64:
        total += c.ints().size() * sizeof(int64_t);
        break;
      case DataType::kDouble:
        total += c.doubles().size() * sizeof(double);
        break;
      case DataType::kString: {
        total += c.codes().size() * sizeof(uint32_t);
        for (const std::string& s : c.dictionary()) total += s.size();
        break;
      }
    }
  }
  return total;
}

}  // namespace oreo
