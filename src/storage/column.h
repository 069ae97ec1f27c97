// In-memory column storage. Numeric columns are flat vectors; string columns
// are dictionary-encoded (a code vector plus a dictionary), matching how
// columnar formats store low-cardinality categoricals.
#ifndef OREO_STORAGE_COLUMN_H_
#define OREO_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/types.h"
#include "catalog/value.h"

namespace oreo {

/// A single typed column of values.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const;

  void Reserve(size_t n);

  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);
  /// Appends a value whose type must match the column type.
  void AppendValue(const Value& v);

  int64_t GetInt64(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  const std::string& GetString(size_t row) const {
    return dict_[codes_[row]];
  }
  /// Dictionary code of the string at `row` (string columns only).
  uint32_t GetCode(size_t row) const { return codes_[row]; }
  Value GetValue(size_t row) const;

  /// Numeric view of the value at `row`: int64 widened to double; string
  /// columns expose their dictionary code (used by Z-order rank mapping).
  double GetNumeric(size_t row) const;

  /// Dictionary of a string column (code -> string).
  const std::vector<std::string>& dictionary() const { return dict_; }
  /// Code for `s` or -1 if the dictionary does not contain it (linear scan).
  int64_t FindCode(const std::string& s) const;

  /// Builds a column containing rows at `row_ids` in order.
  /// String columns copy the dictionary and keep their codes.
  Column Take(const std::vector<uint32_t>& row_ids) const;

  /// Appends every row of `other` (same type). Strings are re-encoded into
  /// this dictionary once per distinct source code, in row order, so new
  /// entries land in the order a row-by-row AppendString would add them.
  void Append(const Column& other);

  // Raw access used by the block writer / codecs.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  std::vector<int64_t>* mutable_ints() { return &ints_; }
  std::vector<double>* mutable_doubles() { return &doubles_; }
  /// Installs a decoded string column (block reader path). Builds no
  /// string -> code index; the first AppendString builds it.
  void SetStringData(std::vector<uint32_t> codes,
                     std::vector<std::string> dict);

 private:
  /// Code for `s`, inserting into the dictionary if absent. Builds the
  /// index over the whole dictionary on first use.
  uint32_t CodeFor(const std::string& s);

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  /// string -> code over dict_, or empty until CodeFor first needs it.
  std::unordered_map<std::string, uint32_t> dict_index_;
};

}  // namespace oreo

#endif  // OREO_STORAGE_COLUMN_H_
