#include "storage/shard_router.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace oreo {

namespace {

// splitmix64: fixed-constant 64-bit mixer, identical on every platform.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Comparisons between a shard boundary and a predicate literal. Same-type
// operands compare *exactly* through Value — row routing (ShardOfValue)
// uses the same operators, so pruning can never disagree with routing by a
// rounding error (int64 values above 2^53 would be lossy through double).
// A mixed int64/double pair falls back to the AsNumeric tolerance zone-map
// pruning uses (predicate.cc); a numeric/string mix is a programmer error
// (Value CHECK-fails, as everywhere else).
bool LiteralLe(const Value& literal, const Value& bound) {
  if (literal.type() == bound.type()) return literal <= bound;
  return literal.AsNumeric() <= bound.AsNumeric();
}

bool LiteralLt(const Value& literal, const Value& bound) {
  if (literal.type() == bound.type()) return literal < bound;
  return literal.AsNumeric() < bound.AsNumeric();
}

}  // namespace

const char* ShardRoutingName(ShardRouting routing) {
  switch (routing) {
    case ShardRouting::kHash:
      return "hash";
    case ShardRouting::kRange:
      return "range";
  }
  return "?";
}

uint64_t ShardRouter::HashValue(const Value& v) {
  switch (v.type()) {
    case DataType::kInt64:
      return Mix64(static_cast<uint64_t>(v.AsInt64()));
    case DataType::kDouble: {
      double d = v.AsDouble();
      if (d == 0.0) d = 0.0;  // collapse -0.0 and +0.0 to one shard
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case DataType::kString:
      return Mix64(Fnv1a64(v.AsString()));
  }
  return 0;
}

ShardRouter ShardRouter::Build(const Table& table,
                               const ShardRouterOptions& opts) {
  OREO_CHECK_GT(opts.num_shards, 0u) << "num_shards must be positive";
  OREO_CHECK(opts.column >= 0 &&
             static_cast<size_t>(opts.column) < table.num_columns())
      << "routing column " << opts.column << " out of range";
  ShardRouter router;
  router.num_shards_ = opts.num_shards;
  router.column_ = opts.column;
  router.routing_ = opts.routing;
  if (opts.routing == ShardRouting::kRange && opts.num_shards > 1) {
    // Quantile boundaries: sort the routing column and cut at i*n/N.
    // Sorting values (not row ids) makes ties order-free, so the boundaries
    // are a pure function of the column's multiset of values. Each cut is
    // snapped to a *distinct* value, strictly above the previous boundary
    // and strictly below the maximum, so every shard interval contains at
    // least one actual value — a skewed (duplicate-heavy) column can never
    // produce a structurally empty shard.
    const Column& col = table.column(static_cast<size_t>(opts.column));
    std::vector<Value> values;
    values.reserve(table.num_rows());
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      values.push_back(col.GetValue(r));
    }
    std::sort(values.begin(), values.end(),
              [](const Value& a, const Value& b) { return a < b; });
    OREO_CHECK(!values.empty()) << "cannot derive range bounds: empty table";
    std::vector<Value> distinct;
    for (const Value& v : values) {
      if (distinct.empty() || distinct.back() < v) distinct.push_back(v);
    }
    const size_t m = distinct.size();
    const size_t n_shards = opts.num_shards;
    OREO_CHECK(m >= n_shards)
        << "range routing over column " << opts.column << " cannot fill "
        << n_shards << " shards: only " << m << " distinct value(s)";
    size_t prev_k = 0;  // distinct index of the previous boundary
    for (size_t i = 1; i < n_shards; ++i) {
      const size_t idx = (i * values.size()) / n_shards;
      // Distinct index of the quantile value (present by construction).
      size_t k = static_cast<size_t>(
          std::upper_bound(distinct.begin(), distinct.end(), values[idx],
                           [](const Value& a, const Value& b) {
                             return a < b;
                           }) -
          distinct.begin()) - 1;
      // Clamp: strictly above the previous boundary, and low enough that
      // the remaining boundaries plus the last shard still fit below the
      // maximum (m >= n_shards guarantees the window is never empty).
      const size_t lo = (i == 1) ? 0 : prev_k + 1;
      const size_t hi = m - 1 - (n_shards - i);
      k = std::max(k, lo);
      k = std::min(k, hi);
      prev_k = k;
      router.bounds_.push_back(distinct[k]);
    }
    router.bounds_index_ = EytzingerIndex<Value>(router.bounds_);
  }
  return router;
}

uint32_t ShardRouter::ShardOfValue(const Value& v) const {
  if (num_shards_ == 1) return 0;
  if (routing_ == ShardRouting::kHash) {
    return static_cast<uint32_t>(HashValue(v) % num_shards_);
  }
  // Range: shard s covers (bounds_[s-1], bounds_[s]]; first bound >= v wins.
  if (simd::VectorEnabled()) {
    return static_cast<uint32_t>(bounds_index_.LowerBound(v));
  }
  auto it = std::lower_bound(
      bounds_.begin(), bounds_.end(), v,
      [](const Value& bound, const Value& probe) { return bound < probe; });
  return static_cast<uint32_t>(it - bounds_.begin());
}

uint32_t ShardRouter::ShardOfRow(const Table& table, uint32_t row) const {
  OREO_DCHECK(static_cast<size_t>(column_) < table.num_columns());
  return ShardOfValue(
      table.column(static_cast<size_t>(column_)).GetValue(row));
}

std::vector<std::vector<uint32_t>> ShardRouter::SplitRows(
    const Table& table) const {
  std::vector<std::vector<uint32_t>> rows(num_shards_);
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    rows[ShardOfRow(table, r)].push_back(r);
  }
  return rows;
}

std::vector<Table> ShardRouter::SplitTable(const Table& table) const {
  std::vector<Table> shards;
  shards.reserve(num_shards_);
  for (const std::vector<uint32_t>& rows : SplitRows(table)) {
    shards.push_back(table.Take(rows));
  }
  return shards;
}

bool ShardRouter::RangeShardCanMatch(uint32_t shard,
                                     const Predicate& pred) const {
  // Shard `shard` holds values in (lo, hi] with lo = bounds_[shard-1]
  // (exclusive; absent for shard 0) and hi = bounds_[shard] (inclusive;
  // absent for the last shard). Prune only on provable emptiness; the value
  // domain is treated as continuous, so integer-only gaps are kept
  // (conservative, like ProvesEmpty).
  const bool has_lo = shard > 0;
  const bool has_hi = shard + 1 < num_shards_;
  const Value* lo = has_lo ? &bounds_[shard - 1] : nullptr;
  const Value* hi = has_hi ? &bounds_[shard] : nullptr;
  auto above = [&](const Value& x) {  // every shard value v > lo >= x?
    return has_lo && LiteralLe(x, *lo);
  };
  switch (pred.op) {
    case CompareOp::kEq:
      return !above(pred.value) && !(has_hi && LiteralLt(*hi, pred.value));
    case CompareOp::kLt:
    case CompareOp::kLe:
      // v < x (or v <= x) is impossible iff every v > lo >= x.
      return !above(pred.value);
    case CompareOp::kGt:
      // v > x impossible iff every v <= hi <= x.
      return !(has_hi && LiteralLe(*hi, pred.value));
    case CompareOp::kGe:
      return !(has_hi && LiteralLt(*hi, pred.value));
    case CompareOp::kBetween:
      return !(has_hi && LiteralLt(*hi, pred.value)) && !above(pred.value2);
    case CompareOp::kIn:
      for (const Value& v : pred.in_list) {
        if (!above(v) && !(has_hi && LiteralLt(*hi, v))) return true;
      }
      return false;
  }
  return true;
}

std::vector<uint32_t> ShardRouter::ShardsForQuery(const Query& query) const {
  // A single shard is the whole table: nothing to prune. (This also keeps
  // the 1-shard engine bit-identical to a bare Oreo core for degenerate
  // predicates — e.g. an empty IN list — that prove no shard can match.)
  if (num_shards_ == 1) return {0};
  std::vector<bool> keep(num_shards_, true);
  for (const Predicate& pred : query.conjuncts) {
    if (pred.column != column_) continue;
    if (routing_ == ShardRouting::kHash) {
      // Only point predicates identify hash shards.
      if (pred.op == CompareOp::kEq) {
        std::vector<bool> mine(num_shards_, false);
        mine[ShardOfValue(pred.value)] = true;
        for (size_t s = 0; s < num_shards_; ++s) {
          keep[s] = keep[s] && mine[s];
        }
      } else if (pred.op == CompareOp::kIn) {
        std::vector<bool> mine(num_shards_, false);
        for (const Value& v : pred.in_list) mine[ShardOfValue(v)] = true;
        for (size_t s = 0; s < num_shards_; ++s) {
          keep[s] = keep[s] && mine[s];
        }
      }
      continue;
    }
    for (size_t s = 0; s < num_shards_; ++s) {
      keep[s] =
          keep[s] && RangeShardCanMatch(static_cast<uint32_t>(s), pred);
    }
  }
  std::vector<uint32_t> out;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (keep[s]) out.push_back(static_cast<uint32_t>(s));
  }
  return out;
}

namespace {

// --- bound serialization ------------------------------------------------
// Values print as "i:<int>", "d:<%.17g>" (round-trips every double), or
// "s:<len>:<bytes>" (length prefix, so arbitrary bytes survive).

void AppendBound(std::string* out, const Value& v) {
  char buf[64];
  switch (v.type()) {
    case DataType::kInt64:
      std::snprintf(buf, sizeof(buf), "i:%lld",
                    static_cast<long long>(v.AsInt64()));
      *out += buf;
      return;
    case DataType::kDouble:
      std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
      *out += buf;
      return;
    case DataType::kString:
      std::snprintf(buf, sizeof(buf), "s:%zu:", v.AsString().size());
      *out += buf;
      *out += v.AsString();
      return;
  }
}

// Parses one bound starting at `pos`; advances `pos` past it. Returns a
// non-OK status on malformed input.
Status ParseBound(const std::string& text, size_t* pos, Value* out) {
  if (*pos + 2 > text.size() || text[*pos + 1] != ':') {
    return Status::InvalidArgument("shard router: malformed bound");
  }
  const char kind = text[*pos];
  *pos += 2;
  if (kind == 's') {
    size_t colon = text.find(':', *pos);
    if (colon == std::string::npos) {
      return Status::InvalidArgument("shard router: malformed string bound");
    }
    size_t len = 0;
    for (size_t i = *pos; i < colon; ++i) {
      if (text[i] < '0' || text[i] > '9') {
        return Status::InvalidArgument("shard router: bad string length");
      }
      len = len * 10 + static_cast<size_t>(text[i] - '0');
    }
    if (colon + 1 + len > text.size()) {
      return Status::InvalidArgument("shard router: truncated string bound");
    }
    *out = Value(text.substr(colon + 1, len));
    *pos = colon + 1 + len;
    return Status::OK();
  }
  size_t end = *pos;
  while (end < text.size() && text[end] != ',' && text[end] != ']') ++end;
  const std::string token = text.substr(*pos, end - *pos);
  errno = 0;
  char* parsed_end = nullptr;
  if (kind == 'i') {
    long long v = std::strtoll(token.c_str(), &parsed_end, 10);
    if (token.empty() || *parsed_end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("shard router: bad int bound '" + token +
                                     "'");
    }
    *out = Value(static_cast<int64_t>(v));
  } else if (kind == 'd') {
    double v = std::strtod(token.c_str(), &parsed_end);
    if (token.empty() || *parsed_end != '\0') {
      return Status::InvalidArgument("shard router: bad double bound '" +
                                     token + "'");
    }
    *out = Value(v);
  } else {
    return Status::InvalidArgument("shard router: unknown bound kind");
  }
  *pos = end;
  return Status::OK();
}

}  // namespace

std::string ShardRouter::Serialize() const {
  std::string out = "shards=" + std::to_string(num_shards_) +
                    " column=" + std::to_string(column_) +
                    " routing=" + ShardRoutingName(routing_) + " bounds=[";
  for (size_t i = 0; i < bounds_.size(); ++i) {
    if (i > 0) out += ',';
    AppendBound(&out, bounds_[i]);
  }
  out += ']';
  return out;
}

Result<ShardRouter> ShardRouter::Deserialize(const std::string& text) {
  ShardRouter router;
  unsigned long long shards = 0;
  long long column = 0;
  char routing_name[16] = {0};
  int consumed = 0;
  // 2^20 shards is far beyond any sane deployment; the cap also rejects
  // negative counts that %llu would otherwise wrap to huge values.
  constexpr unsigned long long kMaxShards = 1ULL << 20;
  if (std::sscanf(text.c_str(), "shards=%llu column=%lld routing=%15s bounds=%n",
                  &shards, &column, routing_name, &consumed) != 3 ||
      shards == 0 || shards > kMaxShards || column < 0 || consumed <= 0 ||
      static_cast<size_t>(consumed) >= text.size() ||
      text[static_cast<size_t>(consumed)] != '[') {
    return Status::InvalidArgument("shard router: cannot parse '" + text + "'");
  }
  router.num_shards_ = static_cast<size_t>(shards);
  router.column_ = static_cast<int>(column);
  const std::string name(routing_name);
  if (name == "hash") {
    router.routing_ = ShardRouting::kHash;
  } else if (name == "range") {
    router.routing_ = ShardRouting::kRange;
  } else {
    return Status::InvalidArgument("shard router: unknown routing '" + name +
                                   "'");
  }
  size_t pos = static_cast<size_t>(consumed) + 1;  // past '['
  while (pos < text.size() && text[pos] != ']') {
    if (!router.bounds_.empty()) {
      if (text[pos] != ',') {
        return Status::InvalidArgument("shard router: expected ','");
      }
      ++pos;
    }
    Value bound;
    OREO_RETURN_NOT_OK(ParseBound(text, &pos, &bound));
    router.bounds_.push_back(std::move(bound));
  }
  if (pos >= text.size() || text[pos] != ']') {
    return Status::InvalidArgument("shard router: unterminated bounds");
  }
  if (pos + 1 != text.size()) {
    return Status::InvalidArgument("shard router: trailing garbage after ']'");
  }
  if (router.routing_ == ShardRouting::kRange &&
      router.bounds_.size() + 1 != router.num_shards_) {
    return Status::InvalidArgument("shard router: bound count mismatch");
  }
  if (router.routing_ == ShardRouting::kHash && !router.bounds_.empty()) {
    return Status::InvalidArgument("shard router: hash routing has no bounds");
  }
  // Routing and pruning both assume one value type in strictly ascending
  // order (Build guarantees it); reject corrupted lines instead of routing
  // incorrectly — or CHECK-aborting on a mixed-type comparison — later.
  for (size_t i = 1; i < router.bounds_.size(); ++i) {
    if (router.bounds_[i].type() != router.bounds_[0].type()) {
      return Status::InvalidArgument("shard router: mixed bound types");
    }
    if (!(router.bounds_[i - 1] < router.bounds_[i])) {
      return Status::InvalidArgument(
          "shard router: bounds not strictly ascending");
    }
  }
  router.bounds_index_ = EytzingerIndex<Value>(router.bounds_);
  return router;
}

}  // namespace oreo
