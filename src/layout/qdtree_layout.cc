#include "layout/qdtree_layout.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "common/bitvector.h"
#include "common/logging.h"
#include "query/kernels.h"

namespace oreo {

QdTreeLayout::QdTreeLayout(std::vector<QdTreeNode> nodes, uint32_t num_leaves)
    : nodes_(std::move(nodes)), num_leaves_(num_leaves) {
  OREO_CHECK(!nodes_.empty());
  OREO_CHECK_GE(num_leaves_, 1u);
}

std::string QdTreeLayout::Describe() const {
  return "qdtree(leaves=" + std::to_string(num_leaves_) +
         ", depth=" + std::to_string(Depth()) + ")";
}

std::vector<uint32_t> QdTreeLayout::Assign(const Table& table) const {
  // Ascending row ids split stably down the tree: each inner node moves its
  // range's rows that match its cut to the front and the rest behind them,
  // so every node's range stays ascending. The cut's bitmap comes from the
  // scan kernels, which equal Predicate::Matches row for row in every mode.
  const uint32_t n = static_cast<uint32_t>(table.num_rows());
  std::vector<uint32_t> out(n);
  std::vector<uint32_t> rows(n);
  for (uint32_t r = 0; r < n; ++r) rows[r] = r;
  std::vector<uint32_t> spill(n);
  struct Range {
    int32_t node;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<Range> stack = {{0, 0, n}};
  while (!stack.empty()) {
    const Range range = stack.back();
    stack.pop_back();
    const QdTreeNode& node = nodes_[static_cast<size_t>(range.node)];
    if (node.is_leaf()) {
      const uint32_t id = static_cast<uint32_t>(node.partition_id);
      for (uint32_t i = range.begin; i < range.end; ++i) out[rows[i]] = id;
      continue;
    }
    if (range.begin == range.end) continue;
    const BitVector match = EvalPredicateBitmap(table, node.cut);
    uint32_t left_end = range.begin;
    uint32_t spilled = 0;
    for (uint32_t i = range.begin; i < range.end; ++i) {
      const uint32_t r = rows[i];
      const uint32_t bit = match.Get(r) ? 1u : 0u;
      rows[left_end] = r;
      spill[spilled] = r;
      left_end += bit;
      spilled += bit ^ 1u;
    }
    std::copy(spill.begin(), spill.begin() + spilled,
              rows.begin() + left_end);
    stack.push_back({node.right, left_end, range.end});
    stack.push_back({node.left, range.begin, left_end});
  }
  return out;
}

int QdTreeLayout::Depth() const {
  // Iterative DFS carrying depths.
  std::vector<std::pair<int32_t, int>> stack = {{0, 0}};
  int max_depth = 0;
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const QdTreeNode& n = nodes_[static_cast<size_t>(node)];
    if (!n.is_leaf()) {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

namespace {

void AppendBytes(const void* data, size_t size, std::string* key) {
  key->append(static_cast<const char*>(data), size);
}

void AppendValueKey(const Value& v, std::string* key) {
  key->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case DataType::kInt64: {
      const int64_t x = v.AsInt64();
      AppendBytes(&x, sizeof(x), key);
      return;
    }
    case DataType::kDouble: {
      const double x = v.AsDouble();
      AppendBytes(&x, sizeof(x), key);
      return;
    }
    case DataType::kString: {
      const std::string& x = v.AsString();
      const uint64_t size = x.size();
      AppendBytes(&size, sizeof(size), key);
      key->append(x);
      return;
    }
  }
}

// Exact structural key of a predicate: column, operator, and each operand
// the operator reads as its type tag plus its bytes (doubles by bit
// pattern, strings and IN lists length-prefixed). Two predicates share a
// key iff they are the same filter term.
std::string PredicateKey(const Predicate& p) {
  std::string key;
  AppendBytes(&p.column, sizeof(p.column), &key);
  key.push_back(static_cast<char>(p.op));
  switch (p.op) {
    case CompareOp::kBetween:
      AppendValueKey(p.value, &key);
      AppendValueKey(p.value2, &key);
      break;
    case CompareOp::kIn: {
      const uint64_t size = p.in_list.size();
      AppendBytes(&size, sizeof(size), &key);
      for (const Value& v : p.in_list) AppendValueKey(v, &key);
      break;
    }
    default:
      AppendValueKey(p.value, &key);
      break;
  }
  return key;
}

}  // namespace

std::vector<Predicate> HarvestCuts(const std::vector<Query>& workload,
                                   uint32_t max_cuts) {
  // Dedupe on the exact structural key; count frequency so the most common
  // atoms win when we exceed max_cuts.
  struct CutInfo {
    Predicate pred;
    int64_t count = 0;
    size_t order = 0;
  };
  std::unordered_map<std::string, CutInfo> seen;
  size_t order = 0;
  auto add = [&](Predicate p) {
    auto [it, inserted] = seen.try_emplace(PredicateKey(p));
    if (inserted) {
      it->second = CutInfo{std::move(p), 1, order++};
    } else {
      ++it->second.count;
    }
  };
  for (const Query& q : workload) {
    for (const Predicate& p : q.conjuncts) {
      switch (p.op) {
        case CompareOp::kBetween:
          // Range -> two half-planes so the tree can isolate the interval.
          add(Predicate::Ge(p.column, p.value));
          add(Predicate::Le(p.column, p.value2));
          break;
        default:
          add(p);
          break;
      }
    }
  }
  std::vector<CutInfo> cuts;
  cuts.reserve(seen.size());
  for (auto& [key, info] : seen) cuts.push_back(std::move(info));
  std::sort(cuts.begin(), cuts.end(), [](const CutInfo& a, const CutInfo& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.order < b.order;
  });
  if (cuts.size() > max_cuts) cuts.resize(max_cuts);
  std::vector<Predicate> out;
  out.reserve(cuts.size());
  for (auto& c : cuts) out.push_back(std::move(c.pred));
  return out;
}

namespace {

// A leaf under construction: its sample-row set, tree node index, and the
// queries that may still read it (those that read its parent).
struct BuildLeaf {
  BitVector rows;
  size_t count;
  int32_t node;
  std::vector<uint32_t> queries;
  bool done = false;  // no beneficial split exists
};

// Match bitmaps over the sample, one per distinct predicate: a harvested
// cut and an identical query conjunct share one kernel evaluation.
class PredicateBitmaps {
 public:
  explicit PredicateBitmaps(const Table& sample) : sample_(sample) {}

  const BitVector& Get(const Predicate& p) {
    auto [it, inserted] = index_.try_emplace(PredicateKey(p), bitmaps_.size());
    if (inserted) bitmaps_.push_back(EvalPredicateBitmap(sample_, p));
    return bitmaps_[it->second];
  }

  // The AND of the conjuncts' bitmaps, which is EvalQueryBitmap's result in
  // both kernel modes (all ones without conjuncts).
  BitVector QueryBitmap(const Query& q) {
    BitVector out(sample_.num_rows());
    if (q.conjuncts.empty()) {
      out.SetAll();
      return out;
    }
    out = Get(q.conjuncts[0]);
    for (size_t i = 1; i < q.conjuncts.size(); ++i) {
      out.AndAssign(Get(q.conjuncts[i]));
    }
    return out;
  }

 private:
  const Table& sample_;
  std::unordered_map<std::string, size_t> index_;
  std::deque<BitVector> bitmaps_;  // stable addresses
};

// Per-bit counts over many rows of `words` words each. Eight byte-lane
// accumulators per word take one shift, mask and add per lane and row (byte
// b of lane j counts bit 8b + j); they spill into the totals every 255
// rows, before a byte can overflow.
class BitCounter {
 public:
  explicit BitCounter(size_t words)
      : words_(words), lanes_(words * 8), totals_(words * 64) {}

  void Clear() {
    std::fill(lanes_.begin(), lanes_.end(), 0);
    std::fill(totals_.begin(), totals_.end(), 0);
    pending_ = 0;
  }

  void Add(const uint64_t* row) {
    constexpr uint64_t kLowBits = 0x0101010101010101ULL;
    for (size_t w = 0; w < words_; ++w) {
      const uint64_t x = row[w];
      uint64_t* lane = &lanes_[w * 8];
      for (size_t j = 0; j < 8; ++j) lane[j] += (x >> j) & kLowBits;
    }
    if (++pending_ == 255) Spill();
  }

  /// Count per bit position, bit c at index c.
  const std::vector<int64_t>& Totals() {
    Spill();
    return totals_;
  }

 private:
  void Spill() {
    for (size_t w = 0; w < words_; ++w) {
      for (size_t j = 0; j < 8; ++j) {
        uint64_t lane = lanes_[w * 8 + j];
        for (size_t b = 0; b < 8; ++b, lane >>= 8) {
          totals_[w * 64 + b * 8 + j] += static_cast<int64_t>(lane & 0xff);
        }
        lanes_[w * 8 + j] = 0;
      }
    }
    pending_ = 0;
  }

  size_t words_;
  std::vector<uint64_t> lanes_;
  std::vector<int64_t> totals_;
  size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<Layout> QdTreeGenerator::Generate(
    const Table& sample, const std::vector<Query>& workload,
    uint32_t target_partitions) const {
  const size_t n = sample.num_rows();
  OREO_CHECK_GT(n, 0u);
  OREO_CHECK_GE(target_partitions, 1u);

  uint32_t min_rows = options_.min_leaf_rows;
  if (min_rows == 0) {
    min_rows = std::max<uint32_t>(
        1, static_cast<uint32_t>(n / (2 * target_partitions)));
  }

  std::vector<Predicate> cuts = HarvestCuts(workload, options_.max_cuts);

  PredicateBitmaps bitmaps(sample);
  std::vector<const BitVector*> cut_match;
  cut_match.reserve(cuts.size());
  for (const Predicate& c : cuts) cut_match.push_back(&bitmaps.Get(c));
  std::vector<BitVector> query_match;
  query_match.reserve(workload.size());
  for (const Query& q : workload) query_match.push_back(bitmaps.QueryBitmap(q));

  // Each sample row's cut membership: bit c of row r's `cut_words` words is
  // set iff row r matches cut c. Bits past the last cut stay clear.
  const size_t cut_words = (cuts.size() + 63) / 64;
  std::vector<uint64_t> row_cuts(n * cut_words, 0);
  for (size_t c = 0; c < cuts.size(); ++c) {
    const BitVector& match = *cut_match[c];
    const uint64_t bit = uint64_t{1} << (c % 64);
    for (size_t w = 0; w < match.num_words(); ++w) {
      for (uint64_t bits = match.words()[w]; bits != 0; bits &= bits - 1) {
        const size_t r = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        row_cuts[r * cut_words + c / 64] |= bit;
      }
    }
  }
  std::vector<uint64_t> valid(cut_words, ~uint64_t{0});
  if (cuts.size() % 64 != 0) {
    valid.back() = (uint64_t{1} << (cuts.size() % 64)) - 1;
  }

  std::vector<QdTreeNode> nodes(1);  // root placeholder
  std::vector<BuildLeaf> leaves;
  {
    BitVector all(n);
    all.SetAll();
    std::vector<uint32_t> queries(workload.size());
    for (uint32_t qi = 0; qi < queries.size(); ++qi) queries[qi] = qi;
    leaves.push_back(BuildLeaf{std::move(all), n, 0, std::move(queries)});
  }

  BitCounter n1_count(cut_words), only_true(cut_words), only_false(cut_words);
  std::vector<uint64_t> touch_true(cut_words), touch_false(cut_words),
      side(cut_words);
  std::vector<uint32_t> active;
  // Without cuts nothing can split: the tree is one leaf.
  while (!cuts.empty() && leaves.size() < target_partitions) {
    // Pick the largest not-done leaf.
    int best_leaf = -1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i].done) continue;
      if (best_leaf < 0 ||
          leaves[i].count > leaves[static_cast<size_t>(best_leaf)].count) {
        best_leaf = static_cast<int>(i);
      }
    }
    if (best_leaf < 0) break;  // nothing splittable
    BuildLeaf& leaf = leaves[static_cast<size_t>(best_leaf)];
    if (leaf.count < 2 * min_rows) {
      leaf.done = true;
      continue;
    }
    const uint64_t* leaf_words = leaf.rows.words();

    // n1 per cut: the leaf's rows on the cut's true side.
    n1_count.Clear();
    for (size_t w = 0; w < leaf.rows.num_words(); ++w) {
      for (uint64_t bits = leaf_words[w]; bits != 0; bits &= bits - 1) {
        const size_t r = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
        n1_count.Add(&row_cuts[r * cut_words]);
      }
    }

    // A query is active when it matches a row of the leaf (optimistic,
    // row-level); it touches a cut's true (false) side when one of those
    // rows does (does not) match the cut. OR-ing the rows' cut words finds
    // both for every cut at once, stopping once every cut is touched on
    // both sides. Only queries that touch one side of a cut gain from it.
    active.clear();
    only_true.Clear();
    only_false.Clear();
    for (uint32_t qi : leaf.queries) {
      const uint64_t* query_words = query_match[qi].words();
      std::fill(touch_true.begin(), touch_true.end(), 0);
      std::fill(touch_false.begin(), touch_false.end(), 0);
      bool touched = false;
      bool both = false;
      for (size_t w = 0; w < leaf.rows.num_words() && !both; ++w) {
        uint64_t bits = leaf_words[w] & query_words[w];
        for (; bits != 0 && !both; bits &= bits - 1) {
          const size_t r = w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
          const uint64_t* rc = &row_cuts[r * cut_words];
          touched = true;
          both = true;
          for (size_t k = 0; k < cut_words; ++k) {
            touch_true[k] |= rc[k];
            touch_false[k] |= ~rc[k] & valid[k];
            both &= (touch_true[k] & touch_false[k]) == valid[k];
          }
        }
      }
      if (!touched) continue;
      active.push_back(qi);
      if (both) continue;
      for (size_t k = 0; k < cut_words; ++k) {
        side[k] = touch_true[k] & ~touch_false[k];
      }
      only_true.Add(side.data());
      for (size_t k = 0; k < cut_words; ++k) {
        side[k] = touch_false[k] & ~touch_true[k];
      }
      only_false.Add(side.data());
    }

    // Before the split each active query reads all n1 + n0 rows; after, it
    // reads n1 rows if it touches the true side plus n0 if it touches the
    // false side. Summed over the active queries, the rows saved are
    // n0 * only_true + n1 * only_false: exact integers.
    const std::vector<int64_t>& n1s = n1_count.Totals();
    const std::vector<int64_t>& trues = only_true.Totals();
    const std::vector<int64_t>& falses = only_false.Totals();
    int64_t best_gain = 0;
    int best_cut = -1;
    size_t best_n1 = 0;
    for (size_t ci = 0; ci < cuts.size(); ++ci) {
      const size_t n1 = static_cast<size_t>(n1s[ci]);
      const size_t n0 = leaf.count - n1;
      if (n1 < min_rows || n0 < min_rows) continue;
      const int64_t gain = static_cast<int64_t>(n0) * trues[ci] +
                           static_cast<int64_t>(n1) * falses[ci];
      if (gain > best_gain) {
        best_gain = gain;
        best_cut = static_cast<int>(ci);
        best_n1 = n1;
      }
    }

    if (best_cut < 0) {
      leaf.done = true;
      continue;
    }

    // Materialize the split: the current leaf's node becomes an inner node.
    const BitVector& cut = *cut_match[static_cast<size_t>(best_cut)];
    BitVector right_rows(n);
    leaf.rows.AndNotInto(cut, &right_rows);
    leaf.rows.AndAssign(cut);
    int32_t left_node = static_cast<int32_t>(nodes.size());
    nodes.emplace_back();
    int32_t right_node = static_cast<int32_t>(nodes.size());
    nodes.emplace_back();
    QdTreeNode& inner = nodes[static_cast<size_t>(leaf.node)];
    inner.cut = cuts[static_cast<size_t>(best_cut)];
    inner.left = left_node;
    inner.right = right_node;
    inner.partition_id = -1;

    const size_t n0 = leaf.count - best_n1;
    leaf.count = best_n1;
    leaf.node = left_node;
    leaf.queries = active;
    leaves.push_back(BuildLeaf{std::move(right_rows), n0, right_node, active});
  }

  // Assign partition ids to leaves.
  uint32_t next_id = 0;
  for (const BuildLeaf& leaf : leaves) {
    nodes[static_cast<size_t>(leaf.node)].partition_id =
        static_cast<int32_t>(next_id++);
  }
  return std::make_unique<QdTreeLayout>(std::move(nodes), next_id);
}

}  // namespace oreo
