#include "layout/qdtree_layout.h"

#include <algorithm>
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

uint32_t QdTreeLayout::RouteRow(const Table& table, uint32_t row) const {
  int32_t node = 0;
  while (!nodes_[static_cast<size_t>(node)].is_leaf()) {
    const QdTreeNode& n = nodes_[static_cast<size_t>(node)];
    node = n.cut.Matches(table, row) ? n.left : n.right;
  }
  return static_cast<uint32_t>(nodes_[static_cast<size_t>(node)].partition_id);
}

std::vector<uint32_t> QdTreeLayout::Assign(const Table& table) const {
  std::vector<uint32_t> out(table.num_rows());
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    out[r] = RouteRow(table, r);
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

std::vector<Predicate> HarvestCuts(const std::vector<Query>& workload,
                                   uint32_t max_cuts) {
  // Dedupe by display form; count frequency so the most common atoms win
  // when we exceed max_cuts.
  struct CutInfo {
    Predicate pred;
    int64_t count = 0;
    size_t order = 0;
  };
  std::unordered_map<std::string, CutInfo> seen;
  size_t order = 0;
  auto add = [&](const Predicate& p) {
    std::string key = p.ToString();
    auto it = seen.find(key);
    if (it == seen.end()) {
      seen.emplace(key, CutInfo{p, 1, order++});
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

// A leaf under construction: its sample-row set and tree node index.
struct BuildLeaf {
  BitVector rows;
  size_t count;
  int32_t node;
  bool done = false;  // no beneficial split exists
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

  // Per-cut and per-query row-match bitmaps over the sample, from the scan
  // kernels (bit-identical to a row-at-a-time Matches loop in every mode).
  std::vector<BitVector> cut_match;
  cut_match.reserve(cuts.size());
  for (const Predicate& c : cuts) {
    cut_match.push_back(EvalPredicateBitmap(sample, c));
  }
  std::vector<BitVector> query_match;
  query_match.reserve(workload.size());
  for (const Query& q : workload) {
    query_match.push_back(EvalQueryBitmap(sample, q));
  }

  std::vector<QdTreeNode> nodes(1);  // root placeholder
  std::vector<BuildLeaf> leaves;
  {
    BitVector all(n);
    all.SetAll();
    leaves.push_back(BuildLeaf{std::move(all), n, 0});
  }

  BitVector scratch_true(n), scratch_false(n);
  size_t open_leaves = 1;
  while (leaves.size() < target_partitions) {
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

    // Queries that currently must read this leaf (optimistic, row-level).
    std::vector<uint32_t> active_queries;
    for (uint32_t qi = 0; qi < query_match.size(); ++qi) {
      if (leaf.rows.Intersects(query_match[qi])) active_queries.push_back(qi);
    }

    double best_gain = 0.0;
    int best_cut = -1;
    size_t best_n1 = 0;
    for (size_t ci = 0; ci < cuts.size(); ++ci) {
      leaf.rows.AndInto(cut_match[ci], &scratch_true);
      size_t n1 = scratch_true.Count();
      size_t n0 = leaf.count - n1;
      if (n1 < min_rows || n0 < min_rows) continue;
      leaf.rows.AndNotInto(cut_match[ci], &scratch_false);
      double gain = 0.0;
      for (uint32_t qi : active_queries) {
        // Before the split this query reads all leaf.count rows; after, it
        // reads only the sides it intersects.
        double after = 0.0;
        if (scratch_true.Intersects(query_match[qi])) {
          after += static_cast<double>(n1);
        }
        if (scratch_false.Intersects(query_match[qi])) {
          after += static_cast<double>(n0);
        }
        gain += static_cast<double>(leaf.count) - after;
      }
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
    leaf.rows.AndInto(cut_match[static_cast<size_t>(best_cut)], &scratch_true);
    leaf.rows.AndNotInto(cut_match[static_cast<size_t>(best_cut)],
                         &scratch_false);
    int32_t left_node = static_cast<int32_t>(nodes.size());
    nodes.emplace_back();
    int32_t right_node = static_cast<int32_t>(nodes.size());
    nodes.emplace_back();
    QdTreeNode& inner = nodes[static_cast<size_t>(leaf.node)];
    inner.cut = cuts[static_cast<size_t>(best_cut)];
    inner.left = left_node;
    inner.right = right_node;
    inner.partition_id = -1;

    size_t n1 = best_n1;
    size_t n0 = leaf.count - n1;
    BuildLeaf right{std::move(scratch_false), n0, right_node};
    leaf.rows = std::move(scratch_true);
    leaf.count = n1;
    leaf.node = left_node;
    leaves.push_back(std::move(right));
    scratch_true = BitVector(n);
    scratch_false = BitVector(n);
    ++open_leaves;
  }
  (void)open_leaves;

  // Assign partition ids to leaves.
  uint32_t next_id = 0;
  for (const BuildLeaf& leaf : leaves) {
    nodes[static_cast<size_t>(leaf.node)].partition_id =
        static_cast<int32_t>(next_id++);
  }
  return std::make_unique<QdTreeLayout>(std::move(nodes), next_id);
}

}  // namespace oreo
