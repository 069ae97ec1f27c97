// Qd-tree layout (Yang et al., SIGMOD'20), greedy construction as configured
// in the paper (§VI-A1: greedy, no advanced cuts, built on a 0.1-1% dataset
// sample). Inner nodes hold predicates harvested from the query workload;
// rows are routed left when the predicate matches, right otherwise; leaves
// are partitions (paper Figure 2).
#ifndef OREO_LAYOUT_QDTREE_LAYOUT_H_
#define OREO_LAYOUT_QDTREE_LAYOUT_H_

#include <memory>
#include <string>
#include <vector>

#include "layout/layout.h"
#include "query/predicate.h"

namespace oreo {

/// One node of a Qd-tree. Leaves have left == -1 and a partition id.
struct QdTreeNode {
  Predicate cut;            ///< inner nodes only
  int32_t left = -1;        ///< child when cut matches
  int32_t right = -1;       ///< child when cut does not match
  int32_t partition_id = -1;  ///< leaves only
  bool is_leaf() const { return left < 0; }
};

/// A built Qd-tree: routes rows through predicate cuts to leaf partitions.
class QdTreeLayout : public Layout {
 public:
  QdTreeLayout(std::vector<QdTreeNode> nodes, uint32_t num_leaves);

  std::string Describe() const override;
  uint32_t NumPartitionsUpperBound() const override { return num_leaves_; }
  /// Splits ascending row-id lists down the tree, one cut bitmap over the
  /// table per inner node; a row goes left iff it matches the cut.
  std::vector<uint32_t> Assign(const Table& table) const override;

  const std::vector<QdTreeNode>& nodes() const { return nodes_; }
  uint32_t num_leaves() const { return num_leaves_; }
  /// Maximum root-to-leaf depth (root = 0).
  int Depth() const;

 private:
  std::vector<QdTreeNode> nodes_;
  uint32_t num_leaves_;
};

/// Tuning knobs for the greedy builder.
struct QdTreeOptions {
  /// Maximum number of candidate cuts harvested from the workload.
  uint32_t max_cuts = 128;
  /// Minimum sample rows per leaf; 0 derives sample_rows / (2 * target_k).
  uint32_t min_leaf_rows = 0;
};

/// Greedy workload-aware Qd-tree generator.
class QdTreeGenerator : public LayoutGenerator {
 public:
  explicit QdTreeGenerator(QdTreeOptions options = {}) : options_(options) {}

  std::string name() const override { return "qdtree"; }
  std::unique_ptr<Layout> Generate(const Table& sample,
                                   const std::vector<Query>& workload,
                                   uint32_t target_partitions) const override;

 private:
  QdTreeOptions options_;
};

/// Extracts candidate cut predicates from workload filters (ranges
/// contribute their boundary half-planes), deduplicated on an exact key:
/// column, operator and each operand's type and bytes, so cuts that differ
/// in any bit stay apart. The `max_cuts` most frequent survive, ties in
/// first-appearance order. Exposed for tests.
std::vector<Predicate> HarvestCuts(const std::vector<Query>& workload,
                                   uint32_t max_cuts);

}  // namespace oreo

#endif  // OREO_LAYOUT_QDTREE_LAYOUT_H_
