// Plugging a custom layout-generation mechanism into OREO.
//
// The framework is agnostic to how layouts are produced (paper SIII-B): any
// mechanism implementing LayoutGenerator::Generate can feed the dynamic state
// space. This example adds a "hot-column equality" layout — it finds the most
// frequent equality-predicate column in the recent workload and hash-buckets
// rows by that column's value — and lets OREO arbitrate between it, the
// built-in Qd-tree, and the default sort layout.
//
// Run: ./build/examples/custom_layout
#include <cstdio>
#include <memory>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

using namespace oreo;

namespace {

// A layout that buckets rows by hashing one column's value.
class HashBucketLayout : public Layout {
 public:
  HashBucketLayout(int column, std::string column_name, uint32_t buckets)
      : column_(column), column_name_(std::move(column_name)),
        buckets_(buckets) {}

  std::string Describe() const override {
    return "hash(" + column_name_ + ", k=" + std::to_string(buckets_) + ")";
  }
  uint32_t NumPartitionsUpperBound() const override { return buckets_; }
  std::vector<uint32_t> Assign(const Table& table) const override {
    const Column& col = table.column(static_cast<size_t>(column_));
    std::vector<uint32_t> out(table.num_rows());
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      uint64_t h;
      if (col.type() == DataType::kString) {
        h = std::hash<std::string>{}(col.GetString(r));
      } else {
        h = std::hash<int64_t>{}(static_cast<int64_t>(col.GetNumeric(r)));
      }
      out[r] = static_cast<uint32_t>(h % buckets_);
    }
    return out;
  }

 private:
  int column_;
  std::string column_name_;
  uint32_t buckets_;
};

// Generator: pick the column with the most equality/IN predicates in the
// recent window and hash-bucket on it. Falls back to column 0.
class HotColumnHashGenerator : public LayoutGenerator {
 public:
  std::string name() const override { return "hot-hash"; }
  std::unique_ptr<Layout> Generate(const Table& sample,
                                   const std::vector<Query>& workload,
                                   uint32_t target_partitions) const override {
    std::vector<int64_t> counts(sample.num_columns(), 0);
    for (const Query& q : workload) {
      for (const Predicate& p : q.conjuncts) {
        if (p.op == CompareOp::kEq || p.op == CompareOp::kIn) {
          ++counts[static_cast<size_t>(p.column)];
        }
      }
    }
    int best = 0;
    for (size_t c = 1; c < counts.size(); ++c) {
      if (counts[c] > counts[static_cast<size_t>(best)]) best = static_cast<int>(c);
    }
    return std::make_unique<HashBucketLayout>(
        best, sample.schema().field(static_cast<size_t>(best)).name,
        target_partitions);
  }
};

// A generator that proposes BOTH a qd-tree and a hot-hash candidate by
// alternating — OREO's admission test keeps whichever is distinct enough.
class AlternatingGenerator : public LayoutGenerator {
 public:
  std::string name() const override { return "qdtree+hot-hash"; }
  std::unique_ptr<Layout> Generate(const Table& sample,
                                   const std::vector<Query>& workload,
                                   uint32_t target_partitions) const override {
    flip_ = !flip_;
    if (flip_) return qdtree_.Generate(sample, workload, target_partitions);
    return hash_.Generate(sample, workload, target_partitions);
  }

 private:
  mutable bool flip_ = false;
  QdTreeGenerator qdtree_;
  HotColumnHashGenerator hash_;
};

}  // namespace

int main() {
  workloads::WorkloadDataset ds = workloads::MakeTelemetry(60000, 41);
  workloads::WorkloadOptions wopts;
  wopts.num_queries = 8000;
  wopts.num_segments = 8;
  wopts.seed = 42;
  workloads::Workload wl = workloads::GenerateWorkload(ds.templates, wopts);

  std::printf("Running OREO with a custom layout-generation mechanism "
              "(qd-tree alternating with hot-column hash buckets)...\n\n");
  AlternatingGenerator generator;
  core::OreoOptions opts;
  opts.target_partitions = 20;
  opts.generate_every = 100;  // alternation needs a faster cadence
  auto oreo = core::MakeEngine(&ds.table, &generator, ds.time_column, opts);
  for (const Query& q : wl.queries) {
    core::StepResult step = oreo->Step(q);
    if (step.reorganized) {
      std::printf("query %5lld: switch to %-40s\n",
                  static_cast<long long>(q.id),
                  oreo->core(0).registry().Get(step.state).name().c_str());
    }
  }
  std::printf("\nquery cost=%.1f reorg cost=%.1f switches=%lld\n",
              oreo->total_query_cost(), oreo->total_reorg_cost(),
              static_cast<long long>(oreo->num_switches()));
  std::printf("\nLive state space at the end:\n");
  for (int id : oreo->core(0).registry().live()) {
    std::printf("  [%d] %s (%zu partitions)\n", id,
                oreo->core(0).registry().Get(id).name().c_str(),
                oreo->core(0).registry().Get(id).partitioning().num_partitions());
  }
  return 0;
}
