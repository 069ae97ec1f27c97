// Table I reproduction: measuring the relative cost alpha of reorganization
// versus a full-table-scan query, across partition file sizes.
//
// The paper measures Spark + Parquet on local disk and reports alpha in the
// 60-100x range. Our substrate is the bundled block engine (DESIGN.md):
// a query = read + decompress + predicate scan of the file; reorganization =
// read + decompress + re-assign rows to a different layout + re-compress +
// write the new partition files. Absolute ratios differ from Spark's (no JVM,
// no shuffle, lighter compression) — the shape to check is that reorg is one
// to two orders of magnitude more expensive than a scan and that the ratio
// is roughly flat across file sizes.
//
// Flags: --sizes=16,64,256 (MB; --full adds 1024) --reps=3 --partitions=8;
// --quick is the smoke scale, --sizes=1,4 --reps=1 (explicit flags win).
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "core/physical.h"
#include "layout/sorted_layout.h"
#include "storage/block.h"
#include "workloads/dataset.h"

namespace oreo {
namespace bench {
namespace {

namespace fs = std::filesystem;

// Estimates serialized bytes/row for the TPC-H-like table (sampled once).
double BytesPerRow() {
  workloads::WorkloadDataset probe = workloads::MakeTpchLike(5000, 1);
  return static_cast<double>(SerializedBlockSize(probe.table)) / 5000.0;
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.Has("quick");
  int reps = static_cast<int>(flags.GetInt("reps", quick ? 1 : 3));
  uint32_t partitions = static_cast<uint32_t>(flags.GetInt("partitions", 8));
  std::string sizes_str = flags.GetString("sizes", quick ? "1,4" : "16,64,256");
  if (flags.Has("full")) sizes_str += ",1024";

  std::vector<double> sizes_mb;
  {
    std::stringstream ss(sizes_str);
    std::string item;
    while (std::getline(ss, item, ',')) sizes_mb.push_back(std::stod(item));
  }

  std::printf("=== Table I: relative cost of reorganization over query ===\n");
  std::printf("(bundled block engine; paper used Spark+Parquet and saw "
              "alpha=60-100x)\n\n");
  std::printf("%12s %10s %16s %16s %8s\n", "file size", "rows", "query (sec)",
              "reorg (sec)", "alpha");

  double bpr = BytesPerRow();
  std::string dir = DefaultScratchDir("table1");
  for (double mb : sizes_mb) {
    size_t rows = static_cast<size_t>(mb * 1024.0 * 1024.0 / bpr);
    workloads::WorkloadDataset ds = workloads::MakeTpchLike(rows, 7);
    Rng rng(3);
    Table sample = ds.table.SampleRows(2000, &rng);

    // Source layout: sorted by shipdate; target: sorted by quantity.
    SortLayoutGenerator src_gen(5), dst_gen(1);
    LayoutInstance src = Materialize(
        "by_shipdate",
        std::shared_ptr<const Layout>(src_gen.Generate(sample, {}, partitions)),
        ds.table);
    LayoutInstance dst = Materialize(
        "by_quantity",
        std::shared_ptr<const Layout>(dst_gen.Generate(sample, {}, partitions)),
        ds.table);

    RunningStats query_s, reorg_s;
    uint64_t bytes = 0;
    for (int rep = 0; rep < reps; ++rep) {
      fs::remove_all(dir);
      core::PhysicalStore store(dir);
      auto mat = store.MaterializeLayout(ds.table, src);
      OREO_CHECK(mat.ok()) << mat.status().ToString();
      bytes = store.MaterializedBytes();

      Query full_scan;  // no conjuncts: every partition is read
      auto exec = store.ExecuteQuery(full_scan);
      OREO_CHECK(exec.ok()) << exec.status().ToString();
      query_s.Add(exec->seconds);

      auto reorg = store.Reorganize(ds.table, dst);
      OREO_CHECK(reorg.ok()) << reorg.status().ToString();
      reorg_s.Add(reorg->seconds);
    }
    std::printf("%9.0f MB %10zu %9.3f ±%5.3f %9.3f ±%5.3f %7.1fx\n",
                static_cast<double>(bytes) / (1024.0 * 1024.0), rows,
                query_s.mean(), query_s.stddev(), reorg_s.mean(),
                reorg_s.stddev(), reorg_s.mean() / query_s.mean());
  }
  fs::remove_all(dir);
  std::printf(
      "\nExpected shape (paper Table I): reorganization is 1-2 orders of "
      "magnitude\nmore expensive than a full scan, roughly flat across file "
      "sizes.\n");
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
