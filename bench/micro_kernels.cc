// Micro-benchmark for the data-parallel scan kernels (query/kernels.h,
// storage/codec.cc fast paths, common/eytzinger.h): scalar reference vs
// vectorized throughput on a dataset large enough to live in RAM but far
// outside L2, which is where branch mispredictions and per-row dereferences
// actually cost. Correctness is cross-checked while measuring — both modes
// must produce identical match counts / decoded bytes / lookup ranks.
//
// Kernels measured:
//   predicate_int64   range predicate -> selection bitmap, popcount
//   predicate_double  range predicate over doubles
//   predicate_string  dict-code predicate
//   eytzinger_lookup  sorted-boundary rank lookups vs std::lower_bound
//   codec_delta       delta-varint int64 decode (block fast path)
//   codec_rle         RLE int64 decode (pointer-fill fast path)
//   codec_bitpack     bit-packed decode: 3-bit dictionary codes (8 used
//                     entries) plus 20-bit frame-of-reference offsets, per
//                     row; byte-wise reference vs 8-byte word loads. Both
//                     modes' outputs are checked equal element for element
//   crc32c_4k/17k/1m  CRC-32C of 4 KiB, 17 KiB and 1 MiB buffers: the
//                     table loop vs the dispatched (SSE4.2) path, in bytes
//   qdtree_generate   QdTreeGenerator::Generate at the tpcds_decide shape
//                     (20k-row table, 2000-row sample, one tree per W = 200
//                     query window, 32 partitions), in trees; the scalar and
//                     dispatched trees are checked equal node for node
//   qdtree_materialize  Assign plus BuildPartitioning of each of those
//                     trees over the 20k-row table, in trees; the scalar and
//                     dispatched row lists and zone maps are checked equal
//                     field for field
//
// Flags: --rows=N (default 10M) --probes=N --reps=N --seed=N
//        --out=path.json (default: BENCH_kernels.json in the working
//        directory; --out= empty disables the file)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "common/crc32.h"
#include "common/eytzinger.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "layout/qdtree_layout.h"
#include "query/kernels.h"
#include "storage/codec.h"
#include "storage/partitioning.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace bench {
namespace {

struct KernelResult {
  const char* name;
  const char* unit;     // what per-second throughput counts
  double scalar_s = 0.0;
  double vector_s = 0.0;
  double items = 0.0;   // per rep
  uint64_t checksum = 0;  // must be identical across modes
};

double Speedup(const KernelResult& r) {
  return r.vector_s > 0.0 ? r.scalar_s / r.vector_s : 0.0;
}

// Runs `body` (which returns a checksum) under both kernel modes, reps
// times each, storing total seconds per mode and CHECK-ing the checksums
// agree (the bit-identity contract, verified while measuring).
template <typename Body>
void Measure(KernelResult* r, size_t reps, const Body& body) {
  simd::SetGlobalKernelMode(simd::KernelMode::kScalar);
  uint64_t scalar_sum = 0;
  Stopwatch sw;
  for (size_t rep = 0; rep < reps; ++rep) scalar_sum += body();
  r->scalar_s = sw.ElapsedSeconds();

  simd::SetGlobalKernelMode(simd::KernelMode::kVector);
  uint64_t vector_sum = 0;
  sw.Restart();
  for (size_t rep = 0; rep < reps; ++rep) vector_sum += body();
  r->vector_s = sw.ElapsedSeconds();

  simd::SetGlobalKernelMode(simd::KernelMode::kAuto);
  OREO_CHECK_EQ(scalar_sum, vector_sum) << r->name
                                        << ": kernel modes disagree";
  r->checksum = scalar_sum;
}

// Every node of a Qd-tree (cut, children, partition id) as one string.
std::string TreeFingerprint(const Layout& layout) {
  const auto* tree = dynamic_cast<const QdTreeLayout*>(&layout);
  OREO_CHECK(tree != nullptr);
  std::ostringstream out;
  for (const QdTreeNode& n : tree->nodes()) {
    out << (n.is_leaf() ? std::string("leaf") : n.cut.ToString()) << ' '
        << n.left << ' ' << n.right << ' ' << n.partition_id << '\n';
  }
  return out.str();
}

// Every partition's row ids and every zone field (doubles by bit pattern)
// as one string.
std::string PartitioningFingerprint(const Partitioning& p) {
  std::ostringstream out;
  for (size_t i = 0; i < p.num_partitions(); ++i) {
    for (uint32_t r : p.partitions[i]) out << r << ' ';
    out << '|' << p.zones[i].num_rows;
    for (const ColumnZone& z : p.zones[i].columns) {
      uint64_t lo = 0, hi = 0;
      std::memcpy(&lo, &z.dbl_min, sizeof(lo));
      std::memcpy(&hi, &z.dbl_max, sizeof(hi));
      out << ' ' << z.empty << z.int_min << ',' << z.int_max << ',' << lo
          << ',' << hi << ',' << z.str_min << ',' << z.str_max << ','
          << z.distinct_overflow;
      for (const std::string& v : z.distinct) out << ',' << v;
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = static_cast<size_t>(flags.GetInt("rows", 10'000'000));
  const size_t probes = static_cast<size_t>(
      flags.GetInt("probes", static_cast<int64_t>(std::min<size_t>(rows, 2'000'000))));
  const size_t reps = static_cast<size_t>(flags.GetInt("reps", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 17));

  std::fprintf(stderr,
               "micro_kernels: rows=%zu probes=%zu reps=%zu dispatch=%s\n",
               rows, probes, reps, simd::DispatchDescription());

  // ---- fixture: one wide table, rows >> L2 ------------------------------
  Rng rng(seed);
  Table t(Schema({{"i", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"s", DataType::kString}}));
  {
    const char* cats[] = {"aa", "ab", "ba", "bb", "ca", "cb", "da", "db"};
    Column* ci = t.mutable_column(0);
    Column* cd = t.mutable_column(1);
    Column* cs = t.mutable_column(2);
    ci->Reserve(rows);
    cd->Reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      ci->AppendInt64(rng.UniformInt(0, 1'000'000));
      cd->AppendDouble(rng.UniformDouble(0.0, 1'000'000.0));
      cs->AppendString(cats[rng.Uniform(8)]);
    }
    t.FinishAppends();
  }

  std::vector<KernelResult> results;

  // ---- predicate kernels: ~30% selective range per type -----------------
  {
    Query q;
    q.conjuncts.push_back(Predicate::Between(0, Value(int64_t{200'000}),
                                             Value(int64_t{500'000})));
    KernelResult r{"predicate_int64", "rows", 0, 0,
                   static_cast<double>(rows), 0};
    Measure(&r, reps, [&] { return CountMatches(t, q); });
    results.push_back(r);
  }
  {
    Query q;
    q.conjuncts.push_back(
        Predicate::Between(1, Value(200'000.0), Value(500'000.0)));
    KernelResult r{"predicate_double", "rows", 0, 0,
                   static_cast<double>(rows), 0};
    Measure(&r, reps, [&] { return CountMatches(t, q); });
    results.push_back(r);
  }
  {
    Query q;
    q.conjuncts.push_back(Predicate::Lt(2, Value(std::string("b"))));
    KernelResult r{"predicate_string", "rows", 0, 0,
                   static_cast<double>(rows), 0};
    Measure(&r, reps, [&] { return CountMatches(t, q); });
    results.push_back(r);
  }

  // ---- Eytzinger lookups over a RAM-resident boundary array -------------
  {
    std::vector<double> sorted(t.column(1).doubles());
    std::sort(sorted.begin(), sorted.end());
    EytzingerIndex<double> index(sorted);
    std::vector<double> query_points;
    query_points.reserve(probes);
    Rng prng(seed + 1);
    for (size_t i = 0; i < probes; ++i) {
      query_points.push_back(prng.UniformDouble(-1000.0, 1'001'000.0));
    }
    KernelResult r{"eytzinger_lookup", "lookups", 0, 0,
                   static_cast<double>(probes), 0};
    // The dispatch sites (SortedLayout::Assign etc.) choose between these
    // two searches; measure them head-to-head the same way.
    std::vector<uint32_t> ranks(probes);
    Measure(&r, reps, [&] {
      uint64_t sum = 0;
      if (simd::VectorEnabled()) {
        index.LowerBoundBatch(query_points.data(), query_points.size(),
                              ranks.data());
        for (uint32_t rank : ranks) sum += rank;
      } else {
        for (double x : query_points) {
          sum += static_cast<uint64_t>(
              std::lower_bound(sorted.begin(), sorted.end(), x) -
              sorted.begin());
        }
      }
      return sum;
    });
    results.push_back(r);
  }

  // ---- codec decode -----------------------------------------------------
  {
    // Sorted int64s: small deltas, the block fast path's home turf.
    std::vector<int64_t> vals(t.column(0).ints());
    std::sort(vals.begin(), vals.end());
    std::string delta_buf, rle_buf;
    EncodeInt64(vals, Encoding::kDeltaVarint, &delta_buf);
    // Duplicate-heavy values for RLE.
    std::vector<int64_t> dup_vals;
    dup_vals.reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      dup_vals.push_back(static_cast<int64_t>(i / 512));
    }
    EncodeInt64(dup_vals, Encoding::kRle, &rle_buf);

    KernelResult rd{"codec_delta", "values", 0, 0, static_cast<double>(rows),
                    0};
    std::vector<int64_t> out;
    Measure(&rd, reps, [&] {
      OREO_CHECK(DecodeInt64(delta_buf, Encoding::kDeltaVarint, vals.size(),
                             &out)
                     .ok());
      return static_cast<uint64_t>(out.back()) + static_cast<uint64_t>(out[0]);
    });
    results.push_back(rd);

    KernelResult rr{"codec_rle", "values", 0, 0, static_cast<double>(rows), 0};
    Measure(&rr, reps, [&] {
      OREO_CHECK(DecodeInt64(rle_buf, Encoding::kRle, dup_vals.size(), &out)
                     .ok());
      return static_cast<uint64_t>(out.back()) + static_cast<uint64_t>(out[0]);
    });
    results.push_back(rr);

    // Bit-packed blocks: the string column's codes (8 categories, 3 bits)
    // and the int column's offsets (values in [0, 1e6], 20 bits).
    std::string dict_buf, for_buf;
    EncodeStringDict(t.column(2).codes(), t.column(2).dictionary(), &dict_buf);
    EncodeInt64(t.column(0).ints(), Encoding::kFrameOfReference, &for_buf);
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    auto decode_packed = [&] {
      OREO_CHECK(DecodeStringDict(dict_buf, rows, &codes, &dict).ok());
      OREO_CHECK(
          DecodeInt64(for_buf, Encoding::kFrameOfReference, rows, &out).ok());
    };
    // The bit-identity contract on the whole output, not just a checksum.
    simd::SetGlobalKernelMode(simd::KernelMode::kScalar);
    decode_packed();
    const std::vector<uint32_t> scalar_codes = codes;
    const std::vector<int64_t> scalar_ints = out;
    simd::SetGlobalKernelMode(simd::KernelMode::kVector);
    decode_packed();
    simd::SetGlobalKernelMode(simd::KernelMode::kAuto);
    OREO_CHECK(codes == scalar_codes && out == scalar_ints)
        << "codec_bitpack: kernel modes decoded different values";
    OREO_CHECK(out == t.column(0).ints())
        << "codec_bitpack: frame-of-reference did not round-trip";
    KernelResult rb{"codec_bitpack", "values", 0, 0,
                    2.0 * static_cast<double>(rows), 0};
    Measure(&rb, reps, [&] {
      decode_packed();
      return static_cast<uint64_t>(out.back()) + codes.back() + dict.size();
    });
    results.push_back(rb);
  }

  // ---- CRC-32C: every block read checksums the whole block ------------
  {
    // Random bytes; each size walks the buffer chunk by chunk until a rep
    // has checksummed about 8 bytes per row (at least one chunk).
    const size_t kBufBytes = size_t{1} << 20;
    std::string buf(kBufBytes, '\0');
    Rng brng(seed + 2);
    for (char& c : buf) c = static_cast<char>(brng.Uniform(256));
    const struct {
      const char* name;
      size_t bytes;
    } sizes[] = {{"crc32c_4k", 4 << 10},
                 {"crc32c_17k", 17 << 10},
                 {"crc32c_1m", kBufBytes}};
    for (const auto& size : sizes) {
      const size_t chunks =
          std::max<size_t>(1, rows * sizeof(int64_t) / size.bytes);
      const size_t per_buf = kBufBytes / size.bytes;
      KernelResult r{size.name, "bytes", 0, 0,
                     static_cast<double>(chunks * size.bytes), 0};
      Measure(&r, reps, [&] {
        uint64_t sum = 0;
        for (size_t i = 0; i < chunks; ++i) {
          sum += Crc32c(buf.data() + (i % per_buf) * size.bytes, size.bytes);
        }
        return sum;
      });
      results.push_back(r);
    }
  }

  // ---- Qd-tree generation: the Layout Manager's per-window candidate -----
  {
    constexpr size_t kWindow = 200;
    constexpr size_t kWindows = 10;
    workloads::WorkloadDataset ds = workloads::MakeTpcdsLike(20000, seed);
    Rng srng(seed + 3);
    const Table sample = ds.table.SampleRows(2000, &srng);
    workloads::WorkloadOptions wopts;
    wopts.num_queries = kWindow * kWindows;
    wopts.num_segments = kWindows;
    wopts.seed = seed + 4;
    const std::vector<Query> stream =
        workloads::GenerateWorkload(ds.templates, wopts).queries;
    std::vector<std::vector<Query>> windows(kWindows);
    for (size_t i = 0; i < stream.size(); ++i) {
      windows[i / kWindow].push_back(stream[i]);
    }
    const QdTreeGenerator gen;
    auto trees = [&] {
      std::string all;
      for (const std::vector<Query>& window : windows) {
        all += TreeFingerprint(*gen.Generate(sample, window, 32));
      }
      return all;
    };
    // The bit-identity contract on whole trees, not just a checksum.
    simd::SetGlobalKernelMode(simd::KernelMode::kScalar);
    const std::string scalar_trees = trees();
    simd::SetGlobalKernelMode(simd::KernelMode::kVector);
    const std::string vector_trees = trees();
    simd::SetGlobalKernelMode(simd::KernelMode::kAuto);
    OREO_CHECK(scalar_trees == vector_trees)
        << "qdtree_generate: kernel modes grew different trees";
    KernelResult r{"qdtree_generate", "trees", 0, 0,
                   static_cast<double>(kWindows), 0};
    Measure(&r, reps, [&] {
      const std::string all = trees();
      return static_cast<uint64_t>(Crc32c(all.data(), all.size()));
    });
    results.push_back(r);

    // ---- Materializing those trees over the whole table ------------------
    std::vector<std::unique_ptr<Layout>> layouts;
    for (const std::vector<Query>& window : windows) {
      layouts.push_back(gen.Generate(sample, window, 32));
    }
    auto materialize = [&] {
      std::string all;
      for (const std::unique_ptr<Layout>& layout : layouts) {
        const std::vector<uint32_t> assignment = layout->Assign(ds.table);
        all += PartitioningFingerprint(BuildPartitioning(
            ds.table, assignment, layout->NumPartitionsUpperBound()));
      }
      return all;
    };
    simd::SetGlobalKernelMode(simd::KernelMode::kScalar);
    const std::string scalar_parts = materialize();
    simd::SetGlobalKernelMode(simd::KernelMode::kVector);
    const std::string vector_parts = materialize();
    simd::SetGlobalKernelMode(simd::KernelMode::kAuto);
    OREO_CHECK(scalar_parts == vector_parts)
        << "qdtree_materialize: kernel modes built different partitionings";
    KernelResult m{"qdtree_materialize", "trees", 0, 0,
                   static_cast<double>(kWindows), 0};
    Measure(&m, reps, [&] {
      const std::string all = materialize();
      return static_cast<uint64_t>(Crc32c(all.data(), all.size()));
    });
    results.push_back(m);
  }

  for (const KernelResult& r : results) {
    std::fprintf(stderr, "  %-18s scalar=%.3fs vector=%.3fs speedup=%.2fx",
                 r.name, r.scalar_s, r.vector_s, Speedup(r));
    if (std::strcmp(r.unit, "bytes") == 0) {
      const double gb = r.items * static_cast<double>(reps) / 1e9;
      std::fprintf(stderr, " (%.2f vs %.2f GB/s)", gb / r.scalar_s,
                   gb / r.vector_s);
    }
    std::fprintf(stderr, "\n");
  }

  // ---- JSON (stable key order; schema documented in docs/BENCHMARKS.md) --
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"kernels\",\n"
       << "  \"rows\": " << rows << ",\n  \"probes\": " << probes << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"dispatch\": \"" << simd::DispatchDescription() << "\",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    const double per_rep_items = r.items * static_cast<double>(reps);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"kernel\": \"%s\", \"unit\": \"%s\", \"scalar_s\": %.6f, "
        "\"vector_s\": %.6f, \"scalar_per_s\": %.0f, \"vector_per_s\": %.0f, "
        "\"speedup\": %.3f}%s\n",
        r.name, r.unit, r.scalar_s, r.vector_s,
        r.scalar_s > 0 ? per_rep_items / r.scalar_s : 0.0,
        r.vector_s > 0 ? per_rep_items / r.vector_s : 0.0, Speedup(r),
        i + 1 < results.size() ? "," : "");
    json << buf;
  }
  json << "  ]\n}\n";

  EmitBenchJson(flags, "kernels", json.str());
  return 0;
}

}  // namespace bench
}  // namespace oreo

int main(int argc, char** argv) { return oreo::bench::Main(argc, argv); }
