// Differential tests for the data-parallel kernel layer: the vectorized
// implementations (query/kernels.h, the codec fast paths, the Eytzinger
// lookups) must be bit-identical to their scalar references over adversarial
// inputs — empty chunks, all-match / none-match predicates, NaN and extreme
// doubles, INT64_MIN/MAX operands, max-bitwidth deltas, single-row tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/eytzinger.h"
#include "common/rng.h"
#include "common/simd.h"
#include "layout/sorted_layout.h"
#include "layout/zorder_layout.h"
#include "query/kernels.h"
#include "query/query.h"
#include "storage/codec.h"
#include "storage/shard_router.h"
#include "storage/table.h"
#include "test_util.h"

namespace oreo {
namespace {

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

using testutil::ScopedKernelMode;

// ------------------------------------------------------------ fixtures ----

using testutil::MakeAdversarialTable;

std::vector<Predicate> AdversarialPredicates() {
  std::vector<Predicate> preds;
  // Int64 column: every op, including degenerate bounds.
  for (int64_t v : {int64_t{0}, int64_t{-100}, int64_t{100}, kI64Min, kI64Max}) {
    preds.push_back(Predicate::Eq(0, Value(v)));
    preds.push_back(Predicate::Lt(0, Value(v)));
    preds.push_back(Predicate::Le(0, Value(v)));
    preds.push_back(Predicate::Gt(0, Value(v)));
    preds.push_back(Predicate::Ge(0, Value(v)));
  }
  preds.push_back(Predicate::Between(0, Value(int64_t{-10}), Value(int64_t{10})));
  preds.push_back(Predicate::Between(0, Value(kI64Min), Value(kI64Max)));  // all
  preds.push_back(Predicate::Between(0, Value(int64_t{10}), Value(int64_t{-10})));  // none
  preds.push_back(Predicate::In(0, {Value(int64_t{0}), Value(kI64Min), Value(kI64Max)}));
  preds.push_back(Predicate::In(0, {}));  // empty IN matches nothing
  // Double column: NaN/Inf operands included.
  for (double v : {0.0, -0.0, 25.0, kInf, -kInf, kNaN}) {
    preds.push_back(Predicate::Eq(1, Value(v)));
    preds.push_back(Predicate::Lt(1, Value(v)));
    preds.push_back(Predicate::Le(1, Value(v)));
    preds.push_back(Predicate::Gt(1, Value(v)));
    preds.push_back(Predicate::Ge(1, Value(v)));
  }
  preds.push_back(Predicate::Between(1, Value(-25.0), Value(25.0)));
  preds.push_back(Predicate::Between(1, Value(kNaN), Value(kNaN)));
  preds.push_back(Predicate::In(1, {Value(0.0), Value(kInf), Value(kNaN)}));
  // String column: dictionary codes are insertion-ordered, so range ops
  // exercise the code-match-table path, including operands absent from the
  // dictionary.
  for (const char* s : {"", "a", "ab", "b", "zebra", "zz", "\x7f\x01"}) {
    preds.push_back(Predicate::Eq(2, Value(std::string(s))));
    preds.push_back(Predicate::Lt(2, Value(std::string(s))));
    preds.push_back(Predicate::Ge(2, Value(std::string(s))));
  }
  preds.push_back(Predicate::Between(2, Value(std::string("a")),
                                     Value(std::string("b"))));
  preds.push_back(Predicate::In(2, {Value(std::string("a")),
                                    Value(std::string("nope"))}));
  return preds;
}

std::vector<uint64_t> BitmapWords(const BitVector& b) {
  return std::vector<uint64_t>(b.words(), b.words() + b.num_words());
}

// ------------------------------------------- predicate kernel parity ----

TEST(KernelParityTest, PredicateBitmapsMatchScalarOverAdversarialData) {
  // Sizes straddle the 64-row word boundary and include empty/single-row.
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 100u, 1000u}) {
    Table t = MakeAdversarialTable(n, /*seed=*/n * 7919 + 1);
    for (const Predicate& p : AdversarialPredicates()) {
      std::vector<uint64_t> scalar_words, vector_words;
      {
        ScopedKernelMode mode(simd::KernelMode::kScalar);
        scalar_words = BitmapWords(EvalPredicateBitmap(t, p));
      }
      {
        ScopedKernelMode mode(simd::KernelMode::kVector);
        vector_words = BitmapWords(EvalPredicateBitmap(t, p));
      }
      EXPECT_EQ(scalar_words, vector_words)
          << "n=" << n << " pred=" << p.ToString();
    }
  }
}

TEST(KernelParityTest, RandomConjunctionsMatchScalar) {
  Rng rng(2024);
  const std::vector<Predicate> pool = AdversarialPredicates();
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = rng.Uniform(300);
    Table t = MakeAdversarialTable(n, rng());
    Query q;
    const size_t n_conj = rng.Uniform(4);  // 0 = full scan
    for (size_t c = 0; c < n_conj; ++c) {
      q.conjuncts.push_back(pool[rng.Uniform(pool.size())]);
    }
    std::vector<uint32_t> subset;
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(0.5)) subset.push_back(r);
    }
    uint64_t scalar_count, vector_count;
    uint64_t scalar_subset, vector_subset;
    std::vector<uint32_t> scalar_rows, vector_rows;
    std::vector<uint64_t> scalar_words, vector_words;
    {
      ScopedKernelMode mode(simd::KernelMode::kScalar);
      scalar_count = CountMatches(t, q);
      scalar_subset = CountMatches(t, subset, q);
      scalar_rows = KernelMatchingRowIds(t, q);
      scalar_words = BitmapWords(EvalQueryBitmap(t, q));
    }
    {
      ScopedKernelMode mode(simd::KernelMode::kVector);
      vector_count = CountMatches(t, q);
      vector_subset = CountMatches(t, subset, q);
      vector_rows = KernelMatchingRowIds(t, q);
      vector_words = BitmapWords(EvalQueryBitmap(t, q));
    }
    EXPECT_EQ(scalar_count, vector_count) << q.ToString();
    EXPECT_EQ(scalar_subset, vector_subset) << q.ToString();
    EXPECT_EQ(scalar_rows, vector_rows) << q.ToString();
    EXPECT_EQ(scalar_words, vector_words) << q.ToString();
  }
}

TEST(KernelParityTest, AllMatchAndNoneMatchShapes) {
  Table t = MakeAdversarialTable(257, 99);
  Query all, none;
  all.conjuncts.push_back(Predicate::Between(0, Value(kI64Min), Value(kI64Max)));
  none.conjuncts.push_back(Predicate::In(0, {}));
  ScopedKernelMode mode(simd::KernelMode::kVector);
  EXPECT_EQ(CountMatches(t, all), t.num_rows());
  EXPECT_EQ(CountMatches(t, none), 0u);
  // Full-scan query (no conjuncts) matches everything.
  EXPECT_EQ(CountMatches(t, Query{}), t.num_rows());
}

// ------------------------------------------------- Eytzinger parity ----

TEST(EytzingerTest, MatchesStdBoundsOnRandomArrays) {
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    const size_t n = rng.Uniform(200);  // includes 0
    std::vector<double> sorted;
    for (size_t i = 0; i < n; ++i) {
      sorted.push_back(rng.Bernoulli(0.3) ? rng.UniformDouble(0, 5)
                                          : rng.UniformDouble(-1e3, 1e3));
    }
    std::sort(sorted.begin(), sorted.end());
    EytzingerIndex<double> idx(sorted);
    std::vector<double> probes;
    for (double v : sorted) {
      probes.push_back(v);
      probes.push_back(std::nextafter(v, -kInf));
      probes.push_back(std::nextafter(v, kInf));
    }
    for (int p = 0; p < 50; ++p) probes.push_back(rng.UniformDouble(-2e3, 2e3));
    probes.push_back(kInf);
    probes.push_back(-kInf);
    probes.push_back(kNaN);  // x<NaN and NaN<x both false: rank n and 0
    for (double x : probes) {
      const size_t lb = static_cast<size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
      const size_t ub = static_cast<size_t>(
          std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
      EXPECT_EQ(idx.LowerBound(x), lb) << "n=" << n << " x=" << x;
      EXPECT_EQ(idx.UpperBound(x), ub) << "n=" << n << " x=" << x;
    }
    // Batch descent must agree with single-probe descent, including the
    // tail lanes (probes.size() is rarely a multiple of the lane count).
    std::vector<uint32_t> ranks(probes.size());
    idx.LowerBoundBatch(probes.data(), probes.size(), ranks.data());
    for (size_t p = 0; p < probes.size(); ++p) {
      EXPECT_EQ(ranks[p], idx.LowerBound(probes[p])) << "n=" << n << " p=" << p;
    }
  }
}

TEST(EytzingerTest, Uint64AndDuplicateHeavyArrays) {
  Rng rng(11);
  std::vector<uint64_t> sorted;
  for (int i = 0; i < 500; ++i) sorted.push_back(rng.Uniform(20));
  sorted.push_back(0);
  sorted.push_back(~0ULL);
  std::sort(sorted.begin(), sorted.end());
  EytzingerIndex<uint64_t> idx(sorted);
  for (uint64_t x = 0; x < 25; ++x) {
    const size_t lb = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
    const size_t ub = static_cast<size_t>(
        std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
    EXPECT_EQ(idx.LowerBound(x), lb);
    EXPECT_EQ(idx.UpperBound(x), ub);
  }
  EXPECT_EQ(idx.LowerBound(~0ULL), sorted.size() - 1);
  EXPECT_EQ(idx.UpperBound(~0ULL), sorted.size());
}

// --------------------------------------- layout / router mode parity ----

TEST(KernelParityTest, SortedLayoutAssignMatchesScalar) {
  Table t = MakeAdversarialTable(300, 5);
  SortedLayout layout(/*column=*/1, "d", {-10.0, 0.0, 10.0, 1e307});
  std::vector<uint32_t> scalar_assign, vector_assign;
  {
    ScopedKernelMode mode(simd::KernelMode::kScalar);
    scalar_assign = layout.Assign(t);
  }
  {
    ScopedKernelMode mode(simd::KernelMode::kVector);
    vector_assign = layout.Assign(t);
  }
  EXPECT_EQ(scalar_assign, vector_assign);
}

TEST(KernelParityTest, ZOrderAssignMatchesScalar) {
  Table t = MakeAdversarialTable(400, 21);
  ZOrderGenerator gen(/*num_columns=*/3, /*bits_per_dim=*/8);
  std::unique_ptr<Layout> layout = gen.Generate(t, {}, 8);
  std::vector<uint32_t> scalar_assign, vector_assign;
  {
    ScopedKernelMode mode(simd::KernelMode::kScalar);
    scalar_assign = layout->Assign(t);
  }
  {
    ScopedKernelMode mode(simd::KernelMode::kVector);
    vector_assign = layout->Assign(t);
  }
  EXPECT_EQ(scalar_assign, vector_assign);
}

TEST(KernelParityTest, ShardRouterRangeRoutingMatchesScalar) {
  Schema schema({{"k", DataType::kInt64}});
  Table t(schema);
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    t.AppendRow({Value(rng.UniformInt(-1000, 1000))});
  }
  ShardRouterOptions opts;
  opts.num_shards = 7;
  opts.routing = ShardRouting::kRange;
  ShardRouter router = ShardRouter::Build(t, opts);
  // Round-trip through Deserialize too: it rebuilds the Eytzinger mirror.
  auto rt = ShardRouter::Deserialize(router.Serialize());
  ASSERT_TRUE(rt.ok());
  for (int64_t v = -1100; v <= 1100; v += 13) {
    uint32_t scalar_shard, vector_shard, rt_shard;
    {
      ScopedKernelMode mode(simd::KernelMode::kScalar);
      scalar_shard = router.ShardOfValue(Value(v));
    }
    {
      ScopedKernelMode mode(simd::KernelMode::kVector);
      vector_shard = router.ShardOfValue(Value(v));
      rt_shard = rt->ShardOfValue(Value(v));
    }
    EXPECT_EQ(scalar_shard, vector_shard) << v;
    EXPECT_EQ(scalar_shard, rt_shard) << v;
  }
}

// ------------------------------------------------- codec fast paths ----

std::vector<int64_t> BoundaryBitwidthValues(uint64_t seed) {
  // Deltas at every varint bitwidth boundary: 2^7k - 1 and 2^7k in zigzag
  // space flip the encoded byte count, which is exactly where the 8-byte
  // fast path hands over to GetVarint64.
  Rng rng(seed);
  std::vector<int64_t> vals;
  int64_t cur = 0;
  vals.push_back(cur);
  for (int k = 0; k <= 9; ++k) {
    const int64_t step =
        (k == 9) ? kI64Max / 2 : static_cast<int64_t>((1ULL << (7 * k)) / 2);
    for (int rep = 0; rep < 20; ++rep) {
      const int64_t delta = rng.Bernoulli(0.5) ? step : -step;
      cur = static_cast<int64_t>(static_cast<uint64_t>(cur) +
                                 static_cast<uint64_t>(delta));
      vals.push_back(cur);
      if (rng.Bernoulli(0.3)) vals.push_back(cur);  // runs for RLE
    }
  }
  vals.push_back(kI64Min);
  vals.push_back(kI64Max);
  return vals;
}

TEST(CodecKernelTest, RoundTripBothModesAtBoundaryBitwidths) {
  for (Encoding enc : {Encoding::kRle, Encoding::kDeltaVarint, Encoding::kPlain,
                       Encoding::kFrameOfReference}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      std::vector<int64_t> vals = BoundaryBitwidthValues(seed);
      if (enc == Encoding::kRle) {
        // RLE is only used on duplicate-heavy data but must round-trip any.
        std::sort(vals.begin(), vals.end());
      }
      std::string buf;
      EncodeInt64(vals, enc, &buf);
      std::vector<int64_t> scalar_out, vector_out;
      {
        ScopedKernelMode mode(simd::KernelMode::kScalar);
        ASSERT_TRUE(DecodeInt64(buf, enc, vals.size(), &scalar_out).ok());
      }
      {
        ScopedKernelMode mode(simd::KernelMode::kVector);
        ASSERT_TRUE(DecodeInt64(buf, enc, vals.size(), &vector_out).ok());
      }
      EXPECT_EQ(scalar_out, vals) << EncodingName(enc);
      EXPECT_EQ(vector_out, vals) << EncodingName(enc);
    }
  }
}

TEST(CodecKernelTest, CorruptionVerdictsIdenticalAcrossModes) {
  // Fuzz: encode, then mutate/truncate the buffer; both modes must return
  // the same ok/corrupt verdict, and identical bytes whenever both are OK.
  Rng rng(777);
  for (int iter = 0; iter < 500; ++iter) {
    const Encoding enc =
        rng.Bernoulli(0.5) ? Encoding::kRle : Encoding::kDeltaVarint;
    std::vector<int64_t> vals;
    const size_t n = rng.Uniform(64);
    int64_t cur = 0;
    for (size_t i = 0; i < n; ++i) {
      cur += rng.UniformInt(-3, 3);
      vals.push_back(cur);
      if (rng.Bernoulli(0.4)) {
        for (int r = 0; r < 3 && vals.size() < n; ++r) vals.push_back(cur);
      }
    }
    vals.resize(std::min(vals.size(), n));
    std::string buf;
    EncodeInt64(vals, enc, &buf);
    // Mutate: flip a byte, truncate, or append garbage.
    std::string mutated = buf;
    const int kind = static_cast<int>(rng.Uniform(4));
    if (kind == 0 && !mutated.empty()) {
      mutated[rng.Uniform(mutated.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    } else if (kind == 1 && !mutated.empty()) {
      mutated.resize(rng.Uniform(mutated.size()));
    } else if (kind == 2) {
      mutated.push_back(static_cast<char>(rng.Uniform(256)));
    }  // kind 3: untouched
    std::vector<int64_t> scalar_out, vector_out;
    Status scalar_st, vector_st;
    {
      ScopedKernelMode mode(simd::KernelMode::kScalar);
      scalar_st = DecodeInt64(mutated, enc, vals.size(), &scalar_out);
    }
    {
      ScopedKernelMode mode(simd::KernelMode::kVector);
      vector_st = DecodeInt64(mutated, enc, vals.size(), &vector_out);
    }
    EXPECT_EQ(scalar_st.ok(), vector_st.ok())
        << EncodingName(enc) << " kind=" << kind
        << " scalar=" << scalar_st.ToString()
        << " vector=" << vector_st.ToString();
    if (scalar_st.ok() && vector_st.ok()) {
      EXPECT_EQ(scalar_out, vector_out) << EncodingName(enc);
    }
  }
}

TEST(CodecKernelTest, StringDictValidationIdenticalAcrossModes) {
  std::vector<std::string> dict = {"x", "y", "z"};
  std::vector<uint32_t> codes = {0, 1, 2, 1, 0, 2, 2};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  // Three used entries pack at 2 bits: seven codes are the last two bytes.
  // Setting the last code's field to 3 names no entry.
  std::string bad = buf;
  bad.back() = static_cast<char>(bad.back() | 0x30);
  for (const std::string& input : {buf, bad}) {
    Status scalar_st, vector_st;
    std::vector<uint32_t> c1, c2;
    std::vector<std::string> d1, d2;
    {
      ScopedKernelMode mode(simd::KernelMode::kScalar);
      scalar_st = DecodeStringDict(input, codes.size(), &c1, &d1);
    }
    {
      ScopedKernelMode mode(simd::KernelMode::kVector);
      vector_st = DecodeStringDict(input, codes.size(), &c2, &d2);
    }
    EXPECT_EQ(scalar_st.ToString(), vector_st.ToString());
    EXPECT_EQ(scalar_st.ok(), input == buf);
    if (scalar_st.ok()) {
      EXPECT_EQ(c1, c2);
      EXPECT_EQ(d1, d2);
    }
  }
}

// Packed fields at every width 0..64, at row counts around the 8-byte load
// boundary of the word-load path: both modes decode the same values.
TEST(CodecKernelTest, PackedFieldsIdenticalAcrossModesAtEveryWidth) {
  Rng rng(4242);
  for (int width = 0; width <= 64; ++width) {
    const uint64_t range =
        width == 64 ? ~uint64_t{0}
                    : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
    for (size_t n : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{63},
                     size_t{64}, size_t{65}, size_t{200}}) {
      // A base low enough that base + range does not pass INT64_MAX.
      const uint64_t slack = ~uint64_t{0} - range;
      const int64_t base = static_cast<int64_t>(
          static_cast<uint64_t>(kI64Min) +
          (slack == ~uint64_t{0} ? rng() : rng() % (slack + 1)));
      std::vector<int64_t> vals;
      for (size_t i = 0; i < n; ++i) {
        // Row 0 at the base and row 1 at the top pin the width.
        const uint64_t off =
            i == 0 ? 0 : (i == 1 || range == 0 ? range : rng() % range);
        vals.push_back(static_cast<int64_t>(static_cast<uint64_t>(base) + off));
      }
      std::string buf;
      EncodeInt64(vals, Encoding::kFrameOfReference, &buf);
      ASSERT_EQ(static_cast<uint8_t>(buf[8]), n > 1 ? width : 0);
      std::vector<int64_t> scalar_out, vector_out;
      {
        ScopedKernelMode mode(simd::KernelMode::kScalar);
        ASSERT_TRUE(
            DecodeInt64(buf, Encoding::kFrameOfReference, n, &scalar_out).ok());
      }
      {
        ScopedKernelMode mode(simd::KernelMode::kVector);
        ASSERT_TRUE(
            DecodeInt64(buf, Encoding::kFrameOfReference, n, &vector_out).ok());
      }
      EXPECT_EQ(scalar_out, vals) << "width=" << width << " n=" << n;
      EXPECT_EQ(vector_out, vals) << "width=" << width << " n=" << n;
    }
  }
}

// Fuzz over the packed encodings (frame-of-reference ints and used-only
// dictionaries): encode, then flip a byte, truncate, or append garbage.
// Both modes must return the same Status, message included, and identical
// bytes whenever they succeed.
TEST(CodecKernelTest, PackedCorruptionVerdictsIdenticalAcrossModes) {
  Rng rng(9001);
  auto mutate = [&rng](std::string buf, int* kind) {
    *kind = static_cast<int>(rng.Uniform(4));
    if (*kind == 0 && !buf.empty()) {
      buf[rng.Uniform(buf.size())] ^= static_cast<char>(1 + rng.Uniform(255));
    } else if (*kind == 1 && !buf.empty()) {
      buf.resize(rng.Uniform(buf.size()));
    } else if (*kind == 2) {
      buf.push_back(static_cast<char>(rng.Uniform(256)));
    }  // kind 3: untouched
    return buf;
  };
  for (int iter = 0; iter < 600; ++iter) {
    const size_t n = rng.Uniform(80);
    int kind = 0;
    if (iter % 2 == 0) {
      const int64_t spread = int64_t{1} << rng.Uniform(40);
      std::vector<int64_t> vals;
      for (size_t i = 0; i < n; ++i) vals.push_back(rng.UniformInt(0, spread));
      std::string buf;
      EncodeInt64(vals, Encoding::kFrameOfReference, &buf);
      const std::string input = mutate(buf, &kind);
      std::vector<int64_t> scalar_out, vector_out;
      Status scalar_st, vector_st;
      {
        ScopedKernelMode mode(simd::KernelMode::kScalar);
        scalar_st =
            DecodeInt64(input, Encoding::kFrameOfReference, n, &scalar_out);
      }
      {
        ScopedKernelMode mode(simd::KernelMode::kVector);
        vector_st =
            DecodeInt64(input, Encoding::kFrameOfReference, n, &vector_out);
      }
      EXPECT_EQ(scalar_st.ToString(), vector_st.ToString()) << "kind=" << kind;
      if (kind == 3) {
        EXPECT_EQ(scalar_out, vals);
      }
      if (scalar_st.ok() && vector_st.ok()) {
        EXPECT_EQ(scalar_out, vector_out);
      }
    } else {
      std::vector<std::string> dict;
      const size_t entries = 1 + rng.Uniform(20);
      for (size_t e = 0; e < entries; ++e) dict.push_back("s" + std::to_string(e));
      std::vector<uint32_t> codes;
      for (size_t i = 0; i < n; ++i) {
        codes.push_back(static_cast<uint32_t>(rng.Uniform(entries)));
      }
      std::string buf;
      EncodeStringDict(codes, dict, &buf);
      const std::string input = mutate(buf, &kind);
      std::vector<uint32_t> c1, c2;
      std::vector<std::string> d1, d2;
      Status scalar_st, vector_st;
      {
        ScopedKernelMode mode(simd::KernelMode::kScalar);
        scalar_st = DecodeStringDict(input, n, &c1, &d1);
      }
      {
        ScopedKernelMode mode(simd::KernelMode::kVector);
        vector_st = DecodeStringDict(input, n, &c2, &d2);
      }
      EXPECT_EQ(scalar_st.ToString(), vector_st.ToString()) << "kind=" << kind;
      if (kind == 3) {
        EXPECT_TRUE(scalar_st.ok());
      }
      if (scalar_st.ok() && vector_st.ok()) {
        EXPECT_EQ(c1, c2);
        EXPECT_EQ(d1, d2);
      }
    }
  }
}

// --------------------------------------------------------- dispatch ----

TEST(SimdDispatchTest, ModeKnobAndNames) {
  EXPECT_STREQ(simd::KernelModeName(simd::KernelMode::kAuto), "auto");
  EXPECT_STREQ(simd::KernelModeName(simd::KernelMode::kScalar), "scalar");
  EXPECT_STREQ(simd::KernelModeName(simd::KernelMode::kVector), "vector");
  {
    ScopedKernelMode mode(simd::KernelMode::kScalar);
    EXPECT_FALSE(simd::VectorEnabled());
  }
  // kAuto restored: vectorized unless the env var pins scalar.
  EXPECT_EQ(simd::VectorEnabled(), !simd::ForceScalarEnv());
}

}  // namespace
}  // namespace oreo
