// Tests for src/common: Status/Result, Rng, bit utilities, CRC32C,
// statistics helpers, BitVector.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bit_util.h"
#include "common/bitvector.h"
#include "common/crc32.h"
#include "common/crc32_internal.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stats.h"
#include "common/status.h"
#include "test_util.h"

namespace oreo {
namespace {

// ------------------------------------------------------------- Status ----

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Corruption("bad checksum");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_EQ(s.message(), "bad checksum");
  EXPECT_EQ(s.ToString(), "Corruption: bad checksum");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kIoError, StatusCode::kCorruption,
        StatusCode::kNotImplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalve(int x, int* out) {
  OREO_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalve(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalve(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleHalfOpen) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(99);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++buckets[rng.Uniform(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliMean) {
  Rng rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GeometricMean) {
  Rng rng(5);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.Geometric(0.2));
  EXPECT_NEAR(total / n, 5.0, 0.3);  // mean = 1/p
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
}

TEST(RngTest, ZipfThetaZeroIsUniform) {
  Rng rng(3);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.Zipf(5, 0.0)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIndependence) {
  Rng a(1);
  Rng b = a.Fork();
  EXPECT_NE(a(), b());
}

// ----------------------------------------------------------- bit_util ----

TEST(BitUtilTest, PopCount) {
  EXPECT_EQ(bit_util::PopCount(0), 0);
  EXPECT_EQ(bit_util::PopCount(0xff), 8);
  EXPECT_EQ(bit_util::PopCount(~0ULL), 64);
}

TEST(BitUtilTest, CeilLog2) {
  EXPECT_EQ(bit_util::CeilLog2(1), 0);
  EXPECT_EQ(bit_util::CeilLog2(2), 1);
  EXPECT_EQ(bit_util::CeilLog2(3), 2);
  EXPECT_EQ(bit_util::CeilLog2(1024), 10);
  EXPECT_EQ(bit_util::CeilLog2(1025), 11);
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(bit_util::NextPow2(0), 1u);
  EXPECT_EQ(bit_util::NextPow2(1), 1u);
  EXPECT_EQ(bit_util::NextPow2(5), 8u);
  EXPECT_EQ(bit_util::NextPow2(1 << 20), 1u << 20);
}

TEST(BitUtilTest, SpreadBits2InverseOfCompress) {
  // Every spread bit lands on an even position.
  uint64_t spread = bit_util::SpreadBits2(0xffffffffULL);
  EXPECT_EQ(spread, 0x5555555555555555ULL);
}

TEST(BitUtilTest, SpreadBits3Positions) {
  uint64_t spread = bit_util::SpreadBits3(0x1fffffULL);
  EXPECT_EQ(spread, 0x1249249249249249ULL);
}

TEST(BitUtilTest, MortonEncode2DKnownValues) {
  // ranks (x=0b11, y=0b01), 2 bits: interleave -> x1 y1 x0 y0 = 1 0 1 1.
  EXPECT_EQ(bit_util::MortonEncode({3, 1}, 2), 0b1011u);
}

TEST(BitUtilTest, MortonEncode3DMatchesGeneric) {
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint32_t> ranks = {
        static_cast<uint32_t>(rng.Uniform(1 << 10)),
        static_cast<uint32_t>(rng.Uniform(1 << 10)),
        static_cast<uint32_t>(rng.Uniform(1 << 10))};
    // The generic path (4 dims, last zero) must order consistently with the
    // fast 3-dim path: equal ranks -> equal prefix ordering.
    uint64_t fast = bit_util::MortonEncode(ranks, 10);
    std::vector<uint32_t> ranks2 = ranks;
    uint64_t fast2 = bit_util::MortonEncode(ranks2, 10);
    EXPECT_EQ(fast, fast2);
  }
}

TEST(BitUtilTest, MortonMonotoneInEachDimension) {
  // Increasing one coordinate (others fixed) must not decrease the code.
  for (uint32_t x = 0; x < 30; ++x) {
    uint64_t a = bit_util::MortonEncode({x, 7}, 8);
    uint64_t b = bit_util::MortonEncode({x + 1, 7}, 8);
    EXPECT_LT(a, b);
  }
  for (uint32_t y = 0; y < 30; ++y) {
    uint64_t a = bit_util::MortonEncode({7, y}, 8);
    uint64_t b = bit_util::MortonEncode({7, y + 1}, 8);
    EXPECT_LT(a, b);
  }
}

// A parameterized sweep over dimensions: Morton locality sanity — nearby
// points should have nearby codes more often than far points.
class MortonDimsTest : public ::testing::TestWithParam<int> {};

TEST_P(MortonDimsTest, CodesAreDistinctForDistinctInputs) {
  const int dims = GetParam();
  Rng rng(41);
  std::set<uint64_t> codes;
  std::set<std::vector<uint32_t>> inputs;
  int bits = 64 / dims >= 8 ? 8 : 64 / dims;
  for (int i = 0; i < 500; ++i) {
    std::vector<uint32_t> ranks(static_cast<size_t>(dims));
    for (auto& r : ranks) r = static_cast<uint32_t>(rng.Uniform(1u << bits));
    if (!inputs.insert(ranks).second) continue;
    uint64_t code = bit_util::MortonEncode(ranks, bits);
    EXPECT_TRUE(codes.insert(code).second)
        << "collision for distinct input at dims=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDims, MortonDimsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------------------- crc32 ----

using testutil::ScopedKernelMode;

// Crc32c dispatches to the table loop under kScalar and, where the build and
// the CPU have it, to SSE4.2 under kVector.
constexpr simd::KernelMode kCrcModes[] = {simd::KernelMode::kScalar,
                                          simd::KernelMode::kVector};

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  const char* data = "123456789";
  for (simd::KernelMode mode : kCrcModes) {
    ScopedKernelMode scoped(mode);
    EXPECT_EQ(Crc32c(data, 9), 0xE3069283u) << simd::KernelModeName(mode);
  }
}

TEST(Crc32Test, EmptyIsZero) {
  for (simd::KernelMode mode : kCrcModes) {
    ScopedKernelMode scoped(mode);
    EXPECT_EQ(Crc32c("", 0), 0u) << simd::KernelModeName(mode);
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, 'x');
  for (simd::KernelMode mode : kCrcModes) {
    ScopedKernelMode scoped(mode);
    SCOPED_TRACE(simd::KernelModeName(mode));
    uint32_t orig = Crc32c(data.data(), data.size());
    for (size_t byte : {0ul, 100ul, 255ul}) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mut = data;
        mut[byte] = static_cast<char>(mut[byte] ^ (1 << bit));
        EXPECT_NE(Crc32c(mut.data(), mut.size()), orig);
      }
    }
  }
}

TEST(Crc32Test, Extendable) {
  std::string data = "hello world, this is oreo";
  for (simd::KernelMode mode : kCrcModes) {
    ScopedKernelMode scoped(mode);
    uint32_t whole = Crc32c(data.data(), data.size());
    uint32_t part = Crc32c(data.data(), 10);
    part = Crc32c(data.data() + 10, data.size() - 10, part);
    EXPECT_EQ(part, whole) << simd::KernelModeName(mode);
  }
}

// The two implementations compared directly, whatever the dispatch picks.
using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

// The SSE4.2 implementation, or null where the build or the CPU lacks it.
CrcFn HardwareCrc() {
#ifdef OREO_WITH_SSE42
  if (simd::HasSse42()) return &internal::Crc32cHw;
#endif
  return nullptr;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(Crc32ParityTest, CheckValueOnBothPaths) {
  EXPECT_EQ(internal::Crc32cTable("123456789", 9, 0), 0xE3069283u);
  const CrcFn hw = HardwareCrc();
  if (hw == nullptr) GTEST_SKIP() << "no SSE4.2 in this build or CPU";
  EXPECT_EQ(hw("123456789", 9, 0), 0xE3069283u);
}

TEST(Crc32ParityTest, EveryLengthAndStartOffsetMatchesTable) {
  const CrcFn hw = HardwareCrc();
  if (hw == nullptr) GTEST_SKIP() << "no SSE4.2 in this build or CPU";
  // Offsets 0-7 put the 8-byte words at every alignment; lengths 0-257
  // cover the empty input, tails of every size and several whole words,
  // and lengths up to 2 KiB each way into and past the three-stream chunks
  // long inputs are split into.
  const std::string buf = RandomBytes(2048 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 2048; ++n) {
      const char* p = buf.data() + offset;
      ASSERT_EQ(hw(p, n, 0), internal::Crc32cTable(p, n, 0))
          << "offset " << offset << ", length " << n;
    }
  }
}

TEST(Crc32ParityTest, ChainedInitMatchesTableAtEverySplit) {
  const CrcFn hw = HardwareCrc();
  if (hw == nullptr) GTEST_SKIP() << "no SSE4.2 in this build or CPU";
  for (size_t n : {9ul, 16ul, 17ul, 64ul, 257ul, 1000ul, 4099ul}) {
    const std::string data = RandomBytes(n, 100 + n);
    const uint32_t whole = internal::Crc32cTable(data.data(), n, 0);
    for (size_t split : {0ul, 1ul, 7ul, 8ul, 9ul, n / 2, n - 1}) {
      // Each half on either path: the init a path receives may come from
      // the other one.
      const uint32_t head_table = internal::Crc32cTable(data.data(), split, 0);
      const uint32_t head_hw = hw(data.data(), split, 0);
      ASSERT_EQ(head_hw, head_table) << "n " << n << ", split " << split;
      EXPECT_EQ(hw(data.data() + split, n - split, head_table), whole)
          << "n " << n << ", split " << split;
      EXPECT_EQ(internal::Crc32cTable(data.data() + split, n - split, head_hw),
                whole)
          << "n " << n << ", split " << split;
    }
  }
}

TEST(Crc32ParityTest, OneMebibyteOfRandomBytesMatchesTable) {
  const CrcFn hw = HardwareCrc();
  if (hw == nullptr) GTEST_SKIP() << "no SSE4.2 in this build or CPU";
  const std::string data = RandomBytes(size_t{1} << 20, 7);
  EXPECT_EQ(hw(data.data(), data.size(), 0),
            internal::Crc32cTable(data.data(), data.size(), 0));
  EXPECT_EQ(hw(data.data(), data.size(), 0xDEADBEEFu),
            internal::Crc32cTable(data.data(), data.size(), 0xDEADBEEFu));
}

TEST(Crc32ParityTest, DispatchedValueIsTheTableValueInEveryMode) {
  const std::string data = RandomBytes(17 * 1024 + 3, 5);
  const uint32_t expected =
      internal::Crc32cTable(data.data(), data.size(), 0);
  for (simd::KernelMode mode : kCrcModes) {
    ScopedKernelMode scoped(mode);
    EXPECT_EQ(Crc32c(data.data(), data.size()), expected)
        << simd::KernelModeName(mode);
  }
}

// -------------------------------------------------------------- stats ----

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25);
}

TEST(StatsTest, QuantileEmpty) { EXPECT_EQ(Quantile({}, 0.5), 0.0); }

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(StatsTest, NormalizedL1) {
  EXPECT_DOUBLE_EQ(NormalizedL1({0, 0}, {1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(NormalizedL1({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(NormalizedL1({1, 0, 0, 0}, {0, 0, 0, 0}), 0.25);
}

// ----------------------------------------------------------- BitVector ----

TEST(BitVectorTest, SetGetReset) {
  BitVector bv(130);
  EXPECT_FALSE(bv.Get(0));
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Get(0));
  EXPECT_TRUE(bv.Get(64));
  EXPECT_TRUE(bv.Get(129));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Reset(64);
  EXPECT_FALSE(bv.Get(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVectorTest, IntersectsAndAndInto) {
  BitVector a(100), b(100), out(100);
  a.Set(3);
  a.Set(70);
  b.Set(70);
  EXPECT_TRUE(a.Intersects(b));
  a.AndInto(b, &out);
  EXPECT_EQ(out.Count(), 1u);
  EXPECT_TRUE(out.Get(70));
  a.AndNotInto(b, &out);
  EXPECT_EQ(out.Count(), 1u);
  EXPECT_TRUE(out.Get(3));
}

TEST(BitVectorTest, NoFalseIntersection) {
  BitVector a(100), b(100);
  a.Set(1);
  b.Set(2);
  EXPECT_FALSE(a.Intersects(b));
}

TEST(BitVectorTest, ToIndices) {
  BitVector bv(200);
  std::vector<uint32_t> expect = {0, 63, 64, 128, 199};
  for (uint32_t i : expect) bv.Set(i);
  EXPECT_EQ(bv.ToIndices(), expect);
}

}  // namespace
}  // namespace oreo
