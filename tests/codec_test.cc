// Tests for src/storage/codec: varint/zigzag primitives and the column
// encodings, including parameterized roundtrips across data distributions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <ostream>

#include "common/rng.h"
#include "storage/codec.h"

namespace oreo {
namespace {

// ---------------------------------------------------------- primitives ----

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     (1ULL << 32), ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    uint64_t out = 0;
    ASSERT_TRUE(GetVarint64(buf, &pos, &out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  uint64_t out;
  EXPECT_FALSE(GetVarint64(buf, &pos, &out));
}

TEST(ZigZagTest, RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-2},
                    std::numeric_limits<int64_t>::max(),
                    std::numeric_limits<int64_t>::min()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(ZigZagTest, SmallMagnitudesStaySmall) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

// ------------------------------------------------- int64 column codecs ----

struct Int64CodecCase {
  const char* name;
  Encoding encoding;
  // Data shape: 0=random, 1=sorted, 2=few-runs, 3=constant, 4=empty
  int shape;
};

// Without this, gtest prints the case as raw bytes (a pointer and padding),
// and the discovered CTest name changes with every build and run.
void PrintTo(const Int64CodecCase& c, std::ostream* os) { *os << c.name; }

class Int64CodecTest : public ::testing::TestWithParam<Int64CodecCase> {
 protected:
  std::vector<int64_t> MakeData(int shape) {
    Rng rng(17);
    std::vector<int64_t> data;
    switch (shape) {
      case 0:
        for (int i = 0; i < 1000; ++i) data.push_back(rng.UniformInt(-1000000, 1000000));
        break;
      case 1:
        for (int i = 0; i < 1000; ++i) data.push_back(i * 3 + static_cast<int64_t>(rng.Uniform(3)));
        break;
      case 2:
        for (int run = 0; run < 10; ++run) {
          int64_t v = rng.UniformInt(-50, 50);
          for (int i = 0; i < 100; ++i) data.push_back(v);
        }
        break;
      case 3:
        data.assign(500, 42);
        break;
      case 4:
        break;
    }
    return data;
  }
};

TEST_P(Int64CodecTest, RoundTrip) {
  const Int64CodecCase& c = GetParam();
  std::vector<int64_t> data = MakeData(c.shape);
  std::string buf;
  EncodeInt64(data, c.encoding, &buf);
  std::vector<int64_t> out;
  Status st = DecodeInt64(buf, c.encoding, data.size(), &out);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Int64CodecTest,
    ::testing::Values(
        Int64CodecCase{"plain_random", Encoding::kPlain, 0},
        Int64CodecCase{"plain_sorted", Encoding::kPlain, 1},
        Int64CodecCase{"plain_empty", Encoding::kPlain, 4},
        Int64CodecCase{"rle_runs", Encoding::kRle, 2},
        Int64CodecCase{"rle_constant", Encoding::kRle, 3},
        Int64CodecCase{"rle_random", Encoding::kRle, 0},
        Int64CodecCase{"delta_sorted", Encoding::kDeltaVarint, 1},
        Int64CodecCase{"delta_random", Encoding::kDeltaVarint, 0},
        Int64CodecCase{"delta_constant", Encoding::kDeltaVarint, 3},
        Int64CodecCase{"for_random", Encoding::kFrameOfReference, 0},
        Int64CodecCase{"for_runs", Encoding::kFrameOfReference, 2},
        Int64CodecCase{"for_constant", Encoding::kFrameOfReference, 3},
        Int64CodecCase{"for_empty", Encoding::kFrameOfReference, 4}),
    [](const ::testing::TestParamInfo<Int64CodecCase>& info) {
      return info.param.name;
    });

TEST(Int64CodecTest2, RleCompressesRuns) {
  std::vector<int64_t> data(10000, 7);
  std::string buf;
  EncodeInt64(data, Encoding::kRle, &buf);
  EXPECT_LT(buf.size(), 16u);  // one (run, value) pair
}

TEST(Int64CodecTest2, DeltaCompressesSorted) {
  std::vector<int64_t> data;
  for (int64_t i = 0; i < 10000; ++i) data.push_back(1000000 + i);
  std::string buf;
  EncodeInt64(data, Encoding::kDeltaVarint, &buf);
  EXPECT_LT(buf.size(), data.size() * 2);  // ~1 byte per delta + first value
}

TEST(Int64CodecTest2, ChooseEncodingHeuristics) {
  std::vector<int64_t> constant(1000, 5);
  EXPECT_EQ(ChooseInt64Encoding(constant), Encoding::kRle);

  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 1000; ++i) sorted.push_back(i * 7);
  EXPECT_EQ(ChooseInt64Encoding(sorted), Encoding::kDeltaVarint);

  // Unsorted values over a 31-bit range: frame-of-reference packs them in
  // 31 bits each, smaller than 8-byte plain.
  Rng rng(3);
  std::vector<int64_t> random;
  for (int i = 0; i < 1000; ++i) random.push_back(rng.UniformInt(-1e9, 1e9));
  EXPECT_EQ(ChooseInt64Encoding(random), Encoding::kFrameOfReference);

  // A range that needs all 64 bits makes frame-of-reference larger than
  // plain by its 9-byte header.
  random.push_back(std::numeric_limits<int64_t>::min());
  random.push_back(std::numeric_limits<int64_t>::max());
  EXPECT_EQ(ChooseInt64Encoding(random), Encoding::kPlain);

  EXPECT_EQ(ChooseInt64Encoding({}), Encoding::kPlain);
}

TEST(Int64CodecTest2, DecodeDetectsSizeMismatch) {
  std::vector<int64_t> data = {1, 2, 3};
  std::string buf;
  EncodeInt64(data, Encoding::kPlain, &buf);
  std::vector<int64_t> out;
  EXPECT_EQ(DecodeInt64(buf, Encoding::kPlain, 4, &out).code(),
            StatusCode::kCorruption);
}

TEST(Int64CodecTest2, DecodeDetectsTruncatedRle) {
  std::vector<int64_t> data(100, 9);
  std::string buf;
  EncodeInt64(data, Encoding::kRle, &buf);
  buf.resize(buf.size() - 1);
  std::vector<int64_t> out;
  EXPECT_EQ(DecodeInt64(buf, Encoding::kRle, 100, &out).code(),
            StatusCode::kCorruption);
}

TEST(Int64CodecTest2, DecodeDetectsRleOverflow) {
  // A run longer than the declared row count must be rejected.
  std::string buf;
  PutVarint64(&buf, 50);  // run of 50
  PutVarint64(&buf, ZigZagEncode(1));
  std::vector<int64_t> out;
  EXPECT_EQ(DecodeInt64(buf, Encoding::kRle, 10, &out).code(),
            StatusCode::kCorruption);
}

TEST(Int64CodecTest2, DecodeDetectsTrailingBytes) {
  std::vector<int64_t> data = {1, 2, 3};
  std::string buf;
  EncodeInt64(data, Encoding::kDeltaVarint, &buf);
  buf.push_back('\0');
  std::vector<int64_t> out;
  EXPECT_EQ(DecodeInt64(buf, Encoding::kDeltaVarint, 3, &out).code(),
            StatusCode::kCorruption);
}

// ----------------------------------------------------- double / string ----

TEST(DoubleCodecTest, RoundTrip) {
  std::vector<double> data = {0.0, -1.5, 3.14159, 1e300, -1e-300};
  std::string buf;
  EncodeDouble(data, &buf);
  std::vector<double> out;
  ASSERT_TRUE(DecodeDouble(buf, data.size(), &out).ok());
  EXPECT_EQ(out, data);
}

TEST(DoubleCodecTest, SizeMismatch) {
  std::string buf(17, 'x');
  std::vector<double> out;
  EXPECT_EQ(DecodeDouble(buf, 2, &out).code(), StatusCode::kCorruption);
}

TEST(StringDictCodecTest, RoundTrip) {
  std::vector<std::string> dict = {"apple", "", "banana"};
  std::vector<uint32_t> codes = {0, 2, 2, 1, 0};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  ASSERT_TRUE(
      DecodeStringDict(buf, codes.size(), &out_codes, &out_dict).ok());
  // The chunk's dictionary is renumbered in order of first appearance.
  EXPECT_EQ(out_codes, (std::vector<uint32_t>{0, 1, 1, 2, 0}));
  EXPECT_EQ(out_dict, (std::vector<std::string>{"apple", "banana", ""}));
}

TEST(StringDictCodecTest, DetectsOutOfRangeCode) {
  // Three entries pack at 2 bits, so code 3 fits the field but names no
  // entry.
  std::vector<std::string> dict = {"a", "b", "c"};
  std::vector<uint32_t> codes = {0, 1, 2, 1};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  // The four 2-bit codes are the last byte; set the last one to 3.
  buf.back() = static_cast<char>(buf.back() | 0xc0);
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  EXPECT_EQ(DecodeStringDict(buf, 4, &out_codes, &out_dict).code(),
            StatusCode::kCorruption);
}

TEST(StringDictCodecTest, DetectsTruncation) {
  std::vector<std::string> dict = {"hello"};
  std::vector<uint32_t> codes = {0};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  buf.resize(buf.size() / 2);
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  EXPECT_FALSE(DecodeStringDict(buf, 1, &out_codes, &out_dict).ok());
}

TEST(StringDictCodecTest, EmptyColumn) {
  std::string buf;
  EncodeStringDict({}, {}, &buf);
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  ASSERT_TRUE(DecodeStringDict(buf, 0, &out_codes, &out_dict).ok());
  EXPECT_TRUE(out_codes.empty());
  EXPECT_TRUE(out_dict.empty());
}

// ------------------------------------------------------- edge values ------

// Every int64 encoding must round-trip the numeric extremes, including
// adjacent INT64_MIN/INT64_MAX pairs whose deltas only fit with wrapping
// two's-complement arithmetic.
TEST(Int64CodecEdgeTest, ExtremeValuesRoundTripAllEncodings) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> edge = {0,    -1,       1,        kMin,
                                     kMax, kMin + 1, kMax - 1, kMin,
                                     kMin, kMax,     0,        kMax};
  for (Encoding enc : {Encoding::kPlain, Encoding::kRle,
                       Encoding::kDeltaVarint, Encoding::kFrameOfReference}) {
    std::string buf;
    EncodeInt64(edge, enc, &buf);
    std::vector<int64_t> out;
    ASSERT_TRUE(DecodeInt64(buf, enc, edge.size(), &out).ok())
        << EncodingName(enc);
    EXPECT_EQ(out, edge) << EncodingName(enc);
  }
}

TEST(Int64CodecEdgeTest, ChosenEncodingHandlesExtremeSortedRuns) {
  // ChooseInt64Encoding must never pick an encoding that corrupts the data
  // it was chosen for, even at the extremes of the domain.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const std::vector<int64_t>& values :
       {std::vector<int64_t>{kMin, kMin, kMin, kMax, kMax, kMax},
        std::vector<int64_t>{kMin, -1, 0, 1, kMax},
        std::vector<int64_t>{kMax, kMin, kMax, kMin}}) {
    Encoding enc = ChooseInt64Encoding(values);
    std::string buf;
    EncodeInt64(values, enc, &buf);
    std::vector<int64_t> out;
    ASSERT_TRUE(DecodeInt64(buf, enc, values.size(), &out).ok())
        << EncodingName(enc);
    EXPECT_EQ(out, values) << EncodingName(enc);
  }
}

TEST(DoubleCodecEdgeTest, NonFiniteAndDenormalRoundTripBitExactly) {
  const std::vector<double> edge = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon()};
  std::string buf;
  EncodeDouble(edge, &buf);
  std::vector<double> out;
  ASSERT_TRUE(DecodeDouble(buf, edge.size(), &out).ok());
  ASSERT_EQ(out.size(), edge.size());
  for (size_t i = 0; i < edge.size(); ++i) {
    // Bit-exact comparison: distinguishes -0.0 from 0.0 and keeps NaN
    // comparable.
    uint64_t a, b;
    std::memcpy(&a, &edge[i], sizeof(a));
    std::memcpy(&b, &out[i], sizeof(b));
    EXPECT_EQ(a, b) << "index " << i;
  }
}

TEST(StringDictCodecEdgeTest, EmptyLongAndBinaryStringsRoundTrip) {
  std::vector<std::string> dict = {
      "",                            // empty string
      std::string(1 << 16, 'x'),     // 64 KiB value
      std::string("nul\0middle", 10),  // embedded NUL
      "\xff\xfe\x80 utf-8 caf\xc3\xa9"};
  std::vector<uint32_t> codes = {0, 1, 2, 3, 3, 2, 1, 0, 0};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  ASSERT_TRUE(DecodeStringDict(buf, codes.size(), &out_codes, &out_dict).ok());
  EXPECT_EQ(out_codes, codes);
  EXPECT_EQ(out_dict, dict);
}

// ------------------------------------------------ frame of reference -----

// Values spanning exactly `width` bits above a base: min and max included.
std::vector<int64_t> SpanOfWidth(int width, int64_t base, size_t n,
                                 uint64_t seed) {
  const uint64_t range =
      width == 64 ? ~uint64_t{0}
                  : (width == 0 ? 0 : (uint64_t{1} << width) - 1);
  Rng rng(seed);
  std::vector<int64_t> v;
  v.push_back(base);
  if (n > 1) {
    v.push_back(static_cast<int64_t>(static_cast<uint64_t>(base) + range));
  }
  while (v.size() < n) {
    const uint64_t off = range == 0 ? 0 : rng() % range;
    v.push_back(static_cast<int64_t>(static_cast<uint64_t>(base) + off));
  }
  return v;
}

TEST(FrameOfReferenceTest, WidthsZeroOneSixtyThreeSixtyFourRoundTrip) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  for (int width : {0, 1, 63, 64}) {
    for (size_t n : {size_t{1}, size_t{2}, size_t{9}, size_t{125}}) {
      if (width > 0 && n < 2) continue;
      const int64_t base = width == 64 ? kMin : -17;
      std::vector<int64_t> vals = SpanOfWidth(width, base, n, 5 + width);
      std::string buf;
      EncodeInt64(vals, Encoding::kFrameOfReference, &buf);
      // [i64 base][u8 width][ceil(n * width / 8) packed bytes]
      ASSERT_EQ(buf.size(), 9 + (n * static_cast<size_t>(width) + 7) / 8)
          << "width=" << width << " n=" << n;
      EXPECT_EQ(static_cast<uint8_t>(buf[8]), width);
      std::vector<int64_t> out;
      ASSERT_TRUE(
          DecodeInt64(buf, Encoding::kFrameOfReference, n, &out).ok());
      EXPECT_EQ(out, vals) << "width=" << width << " n=" << n;
    }
  }
}

TEST(FrameOfReferenceTest, Int64MinAndMaxInOneChunk) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> vals = {kMax, 0, kMin, -1, kMax, 1, kMin};
  std::string buf;
  EncodeInt64(vals, Encoding::kFrameOfReference, &buf);
  EXPECT_EQ(static_cast<uint8_t>(buf[8]), 64);
  std::vector<int64_t> out;
  ASSERT_TRUE(
      DecodeInt64(buf, Encoding::kFrameOfReference, vals.size(), &out).ok());
  EXPECT_EQ(out, vals);
}

TEST(FrameOfReferenceTest, MalformedChunksAreCorrupt) {
  std::vector<int64_t> vals = SpanOfWidth(13, 1000, 40, 9);
  std::string buf;
  EncodeInt64(vals, Encoding::kFrameOfReference, &buf);
  std::vector<int64_t> out;
  auto decode = [&](const std::string& data) {
    return DecodeInt64(data, Encoding::kFrameOfReference, vals.size(), &out)
        .code();
  };
  ASSERT_EQ(decode(buf), StatusCode::kOk);
  // Truncated packed payload, one byte short.
  EXPECT_EQ(decode(buf.substr(0, buf.size() - 1)), StatusCode::kCorruption);
  // Trailing byte.
  EXPECT_EQ(decode(buf + '\0'), StatusCode::kCorruption);
  // Truncated header: no width byte, then not even a base.
  EXPECT_EQ(decode(buf.substr(0, 8)), StatusCode::kCorruption);
  EXPECT_EQ(decode(buf.substr(0, 5)), StatusCode::kCorruption);
  // A width above 64.
  std::string wide = buf;
  wide[8] = static_cast<char>(65);
  EXPECT_EQ(decode(wide), StatusCode::kCorruption);
  // A row count whose packed size would overflow n * width.
  EXPECT_EQ(DecodeInt64(buf, Encoding::kFrameOfReference,
                        std::numeric_limits<size_t>::max() / 8, &out)
                .code(),
            StatusCode::kCorruption);
}

TEST(FrameOfReferenceTest, ChosenOnlyWhenStrictlySmaller) {
  // A 125-row block of small unsorted values: 9 + ceil(125 * 6 / 8) bytes
  // against 1000 plain.
  Rng rng(11);
  std::vector<int64_t> small;
  for (int i = 0; i < 125; ++i) small.push_back(rng.UniformInt(1, 50));
  EXPECT_EQ(ChooseInt64Encoding(small), Encoding::kFrameOfReference);
  std::string buf;
  EncodeInt64(small, Encoding::kFrameOfReference, &buf);
  EXPECT_EQ(buf.size(), 9u + 94u);

  // Sorted with small steps over a 9-bit range: one varint byte per value
  // (127 bytes) beats 9 + ceil(125 * 9 / 8) = 150.
  std::vector<int64_t> sorted;
  for (int64_t i = 0; i < 125; ++i) sorted.push_back(1'000'000 + 3 * i);
  EXPECT_EQ(ChooseInt64Encoding(sorted), Encoding::kDeltaVarint);

  // One repeated value: RLE's 3 bytes beat the 9-byte header.
  EXPECT_EQ(ChooseInt64Encoding(std::vector<int64_t>(125, -7)),
            Encoding::kRle);

  // The choice never loses to today's rule, on any shape.
  for (int shape = 0; shape < 40; ++shape) {
    std::vector<int64_t> v;
    for (int i = 0; i < 60; ++i) {
      v.push_back(rng.UniformInt(-(int64_t{1} << shape), int64_t{1} << shape));
    }
    if (shape % 3 == 0) std::sort(v.begin(), v.end());
    const Encoding enc = ChooseInt64Encoding(v);
    std::string chosen, plain;
    EncodeInt64(v, enc, &chosen);
    EncodeInt64(v, Encoding::kPlain, &plain);
    EXPECT_LE(chosen.size(), plain.size()) << "shape=" << shape;
    std::vector<int64_t> out;
    ASSERT_TRUE(DecodeInt64(chosen, enc, v.size(), &out).ok());
    EXPECT_EQ(out, v);
  }
}

// --------------------------------------------------- packed dictionaries --

// Rows that use exactly `distinct` entries of a larger dictionary whose
// unused entries are interleaved with the used ones.
struct DictCase {
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
};

DictCase UsingDistinct(size_t distinct, uint64_t seed) {
  DictCase c;
  for (size_t i = 0; i < 2 * distinct + 3; ++i) {
    c.dict.push_back("v" + std::to_string(i));
  }
  Rng rng(seed);
  const size_t n = distinct == 0 ? 0 : 3 * distinct + 5;
  for (size_t i = 0; i < n; ++i) {
    // Every odd entry in use: the first `distinct` rows name each once.
    const size_t k = i < distinct ? i : rng.Uniform(distinct);
    c.codes.push_back(static_cast<uint32_t>(2 * k + 1));
  }
  return c;
}

TEST(PackedDictionaryTest, RoundTripAndCorruptionAtEveryWidthBoundary) {
  for (size_t distinct : {0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 128, 129, 256,
                          257}) {
    const DictCase c = UsingDistinct(distinct, distinct + 1);
    std::string buf;
    EncodeStringDict(c.codes, c.dict, &buf);
    std::vector<uint32_t> codes;
    std::vector<std::string> dict;
    ASSERT_TRUE(DecodeStringDict(buf, c.codes.size(), &codes, &dict).ok())
        << distinct;
    // Only the used entries, in order of first appearance.
    ASSERT_EQ(dict.size(), distinct);
    for (size_t k = 0; k < distinct; ++k) {
      EXPECT_EQ(dict[k], c.dict[2 * k + 1]);
    }
    ASSERT_EQ(codes.size(), c.codes.size());
    for (size_t i = 0; i < codes.size(); ++i) {
      EXPECT_EQ(dict[codes[i]], c.dict[c.codes[i]]) << distinct << " " << i;
    }
    // Exact size: the dictionary, then ceil(log2 distinct)-bit codes.
    size_t width = 0;
    while ((size_t{1} << width) < distinct) ++width;
    size_t dict_bytes = 1;  // varint count (< 128 is one byte)
    if (distinct >= 128) dict_bytes = 2;
    for (size_t k = 0; k < distinct; ++k) {
      dict_bytes += 1 + c.dict[2 * k + 1].size();
    }
    EXPECT_EQ(buf.size(), dict_bytes + (codes.size() * width + 7) / 8)
        << distinct;

    // Truncation and a trailing byte are corrupt.
    EXPECT_EQ(DecodeStringDict(buf.substr(0, buf.size() - 1), c.codes.size(),
                               &codes, &dict)
                  .code(),
              StatusCode::kCorruption)
        << distinct;
    EXPECT_EQ(DecodeStringDict(buf + '\0', c.codes.size(), &codes, &dict)
                  .code(),
              StatusCode::kCorruption)
        << distinct;
    // When the code space has room above the dictionary, a code there is
    // corrupt: set every bit of the last row's field, 2^width - 1.
    if (width > 0 && (size_t{1} << width) != distinct) {
      std::string bad = buf;
      for (size_t bit = (codes.size() - 1) * width; bit < codes.size() * width;
           ++bit) {
        bad[dict_bytes + bit / 8] = static_cast<char>(
            bad[dict_bytes + bit / 8] | (1 << (bit % 8)));
      }
      Status st = DecodeStringDict(bad, c.codes.size(), &codes, &dict);
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << distinct;
      EXPECT_EQ(st.message(), "dictionary code out of range") << distinct;
    }
  }
}

TEST(PackedDictionaryTest, EmptyDictionaryWithRowsIsCorrupt) {
  std::string buf;
  PutVarint64(&buf, 0);
  std::vector<uint32_t> codes;
  std::vector<std::string> dict;
  EXPECT_EQ(DecodeStringDict(buf, 3, &codes, &dict).code(),
            StatusCode::kCorruption);
}

TEST(PackedDictionaryTest, AbsurdDictionarySizeIsCorruptNotAnAllocation) {
  std::string buf;
  PutVarint64(&buf, uint64_t{1} << 60);
  buf += "ab";
  std::vector<uint32_t> codes;
  std::vector<std::string> dict;
  EXPECT_EQ(DecodeStringDict(buf, 1, &codes, &dict).code(),
            StatusCode::kCorruption);
}

TEST(PackedDictionaryTest, SameRowsWriteSameBytesWhateverTheDictionary) {
  // One row sequence (b, a, b, c) under two dictionaries that order the
  // values differently and carry different unused entries.
  const std::vector<std::string> d1 = {"a", "b", "c", "zz"};
  const std::vector<uint32_t> c1 = {1, 0, 1, 2};
  const std::vector<std::string> d2 = {"q", "c", "r", "b", "a"};
  const std::vector<uint32_t> c2 = {3, 4, 3, 1};
  std::string b1, b2;
  EncodeStringDict(c1, d1, &b1);
  EncodeStringDict(c2, d2, &b2);
  EXPECT_EQ(b1, b2);
}

}  // namespace
}  // namespace oreo
