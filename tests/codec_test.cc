// Tests for src/storage/codec: varint/zigzag primitives and the column
// encodings, including parameterized roundtrips across data distributions.
#include <gtest/gtest.h>

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
        Int64CodecCase{"delta_constant", Encoding::kDeltaVarint, 3}),
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

  Rng rng(3);
  std::vector<int64_t> random;
  for (int i = 0; i < 1000; ++i) random.push_back(rng.UniformInt(-1e9, 1e9));
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
  EXPECT_EQ(out_codes, codes);
  EXPECT_EQ(out_dict, dict);
}

TEST(StringDictCodecTest, DetectsOutOfRangeCode) {
  std::vector<std::string> dict = {"a"};
  std::vector<uint32_t> codes = {0, 0};
  std::string buf;
  EncodeStringDict(codes, dict, &buf);
  // Corrupt the last 4 bytes (second code) to a huge value.
  buf[buf.size() - 1] = '\x7f';
  std::vector<uint32_t> out_codes;
  std::vector<std::string> out_dict;
  EXPECT_EQ(DecodeStringDict(buf, 2, &out_codes, &out_dict).code(),
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
  for (Encoding enc :
       {Encoding::kPlain, Encoding::kRle, Encoding::kDeltaVarint}) {
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

}  // namespace
}  // namespace oreo
