// Tests for the on-disk block format: roundtrips and failure injection
// (bit flips, truncation, bad magic) — every corruption must be detected.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "common/crc32.h"
#include "common/rng.h"
#include "storage/block.h"
#include "test_util.h"

namespace oreo {
namespace {

namespace fs = std::filesystem;

using testutil::ExpectTablesEqual;

Table MakeTable(size_t rows, uint64_t seed) {
  return testutil::MakeBlockTable(rows, seed);
}

TEST(BlockTest, SerializeDeserializeRoundTrip) {
  Table t = MakeTable(500, 1);
  std::string data = SerializeBlock(t);
  Result<Table> out = DeserializeBlock(data);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectTablesEqual(t, *out);
}

TEST(BlockTest, EmptyTableRoundTrip) {
  Table t = MakeTable(0, 1);
  std::string data = SerializeBlock(t);
  Result<Table> out = DeserializeBlock(data);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(BlockTest, SingleRowRoundTrip) {
  Table t = MakeTable(1, 2);
  Result<Table> out = DeserializeBlock(SerializeBlock(t));
  ASSERT_TRUE(out.ok());
  ExpectTablesEqual(t, *out);
}

TEST(BlockTest, FileRoundTrip) {
  Table t = MakeTable(300, 3);
  std::string path = fs::temp_directory_path() / "oreo_block_test.blk";
  ASSERT_TRUE(WriteBlockFile(path, t).ok());
  Result<Table> out = ReadBlockFile(path);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectTablesEqual(t, *out);
  fs::remove(path);
}

TEST(BlockTest, ReadMissingFileIsIoError) {
  Result<Table> out = ReadBlockFile("/nonexistent/dir/nope.blk");
  EXPECT_EQ(out.status().code(), StatusCode::kIoError);
}

TEST(BlockTest, SerializedSizeMatches) {
  Table t = MakeTable(100, 4);
  EXPECT_EQ(SerializedBlockSize(t), SerializeBlock(t).size());
}

TEST(BlockTest, BadMagicDetected) {
  Table t = MakeTable(50, 5);
  std::string data = SerializeBlock(t);
  data[0] = 'X';
  EXPECT_EQ(DeserializeBlock(data).status().code(), StatusCode::kCorruption);
}

TEST(BlockTest, TruncationDetected) {
  Table t = MakeTable(50, 6);
  std::string data = SerializeBlock(t);
  for (size_t keep : {data.size() - 1, data.size() / 2, size_t{10}}) {
    std::string cut = data.substr(0, keep);
    EXPECT_EQ(DeserializeBlock(cut).status().code(), StatusCode::kCorruption)
        << "keep=" << keep;
  }
}

// Failure injection sweep: flipping any byte anywhere in the block must be
// detected by the CRC (parameterized over flip positions).
class BlockCorruptionTest : public ::testing::TestWithParam<double> {};

TEST_P(BlockCorruptionTest, BitFlipDetected) {
  Table t = MakeTable(200, 7);
  std::string data = SerializeBlock(t);
  size_t pos = static_cast<size_t>(GetParam() * static_cast<double>(data.size() - 1));
  std::string mut = data;
  mut[pos] = static_cast<char>(mut[pos] ^ 0x40);
  Result<Table> out = DeserializeBlock(mut);
  EXPECT_FALSE(out.ok()) << "flip at " << pos << " went undetected";
}

INSTANTIATE_TEST_SUITE_P(FlipPositions, BlockCorruptionTest,
                         ::testing::Values(0.0, 0.05, 0.15, 0.25, 0.35, 0.45,
                                           0.55, 0.65, 0.75, 0.85, 0.95, 1.0));

TEST(BlockTest, AllStringColumnTable) {
  Table t(Schema({{"a", DataType::kString}, {"b", DataType::kString}}));
  t.AppendRow({Value("x"), Value("y")});
  t.AppendRow({Value(""), Value("y")});
  Result<Table> out = DeserializeBlock(SerializeBlock(t));
  ASSERT_TRUE(out.ok());
  ExpectTablesEqual(t, *out);
}

TEST(BlockTest, WidTableManyColumns) {
  std::vector<Field> fields;
  for (int i = 0; i < 40; ++i) {
    fields.push_back({"c" + std::to_string(i), DataType::kInt64});
  }
  Table t((Schema(fields)));
  for (int r = 0; r < 20; ++r) {
    std::vector<Value> row;
    for (int i = 0; i < 40; ++i) row.emplace_back(static_cast<int64_t>(r * i));
    t.AppendRow(row);
  }
  Result<Table> out = DeserializeBlock(SerializeBlock(t));
  ASSERT_TRUE(out.ok());
  ExpectTablesEqual(t, *out);
}

TEST(BlockTest, ColumnProjectionDecodesSubset) {
  Table t = MakeTable(200, 9);
  std::string data = SerializeBlock(t);
  std::vector<std::string> wanted = {"score", "tag"};
  BlockReadOptions opts;
  opts.columns = &wanted;
  Result<Table> out = DeserializeBlock(data, opts);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Projection keeps block order: score (col 2) then tag (col 3).
  ASSERT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().field(0).name, "score");
  EXPECT_EQ(out->schema().field(1).name, "tag");
  ASSERT_EQ(out->num_rows(), 200u);
  for (uint32_t r = 0; r < 200; ++r) {
    EXPECT_DOUBLE_EQ(out->column(0).GetDouble(r), t.column(2).GetDouble(r));
    EXPECT_EQ(out->column(1).GetString(r), t.column(3).GetString(r));
  }
}

TEST(BlockTest, ProjectionIgnoresUnknownColumns) {
  Table t = MakeTable(10, 10);
  std::vector<std::string> wanted = {"id", "no_such_column"};
  BlockReadOptions opts;
  opts.columns = &wanted;
  Result<Table> out = DeserializeBlock(SerializeBlock(t), opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_columns(), 1u);
  EXPECT_EQ(out->schema().field(0).name, "id");
}

TEST(BlockTest, ProjectionStillValidatesChecksum) {
  Table t = MakeTable(100, 11);
  std::string data = SerializeBlock(t);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 1);
  std::vector<std::string> wanted = {"id"};
  BlockReadOptions opts;
  opts.columns = &wanted;
  EXPECT_EQ(DeserializeBlock(data, opts).status().code(),
            StatusCode::kCorruption);
}

TEST(BlockTest, SyncedWriteRoundTrips) {
  Table t = MakeTable(50, 12);
  std::string path = fs::temp_directory_path() / "oreo_block_sync.blk";
  ASSERT_TRUE(WriteBlockFile(path, t, /*sync=*/true).ok());
  Result<Table> out = ReadBlockFile(path);
  ASSERT_TRUE(out.ok());
  ExpectTablesEqual(t, *out);
  fs::remove(path);
}

TEST(BlockTest, CompressionKicksInForSortedColumns) {
  // A sorted int column should serialize far smaller than 8 bytes/row.
  Table t(Schema({{"ts", DataType::kInt64}}));
  for (int64_t i = 0; i < 10000; ++i) t.AppendRow({Value(i)});
  EXPECT_LT(SerializedBlockSize(t), 10000u * 4);
}

// Only version 2 is readable: a block whose header says 1 (with a valid
// checksum) is refused, not misread.
TEST(BlockTest, VersionOneHeaderIsRejected) {
  Table t = MakeTable(20, 13);
  std::string data = SerializeBlock(t);
  const uint32_t v1 = 1;
  std::memcpy(&data[8], &v1, sizeof(v1));  // after the 8-byte magic
  const uint32_t crc = Crc32c(data.data(), data.size() - sizeof(uint32_t));
  std::memcpy(&data[data.size() - sizeof(uint32_t)], &crc, sizeof(crc));
  Result<Table> out = DeserializeBlock(data);
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(out.status().message(), "unsupported block version");
}

// A block carries only the dictionary entries its rows use: rows taken from
// a table with a large dictionary write the same bytes as the same rows
// appended to a fresh table, and decode with a dictionary of the used
// entries only.
TEST(BlockTest, StringBlocksCarryOnlyTheUsedEntries) {
  Table wide(Schema({{"s", DataType::kString}}));
  for (int i = 0; i < 1000; ++i) wide.AppendRow({Value("tag" + std::to_string(i))});
  const std::vector<uint32_t> rows = {907, 3, 907, 512, 3, 3};
  Table taken = wide.Take(rows);
  Table fresh(Schema({{"s", DataType::kString}}));
  for (uint32_t r : rows) fresh.AppendRow({Value("tag" + std::to_string(r))});
  EXPECT_EQ(SerializeBlock(taken), SerializeBlock(fresh));
  Result<Table> out = DeserializeBlock(SerializeBlock(taken));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectTablesEqual(taken, *out);
  EXPECT_EQ(out->column(0).dictionary(),
            (std::vector<std::string>{"tag907", "tag3", "tag512"}));
}

// A decoded string column builds no lookup index up front; appending to it
// still reuses the codes of values it already holds.
TEST(BlockTest, DecodedStringColumnsAcceptAppends) {
  Table t = MakeTable(40, 14);
  Result<Table> out = DeserializeBlock(SerializeBlock(t));
  ASSERT_TRUE(out.ok());
  Column* tag = out->mutable_column(3);
  const size_t entries = tag->dictionary().size();
  tag->AppendString(t.column(3).GetString(0));
  EXPECT_EQ(tag->dictionary().size(), entries);
  EXPECT_EQ(tag->GetString(40), t.column(3).GetString(0));
  tag->AppendString("not-a-tag");
  EXPECT_EQ(tag->dictionary().size(), entries + 1);
  EXPECT_EQ(tag->GetString(41), "not-a-tag");
}

TEST(BlockTest, ExtremeIntsRoundTrip) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  Table t(Schema({{"full", DataType::kInt64}, {"bit", DataType::kInt64}}));
  for (int64_t v : {kMax, kMin, int64_t{0}, kMin, kMax, int64_t{-1}}) {
    t.AppendRow({Value(v), Value(kMin + (v & 1))});
  }
  Result<Table> out = DeserializeBlock(SerializeBlock(t));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ExpectTablesEqual(t, *out);
}

}  // namespace
}  // namespace oreo
