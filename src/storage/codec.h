// Lightweight column encodings for the on-disk block format. Reorganization
// cost in the paper includes compressing and writing partitions; these codecs
// make that work real in the physical benchmarks.
//
//   int64:  plain, RLE, zigzag delta-varint (sorted/clustered columns), or
//           frame-of-reference: a base plus w-bit packed offsets, w in 0..64.
//   double: plain.
//   string: a per-block dictionary of only the entries the rows use, in
//           order of first appearance, plus codes bit-packed at
//           ceil(log2(used)) bits (0 bits when one value is used).
//
// Packed fields are a little-endian bit stream: field i occupies bits
// [i*w, (i+1)*w), least significant bit first, padded to a whole byte.
// First-appearance order makes a string chunk a function of the row values
// alone, whatever dictionary the in-memory column holds.
#ifndef OREO_STORAGE_CODEC_H_
#define OREO_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace oreo {

/// Wire encoding of a column chunk.
enum class Encoding : uint8_t {
  kPlain = 0,        ///< raw little-endian values
  kRle = 1,          ///< (varint run length, zigzag varint value) pairs
  kDeltaVarint = 2,  ///< first value raw, then zigzag varint deltas
  kDictionary = 3,   ///< used-only dictionary + bit-packed codes
  kFrameOfReference = 4,  ///< i64 base, u8 width w, w-bit packed offsets
};

const char* EncodingName(Encoding e);

// --- varint / zigzag primitives (exposed for tests) ---

void PutVarint64(std::string* out, uint64_t v);
/// Reads a varint at *pos, advancing it. Returns false on truncation.
bool GetVarint64(std::string_view data, size_t* pos, uint64_t* v);
uint64_t ZigZagEncode(int64_t v);
int64_t ZigZagDecode(uint64_t v);

// --- int64 columns ---

/// Encodes `values` using `enc` (kPlain, kRle, kDeltaVarint or
/// kFrameOfReference).
void EncodeInt64(const std::vector<int64_t>& values, Encoding enc,
                 std::string* out);
/// Decodes exactly `n` values; fails with Corruption on malformed input.
Status DecodeInt64(std::string_view data, Encoding enc, size_t n,
                   std::vector<int64_t>* out);
/// Picks plain, RLE or delta by cheap heuristics (run count, sortedness),
/// then frame-of-reference instead when its exact size is strictly smaller.
Encoding ChooseInt64Encoding(const std::vector<int64_t>& values);

// --- double columns (plain only) ---

void EncodeDouble(const std::vector<double>& values, std::string* out);
Status DecodeDouble(std::string_view data, size_t n,
                    std::vector<double>* out);

// --- string columns (dictionary) ---

/// Writes the entries of `dict` that `codes` use, in order of first
/// appearance, and the codes renumbered into that dictionary. Costs
/// O(codes + used entries), not O(dict).
void EncodeStringDict(const std::vector<uint32_t>& codes,
                      const std::vector<std::string>& dict, std::string* out);
/// Decodes `n` codes and the chunk's own (used-only) dictionary.
Status DecodeStringDict(std::string_view data, size_t n,
                        std::vector<uint32_t>* codes,
                        std::vector<std::string>* dict);

}  // namespace oreo

#endif  // OREO_STORAGE_CODEC_H_
