// SSE4.2 CRC-32C. This translation unit is the only one compiled with
// -msse4.2 (see src/CMakeLists.txt); nothing here executes unless
// simd::HasSse42() confirmed CPU support at runtime.
//
// Bit-identity with the table loop: the `crc32` instruction computes the
// same reflected Castagnoli CRC, and feeding it 8 little-endian bytes at a
// time is the same as feeding those bytes one by one.
#ifdef OREO_WITH_SSE42

#include <nmmintrin.h>

#include <cstring>

#include "common/crc32_internal.h"

namespace oreo {
namespace internal {

namespace {

// The instruction has a 3-cycle latency but issues once per cycle, so one
// dependent chain runs at a third of its throughput. Long inputs therefore
// go in chunks of three kStride-byte streams checksummed side by side.
constexpr size_t kStride = 256;

// Merging the streams needs "advance a CRC register over kStride zero
// bytes", which is linear over GF(2) in the register: four tables, one per
// register byte, hold it for every byte value.
struct StrideShift {
  uint32_t table[4][256];
  StrideShift() {
    uint32_t basis[32];  // the operator applied to each single-bit register
    for (int bit = 0; bit < 32; ++bit) {
      uint32_t crc = 1u << bit;
      for (size_t i = 0; i < kStride * 8; ++i) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      basis[bit] = crc;
    }
    for (int byte = 0; byte < 4; ++byte) {
      for (uint32_t v = 0; v < 256; ++v) {
        uint32_t out = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((v >> bit) & 1) out ^= basis[byte * 8 + bit];
        }
        table[byte][v] = out;
      }
    }
  }
  uint32_t operator()(uint32_t crc) const {
    return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
           table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
  }
};
const StrideShift g_shift;

inline uint64_t Word(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // unaligned starts are legal
  return word;
}

}  // namespace

uint32_t Crc32cHw(const void* data, size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~init;
  for (; n >= 3 * kStride; n -= 3 * kStride, p += 3 * kStride) {
    // The second and third streams start from a zero register; the first
    // carries the running CRC. Advancing a register over the next stream
    // and XOR-ing that stream's zero-start CRC is the same as running on.
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kStride; i += sizeof(uint64_t)) {
      crc = _mm_crc32_u64(crc, Word(p + i));
      crc1 = _mm_crc32_u64(crc1, Word(p + kStride + i));
      crc2 = _mm_crc32_u64(crc2, Word(p + 2 * kStride + i));
    }
    crc = g_shift(g_shift(static_cast<uint32_t>(crc)) ^
                  static_cast<uint32_t>(crc1)) ^
          static_cast<uint32_t>(crc2);
  }
  for (; n >= sizeof(uint64_t); n -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    crc = _mm_crc32_u64(crc, Word(p));
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; --n, ++p) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

}  // namespace internal
}  // namespace oreo

#endif  // OREO_WITH_SSE42
