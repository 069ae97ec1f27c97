// CRC-32C (Castagnoli) used to checksum on-disk partition blocks, so the
// block reader can detect corruption (bit flips, truncation) as RocksDB and
// Parquet readers do.
//
// Two implementations compute the same function: a byte-at-a-time table
// loop (the scalar reference) and the SSE4.2 `crc32` instruction, which
// uses the same polynomial, 8 bytes per instruction in three interleaved
// streams (crc32_sse42.cc); common/crc32_internal.h declares both.
// Crc32c picks the hardware one through the kernel dispatch of
// common/simd.h — vector kernels enabled and simd::HasSse42() — and the
// table loop otherwise (OREO_FORCE_SCALAR=1, KernelMode::kScalar, a CPU
// without SSE4.2, a non-x86 build). Both return bit-identical values, so
// the dispatch never changes a stored block or a fault schedule.
#ifndef OREO_COMMON_CRC32_H_
#define OREO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace oreo {

/// Computes CRC-32C over `data[0, n)` starting from `init` (pass 0 for a
/// fresh checksum; pass a previous return value to extend it).
uint32_t Crc32c(const void* data, size_t n, uint32_t init = 0);

}  // namespace oreo

#endif  // OREO_COMMON_CRC32_H_
