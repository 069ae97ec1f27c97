// The two CRC-32C implementations behind Crc32c (common/crc32.h), exposed
// so tests and benchmarks can compare them directly whatever the dispatch
// picks. Everything else calls Crc32c.
#ifndef OREO_COMMON_CRC32_INTERNAL_H_
#define OREO_COMMON_CRC32_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace oreo {
namespace internal {

/// The table-driven scalar reference. Same contract as Crc32c.
uint32_t Crc32cTable(const void* data, size_t n, uint32_t init);

#ifdef OREO_WITH_SSE42
/// The SSE4.2 implementation. Same contract as Crc32c; call it only when
/// simd::HasSse42() holds.
uint32_t Crc32cHw(const void* data, size_t n, uint32_t init);
#endif

}  // namespace internal
}  // namespace oreo

#endif  // OREO_COMMON_CRC32_INTERNAL_H_
