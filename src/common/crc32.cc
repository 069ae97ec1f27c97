#include "common/crc32.h"

#include "common/crc32_internal.h"
#include "common/simd.h"

namespace oreo {

namespace {
// Lookup table for CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78).
struct Crc32cLookup {
  uint32_t table[256];
  Crc32cLookup() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      table[i] = crc;
    }
  }
};
const Crc32cLookup g_table;
}  // namespace

namespace internal {

uint32_t Crc32cTable(const void* data, size_t n, uint32_t init) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~init;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ g_table.table[(crc ^ p[i]) & 0xff];
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n, uint32_t init) {
#ifdef OREO_WITH_SSE42
  if (simd::VectorEnabled() && simd::HasSse42()) {
    return internal::Crc32cHw(data, n, init);
  }
#endif
  return internal::Crc32cTable(data, n, init);
}

}  // namespace oreo
