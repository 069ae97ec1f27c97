// Kernel dispatch for the data-parallel hot paths (predicate bitmaps in
// query/kernels.h, block codec decode in storage/codec.cc, Eytzinger layout
// lookups in layout/ and storage/shard_router.cc, and the CRC-32C that
// checksums every block read and write in common/crc32.h).
//
// Every vectorized kernel keeps its scalar reference implementation and the
// two sides are bit-identical — same match counts, same decoded bytes, same
// partition assignments — so flipping the dispatch can never change a
// decision, a trace, or a file CRC (pinned by tests/kernels_test.cc and the
// kernel-mode case of the parallel equivalence wall; the CRC's two sides
// by tests/common_test.cc). The dispatch resolves, in order:
//
//   1. the OREO_FORCE_SCALAR=1 environment variable (wins over everything;
//      the CI forced-scalar job runs the whole suite under it),
//   2. the process-wide mode set by SetGlobalKernelMode — OreoOptions::
//      kernel_mode applies itself here at engine construction,
//   3. kAuto: vectorized kernels run, using the widest instruction set the
//      build and the CPU both support (AVX2 when available, otherwise
//      portable word-at-a-time branchless code the compiler auto-vectorizes;
//      the CRC uses the SSE4.2 `crc32` instruction when available, otherwise
//      its table loop).
#ifndef OREO_COMMON_SIMD_H_
#define OREO_COMMON_SIMD_H_

#include <cstdint>

namespace oreo {
namespace simd {

/// Which implementation the data-parallel kernels dispatch to.
enum class KernelMode : uint8_t {
  kAuto = 0,    ///< vectorized kernels unless OREO_FORCE_SCALAR=1
  kScalar = 1,  ///< scalar reference implementations everywhere
  kVector = 2,  ///< vectorized kernels (env override still wins)
};

const char* KernelModeName(KernelMode m);

/// Process-wide kernel mode (default kAuto). Thread-safe; results are
/// bit-identical in every mode, so flipping it mid-run is benign.
void SetGlobalKernelMode(KernelMode m);
KernelMode GlobalKernelMode();

/// True when the OREO_FORCE_SCALAR environment variable pins the scalar
/// reference implementations (read once, cached for the process lifetime).
bool ForceScalarEnv();

/// True when the vectorized kernels should run: env override, then mode.
bool VectorEnabled();

/// True when the AVX2 kernel translation unit is built in AND the CPU
/// reports AVX2 support at runtime.
bool HasAvx2();

/// True when the SSE4.2 CRC-32C translation unit is built in AND the CPU
/// reports SSE4.2 support at runtime.
bool HasSse42();

/// Human-readable dispatch state, e.g. "avx2", "portable", "scalar(env)",
/// "scalar(mode)" — recorded by bench/micro_kernels.
const char* DispatchDescription();

}  // namespace simd
}  // namespace oreo

#endif  // OREO_COMMON_SIMD_H_
