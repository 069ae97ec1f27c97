#include "common/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace oreo {
namespace simd {

namespace {

std::atomic<KernelMode> g_mode{KernelMode::kAuto};

bool ReadForceScalarEnv() {
  const char* env = std::getenv("OREO_FORCE_SCALAR");
  if (env == nullptr || *env == '\0') return false;
  // "0" / "false" / "off" disable; anything else enables.
  return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
         std::strcmp(env, "off") != 0;
}

}  // namespace

const char* KernelModeName(KernelMode m) {
  switch (m) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kVector:
      return "vector";
  }
  return "?";
}

void SetGlobalKernelMode(KernelMode m) {
  g_mode.store(m, std::memory_order_relaxed);
}

KernelMode GlobalKernelMode() { return g_mode.load(std::memory_order_relaxed); }

bool ForceScalarEnv() {
  static const bool force = ReadForceScalarEnv();
  return force;
}

bool VectorEnabled() {
  if (ForceScalarEnv()) return false;
  return GlobalKernelMode() != KernelMode::kScalar;
}

bool HasAvx2() {
#if defined(OREO_WITH_AVX2) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool HasSse42() {
#if defined(OREO_WITH_SSE42) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

const char* DispatchDescription() {
  if (ForceScalarEnv()) return "scalar(env)";
  if (GlobalKernelMode() == KernelMode::kScalar) return "scalar(mode)";
  return HasAvx2() ? "avx2" : "portable";
}

}  // namespace simd
}  // namespace oreo
