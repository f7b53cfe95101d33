#include "common/cpu_features.hpp"

namespace scnn::common {

namespace {

CpuFeatures probe() {
  CpuFeatures f;
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  f.sse2 = __builtin_cpu_supports("sse2") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.avx512f = __builtin_cpu_supports("avx512f") != 0;
  f.avx512bw = __builtin_cpu_supports("avx512bw") != 0;
  f.avx512vl = __builtin_cpu_supports("avx512vl") != 0;
  f.avx512vbmi = __builtin_cpu_supports("avx512vbmi") != 0;
  f.avx512vpopcntdq = __builtin_cpu_supports("avx512vpopcntdq") != 0;
  f.avx512vnni = __builtin_cpu_supports("avx512vnni") != 0;
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
  f.neon = true;
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = probe();
  return f;
}

// avx512vnni is not listed: bench_compare keys its cpu fingerprint on this
// string, and the committed baselines carry the summary without it.
std::string cpu_features_summary() {
  const CpuFeatures& f = cpu_features();
  std::string s;
  if (f.sse2) s += "sse2 ";
  if (f.avx2) s += "avx2 ";
  if (f.avx512f) s += "avx512f ";
  if (f.avx512bw) s += "avx512bw ";
  if (f.avx512vl) s += "avx512vl ";
  if (f.avx512vbmi) s += "avx512vbmi ";
  if (f.avx512vpopcntdq) s += "avx512vpopcntdq ";
  if (f.neon) s += "neon ";
  if (s.empty()) return "none";
  s.pop_back();
  return s;
}

}  // namespace scnn::common
