// Internal transcendental approximations shared by the kern translation
// units (fp32 kernels in kernels.cpp, int8 epilogue in kernels_int8.cpp).
//
// Everything here is pure float arithmetic + integer bit manipulation: no
// libm calls, no lookup tables, no data-dependent branches. GCC still does
// not autovectorise a loop around the scalar forms: under its default
// -ftrapping-math the float clamp in fast_exp cannot be if-converted
// ("control flow in loop"), so every SIMD caller uses the explicit 8-lane
// twins below instead. Each twin replays its scalar op sequence lane-wise
// with separate mul/add/sub/div/min/max intrinsics, and the twins are only
// ever inlined into target("avx2") code WITHOUT fma: GCC lowers these
// intrinsics to plain vector arithmetic and would contract mul+add chains
// into FMA inside an fma-enabled function, shifting the last bits. Kept out
// of FMA contexts, the vector and scalar forms agree bit-for-bit — which
// the int8 dequant epilogue, whose bytes tests/golden_int8.inc pins, relies
// on, and which makes the fp32 epilogue, softmax and layernorm identical on
// the AVX2 and portable paths.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EASZ_KERN_AVX2 1
#include <immintrin.h>
#endif

namespace easz::tensor::kern::detail {

// Branch-free single-precision e^x, ~2 ulp over the clamped range. libm's
// expf would round differently in the last bits; the difference is ~1e-7
// relative, far inside the layer's 1e-5 equivalence contract.
__attribute__((always_inline)) inline float fast_exp(float x) {
  constexpr float kLog2e = 1.44269504088896341F;
  constexpr float kLn2Hi = 0.693359375F;
  constexpr float kLn2Lo = -2.12194440e-4F;
  constexpr float kRound = 12582912.0F;  // 1.5 * 2^23: round-to-nearest trick
  x = std::max(-87.0F, std::min(88.0F, x));  // keep 2^n finite
  const float z = x * kLog2e + kRound;
  const float n = z - kRound;  // round(x * log2(e))
  const float r = (x - n * kLn2Hi) - n * kLn2Lo;  // r in [-ln2/2, ln2/2]
  float p = 1.9875691500e-4F;  // Cephes minimax for e^r - 1 - r
  p = p * r + 1.3981999507e-3F;
  p = p * r + 8.3334519073e-3F;
  p = p * r + 4.1665795894e-2F;
  p = p * r + 1.6666665459e-1F;
  p = p * r + 5.0000001201e-1F;
  const float er = (p * r) * r + r + 1.0F;  // p(r)*r^2 + r + 1
  // 2^n assembled straight into the exponent field.
  const std::int32_t ni =
      std::bit_cast<std::int32_t>(z) - std::bit_cast<std::int32_t>(kRound);
  const float scale = std::bit_cast<float>((ni + 127) << 23);
  return er * scale;
}

__attribute__((always_inline)) inline float gelu_approx(float x) {
  constexpr float kC = 0.7978845608F;  // sqrt(2/pi)
  constexpr float kA = 0.044715F;
  const float inner = kC * (x + kA * x * x * x);
  // tanh(u) = 1 - 2 / (e^{2u} + 1), saturated where e^{2u} dwarfs 1.
  const float e2u = fast_exp(2.0F * inner);
  const float t = 1.0F - 2.0F / (e2u + 1.0F);
  return 0.5F * x * (1.0F + t);
}

#ifdef EASZ_KERN_AVX2

// fast_exp transcribed op-for-op onto 8 lanes. min_ps/max_ps return their
// second operand on NaN, so x goes first to clamp NaN to 88 exactly like
// the scalar std::min(88, x).
__attribute__((target("avx2"), always_inline)) inline __m256 fast_exp_v8(
    __m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341F);
  const __m256 ln2_hi = _mm256_set1_ps(0.693359375F);
  const __m256 ln2_lo = _mm256_set1_ps(-2.12194440e-4F);
  const __m256 round_c = _mm256_set1_ps(12582912.0F);  // 1.5 * 2^23
  x = _mm256_max_ps(_mm256_min_ps(x, _mm256_set1_ps(88.0F)),
                    _mm256_set1_ps(-87.0F));
  const __m256 z = _mm256_add_ps(_mm256_mul_ps(x, log2e), round_c);
  const __m256 n = _mm256_sub_ps(z, round_c);
  const __m256 r = _mm256_sub_ps(_mm256_sub_ps(x, _mm256_mul_ps(n, ln2_hi)),
                                 _mm256_mul_ps(n, ln2_lo));
  __m256 p = _mm256_set1_ps(1.9875691500e-4F);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.3981999507e-3F));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.3334519073e-3F));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.1665795894e-2F));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.6666665459e-1F));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.0000001201e-1F));
  // er = ((p*r)*r + r) + 1
  const __m256 er = _mm256_add_ps(
      _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, r), r), r),
      _mm256_set1_ps(1.0F));
  const __m256i ni = _mm256_sub_epi32(_mm256_castps_si256(z),
                                      _mm256_castps_si256(round_c));
  const __m256 scale = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23));
  return _mm256_mul_ps(er, scale);
}

// gelu_approx transcribed the same way: inner = kC * (x + ((kA*x)*x)*x),
// t = 1 - 2 / (e^{2*inner} + 1), y = (0.5*x) * (1 + t).
__attribute__((target("avx2"), always_inline)) inline __m256 gelu_v8(
    __m256 x) {
  const __m256 kc = _mm256_set1_ps(0.7978845608F);
  const __m256 ka = _mm256_set1_ps(0.044715F);
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(ka, x), x), x);
  const __m256 inner = _mm256_mul_ps(kc, _mm256_add_ps(x, x3));
  const __m256 e2u =
      fast_exp_v8(_mm256_mul_ps(_mm256_set1_ps(2.0F), inner));
  const __m256 t = _mm256_sub_ps(
      one, _mm256_div_ps(_mm256_set1_ps(2.0F), _mm256_add_ps(e2u, one)));
  return _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5F), x),
                       _mm256_add_ps(one, t));
}

// Lane mask selecting the first `n` (0..8) floats, for maskload/maskstore.
__attribute__((target("avx2"), always_inline)) inline __m256i lane_mask(
    int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

#endif  // EASZ_KERN_AVX2

}  // namespace easz::tensor::kern::detail
