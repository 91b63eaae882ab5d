#include "codec/dct.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace easz::codec {
namespace {

constexpr int kMaxN = 64;

// Fixed-size row-major product C = A * B for the hot block shapes. With N a
// compile-time constant the j-loop vectorises and the k-loop unrolls; each
// output element accumulates over k in ascending order (one fp32
// accumulator), the same summation order as tensor::kern::gemm and the old
// triple loop.
template <int N>
__attribute__((always_inline)) inline void matmul_fixed(const float* a,
                                                        const float* b,
                                                        float* c) {
  for (int i = 0; i < N; ++i) {
    float acc[N] = {};
    for (int k = 0; k < N; ++k) {
      const float av = a[i * N + k];
      for (int j = 0; j < N; ++j) acc[j] += av * b[k * N + j];
    }
    for (int j = 0; j < N; ++j) c[i * N + j] = acc[j];
  }
}

// forward: block = B * (block * B^T)  — both factors stream rows because the
// first product multiplies by the transposed basis.
template <int N>
__attribute__((always_inline)) inline void dct_forward_fixed(
    float* block, const float* basis, const float* basis_t) {
  float tmp[N * N];
  matmul_fixed<N>(block, basis_t, tmp);   // tmp = X * B^T
  matmul_fixed<N>(basis, tmp, block);     // out = B * tmp
}

// inverse: block = (B^T * block) * B
template <int N>
__attribute__((always_inline)) inline void dct_inverse_fixed(
    float* block, const float* basis, const float* basis_t) {
  float tmp[N * N];
  matmul_fixed<N>(basis_t, block, tmp);   // tmp = B^T * X
  matmul_fixed<N>(tmp, basis, block);     // out = tmp * B
}

// AVX2 path: the hot matmuls are written directly in broadcast+FMA
// intrinsics. Letting the autovectoriser at the fully-unrolled fixed-size
// loops produces a permute-heavy SLP mess that runs BELOW scalar speed
// (measured ~1 GMAC/s vs 38 GMAC/s peak on the reference container), so the
// 8x8 and 16x16 kernels spell out the schedule: one C row of accumulators
// lives in registers, each k step broadcasts one A element and FMAs a
// streamed B row — the same ascending-k order as everywhere else.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define EASZ_DCT_X86_DISPATCH 1
#include <immintrin.h>

__attribute__((target("avx2,fma"), always_inline)) inline void mm8_avx2(
    const float* a, const float* b, float* c) {
  // All eight B rows fit in registers for the whole product.
  __m256 br[8];
  for (int k = 0; k < 8; ++k) br[k] = _mm256_loadu_ps(b + k * 8);
  for (int i = 0; i < 8; ++i) {
    __m256 acc = _mm256_setzero_ps();
    for (int k = 0; k < 8; ++k) {
      acc = _mm256_fmadd_ps(_mm256_broadcast_ss(a + i * 8 + k), br[k], acc);
    }
    _mm256_storeu_ps(c + i * 8, acc);
  }
}

__attribute__((target("avx2,fma"), always_inline)) inline void mm16_avx2(
    const float* a, const float* b, float* c) {
  for (int i = 0; i < 16; ++i) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (int k = 0; k < 16; ++k) {
      const __m256 av = _mm256_broadcast_ss(a + i * 16 + k);
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + k * 16), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + k * 16 + 8), acc1);
    }
    _mm256_storeu_ps(c + i * 16, acc0);
    _mm256_storeu_ps(c + i * 16 + 8, acc1);
  }
}

template <int N>
__attribute__((target("avx2,fma"))) void dct_forward_avx2(
    float* block, const float* basis, const float* basis_t) {
  float tmp[N * N];
  if constexpr (N == 8) {
    mm8_avx2(block, basis_t, tmp);
    mm8_avx2(basis, tmp, block);
  } else {
    static_assert(N == 16);
    mm16_avx2(block, basis_t, tmp);
    mm16_avx2(basis, tmp, block);
  }
}
template <int N>
__attribute__((target("avx2,fma"))) void dct_inverse_avx2(
    float* block, const float* basis, const float* basis_t) {
  float tmp[N * N];
  if constexpr (N == 8) {
    mm8_avx2(basis_t, block, tmp);
    mm8_avx2(tmp, basis, block);
  } else {
    static_assert(N == 16);
    mm16_avx2(basis_t, block, tmp);
    mm16_avx2(tmp, basis, block);
  }
}
#endif

template <int N>
void dct_forward_base(float* block, const float* basis, const float* basis_t) {
  dct_forward_fixed<N>(block, basis, basis_t);
}
template <int N>
void dct_inverse_base(float* block, const float* basis, const float* basis_t) {
  dct_inverse_fixed<N>(block, basis, basis_t);
}

bool use_avx2() {
#ifdef EASZ_DCT_X86_DISPATCH
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

template <int N>
void dct_forward_hot(float* block, const float* basis, const float* basis_t) {
#ifdef EASZ_DCT_X86_DISPATCH
  if (use_avx2()) {
    dct_forward_avx2<N>(block, basis, basis_t);
    return;
  }
#endif
  dct_forward_base<N>(block, basis, basis_t);
}

template <int N>
void dct_inverse_hot(float* block, const float* basis, const float* basis_t) {
#ifdef EASZ_DCT_X86_DISPATCH
  if (use_avx2()) {
    dct_inverse_avx2<N>(block, basis, basis_t);
    return;
  }
#endif
  dct_inverse_base<N>(block, basis, basis_t);
}

// Generic sizes ride tensor::kern::gemm (parallel=false: a DCT block is far
// below the parallel threshold).
tensor::kern::GemmOpts serial_gemm() {
  tensor::kern::GemmOpts o;
  o.parallel = false;
  return o;
}

}  // namespace

Dct2d::Dct2d(int n) : n_(n) {
  if (n < 2 || n > kMaxN) throw std::invalid_argument("Dct2d: n out of range");
  basis_.resize(static_cast<std::size_t>(n) * n);
  basis_t_.resize(static_cast<std::size_t>(n) * n);
  const double pi = 3.14159265358979323846;
  for (int k = 0; k < n; ++k) {
    const double ck = k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n);
    for (int x = 0; x < n; ++x) {
      const auto v = static_cast<float>(
          ck * std::cos((2.0 * x + 1.0) * k * pi / (2.0 * n)));
      basis_[static_cast<std::size_t>(k) * n + x] = v;
      basis_t_[static_cast<std::size_t>(x) * n + k] = v;
    }
  }
}

void Dct2d::forward(float* block) const {
  const int n = n_;
  if (n == 8) {
    dct_forward_hot<8>(block, basis_.data(), basis_t_.data());
    return;
  }
  if (n == 16) {
    dct_forward_hot<16>(block, basis_.data(), basis_t_.data());
    return;
  }
  float tmp[kMaxN * kMaxN];
  const auto un = static_cast<std::size_t>(n);
  tensor::kern::gemm(block, un, basis_t_.data(), un, tmp, un, n, n, n,
                     serial_gemm());
  tensor::kern::gemm(basis_.data(), un, tmp, un, block, un, n, n, n,
                     serial_gemm());
}

void Dct2d::inverse(float* block) const {
  const int n = n_;
  if (n == 8) {
    dct_inverse_hot<8>(block, basis_.data(), basis_t_.data());
    return;
  }
  if (n == 16) {
    dct_inverse_hot<16>(block, basis_.data(), basis_t_.data());
    return;
  }
  float tmp[kMaxN * kMaxN];
  const auto un = static_cast<std::size_t>(n);
  tensor::kern::gemm(basis_t_.data(), un, block, un, tmp, un, n, n, n,
                     serial_gemm());
  tensor::kern::gemm(tmp, un, basis_.data(), un, block, un, n, n, n,
                     serial_gemm());
}

}  // namespace easz::codec
