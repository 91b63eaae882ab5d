// Int8 inference GEMM (tensor::kern, DESIGN.md §7).
//
// u8 activations (zero point 128) times s8 per-output-channel weights with
// exact i32 accumulation and a fused dequant + bias + GELU (+ residual)
// epilogue. Split of labour between the two compiled paths:
//
//   * integer part — AVX2 (vpmaddwd over k-pairs) or portable scalar, both
//     reading the same pair-interleaved PackedBInt8 layout. Integer sums
//     are associative and never saturate here (k <= 65536 bounds the worst
//     case at 255 * 127 * 65536 < 2^31), so the accumulators are identical
//     bit-for-bit whatever the path, thread count or summation order.
//     vpmaddubsw is deliberately NOT used: its i16 pair sums saturate at
//     255 * 127 * 2 = 64770 > 32767, which would make results depend on
//     how k happens to pair up. Widening to i16 first (vpmovsxbw) and
//     multiplying with vpmaddwd costs one extra instruction per B load and
//     buys exactness.
//   * dequant epilogue — ONE scalar op sequence (dequant_row) with an
//     AVX2 twin built ONLY from per-lane-exact intrinsics: mul/add/sub/
//     div/min/max/cvt and integer bit ops, compiled without fma (GCC
//     would contract mul+add chains otherwise, see kern_math.hpp). Each
//     is IEEE-defined per lane, so the two epilogues agree bit-for-bit —
//     including the polynomial fast_exp inside GELU — and
//     the fp32 outputs are identical on every x86-64 machine. The golden
//     bytes in tests/golden_int8.inc pin exactly this.
//
// Parallelism mirrors the fp32 gemm: row panels in multiples of the 4-row
// micro-tile, stolen dynamically off the shared pool.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "tensor/kern_math.hpp"
#include "tensor/kernels.hpp"

namespace easz::tensor::kern {

namespace {

constexpr int kMr8 = 4;   // rows per micro-tile (A pairs packed per block)
constexpr int kNc8 = 16;  // columns per micro-tile (2 x 8 i32 accumulators)

// Same serial/parallel gate as the fp32 gemm; int8 work per element is
// cheaper, but so is the win from offloading it.
constexpr std::size_t kParallelMinOps = 65536;

// ---- dequant epilogue -----------------------------------------------------
//
// Scalar reference semantics; the AVX2 twin below replicates this exact
// operation sequence lane-wise (see file comment for why that is bit-safe).

struct Dequant {
  const float* dq_scale;
  const std::int32_t* col_sum;
  const float* bias;
  const float* res;  // row stride ldc, same rows as C
  bool gelu;
};

void dequant_row(const std::int32_t* acc, float* c, const float* res, int j0,
                 int n, const Dequant& q) {
  for (int j = 0; j < n; ++j) {
    const int col = j0 + j;
    float v = static_cast<float>(acc[j] - kActZeroPoint * q.col_sum[col]) *
              q.dq_scale[col];
    if (q.bias != nullptr) v += q.bias[col];
    if (q.gelu) v = detail::gelu_approx(v);
    if (res != nullptr) v = res[col] + v;
    c[col] = v;
  }
}

#ifdef EASZ_KERN_AVX2

// 8 columns of the epilogue. acc holds the raw i32 dot products; every
// pointer is already offset to the first of the 8 columns.
__attribute__((target("avx2"), always_inline)) inline void dequant8(
    __m256i acc, float* c, const float* dq_scale, const std::int32_t* col_sum,
    const float* bias, const float* res, bool gelu) {
  const __m256i zp = _mm256_set1_epi32(kActZeroPoint);
  const __m256i cs = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(col_sum));
  const __m256i corrected =
      _mm256_sub_epi32(acc, _mm256_mullo_epi32(zp, cs));
  __m256 v = _mm256_mul_ps(_mm256_cvtepi32_ps(corrected),
                           _mm256_loadu_ps(dq_scale));
  if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias));
  if (gelu) v = detail::gelu_v8(v);
  if (res != nullptr) v = _mm256_add_ps(_mm256_loadu_ps(res), v);
  _mm256_storeu_ps(c, v);
}

#endif  // EASZ_KERN_AVX2

// Packs `rows` rows of A into k-pair u32 words:
// word[r][p] = a[r][2p] | a[r][2p+1] << 16. Odd k pads the final a1 with
// literal 0 — it only ever multiplies the B pad, which is also 0.
void pack_a_pairs(const std::uint8_t* a, std::size_t lda, int rows, int k,
                  std::uint32_t* out, int kp) {
  for (int r = 0; r < rows; ++r) {
    const std::uint8_t* row = a + static_cast<std::size_t>(r) * lda;
    std::uint32_t* dst = out + static_cast<std::size_t>(r) * kp;
    int p = 0;
    for (; 2 * p + 1 < k; ++p) {
      dst[p] = static_cast<std::uint32_t>(row[2 * p]) |
               (static_cast<std::uint32_t>(row[2 * p + 1]) << 16);
    }
    if (p < kp) dst[p] = static_cast<std::uint32_t>(row[2 * p]);
  }
}

// ---- scalar integer kernel ------------------------------------------------

// acc[j] = sum over pairs of a0 * b[2p][j] + a1 * b[2p+1][j], reading the
// packed layout. Plain integer arithmetic: exact, any order.
void accumulate_scalar(const std::uint32_t* a_pairs, int kp,
                       const std::int8_t* b, int n, int j0, int cols,
                       std::int32_t* acc) {
  for (int j = 0; j < cols; ++j) acc[j] = 0;
  for (int p = 0; p < kp; ++p) {
    const std::int32_t a0 = static_cast<std::int32_t>(a_pairs[p] & 0xFFFFU);
    const std::int32_t a1 = static_cast<std::int32_t>(a_pairs[p] >> 16);
    const std::int8_t* brow =
        b + (static_cast<std::size_t>(p) * n + j0) * 2;
    for (int j = 0; j < cols; ++j) {
      acc[j] += a0 * brow[2 * j] + a1 * brow[2 * j + 1];
    }
  }
}

void gemm_rows_u8s8_base(const std::uint32_t* a_pairs, std::size_t apld,
                         int kp, const PackedBInt8& b, float* c,
                         std::size_t ldc, int rows, int n, const Dequant& q) {
  std::int32_t acc[kNc8];
  for (int r = 0; r < rows; ++r) {
    const std::uint32_t* arow = a_pairs + static_cast<std::size_t>(r) * apld;
    const std::size_t row = static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < n; j += kNc8) {
      const int cols = std::min(kNc8, n - j);
      accumulate_scalar(arow, kp, b.data.data(), n, j, cols, acc);
      dequant_row(acc, c + row, q.res == nullptr ? nullptr : q.res + row, j,
                  cols, q);
    }
  }
}

// ---- AVX2 integer kernel --------------------------------------------------

#ifdef EASZ_KERN_AVX2

// 4 rows x 16 columns of i32 accumulators (8 ymm registers) live across the
// whole k loop. Per k-pair: two 16-byte B loads cover 16 columns x 2 k
// positions; vpmovsxbw widens to i16; each row broadcasts its packed
// (a0, a1) word and vpmaddwd produces exact per-column i32 pair-sums.
__attribute__((target("avx2"))) void gemm_rows_u8s8_avx2(
    const std::uint32_t* a_pairs, std::size_t apld, int kp,
    const PackedBInt8& b, float* c, std::size_t ldc, int rows, int n,
    const Dequant& q) {
  const std::int8_t* bp = b.data.data();
  alignas(32) std::int32_t acc_store[kNc8];
  // Plain locals, not reads through q: with the struct live across the k
  // loop GCC spilled an accumulator to the stack.
  const float* dq_scale = q.dq_scale;
  const std::int32_t* col_sum = q.col_sum;
  const float* bias = q.bias;
  const bool gelu = q.gelu;

  int r = 0;
  for (; r + kMr8 <= rows; r += kMr8) {
    const std::uint32_t* ar[kMr8];
    for (int t = 0; t < kMr8; ++t) {
      ar[t] = a_pairs + static_cast<std::size_t>(r + t) * apld;
    }
    int j = 0;
    for (; j + kNc8 <= n; j += kNc8) {
      __m256i acc0[kMr8];
      __m256i acc1[kMr8];
      for (int t = 0; t < kMr8; ++t) {
        acc0[t] = _mm256_setzero_si256();
        acc1[t] = _mm256_setzero_si256();
      }
      const std::int8_t* bcol = bp + static_cast<std::size_t>(j) * 2;
      for (int p = 0; p < kp; ++p) {
        const std::int8_t* brow =
            bcol + static_cast<std::size_t>(p) * n * 2;
        const __m256i b0 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)));
        const __m256i b1 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + 16)));
        for (int t = 0; t < kMr8; ++t) {
          const __m256i apair =
              _mm256_set1_epi32(static_cast<int>(ar[t][p]));
          acc0[t] = _mm256_add_epi32(acc0[t], _mm256_madd_epi16(apair, b0));
          acc1[t] = _mm256_add_epi32(acc1[t], _mm256_madd_epi16(apair, b1));
        }
      }
      for (int t = 0; t < kMr8; ++t) {
        const std::size_t at = static_cast<std::size_t>(r + t) * ldc + j;
        const float* res = q.res == nullptr ? nullptr : q.res + at;
        dequant8(acc0[t], c + at, dq_scale + j, col_sum + j,
                 bias == nullptr ? nullptr : bias + j, res, gelu);
        dequant8(acc1[t], c + at + 8, dq_scale + j + 8, col_sum + j + 8,
                 bias == nullptr ? nullptr : bias + j + 8,
                 res == nullptr ? nullptr : res + 8, gelu);
      }
    }
    if (j < n) {  // column remainder: scalar integer path, same epilogue
      const int cols = n - j;
      for (int t = 0; t < kMr8; ++t) {
        const std::size_t row = static_cast<std::size_t>(r + t) * ldc;
        accumulate_scalar(ar[t], kp, bp, n, j, cols, acc_store);
        dequant_row(acc_store, c + row,
                    q.res == nullptr ? nullptr : q.res + row, j, cols, q);
      }
    }
  }
  if (r < rows) {  // row remainder, one row at a time
    Dequant rq = q;
    if (rq.res != nullptr) rq.res += static_cast<std::size_t>(r) * ldc;
    gemm_rows_u8s8_base(a_pairs + static_cast<std::size_t>(r) * apld, apld,
                        kp, b, c + static_cast<std::size_t>(r) * ldc, ldc,
                        rows - r, n, rq);
  }
}

#endif  // EASZ_KERN_AVX2

void gemm_rows_u8s8(const std::uint32_t* a_pairs, std::size_t apld, int kp,
                    const PackedBInt8& b, float* c, std::size_t ldc, int rows,
                    int n, const Dequant& q) {
#ifdef EASZ_KERN_AVX2
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    gemm_rows_u8s8_avx2(a_pairs, apld, kp, b, c, ldc, rows, n, q);
    return;
  }
#endif
  gemm_rows_u8s8_base(a_pairs, apld, kp, b, c, ldc, rows, n, q);
}

// Grow-only per-thread scratch for the packed-A pairs. Steady state: zero
// allocations.
std::vector<std::uint32_t>& a_pack_scratch() {
  static thread_local std::vector<std::uint32_t> scratch;
  return scratch;
}

}  // namespace

PackedBInt8 pack_b_s8(const std::int8_t* b, int k, int n) {
  if (k <= 0 || n <= 0) {
    throw std::invalid_argument("pack_b_s8: need positive dimensions");
  }
  if (k > 65536) {
    // 255 * 127 * 65536 < 2^31: beyond this the exact-i32 contract breaks.
    throw std::invalid_argument("pack_b_s8: k exceeds the exact-i32 bound");
  }
  PackedBInt8 out;
  out.k = k;
  out.n = n;
  const int kp = out.k_pairs();
  out.data.assign(static_cast<std::size_t>(kp) * n * 2, 0);
  for (int p = 0; p < k; ++p) {
    const std::int8_t* brow = b + static_cast<std::size_t>(p) * n;
    std::int8_t* dst = out.data.data() +
                       static_cast<std::size_t>(p / 2) * n * 2 + (p % 2);
    for (int j = 0; j < n; ++j) dst[2 * j] = brow[j];
  }
  return out;
}

namespace {

// Both paths clamp in the FLOAT domain first (to +-512, far outside the
// representable u8 range, so no in-range value is touched): lrintf is a
// 64-bit conversion while cvtps_epi32 is 32-bit, and without the pre-clamp
// the two would disagree on inputs wilder than 2^31 quantization steps
// (possible only with a degenerate calibration, but exactness is the
// whole contract here). NaN maps to the low clamp on both paths.
constexpr float kQuantClamp = 512.0F;

void quantize_span_base(const float* x, std::uint8_t* q, std::size_t count,
                        float inv) {
  for (std::size_t i = 0; i < count; ++i) {
    const float s =
        std::min(kQuantClamp, std::max(-kQuantClamp, x[i] * inv));
    // lrintf: round-to-nearest-even via cvtss2si — deterministic and fast.
    const long v = std::lrintf(s) + kActZeroPoint;
    q[i] = static_cast<std::uint8_t>(std::clamp<long>(v, 0, 255));
  }
}

#ifdef EASZ_KERN_AVX2

// 32 values per iteration: cvtps_epi32 rounds nearest-even exactly like
// lrintf, and the packs/packus pair saturates exactly like the scalar
// clamp (out-of-i32-range conversions produce INT_MIN on both paths, which
// both saturate to 0 after the zero-point shift).
__attribute__((target("avx2"))) void quantize_span_avx2(const float* x,
                                                        std::uint8_t* q,
                                                        std::size_t count,
                                                        float inv) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i zp = _mm256_set1_epi32(kActZeroPoint);
  // packs/packus interleave the two 128-bit lanes; this dword order undoes
  // the shuffle so bytes land in element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) {
    __m256i w[4];
    for (int t = 0; t < 4; ++t) {
      __m256 v = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * t), vinv);
      // max_ps(v, lo): SRC2 wins on NaN — same result as the scalar
      // std::max(lo, s) (which keeps lo when s is NaN).
      v = _mm256_min_ps(_mm256_max_ps(v, _mm256_set1_ps(-kQuantClamp)),
                        _mm256_set1_ps(kQuantClamp));
      w[t] = _mm256_add_epi32(_mm256_cvtps_epi32(v), zp);
    }
    const __m256i p01 = _mm256_packs_epi32(w[0], w[1]);
    const __m256i p23 = _mm256_packs_epi32(w[2], w[3]);
    const __m256i packed = _mm256_permutevar8x32_epi32(
        _mm256_packus_epi16(p01, p23), order);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), packed);
  }
  if (i < count) quantize_span_base(x + i, q + i, count - i, inv);
}

#endif  // EASZ_KERN_AVX2

}  // namespace

void quantize_rows_u8(const float* x, std::uint8_t* q, std::size_t count,
                      float act_scale) {
  const float inv = 1.0F / act_scale;
#ifdef EASZ_KERN_AVX2
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    quantize_span_avx2(x, q, count, inv);
    return;
  }
#endif
  quantize_span_base(x, q, count, inv);
}

void gemm_u8s8(const std::uint8_t* a, std::size_t lda, const PackedBInt8& b,
               float* c, std::size_t ldc, int m, int k, int n,
               const float* dq_scale, const std::int32_t* col_sum,
               const QuantGemmOpts& opts) {
  if (m <= 0) return;
  if (k != b.k || n != b.n) {
    throw std::invalid_argument("gemm_u8s8: dims do not match the packed B");
  }
  const int kp = b.k_pairs();

  // Pack the whole A block once: each (a0, a1) word is re-read n/16 times
  // by the column loop, so the O(m*k) pack amortises immediately.
  std::vector<std::uint32_t>& pairs = a_pack_scratch();
  const std::size_t need = static_cast<std::size_t>(m) * kp;
  if (pairs.size() < need) pairs.resize(need);
  pack_a_pairs(a, lda, m, k, pairs.data(), kp);

  const Dequant q{dq_scale, col_sum, opts.bias, opts.residual, opts.gelu};
  const std::size_t work = static_cast<std::size_t>(m) * n * k;
  const int lanes = threads();
  if (!opts.parallel || lanes <= 1 || work < kParallelMinOps) {
    gemm_rows_u8s8(pairs.data(), static_cast<std::size_t>(kp), kp, b, c, ldc,
                   m, n, q);
    return;
  }
  // Row panels in micro-tile multiples, ~4 per lane (see fp32 gemm).
  int panel = (m + lanes * 4 - 1) / (lanes * 4);
  panel = std::max(kMr8, (panel + kMr8 - 1) / kMr8 * kMr8);
  const int panels = (m + panel - 1) / panel;
  parallel_for(panels, [&](int pi) {
    const int r0 = pi * panel;
    const int rows = std::min(panel, m - r0);
    Dequant pq = q;
    if (pq.res != nullptr) pq.res += static_cast<std::size_t>(r0) * ldc;
    gemm_rows_u8s8(pairs.data() + static_cast<std::size_t>(r0) * kp,
                   static_cast<std::size_t>(kp), kp, b,
                   c + static_cast<std::size_t>(r0) * ldc, ldc, rows, n, pq);
  });
}

}  // namespace easz::tensor::kern
