// Grad-free inference kernels (tensor::kern).
//
// The autograd substrate in ops.cpp pays, per op, for a DAG node, a
// zero-filled output buffer, a std::function backward closure and naive
// loop nests. That is the right trade for training; it is the wrong one for
// the serving hot path, where the same transformer forward runs millions of
// times on frozen weights. This layer provides the forward-only primitives
// the nn/ infer path is built from:
//
//  * gemm(): blocked, register-tiled matrix multiply over raw float spans
//    with arbitrary row strides, a fused bias / GELU / residual epilogue,
//    and row-panel parallelism on a persistent process-global thread pool
//    (idle lanes dynamically steal the next unclaimed panel).
//  * attention(): fused multi-head attention, one task per (batch, head):
//    scores stored transposed ([key][query lane]) on one lane-local tile,
//    a column-wise max-shifted softmax and the V product, with no
//    [batch * heads * T * T] slab in the workspace. Any subset of query
//    rows can be computed alone with the same bytes.
//  * layernorm_rows(): fused single-pass row kernel.
//  * Workspace: a grow-only bump arena for activations, so a steady-state
//    forward performs zero heap allocations (see Workspace notes).
//
// Equivalence contract (asserted by tests/kernels_test.cpp): every kernel
// accumulates each output element over k in ascending order with one fp32
// accumulator — the same summation order as the autograd ops. The only
// deliberate numeric deviations are fused multiply-adds in the GEMM loop
// (where the CPU supports them), a ~2-ulp polynomial exp inside softmax/GELU,
// K pre-scaled by 1/sqrt(head_dim) in attention and layernorm's 8-lane
// mean/variance sums; all sit orders of magnitude inside the tested 1e-5
// bound. On x86-64 every kernel has an explicit AVX2 body and a portable
// twin, dispatched once at runtime, so the binary stays portable. Outside
// the GEMM's multiply-add chain the two bodies are bit-identical, and every
// output row depends only on its own input row, so a row's bytes never
// depend on its position in a batch.
//
// Threading rules:
//  * set_threads() resizes the pool; call it only while no parallel_for is
//    in flight (servers set it at construction).
//  * parallel_for() is re-entrant across caller threads: concurrent calls
//    queue jobs FIFO and every caller participates in its own job, so work
//    completes even with zero pool workers.
//  * Kernels invoked from inside a parallel_for task must pass
//    parallel=false (no nested parallelism).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace easz::tensor::kern {

// ---- thread pool ----------------------------------------------------------

/// Lanes the pool would use by default: the CPUs in the process's
/// affinity mask (util/affinity.hpp), >= 1.
int default_threads();

/// Total concurrency: the calling thread plus (n - 1) persistent workers.
/// n < 1 is clamped to 1 (serial). Joins and respawns workers; never call
/// concurrently with parallel_for.
void set_threads(int n);

/// Current total concurrency.
int threads();

/// Pin (or unpin) the pool's dedicated lanes round-robin across the
/// process's allowed CPUs (util/affinity.hpp). Joins and respawns workers
/// like set_threads — never call concurrently with parallel_for. Graceful
/// no-op on platforms without thread affinity; the serve runtime enables
/// this via ServerConfig::pin_workers.
void set_pin_threads(bool pin);

/// Whether lane pinning is currently requested (not whether it succeeded).
bool pin_threads();

namespace detail {
void parallel_for_impl(int count, void (*fn)(void*, int), void* ctx);
}  // namespace detail

/// Runs fn(i) for every i in [0, count), distributing indices over the pool.
/// Blocks until all indices completed. fn must not throw.
template <typename F>
void parallel_for(int count, F&& fn) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_for_impl(
      count, [](void* ctx, int i) { (*static_cast<Fn*>(ctx))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

// ---- workspace arena ------------------------------------------------------

/// Grow-only bump arena for forward-pass activations.
///
/// Lifetime: reset() at the top of each forward rewinds the cursor but keeps
/// every block, so allocation replays hit warm memory. Blocks never move once
/// handed out (pointers stay valid until reset). After the first forward of a
/// given shape, subsequent forwards of that shape allocate nothing
/// (grow_count() is the observable: it only increments when a new block is
/// actually heap-allocated).
class Workspace {
 public:
  /// Returns n floats of scratch, valid until reset(). Uninitialised.
  float* alloc(std::size_t n);

  /// Rewinds every block. Pointers from before the reset become dead.
  void reset();

  /// Number of heap blocks ever allocated — steady state: constant.
  [[nodiscard]] std::size_t grow_count() const { return grows_; }

  [[nodiscard]] std::size_t capacity_floats() const;

  /// The calling thread's arena (thread_local). One per server worker.
  static Workspace& for_this_thread();

 private:
  static constexpr std::size_t kMinBlockFloats = 1U << 18;  // 1 MB

  struct Block {
    std::vector<float> data;
    std::size_t used = 0;
  };
  std::vector<Block> blocks_;
  std::size_t grows_ = 0;
};

// ---- GEMM -----------------------------------------------------------------

struct GemmOpts {
  const float* bias = nullptr;      ///< [n], added to every output row
  bool gelu = false;                ///< tanh-approx GELU fused after bias
  const float* residual = nullptr;  ///< [m, n] with row stride ldc, added last
  bool parallel = true;             ///< false inside parallel_for tasks
};

/// C[m, n] = epilogue(A[m, k] * B) with row strides lda/ldb/ldc (>= the
/// logical row width), B [k, n]. Epilogue order: bias, GELU, then
/// residual[i][j] + value. Output is overwritten, not accumulated (it may
/// alias the residual). Preconditions unchecked (hot path).
void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, int m, int k, int n,
          const GemmOpts& opts = {});

// ---- fused row kernels ----------------------------------------------------

/// Scaled-dot-product attention for every (batch, head). qkv is
/// [batch * tokens, 3 * heads * head_dim] (Q | K | V, head h at column
/// h * head_dim of each third); out is [batch * tokens, heads * head_dim].
/// Per query row: s = QK^T / sqrt(head_dim), w = softmax(s), out = w V.
/// A non-null `queries` (positions in [0, tokens), the same for every
/// sequence) computes only those query rows against all keys: out is then
/// [batch * queries->size(), heads * head_dim], row b * size + r holding
/// query (*queries)[r] of sequence b, with the same bytes as that row of
/// the full call. Tasks run on the pool; not for use inside a parallel_for
/// task.
void attention(const float* qkv, float* out, int batch, int tokens, int heads,
               int head_dim, const std::vector<int>* queries = nullptr);

/// y[r] = (x[r] - mu_r) * inv_sd_r * gamma + beta per row of x [rows, d].
/// y may alias x.
void layernorm_rows(const float* x, const float* gamma, const float* beta,
                    float* y, std::size_t rows, int d, float eps = 1e-5F,
                    bool parallel = true);

/// out[i] = a[i] + b[i]; out may alias either input (residual adds).
void add_rows(const float* a, const float* b, float* out, std::size_t n);

/// Reference scalar of the tanh-approx GELU the fused epilogue applies.
/// Same formula as tensor::gelu's forward, with tanh evaluated through the
/// layer's polynomial exp (agreement ~1e-7, inside the 1e-5 contract). The
/// AVX2 epilogue reproduces it bit-for-bit.
float gelu_scalar(float x);

// ---- int8 GEMM (kernels_int8.cpp) -----------------------------------------
//
// Quantization convention (DESIGN.md §7):
//   activations  u8 with a fixed zero point of 128:
//                  q = clamp(lrintf(x / act_scale) + 128, 0, 255)
//   weights      s8, symmetric PER OUTPUT CHANNEL:
//                  wq[p][j] = clamp(lrintf(w[p][j] / w_scale[j]), -127, 127)
//   accumulate   exact i32 (no saturation anywhere; k is bounded so the
//                 worst case 255 * 127 * k stays far below 2^31)
//   dequantize   y[i][j] = float(acc - 128 * col_sum[j]) * dq_scale[j]
//                          (+ bias[j]) (GELU'd) (+ residual), with
//                 dq_scale[j] = act_scale * w_scale[j] and
//                 col_sum[j] = sum_p wq[p][j] (the zero-point correction).
//
// Exactness contract (asserted by tests/quant_test.cpp): the i32 accumulator
// is a plain integer sum, so it is identical on every path; the dequant
// epilogue is ONE shared function compiled once for the baseline ISA (no
// FMA contraction), so the fp32 outputs are bit-identical between the AVX2
// and scalar kernels, between thread counts, and across batch compositions
// (static scales make row results row-local). tests/golden_int8.inc pins
// the exact output bytes.

/// Activation zero point: fp32 0.0 maps to u8 128.
inline constexpr int kActZeroPoint = 128;

/// Weights packed for the madd-pair kernel: k is processed two at a time,
/// so element (p, j) of the [k, n] s8 matrix lives at
/// data[(p/2 * n + j) * 2 + p%2]; odd k pads the final pair with zeros
/// (exact: the pad contributes 0 to every accumulator).
struct PackedBInt8 {
  std::vector<std::int8_t> data;
  int k = 0;
  int n = 0;
  [[nodiscard]] int k_pairs() const { return (k + 1) / 2; }
  [[nodiscard]] bool empty() const { return data.empty(); }
};

/// Packs a row-major s8 [k, n] matrix. Throws std::invalid_argument on
/// non-positive dims or k > 65536 (i32 accumulator headroom, ~30x margin).
PackedBInt8 pack_b_s8(const std::int8_t* b, int k, int n);

/// q[i] = clamp(lrintf(x[i] / act_scale) + 128, 0, 255). act_scale must be
/// positive and finite (validated by the callers that load it from disk).
/// lrintf rounds to nearest-even in the default FP environment — the same
/// everywhere, which keeps quantized bytes platform-stable.
void quantize_rows_u8(const float* x, std::uint8_t* q, std::size_t count,
                      float act_scale);

struct QuantGemmOpts {
  const float* bias = nullptr;      ///< [n], added after dequantization
  bool gelu = false;                ///< same tanh-approx GELU as GemmOpts
  const float* residual = nullptr;  ///< same contract as GemmOpts::residual
  bool parallel = true;             ///< false inside parallel_for tasks
};

/// C[m, n] = epilogue(dequant(A_u8[m, k] * B_s8)) with row strides lda/ldc.
/// `dq_scale` and `col_sum` are per-output-channel ([n], see convention
/// above). Output rows depend only on their own input row — pooling
/// requests into one call reproduces per-request results exactly.
void gemm_u8s8(const std::uint8_t* a, std::size_t lda, const PackedBInt8& b,
               float* c, std::size_t ldc, int m, int k, int n,
               const float* dq_scale, const std::int32_t* col_sum,
               const QuantGemmOpts& opts = {});

}  // namespace easz::tensor::kern
