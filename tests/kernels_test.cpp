// The kernel layer's contract: the grad-free tensor::kern fast path must
// reproduce the autograd substrate's forward results (same weights, same
// inputs) to <= 1e-5 at every level — raw GEMM, fused row kernels, the nn
// infer methods, the full ReconstructionModel, and the serve runtime's
// cross-request batching (where server responses must stay byte-identical
// to sequential decode). Plus the runtime properties the layer promises:
// steady-state zero allocation and thread-count-independent results.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <future>
#ifdef __linux__
#include <sched.h>
#endif
#include <thread>
#include <vector>

#include "codec/jpeg_like.hpp"
#include "core/pipeline.hpp"
#include "core/recon_model.hpp"
#include "data/synth.hpp"
#include "nn/transformer.hpp"
#include "serve/server.hpp"
#include "tensor/kern_math.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "util/affinity.hpp"
#include "util/prng.hpp"

namespace easz {
namespace {

namespace kern = tensor::kern;
using tensor::Shape;
using tensor::Tensor;

// Restores the pool width on scope exit so tests cannot leak a setting.
struct ThreadGuard {
  explicit ThreadGuard(int n) : prev(kern::threads()) { kern::set_threads(n); }
  ~ThreadGuard() { kern::set_threads(prev); }
  int prev;
};

void expect_close(const float* got, const float* want, std::size_t n,
                  float tol = 1e-5F) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_NEAR(got[i], want[i], tol * std::max(1.0F, std::fabs(want[i])))
        << "element " << i;
  }
}

void expect_close(const Tensor& got, const Tensor& want, float tol = 1e-5F) {
  ASSERT_EQ(got.shape(), want.shape());
  expect_close(got.data().data(), want.data().data(), got.numel(), tol);
}

// ---------------------------------------------------------------- gemm

TEST(KernGemm, MatchesAutogradMatmul) {
  util::Pcg32 rng(1);
  const int sizes[][3] = {{1, 1, 1},   {3, 5, 2},   {17, 13, 9},
                          {64, 64, 64}, {33, 7, 65}, {4, 100, 8}};
  for (const auto& s : sizes) {
    const int m = s[0], k = s[1], n = s[2];
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    const Tensor want = tensor::matmul(a, b);
    std::vector<float> got(static_cast<std::size_t>(m) * n);
    kern::gemm(a.data().data(), k, b.data().data(), n, got.data(), n, m, k, n);
    expect_close(got.data(), want.data().data(), got.size());
  }
}

TEST(KernGemm, FusedBiasGeluMatchesOpChain) {
  util::Pcg32 rng(3);
  const int m = 19, k = 23, n = 31;
  Tensor x = Tensor::randn({m, k}, rng);
  Tensor w = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  const Tensor want =
      tensor::gelu(tensor::add_broadcast(tensor::matmul(x, w), bias));
  std::vector<float> got(static_cast<std::size_t>(m) * n);
  kern::GemmOpts opts;
  opts.bias = bias.data().data();
  opts.gelu = true;
  kern::gemm(x.data().data(), k, w.data().data(), n, got.data(), n, m, k, n,
             opts);
  expect_close(got.data(), want.data().data(), got.size());
}

TEST(KernGemm, StridedViewsMatchPacked) {
  // Strided A/B/C (as the attention path uses on qkv slabs) must equal the
  // packed computation.
  util::Pcg32 rng(4);
  const int m = 9, k = 6, n = 5;
  const std::size_t lda = 13, ldb = 11, ldc = 17;
  std::vector<float> a(m * lda), b(k * ldb), c(m * ldc, -7.0F);
  for (auto& v : a) v = rng.next_gaussian();
  for (auto& v : b) v = rng.next_gaussian();

  Tensor ap({m, k});
  Tensor bp({k, n});
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) ap.data()[i * k + p] = a[i * lda + p];
  }
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bp.data()[p * n + j] = b[p * ldb + j];
  }
  const Tensor want = tensor::matmul(ap, bp);

  kern::gemm(a.data(), lda, b.data(), ldb, c.data(), ldc, m, k, n);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      // 1e-5 contract, not bitwise: the dispatched kernel may fuse
      // multiply-add where the autograd loop rounds twice.
      ASSERT_NEAR(c[i * ldc + j], want.data()[i * n + j], 1e-5F);
    }
    // Padding between rows untouched.
    for (std::size_t j = n; j < ldc; ++j) ASSERT_FLOAT_EQ(c[i * ldc + j], -7.0F);
  }
}

TEST(KernGemm, ParallelMatchesSerialExactly) {
  // Panel splitting only changes which lane computes a row, not the
  // arithmetic, so results are identical whatever the pool width.
  util::Pcg32 rng(5);
  const int m = 96, k = 64, n = 80;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  std::vector<float> serial(static_cast<std::size_t>(m) * n);
  std::vector<float> parallel(serial.size());
  {
    ThreadGuard tg(1);
    kern::gemm(a.data().data(), k, b.data().data(), n, serial.data(), n, m, k,
               n);
  }
  {
    ThreadGuard tg(4);
    kern::gemm(a.data().data(), k, b.data().data(), n, parallel.data(), n, m,
               k, n);
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_FLOAT_EQ(serial[i], parallel[i]) << "element " << i;
  }
}

TEST(KernGemm, ResidualEpilogueEqualsSeparateAdd) {
  // The fused residual is the last epilogue step, residual + value: the
  // same bytes as the unfused GEMM followed by add_rows.
  util::Pcg32 rng(12);
  const int m = 11, k = 17, n = 29;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor bias = Tensor::randn({n}, rng);
  Tensor res = Tensor::randn({m, n}, rng);
  for (const bool gelu : {false, true}) {
    kern::GemmOpts opts;
    opts.bias = bias.data().data();
    opts.gelu = gelu;
    std::vector<float> want(static_cast<std::size_t>(m) * n);
    kern::gemm(a.data().data(), k, b.data().data(), n, want.data(), n, m, k,
               n, opts);
    kern::add_rows(res.data().data(), want.data(), want.data(), want.size());
    opts.residual = res.data().data();
    std::vector<float> got(want.size());
    kern::gemm(a.data().data(), k, b.data().data(), n, got.data(), n, m, k, n,
               opts);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), got.size() * 4));
  }
}

TEST(KernGemm, RowBytesIndependentOfPositionInBatch) {
  // A row computed alone (row remainder), inside a full 4-row tile or in
  // the remainder after tiles must come out bit-identical, so a patch's
  // reconstruction never depends on where it sits in a pooled batch.
  util::Pcg32 rng(13);
  const int k = 19;
  for (int n = 1; n <= 49; ++n) {
    Tensor a = Tensor::randn({9, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng, 0.5F);
    Tensor bias = Tensor::randn({n}, rng);
    for (int variant = 0; variant < 3; ++variant) {
      kern::GemmOpts opts;
      opts.parallel = false;
      opts.bias = variant > 0 ? bias.data().data() : nullptr;
      opts.gelu = variant == 2;
      std::vector<float> alone(static_cast<std::size_t>(9) * n);
      for (int i = 0; i < 9; ++i) {
        kern::gemm(a.data().data() + i * k, k, b.data().data(), n,
                   alone.data() + i * n, n, 1, k, n, opts);
      }
      for (int m = 1; m <= 9; ++m) {
        std::vector<float> batch(static_cast<std::size_t>(m) * n);
        kern::gemm(a.data().data(), k, b.data().data(), n, batch.data(), n, m,
                   k, n, opts);
        ASSERT_EQ(0, std::memcmp(alone.data(), batch.data(), batch.size() * 4))
            << "m=" << m << " n=" << n << " variant=" << variant;
      }
    }
  }
}

TEST(KernGemmInt8, RowBytesIndependentOfPositionInBatch) {
  // The int8 twin of the test above: the dequant epilogue is row-local,
  // so a row computed alone and the same row inside any m-row call (full
  // tiles, row remainders, column remainders) must match bit for bit.
  util::Pcg32 rng(16);
  const int k = 19;
  for (int n = 1; n <= 49; ++n) {
    std::vector<std::uint8_t> a(9 * k);
    for (auto& v : a) v = static_cast<std::uint8_t>(rng.next_u32() & 0xFFU);
    std::vector<std::int8_t> w(static_cast<std::size_t>(k) * n);
    for (auto& v : w) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.next_u32() % 255) - 127);
    }
    const kern::PackedBInt8 packed = kern::pack_b_s8(w.data(), k, n);
    std::vector<float> dq(n), bias(n), res(static_cast<std::size_t>(9) * n);
    std::vector<std::int32_t> col_sum(n, 0);
    for (int j = 0; j < n; ++j) {
      dq[j] = 1e-3F * (1.0F + static_cast<float>(rng.next_u32() % 100));
      bias[j] = rng.next_gaussian();
      for (int p = 0; p < k; ++p) col_sum[j] += w[p * n + j];
    }
    for (auto& v : res) v = rng.next_gaussian();
    for (int variant = 0; variant < 4; ++variant) {
      kern::QuantGemmOpts opts;
      opts.parallel = false;
      opts.bias = variant == 1 || variant == 2 ? bias.data() : nullptr;
      opts.gelu = variant == 2;
      opts.residual = variant == 3 ? res.data() : nullptr;
      std::vector<float> alone(static_cast<std::size_t>(9) * n);
      for (int i = 0; i < 9; ++i) {
        kern::QuantGemmOpts row_opts = opts;
        if (opts.residual != nullptr) row_opts.residual = res.data() + i * n;
        kern::gemm_u8s8(a.data() + i * k, k, packed, alone.data() + i * n, n,
                        1, k, n, dq.data(), col_sum.data(), row_opts);
      }
      for (int m = 1; m <= 9; ++m) {
        std::vector<float> batch(static_cast<std::size_t>(m) * n);
        kern::gemm_u8s8(a.data(), k, packed, batch.data(), n, m, k, n,
                        dq.data(), col_sum.data(), opts);
        ASSERT_EQ(0, std::memcmp(alone.data(), batch.data(), batch.size() * 4))
            << "m=" << m << " n=" << n << " variant=" << variant;
      }
    }
  }
}

// ---------------------------------------------------------------- row kernels

TEST(KernRows, LayernormMatchesAutograd) {
  util::Pcg32 rng(7);
  Tensor x = Tensor::randn({9, 24}, rng, 2.0F);
  Tensor gamma = Tensor::randn({24}, rng);
  Tensor beta = Tensor::randn({24}, rng);
  const Tensor want = tensor::layernorm(x, gamma, beta);
  std::vector<float> got(x.numel());
  kern::layernorm_rows(x.data().data(), gamma.data().data(),
                       beta.data().data(), got.data(), 9, 24);
  expect_close(got.data(), want.data().data(), got.size());
}

// ---------------------------------------------------------------- attention

// One head of kern::attention with V = I (head_dim == tokens): the output
// rows are then exactly the softmax weights.
std::vector<float> attention_weights(const std::vector<float>& q,
                                     const std::vector<float>& k, int t) {
  const std::size_t ld = 3 * static_cast<std::size_t>(t);
  std::vector<float> qkv(ld * t, 0.0F);
  for (int i = 0; i < t; ++i) {
    for (int p = 0; p < t; ++p) {
      qkv[i * ld + p] = q[i * t + p];
      qkv[i * ld + t + p] = k[i * t + p];
    }
    qkv[i * ld + 2 * t + i] = 1.0F;
  }
  std::vector<float> w(static_cast<std::size_t>(t) * t);
  kern::attention(qkv.data(), w.data(), 1, t, 1, t);
  return w;
}

TEST(KernAttention, WeightsMatchScaledSoftmaxOfScores) {
  // The fused kernel's QK^T / sqrt(d) -> softmax stage against the autograd
  // op chain, at the 1e-5 contract, on a short and a 33-key row.
  util::Pcg32 rng(2);
  for (const int t : {11, 33}) {
    Tensor q = Tensor::randn({1, t, t}, rng, 3.0F);
    Tensor k = Tensor::randn({1, t, t}, rng);
    const Tensor want = tensor::softmax(
        tensor::scale(tensor::bmm(q, k, /*transpose_b=*/true),
                      1.0F / std::sqrt(static_cast<float>(t))));
    const std::vector<float> got = attention_weights(q.data(), k.data(), t);
    expect_close(got.data(), want.data().data(), got.size());
  }
}

TEST(KernAttention, MatchesAutogradMhaAndIsLaneCountInvariant) {
  util::Pcg32 rng(14);
  for (const int hd : {8, 12, 16}) {
    nn::MultiHeadAttention mha(2 * hd, 2, rng);
    for (const int t : {1, 3, 12, 16, 17, 33}) {
      Tensor x = Tensor::randn({3, t, 2 * hd}, rng);
      const Tensor want = mha.forward(x);
      kern::Workspace ws;
      std::vector<float> one(x.numel());
      std::vector<float> four(x.numel());
      {
        ThreadGuard tg(1);
        mha.infer(x.data().data(), one.data(), 3, t, ws);
      }
      {
        ThreadGuard tg(4);
        ws.reset();
        mha.infer(x.data().data(), four.data(), 3, t, ws);
      }
      expect_close(one.data(), want.data().data(), one.size());
      ASSERT_EQ(0, std::memcmp(one.data(), four.data(), one.size() * 4))
          << "hd=" << hd << " t=" << t;
    }
  }
}

TEST(KernAttention, QuerySubsetBytesEqualFullRows) {
  // Any list of query rows (one, all, an unordered subset, more than one
  // pass of queries) must reproduce those rows of the full call bit for
  // bit, at every pool width: the cut decoder path rests on it.
  util::Pcg32 rng(15);
  for (const int hd : {8, 12, 16}) {
    for (const int t : {1, 3, 12, 16, 17, 33}) {
      const int heads = 2, batch = 3, d = heads * hd;
      std::vector<float> qkv(static_cast<std::size_t>(batch) * t * 3 * d);
      for (auto& v : qkv) v = 2.0F * rng.next_gaussian();
      std::vector<std::vector<int>> subsets = {{0}, {t - 1}, {t / 2}};
      std::vector<int> all(t), odd_reversed, shuffled;
      for (int i = 0; i < t; ++i) all[i] = i;
      for (int i = t - 1; i >= 0; i -= 2) odd_reversed.push_back(i);
      for (int i = 0; i < t; ++i) {
        if (rng.next_u32() % 4 != 0) shuffled.push_back((i * 7) % t);
      }
      subsets.push_back(all);
      subsets.push_back(odd_reversed);
      if (!shuffled.empty()) subsets.push_back(shuffled);
      for (const int lanes : {1, 4}) {
        ThreadGuard tg(lanes);
        std::vector<float> full(static_cast<std::size_t>(batch) * t * d);
        kern::attention(qkv.data(), full.data(), batch, t, heads, hd);
        for (const std::vector<int>& q : subsets) {
          const std::size_t nq = q.size();
          std::vector<float> got(batch * nq * d);
          kern::attention(qkv.data(), got.data(), batch, t, heads, hd, &q);
          for (int b = 0; b < batch; ++b) {
            for (std::size_t r = 0; r < nq; ++r) {
              ASSERT_EQ(0, std::memcmp(got.data() + (b * nq + r) * d,
                                       full.data() +
                                           (static_cast<std::size_t>(b) * t +
                                            q[r]) * d,
                                       d * sizeof(float)))
                  << "hd=" << hd << " t=" << t << " lanes=" << lanes
                  << " nq=" << nq << " row " << r;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------- exp/GELU

// Distance in representable floats; +0 and -0 coincide.
std::int64_t ulp_distance(float a, float b) {
  const auto ordered = [](float f) -> std::int64_t {
    const std::int32_t i = std::bit_cast<std::int32_t>(f);
    return i < 0 ? static_cast<std::int64_t>(INT32_MIN) - i : i;
  };
  return std::llabs(ordered(a) - ordered(b));
}

// Clamp edges of fast_exp (88, -87) and of GELU's e^{2u} (|x| near 44 puts
// 2u past them), signed zeros, denormals, huge magnitudes, plus a dense
// sweep over the range where GELU's tanh saturates.
std::vector<float> exp_gelu_sweep() {
  std::vector<float> xs = {0.0F,    -0.0F,   1e-45F,  -1e-45F, 1e-40F,
                           -1e-40F, 1e-30F,  44.0F,   -44.0F,  88.0F,
                           -87.0F,  88.5F,   -87.5F,  1e30F,   -1e30F,
                           87.9F,   -86.9F,  20.0F,   -20.0F,  1e-7F};
  for (float x = -12.0F; x <= 12.0F; x += 0.0137F) xs.push_back(x);
  return xs;
}

TEST(KernEpilogue, GeluWithinTwoUlpOfScalarReference) {
  // k = 1 with A = 1: each output is exactly the epilogue applied to the
  // B entry, through whichever body (AVX2 or portable) the CPU dispatches.
  const std::vector<float> xs = exp_gelu_sweep();
  const int n = static_cast<int>(xs.size());
  const float ones[5] = {1.0F, 1.0F, 1.0F, 1.0F, 1.0F};
  std::vector<float> got(5 * xs.size());
  kern::GemmOpts opts;
  opts.gelu = true;
  kern::gemm(ones, 1, xs.data(), n, got.data(), n, 5, 1, n, opts);
  for (int r = 0; r < 5; ++r) {
    for (int j = 0; j < n; ++j) {
      ASSERT_LE(ulp_distance(got[r * n + j], kern::gelu_scalar(xs[j])), 2)
          << "x=" << xs[j];
    }
  }
}

TEST(KernEpilogue, SoftmaxExpWithinTwoUlpOfScalarReference) {
  // One query against keys whose scores are exactly the sweep values
  // (t = 16: 1/sqrt(16) scales by 0.25 exactly, undone by k = 4x) with a
  // 0 score fixing the row max at 0, so each weight is
  // fast_exp(x) / sum(fast_exp) over the row.
  const std::vector<float> sweep = exp_gelu_sweep();
  const int t = 16;
  for (std::size_t first = 0; first < sweep.size(); first += t - 1) {
    std::vector<float> xs(sweep.begin() + first,
                          sweep.begin() + std::min(sweep.size(), first + t - 1));
    for (float& x : xs) x = std::min(-std::fabs(x), 0.0F);
    xs.resize(t - 1, -3.0F);
    xs.push_back(0.0F);
    std::vector<float> q(t * t, 0.0F), k(t * t, 0.0F);
    for (int j = 0; j < t; ++j) {
      q[j * t] = 1.0F;
      k[j * t] = 4.0F * xs[j];
    }
    const std::vector<float> w = attention_weights(q, k, t);
    std::vector<float> e(t);
    float denom = 0.0F;
    for (int j = 0; j < t; ++j) denom += e[j] = kern::detail::fast_exp(xs[j]);
    for (int j = 0; j < t; ++j) {
      ASSERT_LE(ulp_distance(w[j], e[j] * (1.0F / denom)), 2) << "x=" << xs[j];
    }
  }
}

#ifdef EASZ_KERN_AVX2
__attribute__((target("avx2"))) void exp_gelu_v8(const float* x, float* e,
                                                 float* g) {
  const __m256 v = _mm256_loadu_ps(x);
  _mm256_storeu_ps(e, kern::detail::fast_exp_v8(v));
  _mm256_storeu_ps(g, kern::detail::gelu_v8(v));
}

TEST(KernEpilogue, EightLaneTwinsWithinTwoUlpOfScalar) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "no AVX2";
  std::vector<float> xs = exp_gelu_sweep();
  xs.resize((xs.size() + 7) / 8 * 8, 1.0F);
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    float e[8], g[8];
    exp_gelu_v8(xs.data() + i, e, g);
    for (int c = 0; c < 8; ++c) {
      const float x = xs[i + c];
      ASSERT_LE(ulp_distance(e[c], kern::detail::fast_exp(x)), 2) << x;
      ASSERT_LE(ulp_distance(g[c], kern::detail::gelu_approx(x)), 2) << x;
    }
  }
}
#endif

// ---------------------------------------------------------------- pool

TEST(KernPool, ParallelForCoversEveryIndexOnce) {
  ThreadGuard tg(4);
  constexpr int kCount = 1337;
  std::vector<std::atomic<int>> hits(kCount);
  kern::parallel_for(kCount, [&](int i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(KernPool, ReentrantAcrossCallerThreads) {
  // Several threads fan out jobs concurrently (as server workers do); every
  // job must complete with every index visited exactly once.
  ThreadGuard tg(3);
  constexpr int kCallers = 4;
  constexpr int kCount = 500;
  std::vector<std::thread> callers;
  std::vector<std::atomic<int>> sums(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        std::atomic<int> local{0};
        kern::parallel_for(kCount,
                           [&](int i) { local.fetch_add(i + 1); });
        sums[c].fetch_add(local.load());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const int per_round = kCount * (kCount + 1) / 2;
  for (int c = 0; c < kCallers; ++c) ASSERT_EQ(sums[c].load(), 5 * per_round);
}

TEST(KernPool, SetThreadsClampsAndReports) {
  ThreadGuard tg(2);
  EXPECT_EQ(kern::threads(), 2);
  kern::set_threads(0);
  EXPECT_EQ(kern::threads(), 1);
  kern::set_threads(3);
  EXPECT_EQ(kern::threads(), 3);
}

#ifdef __linux__
TEST(KernPool, DefaultThreadsFollowsAffinity) {
  // The default pool width is the CPUs the process may run on, not the
  // host's hardware threads: under a one-CPU mask it is one lane.
  EXPECT_EQ(kern::default_threads(), std::max(1, util::affinity_cpu_count()));
  cpu_set_t saved;
  ASSERT_EQ(0, sched_getaffinity(0, sizeof(saved), &saved));
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(0, sched_setaffinity(0, sizeof(one), &one));
  const int narrowed = kern::default_threads();
  ASSERT_EQ(0, sched_setaffinity(0, sizeof(saved), &saved));
  EXPECT_EQ(narrowed, 1);
}
#endif

// ---------------------------------------------------------------- workspace

TEST(KernWorkspace, SteadyStateStopsGrowing) {
  kern::Workspace ws;
  const auto run = [&ws] {
    ws.reset();
    float* a = ws.alloc(1000);
    float* b = ws.alloc(50000);
    float* c = ws.alloc(7);
    a[0] = b[0] = c[0] = 1.0F;  // touch
  };
  run();
  const std::size_t warm = ws.grow_count();
  for (int i = 0; i < 10; ++i) run();
  EXPECT_EQ(ws.grow_count(), warm);
}

TEST(KernWorkspace, PointersStableUntilReset) {
  kern::Workspace ws;
  float* a = ws.alloc(100);
  a[99] = 42.0F;
  // A growth into a new block must not move the old one.
  float* b = ws.alloc(1U << 20);
  b[0] = 1.0F;
  EXPECT_FLOAT_EQ(a[99], 42.0F);
}

// ---------------------------------------------------------------- nn infer

TEST(InferNn, LinearMatchesForward) {
  util::Pcg32 rng(8);
  nn::Linear fc(13, 21, rng);
  Tensor x = Tensor::randn({5, 13}, rng);
  const Tensor want = fc.forward(x);
  std::vector<float> got(5 * 21);
  fc.infer(x.data().data(), got.data(), 5);
  expect_close(got.data(), want.data().data(), got.size());
}

TEST(InferNn, MhaMatchesForward) {
  util::Pcg32 rng(9);
  nn::MultiHeadAttention mha(16, 4, rng);
  Tensor x = Tensor::randn({2, 9, 16}, rng);
  const Tensor want = mha.forward(x);
  kern::Workspace ws;
  std::vector<float> got(x.numel());
  mha.infer(x.data().data(), got.data(), 2, 9, ws);
  expect_close(got.data(), want.data().data(), got.size());
}

TEST(InferNn, FeedForwardMatchesForward) {
  util::Pcg32 rng(10);
  nn::FeedForward ffn(12, 29, rng);
  Tensor x = Tensor::randn({2, 6, 12}, rng);
  const Tensor want = ffn.forward(x);
  kern::Workspace ws;
  std::vector<float> got(x.numel());
  ffn.infer(x.data().data(), got.data(), 12, ws);
  expect_close(got.data(), want.data().data(), got.size());
}

TEST(InferNn, TransformerBlockMatchesForward) {
  util::Pcg32 rng(11);
  nn::TransformerBlock block(16, 2, 40, rng);
  Tensor x = Tensor::randn({3, 7, 16}, rng);
  const Tensor want = block.forward(x);
  kern::Workspace ws;
  std::vector<float> got(x.numel());
  block.infer(x.data().data(), got.data(), 3, 7, ws);
  expect_close(got.data(), want.data().data(), got.size());
}

// ---------------------------------------------------------------- model

core::ReconModelConfig small_model_config() {
  core::ReconModelConfig cfg;
  cfg.patchify = {.patch = 8, .sub_patch = 2};  // N = 4 grid, 16 tokens
  cfg.channels = 3;
  cfg.d_model = 16;
  cfg.num_heads = 4;
  cfg.ffn_hidden = 36;
  return cfg;
}

TEST(InferModel, MatchesAutogradForwardOnRandomWeights) {
  util::Pcg32 rng(12);
  const core::ReconModelConfig cfg = small_model_config();
  const core::ReconstructionModel model(cfg, rng);
  const int total = cfg.patchify.tokens();
  const int token_dim = cfg.patchify.token_dim(cfg.channels);

  for (const int erased : {1, 2}) {
    util::Pcg32 mask_rng(33 + erased);
    const core::EraseMask mask = core::make_row_conditional_mask(
        cfg.patchify.grid(), erased, mask_rng);
    for (const int batch : {1, 3}) {
      Tensor tokens = Tensor::randn({batch, total, token_dim}, rng);
      const Tensor want = model.forward(tokens, mask);
      const Tensor got = model.infer(tokens, mask);
      expect_close(got, want);
    }
  }
}

TEST(InferModel, ResultIndependentOfKernelThreadCount) {
  util::Pcg32 rng(13);
  const core::ReconModelConfig cfg = small_model_config();
  const core::ReconstructionModel model(cfg, rng);
  util::Pcg32 mask_rng(5);
  const core::EraseMask mask =
      core::make_row_conditional_mask(cfg.patchify.grid(), 1, mask_rng);
  Tensor tokens = Tensor::randn(
      {4, cfg.patchify.tokens(), cfg.patchify.token_dim(cfg.channels)}, rng);
  Tensor serial, parallel;
  {
    ThreadGuard tg(1);
    serial = model.infer(tokens, mask);
  }
  {
    ThreadGuard tg(4);
    parallel = model.infer(tokens, mask);
  }
  ASSERT_EQ(serial.numel(), parallel.numel());
  for (std::size_t i = 0; i < serial.numel(); ++i) {
    ASSERT_FLOAT_EQ(serial.data()[i], parallel.data()[i]) << i;
  }
}

TEST(InferModel, SteadyStateForwardAllocatesNothing) {
  util::Pcg32 rng(14);
  const core::ReconModelConfig cfg = small_model_config();
  const core::ReconstructionModel model(cfg, rng);
  util::Pcg32 mask_rng(6);
  const core::EraseMask mask =
      core::make_row_conditional_mask(cfg.patchify.grid(), 1, mask_rng);
  Tensor tokens = Tensor::randn(
      {2, cfg.patchify.tokens(), cfg.patchify.token_dim(cfg.channels)}, rng);
  (void)model.infer(tokens, mask);  // warm the arena
  const std::size_t warm = kern::Workspace::for_this_thread().grow_count();
  for (int i = 0; i < 5; ++i) (void)model.infer(tokens, mask);
  EXPECT_EQ(kern::Workspace::for_this_thread().grow_count(), warm);
}

TEST(InferModel, ReconstructMatchesAutogradReference) {
  // reconstruct() now rides the kernel path; it must still equal the
  // autograd forward + paste-through + clamp it used to be built from.
  util::Pcg32 rng(15);
  const core::ReconModelConfig cfg = small_model_config();
  const core::ReconstructionModel model(cfg, rng);
  const int total = cfg.patchify.tokens();
  const int token_dim = cfg.patchify.token_dim(cfg.channels);
  util::Pcg32 mask_rng(7);
  const core::EraseMask mask =
      core::make_row_conditional_mask(cfg.patchify.grid(), 2, mask_rng);
  const int batch = 2;
  Tensor tokens = Tensor::randn({batch, total, token_dim}, rng, 0.4F);

  Tensor ref = model.forward(tokens, mask).detach();
  const std::vector<int> kept = mask.kept_indices();
  for (int b = 0; b < batch; ++b) {
    for (const int j : kept) {
      const std::size_t off =
          (static_cast<std::size_t>(b) * total + j) * token_dim;
      for (int d = 0; d < token_dim; ++d) {
        ref.data()[off + d] = tokens.data()[off + d];
      }
    }
  }
  for (auto& v : ref.data()) v = std::min(1.0F, std::max(0.0F, v));

  const Tensor got = model.reconstruct(tokens, mask);
  expect_close(got, ref);
}

TEST(InferModel, ReconstructBytesEqualFullForwardPasteThrough) {
  // reconstruct() runs the last decoder block past attention, and the
  // head, for the erased rows only; its bytes must equal the full infer()
  // followed by paste-through of the kept tokens and the clamp, for both
  // precisions, masks on both squeeze axes, any batch and pool width.
  util::Pcg32 rng(17);
  const core::ReconModelConfig cfg = small_model_config();
  core::ReconstructionModel model(cfg, rng);
  const int grid = cfg.patchify.grid();
  const int total = cfg.patchify.tokens();
  const int token_dim = cfg.patchify.token_dim(cfg.channels);
  std::vector<core::ReconstructionModel::CalibSample> calib;
  for (int erased = 1; erased < grid; ++erased) {
    util::Pcg32 mask_rng(40 + erased);
    Tensor tokens = Tensor::randn({3, total, token_dim}, rng, 0.4F);
    calib.push_back({tokens, core::make_row_conditional_mask(grid, erased,
                                                             mask_rng)});
  }
  model.calibrate_and_quantize(calib);

  for (int erased = 1; erased < grid; ++erased) {
    util::Pcg32 mask_rng(50 + erased);
    const core::EraseMask row_mask =
        core::make_row_conditional_mask(grid, erased, mask_rng);
    for (const core::EraseMask& mask : {row_mask, row_mask.transposed()}) {
      const std::vector<int> kept = mask.kept_indices();
      for (int batch = 1; batch <= 5; ++batch) {
        Tensor tokens = Tensor::randn({batch, total, token_dim}, rng, 0.6F);
        for (auto& v : tokens.data()) v += 0.5F;  // some fall outside [0,1]
        for (const nn::Precision p :
             {nn::Precision::kFp32, nn::Precision::kInt8}) {
          for (const int lanes : {1, 4}) {
            ThreadGuard tg(lanes);
            Tensor want = model.infer(tokens, mask, p);
            for (int b = 0; b < batch; ++b) {
              for (const int j : kept) {
                const std::size_t off =
                    (static_cast<std::size_t>(b) * total + j) * token_dim;
                std::copy_n(tokens.data().data() + off, token_dim,
                            want.data().data() + off);
              }
            }
            for (auto& v : want.data()) v = std::min(1.0F, std::max(0.0F, v));
            const Tensor got = model.reconstruct(tokens, mask, p);
            ASSERT_EQ(got.shape(), want.shape());
            ASSERT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                                     got.numel() * sizeof(float)))
                << "erased=" << erased << " batch=" << batch
                << " int8=" << (p == nn::Precision::kInt8)
                << " lanes=" << lanes;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------- serve

TEST(InferServe, CrossRequestBatchingMatchesAutogradPath) {
  // The acceptance bar: under the serve runtime's cross-request batching,
  // responses must stay byte-identical to sequential kernel decode and
  // within 1e-5 of the pure-autograd reference path.
  core::ReconModelConfig mcfg;
  mcfg.patchify = {.patch = 16, .sub_patch = 4};
  mcfg.channels = 3;
  mcfg.d_model = 32;
  mcfg.num_heads = 2;
  mcfg.ffn_hidden = 64;
  util::Pcg32 rng(91);
  const core::ReconstructionModel model(mcfg, rng);
  codec::JpegLikeCodec jpeg(85);

  const auto edge_config = [&](int erased) {
    core::EaszConfig cfg;
    cfg.patchify = mcfg.patchify;
    cfg.erased_per_row = erased;
    cfg.axis = core::SqueezeAxis::kHorizontal;
    cfg.mask_seed = 7;
    return cfg;
  };

  constexpr int kRequests = 6;
  std::vector<serve::ServeRequest> requests;
  std::vector<image::Image> kernel_reference;    // sequential decode
  std::vector<image::Image> autograd_reference;  // autograd forward path
  for (int i = 0; i < kRequests; ++i) {
    util::Pcg32 img_rng(1000 + i);
    const image::Image img =
        data::synth_photo(35 + 8 * i, 21 + 5 * i, img_rng);
    const core::EaszConfig cfg = edge_config(1);  // one mask: forces pooling
    const core::EaszPipeline edge(cfg, jpeg, nullptr);
    serve::ServeRequest r;
    r.compressed = edge.encode(img);
    r.codec = "jpeg";

    const core::EaszPipeline server_pipeline(cfg, jpeg, &model);
    kernel_reference.push_back(server_pipeline.decode(r.compressed));

    // Autograd reference: decode_tokens -> model.forward (training path)
    // -> paste-through -> clamp -> assemble.
    const core::DecodedTokens d = server_pipeline.decode_tokens(r.compressed);
    Tensor pred = model.forward(d.tokens, d.recon_mask).detach();
    const int total = mcfg.patchify.tokens();
    const int token_dim = mcfg.patchify.token_dim(mcfg.channels);
    const std::vector<int> kept = d.recon_mask.kept_indices();
    for (int b = 0; b < d.tokens.dim(0); ++b) {
      for (const int j : kept) {
        const std::size_t off =
            (static_cast<std::size_t>(b) * total + j) * token_dim;
        for (int dd = 0; dd < token_dim; ++dd) {
          pred.data()[off + dd] = d.tokens.data()[off + dd];
        }
      }
    }
    for (auto& v : pred.data()) v = std::min(1.0F, std::max(0.0F, v));
    autograd_reference.push_back(
        core::EaszPipeline::assemble_decoded(d, pred, mcfg.patchify));

    requests.push_back(std::move(r));
  }

  // The server resizes the process-global pool; restore it even if an
  // assertion below returns early.
  ThreadGuard tg(kern::threads());
  serve::ServerConfig scfg;
  scfg.workers = 3;
  scfg.max_batch_patches = 4;  // smaller than most requests: forces splits
  scfg.kernel_threads = 2;
  scfg.cache_bytes = 0;
  serve::ReconServer server(scfg, model);
  server.register_codec("jpeg", &jpeg);

  std::vector<std::future<serve::ServeResponse>> futures;
  for (serve::ServeRequest& r : requests) {
    serve::SubmitResult res = server.submit(r);
    ASSERT_TRUE(res.accepted);
    futures.push_back(std::move(res.response));
  }

  for (int i = 0; i < kRequests; ++i) {
    const serve::ServeResponse resp = futures[static_cast<std::size_t>(i)].get();
    ASSERT_NE(resp.image, nullptr);
    const image::Image& got = *resp.image;
    ASSERT_EQ(got.width(), kernel_reference[i].width());
    ASSERT_EQ(got.height(), kernel_reference[i].height());
    // Byte-identical to the sequential kernel decode.
    EXPECT_EQ(got.data(), kernel_reference[i].data()) << "request " << i;
    // Within 1e-5 of the autograd path.
    ASSERT_EQ(got.data().size(), autograd_reference[i].data().size());
    expect_close(got.data().data(), autograd_reference[i].data().data(),
                 got.data().size());
  }

  const serve::ServerStatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(s.failed, 0U);
  EXPECT_GT(s.batches, 0U);
  EXPECT_EQ(s.kernel_threads, 2);
}

}  // namespace
}  // namespace easz
