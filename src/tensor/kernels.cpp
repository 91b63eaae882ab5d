#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "obs/registry.hpp"
#include "tensor/kern_math.hpp"
#include "util/affinity.hpp"

namespace easz::tensor::kern {

// ---- thread pool ----------------------------------------------------------

namespace {

// One idle-spin step: keep the core's pipeline polite while watching the
// job epoch, without yielding the timeslice (the whole point of spinning
// is sub-microsecond wakeup for the next GEMM burst).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Pool telemetry (obs::Registry::global(), DESIGN.md §8.2). References are
// resolved once — recording is a single relaxed atomic add, cheap enough
// for the per-chunk path.
//   kern.pool.jobs           parallel_for calls dispatched to the pool
//   kern.pool.inline_jobs    parallel_for calls run inline (1 lane / 1 chunk)
//   kern.pool.chunks_stolen  chunks executed by worker lanes (the rest ran
//                            on the calling lane — steal ratio gauges how
//                            well GEMM panels actually spread)
//   kern.pool.idle_waits     times a worker found the queue empty and slept
//   kern.pool.parked         workers currently parked on the cv (gauge) —
//                            lanes_-1 at rest, dipping toward 0 under load;
//                            spinning lanes are NOT parked, so a steady
//                            nonzero dip with no jobs means the spin window
//                            is too long
struct PoolMetrics {
  obs::Counter& jobs = obs::Registry::global().counter("kern.pool.jobs");
  obs::Counter& inline_jobs =
      obs::Registry::global().counter("kern.pool.inline_jobs");
  obs::Counter& chunks_stolen =
      obs::Registry::global().counter("kern.pool.chunks_stolen");
  obs::Counter& idle_waits =
      obs::Registry::global().counter("kern.pool.idle_waits");
  obs::Gauge& parked = obs::Registry::global().gauge("kern.pool.parked");
};

// Never destroyed, like the registry it points into: the pool's static
// destructor joins lanes that still record (parked.add(-1)) on wake-up.
PoolMetrics& pool_metrics() {
  static PoolMetrics* m = new PoolMetrics;
  return *m;
}

struct Job {
  void (*fn)(void*, int) = nullptr;
  void* ctx = nullptr;
  int count = 0;
  int next_claim = 0;  // guarded by the pool mutex
  std::atomic<int> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Job* link = nullptr;  // FIFO queue, guarded by the pool mutex
};

// Persistent pool. Jobs live on their caller's stack; workers reach them
// only through the queue, and a caller unlinks its job before destroying
// it, so no heap allocation happens per parallel_for.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() { stop_workers(); }

  int lanes() const { return lanes_.load(std::memory_order_relaxed); }

  void resize(int n) {
    // Serialized against concurrent resizes (e.g. two servers constructed
    // on different threads); still must not overlap an in-flight
    // parallel_for, per the header contract.
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    n = std::max(1, n);
    if (n == lanes()) return;
    stop_workers();
    lanes_.store(n, std::memory_order_relaxed);
    spawn_workers();
  }

  void set_pin(bool pin) {
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    if (pin == pin_.load(std::memory_order_relaxed)) return;
    stop_workers();
    pin_.store(pin, std::memory_order_relaxed);
    spawn_workers();
  }

  bool pinned() const { return pin_.load(std::memory_order_relaxed); }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tail_ != nullptr) {
        tail_->link = &job;
      } else {
        head_ = &job;
      }
      tail_ = &job;
    }
    // Release-publish the enqueue to spinning lanes: a spinner that sees
    // the new epoch relocks and finds the job without a cv round trip.
    job_epoch_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();

    // The caller is a lane too: claim panels from its own job until none
    // are left. This guarantees completion even with zero workers.
    work(job);

    // Unlink before the stack frame dies; a worker that saw the exhausted
    // job pops it itself, so the job may or may not still be queued.
    {
      std::lock_guard<std::mutex> lock(mu_);
      unlink_locked(job);
    }
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&job] { return job.done; });
  }

 private:
  Pool() : lanes_(default_threads()) { spawn_workers(); }

  void spawn_workers() {
    stop_.store(false, std::memory_order_relaxed);
    const int n = lanes() - 1;
    workers_.reserve(static_cast<std::size_t>(std::max(0, n)));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  void unlink_locked(Job& job) {
    Job** pp = &head_;
    while (*pp != nullptr && *pp != &job) pp = &(*pp)->link;
    if (*pp == &job) *pp = job.link;
    tail_ = nullptr;
    for (Job* j = head_; j != nullptr; j = j->link) tail_ = j;
  }

  static void finish_chunk(Job& job) {
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done = true;
      job.done_cv.notify_all();
    }
  }

  void work(Job& job) {
    for (;;) {
      int i;
      {
        std::lock_guard<std::mutex> lock(mu_);
        i = job.next_claim++;
      }
      if (i >= job.count) return;
      job.fn(job.ctx, i);
      finish_chunk(job);
    }
  }

  // A lane with no queued work spins this many relax iterations watching
  // the job epoch before parking on the cv. GEMM jobs arrive in bursts a
  // few microseconds apart during a pooled forward; a parked lane pays a
  // futex wake + scheduler hop per job, a spinning lane picks the next one
  // up in nanoseconds. The bound keeps a stage-idle pipeline worker's
  // lanes (serve, DESIGN.md §9.1) from burning cycles the busy stage needs:
  // ~4k pauses is a handful of microseconds, then the lane parks for real.
  static constexpr int kIdleSpins = 4096;

  void worker_loop(int lane_index) {
    if (pin_.load(std::memory_order_relaxed)) {
      // Lane 0 is whatever thread calls run(); offset so dedicated lanes
      // spread over the remaining allowed CPUs. Best-effort by contract.
      util::pin_current_thread_to_cpu(lane_index + 1);
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (head_ == nullptr && !stop_.load(std::memory_order_relaxed)) {
        // Bounded spin-then-park: drop the lock, watch the epoch.
        const std::uint64_t epoch =
            job_epoch_.load(std::memory_order_relaxed);
        lock.unlock();
        bool signalled = false;
        for (int spin = 0; spin < kIdleSpins; ++spin) {
          if (job_epoch_.load(std::memory_order_acquire) != epoch ||
              stop_.load(std::memory_order_acquire)) {
            signalled = true;
            break;
          }
          cpu_relax();
        }
        lock.lock();
        if (!signalled && head_ == nullptr &&
            !stop_.load(std::memory_order_relaxed)) {
          pool_metrics().idle_waits.add();
          pool_metrics().parked.add(1);
          cv_.wait(lock, [this] {
            return stop_.load(std::memory_order_relaxed) || head_ != nullptr;
          });
          pool_metrics().parked.add(-1);
        }
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      Job* job = head_;
      if (job == nullptr) continue;
      const int i = job->next_claim++;
      if (i >= job->count) {
        // Exhausted: pop and look for the next job. In-flight chunks of
        // this job finish on the lanes that claimed them.
        head_ = job->link;
        if (head_ == nullptr) tail_ = nullptr;
        continue;
      }
      lock.unlock();
      job->fn(job->ctx, i);
      pool_metrics().chunks_stolen.add();
      finish_chunk(*job);
      lock.lock();
    }
  }

  std::atomic<int> lanes_;
  std::atomic<bool> pin_{false};
  // Bumped (release) on every enqueue so spinning lanes detect new work
  // without taking mu_; stop_ is atomic for the same lock-free spin reads.
  std::atomic<std::uint64_t> job_epoch_{0};
  std::atomic<bool> stop_{false};
  std::mutex resize_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  Job* head_ = nullptr;
  Job* tail_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace

int default_threads() { return std::max(1, util::affinity_cpu_count()); }

void set_threads(int n) { Pool::instance().resize(n); }

int threads() { return Pool::instance().lanes(); }

void set_pin_threads(bool pin) { Pool::instance().set_pin(pin); }

bool pin_threads() { return Pool::instance().pinned(); }

namespace detail {

void parallel_for_impl(int count, void (*fn)(void*, int), void* ctx) {
  if (count <= 0) return;
  Pool& pool = Pool::instance();
  if (count == 1 || pool.lanes() <= 1) {
    pool_metrics().inline_jobs.add();
    for (int i = 0; i < count; ++i) fn(ctx, i);
    return;
  }
  pool_metrics().jobs.add();
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.count = count;
  job.remaining.store(count, std::memory_order_relaxed);
  pool.run(job);
}

}  // namespace detail

// ---- workspace ------------------------------------------------------------

float* Workspace::alloc(std::size_t n) {
  if (n == 0) n = 1;
  for (Block& block : blocks_) {
    if (block.data.size() - block.used >= n) {
      float* p = block.data.data() + block.used;
      block.used += n;
      return p;
    }
  }
  ++grows_;
  blocks_.emplace_back();
  Block& block = blocks_.back();
  block.data.resize(std::max(n, kMinBlockFloats));
  block.used = n;
  return block.data.data();
}

void Workspace::reset() {
  for (Block& block : blocks_) block.used = 0;
}

std::size_t Workspace::capacity_floats() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.data.size();
  return total;
}

Workspace& Workspace::for_this_thread() {
  static thread_local Workspace ws;
  return ws;
}

// ---- shared pieces --------------------------------------------------------
//
// fast_exp / gelu_approx and their 8-lane twins live in kern_math.hpp
// (shared with the int8 epilogue). Each kernel below has an explicit AVX2
// body and a portable twin. The elementwise tails (GEMM epilogue, softmax,
// layernorm) compile for AVX2 without FMA and replay the portable op
// sequence lane for lane, so the two bodies agree bit-for-bit there; only
// the GEMM's multiply-add chain, in its own avx2+fma function, rounds once
// per step instead of twice.

namespace {

using detail::fast_exp;
using detail::gelu_approx;

#ifdef EASZ_KERN_AVX2
bool use_avx2() {
  static const bool yes =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return yes;
}
#endif

}  // namespace

float gelu_scalar(float x) { return gelu_approx(x); }

// ---- GEMM -----------------------------------------------------------------

namespace {

// Micro-tile: kMr rows x kNc columns of accumulators (3 AVX2 registers per
// row) live across the whole k loop, so each output element is one
// ascending-k accumulation chain — the same per-element summation order as
// the autograd matmul, just held in registers instead of memory. The chain
// is the same whatever the tile shape, so rows in a full 4-row tile and in
// the row remainder produce identical bytes.
constexpr int kMr = 4;
constexpr int kNc = 24;

// Work below this m*n*k stays on the calling thread (panel dispatch costs
// more than it saves). Matches the OpenMP gate the autograd matmul used.
constexpr std::size_t kParallelMinFlops = 65536;

struct Epilogue {
  const float* bias;  // indexed by output column
  const float* res;   // row stride ldc, same rows as C
  bool gelu;
};

// Epilogue of one output row segment [j0, j0 + cols): bias, GELU, then
// residual + value, the operand order of a block's x + sublayer(x).
void epilogue_row(const float* acc, float* crow, const float* rrow, int j0,
                  int cols, const Epilogue& e) {
  for (int cc = 0; cc < cols; ++cc) {
    float v = acc[cc];
    if (e.bias != nullptr) v += e.bias[j0 + cc];
    if (e.gelu) v = gelu_approx(v);
    if (rrow != nullptr) v = rrow[j0 + cc] + v;
    crow[j0 + cc] = v;
  }
}

void gemm_rows_base(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, int m, int k,
                    int n, const Epilogue& e) {
  for (int i = 0; i < m; i += kMr) {
    const int mr = std::min(kMr, m - i);
    for (int j = 0; j < n; j += kNc) {
      const int nr = std::min(kNc, n - j);
      float acc[kMr][kNc] = {};
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        for (int r = 0; r < mr; ++r) {
          const float ar = a[static_cast<std::size_t>(i + r) * lda + p];
          for (int cc = 0; cc < nr; ++cc) acc[r][cc] += ar * brow[cc];
        }
      }
      for (int r = 0; r < mr; ++r) {
        const std::size_t row = static_cast<std::size_t>(i + r) * ldc;
        epilogue_row(acc[r], c + row, e.res == nullptr ? nullptr : e.res + row,
                     j, nr, e);
      }
    }
  }
}

#ifdef EASZ_KERN_AVX2

// MR x (8 * NV) accumulators over the whole k range, stored raw into the
// kNc-stride stack tile. kTail masks the last B vector to the live columns.
// kTransA reads A column-major (element (r, p) at a[p * lda + r]), which is
// how attention's transposed weight tile feeds its V product.
template <int MR, int NV, bool kTail, bool kTransA = false>
__attribute__((target("avx2,fma"))) void tile_avx2(
    const float* a, std::size_t lda, const float* b, std::size_t ldb, int k,
    __m256i tail, float* tile) {
  __m256 acc[MR][NV];
  for (auto& row : acc) {
    for (__m256& v : row) v = _mm256_setzero_ps();
  }
  for (int p = 0; p < k; ++p) {
    const float* brow = b + static_cast<std::size_t>(p) * ldb;
    __m256 bv[NV];
    for (int v = 0; v < NV; ++v) {
      bv[v] = kTail && v == NV - 1 ? _mm256_maskload_ps(brow + 8 * v, tail)
                                   : _mm256_loadu_ps(brow + 8 * v);
    }
    for (int r = 0; r < MR; ++r) {
      const __m256 ar = _mm256_broadcast_ss(
          kTransA ? a + static_cast<std::size_t>(p) * lda + r
                  : a + static_cast<std::size_t>(r) * lda + p);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(ar, bv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      _mm256_store_ps(tile + r * kNc + 8 * v, acc[r][v]);
    }
  }
}

using TileFn = void (*)(const float*, std::size_t, const float*, std::size_t,
                        int, __m256i, float*);

// Partial tiles by [rows - 1][vectors - 1].
constexpr TileFn kPartialTiles[kMr][3] = {
    {tile_avx2<1, 1, true>, tile_avx2<1, 2, true>, tile_avx2<1, 3, true>},
    {tile_avx2<2, 1, true>, tile_avx2<2, 2, true>, tile_avx2<2, 3, true>},
    {tile_avx2<3, 1, true>, tile_avx2<3, 2, true>, tile_avx2<3, 3, true>},
    {tile_avx2<4, 1, true>, tile_avx2<4, 2, true>, tile_avx2<4, 3, true>}};

// The same with A read column-major.
constexpr TileFn kTransATiles[kMr][3] = {
    {tile_avx2<1, 1, true, true>, tile_avx2<1, 2, true, true>,
     tile_avx2<1, 3, true, true>},
    {tile_avx2<2, 1, true, true>, tile_avx2<2, 2, true, true>,
     tile_avx2<2, 3, true, true>},
    {tile_avx2<3, 1, true, true>, tile_avx2<3, 2, true, true>,
     tile_avx2<3, 3, true, true>},
    {tile_avx2<4, 1, true, true>, tile_avx2<4, 2, true, true>,
     tile_avx2<4, 3, true, true>}};

// epilogue_row on 8 lanes. Compiled without fma and kept out of line so the
// caller's FMA context cannot contract it: the output equals epilogue_row's
// bit-for-bit.
__attribute__((target("avx2"), noinline)) void epilogue_tile_avx2(
    const float* tile, int mr, int nr, float* c, std::size_t ldc, int j0,
    const Epilogue& e) {
  for (int r = 0; r < mr; ++r) {
    float* crow = c + static_cast<std::size_t>(r) * ldc + j0;
    const float* rrow =
        e.res == nullptr ? nullptr : e.res + static_cast<std::size_t>(r) * ldc + j0;
    for (int cc = 0; cc < nr; cc += 8) {
      const __m256i mask = detail::lane_mask(nr - cc);
      __m256 v = _mm256_load_ps(tile + r * kNc + cc);
      if (e.bias != nullptr) {
        v = _mm256_add_ps(v, _mm256_maskload_ps(e.bias + j0 + cc, mask));
      }
      if (e.gelu) v = detail::gelu_v8(v);
      if (rrow != nullptr) {
        v = _mm256_add_ps(_mm256_maskload_ps(rrow + cc, mask), v);
      }
      // Whole vectors store plainly: a masked store defeats store-to-load
      // forwarding when the caller reads C straight back (attention).
      if (nr - cc >= 8) {
        _mm256_storeu_ps(crow + cc, v);
      } else {
        _mm256_maskstore_ps(crow + cc, mask, v);
      }
    }
  }
}

__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc, int m, int k, int n, const Epilogue& e) {
  alignas(32) float tile[kMr * kNc];
  for (int i = 0; i < m; i += kMr) {
    const int mr = std::min(kMr, m - i);
    const float* ai = a + static_cast<std::size_t>(i) * lda;
    const std::size_t row = static_cast<std::size_t>(i) * ldc;
    Epilogue ei = e;
    if (ei.res != nullptr) ei.res += row;
    for (int j = 0; j < n; j += kNc) {
      const int nr = std::min(kNc, n - j);
      if (mr == kMr && nr == kNc) {
        tile_avx2<kMr, 3, false>(ai, lda, b + j, ldb, k, __m256i{}, tile);
      } else {
        const int nv = (nr + 7) / 8;
        kPartialTiles[mr - 1][nv - 1](ai, lda, b + j, ldb, k,
                                      detail::lane_mask(nr - 8 * (nv - 1)),
                                      tile);
      }
      epilogue_tile_avx2(tile, mr, nr, c + row, ldc, j, ei);
    }
  }
}

#endif  // EASZ_KERN_AVX2

void gemm_rows(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, int m, int k, int n,
               const Epilogue& e) {
#ifdef EASZ_KERN_AVX2
  if (use_avx2()) {
    gemm_rows_avx2(a, lda, b, ldb, c, ldc, m, k, n, e);
    return;
  }
#endif
  gemm_rows_base(a, lda, b, ldb, c, ldc, m, k, n, e);
}

}  // namespace

void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, int m, int k, int n,
          const GemmOpts& opts) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  const Epilogue e{opts.bias, opts.residual, opts.gelu};

  const std::size_t work = static_cast<std::size_t>(m) * n * k;
  const int lanes = threads();
  if (!opts.parallel || lanes <= 1 || work < kParallelMinFlops) {
    gemm_rows(a, lda, b, ldb, c, ldc, m, k, n, e);
    return;
  }
  // Row panels, ~4 per lane so fast lanes steal the stragglers' leftovers.
  int panel = (m + lanes * 4 - 1) / (lanes * 4);
  panel = std::max(kMr, (panel + kMr - 1) / kMr * kMr);
  const int panels = (m + panel - 1) / panel;
  parallel_for(panels, [&](int pi) {
    const std::size_t r0 = static_cast<std::size_t>(pi) * panel;
    const int rows = std::min(panel, m - static_cast<int>(r0));
    Epilogue pe = e;
    if (pe.res != nullptr) pe.res += r0 * ldc;
    gemm_rows(a + r0 * lda, lda, b, ldb, c + r0 * ldc, ldc, rows, k, n, pe);
  });
}

// ---- attention ------------------------------------------------------------

namespace {

// One pass of up to kNc queries of one head. Scores are stored transposed,
// s[j * kNc + r] for key j and query lane r, so every query is a lane: the
// softmax max and denominator run down the key rows, and a query's bytes
// never depend on which other queries share its pass. ks is K pre-scaled by
// 1/sqrt(head_dim) ([t][hd]); qt holds the pass's queries transposed
// ([hd][kNc], lanes past nq zero). Output row r (stride ldo) gets
// sum_j w[j][r] * v[j], the key-ordered chain of the GEMM.
//
// Per query every body computes s_j = sum_p k_jp * q_p in ascending p,
// the max, e_j = fast_exp(s_j - max), the denominator summed in key order,
// w_j = e_j * (1 / denom) and out_c = sum_j w_j * v_jc in ascending j.
void attention_pass_base(const float* ks, const float* qt, float* s,
                         const float* v, std::size_t ldv, float* out,
                         std::size_t ldo, int t, int hd, int nq) {
  for (int j = 0; j < t; ++j) {
    const float* krow = ks + static_cast<std::size_t>(j) * hd;
    for (int r = 0; r < nq; ++r) {
      float acc = 0.0F;
      for (int p = 0; p < hd; ++p) acc += krow[p] * qt[p * kNc + r];
      s[j * kNc + r] = acc;
    }
  }
  for (int r = 0; r < nq; ++r) {
    float mx = s[r];
    for (int j = 1; j < t; ++j) mx = std::max(mx, s[j * kNc + r]);
    float denom = 0.0F;
    for (int j = 0; j < t; ++j) {
      denom += s[j * kNc + r] = fast_exp(s[j * kNc + r] - mx);
    }
    const float inv = 1.0F / denom;
    for (int j = 0; j < t; ++j) s[j * kNc + r] *= inv;
  }
  for (int r = 0; r < nq; ++r) {
    for (int c = 0; c < hd; ++c) {
      float acc = 0.0F;
      for (int j = 0; j < t; ++j) {
        acc += s[j * kNc + r] * v[static_cast<std::size_t>(j) * ldv + c];
      }
      out[static_cast<std::size_t>(r) * ldo + c] = acc;
    }
  }
}

#ifdef EASZ_KERN_AVX2

// The softmax of attention_pass_base on nv 8-query lanes at a time: max,
// exp and the key-ordered denominator are vertical ops over the key rows.
// Compiled without fma and kept out of line, like the GEMM epilogue, so the
// exp polynomial keeps the portable rounding. max_ps(x, mx) keeps mx on a
// tie, as std::max(mx, x) does.
__attribute__((target("avx2"), noinline)) void softmax_cols_avx2(float* s,
                                                                 int t,
                                                                 int nv) {
  for (int g = 0; g < nv; ++g) {
    float* col = s + 8 * g;
    __m256 mx = _mm256_load_ps(col);
    for (int j = 1; j < t; ++j) {
      mx = _mm256_max_ps(_mm256_load_ps(col + j * kNc), mx);
    }
    __m256 denom = _mm256_setzero_ps();
    for (int j = 0; j < t; ++j) {
      const __m256 e = detail::fast_exp_v8(
          _mm256_sub_ps(_mm256_load_ps(col + j * kNc), mx));
      _mm256_store_ps(col + j * kNc, e);
      denom = _mm256_add_ps(denom, e);
    }
    const __m256 inv = _mm256_div_ps(_mm256_set1_ps(1.0F), denom);
    for (int j = 0; j < t; ++j) {
      _mm256_store_ps(col + j * kNc,
                      _mm256_mul_ps(_mm256_load_ps(col + j * kNc), inv));
    }
  }
}

// attention_pass_base on the GEMM's register tiles: the scores are a
// [t, hd] x [hd, nq] product (keys as rows, fma(k, q, acc) == fma(q, k,
// acc)), the V product reads the weight tile column-major. s must be
// 32-byte aligned.
__attribute__((target("avx2,fma"))) void attention_pass_avx2(
    const float* ks, const float* qt, float* s, const float* v,
    std::size_t ldv, float* out, std::size_t ldo, int t, int hd, int nq) {
  const int nv = (nq + 7) / 8;
  const __m256i all = detail::lane_mask(8);
  for (int j = 0; j < t; j += kMr) {
    const int mr = std::min(kMr, t - j);
    kPartialTiles[mr - 1][nv - 1](ks + static_cast<std::size_t>(j) * hd, hd,
                                  qt, kNc, hd, all, s + j * kNc);
  }
  softmax_cols_avx2(s, t, nv);
  alignas(32) float tile[kMr * kNc];
  const Epilogue none{nullptr, nullptr, false};
  for (int r = 0; r < nq; r += kMr) {
    const int mr = std::min(kMr, nq - r);
    float* orow = out + static_cast<std::size_t>(r) * ldo;
    for (int c = 0; c < hd; c += kNc) {
      const int nr = std::min(kNc, hd - c);
      const int cv = (nr + 7) / 8;
      kTransATiles[mr - 1][cv - 1](s + r, kNc, v + c, ldv, t,
                                   detail::lane_mask(nr - 8 * (cv - 1)),
                                   tile);
      epilogue_tile_avx2(tile, mr, nr, orow, ldo, c, none);
    }
  }
}

#endif  // EASZ_KERN_AVX2

void attention_pass(const float* ks, const float* qt, float* s,
                    const float* v, std::size_t ldv, float* out,
                    std::size_t ldo, int t, int hd, int nq) {
#ifdef EASZ_KERN_AVX2
  if (use_avx2()) {
    attention_pass_avx2(ks, qt, s, v, ldv, out, ldo, t, hd, nq);
    return;
  }
#endif
  attention_pass_base(ks, qt, s, v, ldv, out, ldo, t, hd, nq);
}

// Per-lane scratch for one head: the [t, kNc] score tile (32-byte
// aligned), K pre-scaled and the transposed query pass. Grow-only: a
// steady-state forward allocates nothing.
std::vector<float>& attention_scratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

}  // namespace

void attention(const float* qkv, float* out, int batch, int tokens, int heads,
               int head_dim, const std::vector<int>* queries) {
  const int nq =
      queries == nullptr ? tokens : static_cast<int>(queries->size());
  if (batch <= 0 || tokens <= 0 || heads <= 0 || head_dim <= 0 || nq <= 0) {
    return;
  }
  const std::size_t t = static_cast<std::size_t>(tokens);
  const std::size_t hd = static_cast<std::size_t>(head_dim);
  const std::size_t d = static_cast<std::size_t>(heads) * hd;
  const float scale = 1.0F / std::sqrt(static_cast<float>(head_dim));
  // One task per (batch, head) on strided views into the qkv buffer; the
  // listed queries run in passes of up to kNc.
  const auto task = [&](int task_index) {
    const std::size_t bi = static_cast<std::size_t>(task_index / heads);
    const std::size_t col = static_cast<std::size_t>(task_index % heads) * hd;
    const float* base = qkv + bi * t * 3 * d + col;
    float* obase = out + bi * static_cast<std::size_t>(nq) * d;
    std::vector<float>& scratch = attention_scratch();
    const std::size_t need = (t + hd) * kNc + t * hd + 8;
    if (scratch.size() < need) scratch.resize(need);
    float* s = scratch.data();
    s += (32 - reinterpret_cast<std::uintptr_t>(s) % 32) % 32 / sizeof(float);
    float* ks = s + t * kNc;
    float* qt = ks + t * hd;
    for (std::size_t j = 0; j < t; ++j) {
      const float* krow = base + j * 3 * d + d;
      for (std::size_t p = 0; p < hd; ++p) ks[j * hd + p] = krow[p] * scale;
    }
    for (int r0 = 0; r0 < nq; r0 += kNc) {
      const int n = std::min(kNc, nq - r0);
      std::fill(qt, qt + hd * kNc, 0.0F);
      for (int r = 0; r < n; ++r) {
        const int qi = queries == nullptr ? r0 + r : (*queries)[r0 + r];
        const float* qrow = base + static_cast<std::size_t>(qi) * 3 * d;
        for (std::size_t p = 0; p < hd; ++p) qt[p * kNc + r] = qrow[p];
      }
      attention_pass(ks, qt, s, base + 2 * d, 3 * d,
                     obase + static_cast<std::size_t>(r0) * d + col, d,
                     tokens, head_dim, n);
    }
  };
  parallel_for(batch * heads, task);
}

// ---- layernorm ------------------------------------------------------------

namespace {

// Mean and variance are summed in 8 interleaved lanes (lane c takes
// elements c, c + 8, ... in order), the lanes then added in order, then the
// tail. Plain loops without a clamp, so the AVX2 build vectorises them; it
// has no fma, so both builds give identical bits.
__attribute__((always_inline)) inline void layernorm_span_body(
    const float* x, const float* gamma, const float* beta, float* y,
    std::size_t rows, int d, float eps) {
  const int d8 = d / 8 * 8;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * static_cast<std::size_t>(d);
    float* yr = y + r * static_cast<std::size_t>(d);
    float sum[8] = {};
    for (int j = 0; j < d8; j += 8) {
      for (int c = 0; c < 8; ++c) sum[c] += xr[j + c];
    }
    float mu = 0.0F;
    for (const float v : sum) mu += v;
    for (int j = d8; j < d; ++j) mu += xr[j];
    mu /= static_cast<float>(d);
    float sq[8] = {};
    for (int j = 0; j < d8; j += 8) {
      for (int c = 0; c < 8; ++c) sq[c] += (xr[j + c] - mu) * (xr[j + c] - mu);
    }
    float var = 0.0F;
    for (const float v : sq) var += v;
    for (int j = d8; j < d; ++j) var += (xr[j] - mu) * (xr[j] - mu);
    var /= static_cast<float>(d);
    const float inv_sd = 1.0F / std::sqrt(var + eps);
    for (int j = 0; j < d; ++j) {
      yr[j] = (xr[j] - mu) * inv_sd * gamma[j] + beta[j];
    }
  }
}

#ifdef EASZ_KERN_AVX2
__attribute__((target("avx2"))) void layernorm_span_avx2(
    const float* x, const float* gamma, const float* beta, float* y,
    std::size_t rows, int d, float eps) {
  layernorm_span_body(x, gamma, beta, y, rows, d, eps);
}
#endif

void layernorm_span_base(const float* x, const float* gamma,
                         const float* beta, float* y, std::size_t rows, int d,
                         float eps) {
  layernorm_span_body(x, gamma, beta, y, rows, d, eps);
}

// Splits `rows` into ~4 chunks per lane and runs `fn(first, count)`.
template <typename F>
void parallel_rows(std::size_t rows, std::size_t min_rows, bool parallel,
                   F&& fn) {
  const int lanes = threads();
  if (!parallel || lanes <= 1 || rows < min_rows) {
    fn(static_cast<std::size_t>(0), rows);
    return;
  }
  const std::size_t chunk =
      std::max<std::size_t>(1, rows / (static_cast<std::size_t>(lanes) * 4));
  const int chunks = static_cast<int>((rows + chunk - 1) / chunk);
  parallel_for(chunks, [&](int ci) {
    const std::size_t first = static_cast<std::size_t>(ci) * chunk;
    fn(first, std::min(chunk, rows - first));
  });
}

}  // namespace

void layernorm_rows(const float* x, const float* gamma, const float* beta,
                    float* y, std::size_t rows, int d, float eps,
                    bool parallel) {
  if (rows == 0 || d <= 0) return;
  parallel_rows(rows, 256, parallel, [&](std::size_t first, std::size_t n) {
    const std::size_t off = first * static_cast<std::size_t>(d);
#ifdef EASZ_KERN_AVX2
    if (use_avx2()) {
      layernorm_span_avx2(x + off, gamma, beta, y + off, n, d, eps);
      return;
    }
#endif
    layernorm_span_base(x + off, gamma, beta, y + off, n, d, eps);
  });
}

void add_rows(const float* a, const float* b, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

}  // namespace easz::tensor::kern
