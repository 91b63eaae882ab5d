// bench_infer — kernel-layer throughput report.
//
// Measures the grad-free tensor::kern fast path against the autograd
// substrate it replaced on the serving hot path, and writes a JSON report
// so the numbers land in CI artifacts:
//
//   bench_infer [--smoke] [--json out.json]
//
//   * GEMM GFLOP/s: naive i,p,j loop vs the register-tiled kernel, at 1
//     thread and at the pool default.
//   * Thread scaling on the batched (transformer-shaped) GEMM: 1 -> 2 -> 4
//     kernel threads.
//   * batched_matmul loop-order fix: the old per-(i,j) dot over
//     column-strided B vs the row-accumulate order tensor::bmm now uses.
//   * Transformer forward tokens/s: autograd forward() vs kernel infer(),
//     single- and multi-threaded, on the canonical serve model, plus the
//     serving entry reconstruct() (erased rows only past the last decoder
//     block's attention) at 1 thread.
//   * Int8 path (DESIGN.md §7): quantized GEMM GOP/s vs the fp32 kernel on
//     the same shapes, and int8 vs fp32 forward tokens/s on calibrated
//     models — the headline the quantized path exists for (the target is
//     >= 1.8x fp32 at 1 thread on the d256 paper model; CI's regression
//     gate pins the measured ratio via scripts/check_bench_regression.py).
//
// --smoke shrinks sizes/reps for CI; the report schema is identical.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/recon_model.hpp"
#include "obs/perf_counters.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace easz;
using util::flag_value;
using util::has_flag;
namespace kern = tensor::kern;

// Best-of-R wall time of fn() in seconds (first call warms caches/arenas
// and is *also* timed — best-of discards it unless it wins).
template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best;
}

// The autograd matmul's forward loop, on raw buffers (no DAG/alloc cost),
// as the GEMM baseline.
void naive_gemm(const float* a, const float* b, float* c, int m, int k,
                int n) {
  std::fill_n(c, static_cast<std::size_t>(m) * n, 0.0F);
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const float aip = a[static_cast<std::size_t>(i) * k + p];
      const float* brow = b + static_cast<std::size_t>(p) * n;
      float* orow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) orow[j] += aip * brow[j];
    }
  }
}

// The PRE-FIX batched_matmul inner loop: per-(i,j) dot products over p with
// column-strided B reads. Kept here as the bench baseline for the fix.
void bmm_dot_order(const float* a, const float* b, float* c, int batch, int m,
                   int k, int n) {
  for (int bi = 0; bi < batch; ++bi) {
    const float* ab = a + static_cast<std::size_t>(bi) * m * k;
    const float* bb = b + static_cast<std::size_t>(bi) * k * n;
    float* ob = c + static_cast<std::size_t>(bi) * m * n;
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) {
        const float* arow = ab + static_cast<std::size_t>(i) * k;
        float acc = 0.0F;
        for (int p = 0; p < k; ++p) {
          acc += arow[p] * bb[static_cast<std::size_t>(p) * n + j];
        }
        ob[static_cast<std::size_t>(i) * n + j] = acc;
      }
    }
  }
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) try {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const char* json_path = flag_value(argc, argv, "--json", nullptr);
  const int reps = smoke ? 3 : 7;
  const int hw = kern::default_threads();
  const int multi = std::min(4, std::max(2, hw));

  std::printf("bench_infer: %d hardware threads, %s mode\n", hw,
              smoke ? "smoke" : "full");
  std::string json = "{";
  json += "\"threads_available\":" + std::to_string(hw) +
          ",\"smoke\":" + (smoke ? std::string("true") : std::string("false"));

  util::Pcg32 rng(21);

  // ---- GEMM GFLOP/s -------------------------------------------------------
  {
    struct Size {
      int m, k, n;
      const char* what;
    };
    const std::vector<Size> sizes =
        smoke ? std::vector<Size>{{128, 64, 192, "qkv (d64 serve model)"},
                                  {128, 64, 128, "ffn fc1 (d64)"}}
              : std::vector<Size>{{512, 256, 768, "qkv (d256 paper model)"},
                                  {512, 256, 576, "ffn fc1 (d256)"},
                                  {512, 576, 256, "ffn fc2 (d256)"},
                                  {128, 64, 192, "qkv (d64 serve model)"}};
    util::Table t({"gemm m*k*n", "what", "naive GF/s", "kern@1 GF/s",
                   std::string("kern@") + std::to_string(multi) + " GF/s",
                   "kern/naive"});
    json += ",\"gemm\":[";
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const auto [m, k, n, what] = sizes[si];
      const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
      const tensor::Tensor b = tensor::Tensor::randn({k, n}, rng);
      std::vector<float> c(static_cast<std::size_t>(m) * n);
      const double flops = 2.0 * m * k * n;

      const double t_naive = best_seconds(reps, [&] {
        naive_gemm(a.data().data(), b.data().data(), c.data(), m, k, n);
      });
      kern::set_threads(1);
      const double t_k1 = best_seconds(reps, [&] {
        kern::gemm(a.data().data(), k, b.data().data(), n, c.data(), n, m, k,
                   n);
      });
      kern::set_threads(multi);
      const double t_kn = best_seconds(reps, [&] {
        kern::gemm(a.data().data(), k, b.data().data(), n, c.data(), n, m, k,
                   n);
      });
      const double gf_naive = flops / t_naive / 1e9;
      const double gf_k1 = flops / t_k1 / 1e9;
      const double gf_kn = flops / t_kn / 1e9;
      t.add_row({std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n),
                 what, util::Table::num(gf_naive, 2),
                 util::Table::num(gf_k1, 2), util::Table::num(gf_kn, 2),
                 util::Table::num(gf_k1 / gf_naive, 2)});
      json += std::string(si == 0 ? "" : ",") + "{\"m\":" + std::to_string(m) +
              ",\"k\":" + std::to_string(k) + ",\"n\":" + std::to_string(n) +
              ",\"naive_gflops\":" + json_num(gf_naive) +
              ",\"kern_gflops_t1\":" + json_num(gf_k1) +
              ",\"kern_gflops_multi\":" + json_num(gf_kn) +
              ",\"multi_threads\":" + std::to_string(multi) + "}";
    }
    json += "]";
    std::printf("\nGEMM (C = A*B, fp32)\n");
    t.print();
  }

  // ---- int8 GEMM vs fp32 kernel -------------------------------------------
  //
  // Measured through nn::Linear itself (infer vs infer_q), so the numbers
  // cover exactly the production path — build_quant's per-channel weight
  // quantization, the activation-quantize staging, and the fused dequant
  // epilogue — and cannot drift from the scheme the model executes.
  {
    struct Size {
      int m, k, n;
      const char* what;
    };
    const std::vector<Size> sizes =
        smoke ? std::vector<Size>{{128, 64, 192, "qkv (d64 serve model)"}}
              : std::vector<Size>{{512, 256, 768, "qkv (d256 paper model)"},
                                  {512, 256, 576, "ffn fc1 (d256)"},
                                  {512, 576, 256, "ffn fc2 (d256)"}};
    util::Table t({"gemm m*k*n", "what", "fp32 GF/s", "int8 GOP/s",
                   "int8/fp32"});
    json += ",\"gemm_int8\":[";
    kern::set_threads(1);
    for (std::size_t si = 0; si < sizes.size(); ++si) {
      const auto [m, k, n, what] = sizes[si];
      const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
      nn::Linear lin(k, n, rng);
      float a_absmax = 0.0F;
      for (const float v : a.data()) {
        a_absmax = std::max(a_absmax, std::fabs(v));
      }
      lin.build_quant(a_absmax);
      std::vector<float> c(static_cast<std::size_t>(m) * n);
      const double ops = 2.0 * m * k * n;

      const double t_f32 = best_seconds(
          reps, [&] { lin.infer(a.data().data(), c.data(), m); });
      const double t_i8 = best_seconds(
          reps, [&] { lin.infer_q(a.data().data(), c.data(), m); });
      t.add_row({std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n),
                 what, util::Table::num(ops / t_f32 / 1e9, 2),
                 util::Table::num(ops / t_i8 / 1e9, 2),
                 util::Table::num(t_f32 / t_i8, 2)});
      json += std::string(si == 0 ? "" : ",") + "{\"m\":" + std::to_string(m) +
              ",\"k\":" + std::to_string(k) + ",\"n\":" + std::to_string(n) +
              ",\"fp32_gflops\":" + json_num(ops / t_f32 / 1e9) +
              ",\"int8_gops\":" + json_num(ops / t_i8 / 1e9) +
              ",\"int8_vs_fp32\":" + json_num(t_f32 / t_i8) + "}";
    }
    json += "]";
    std::printf(
        "\nint8 Linear (quantize + u8*s8 + fused dequant vs fp32, 1 "
        "thread)\n");
    t.print();
  }

  // ---- thread scaling on the batched transformer GEMM ---------------------
  {
    const int m = smoke ? 256 : 512;
    const int k = smoke ? 128 : 256;
    const int n = smoke ? 384 : 768;
    const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({k, n}, rng);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    const double flops = 2.0 * m * k * n;
    json += ",\"gemm_scaling\":{\"m\":" + std::to_string(m) +
            ",\"k\":" + std::to_string(k) + ",\"n\":" + std::to_string(n);
    std::printf("\nbatched GEMM thread scaling (%dx%dx%d)\n", m, k, n);
    double t1 = 0.0;
    for (const int threads : {1, 2, 4}) {
      kern::set_threads(threads);
      const double sec = best_seconds(reps, [&] {
        kern::gemm(a.data().data(), k, b.data().data(), n, c.data(), n, m, k,
                   n);
      });
      if (threads == 1) t1 = sec;
      std::printf("  threads=%d  %8.2f GFLOP/s  (scaling x%.2f)\n", threads,
                  flops / sec / 1e9, t1 / sec);
      json += ",\"t" + std::to_string(threads) +
              "_gflops\":" + json_num(flops / sec / 1e9);
      if (threads == 4) {
        json += ",\"scaling_1_to_4\":" + json_num(t1 / sec);
      }
    }
    json += "}";
  }

  // ---- batched_matmul loop-order fix --------------------------------------
  {
    struct Case {
      int batch, m, k, n;
    };
    const std::vector<Case> cases =
        smoke ? std::vector<Case>{{16, 64, 64, 64}}
              : std::vector<Case>{{32, 64, 64, 64}, {8, 64, 256, 64}};
    util::Table t({"bmm B*m*k*n", "dot-order ms", "row-accum ms", "speedup"});
    json += ",\"bmm\":[";
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const auto [batch, m, k, n] = cases[ci];
      const tensor::Tensor a = tensor::Tensor::randn({batch, m, k}, rng);
      const tensor::Tensor b = tensor::Tensor::randn({batch, k, n}, rng);
      std::vector<float> c(static_cast<std::size_t>(batch) * m * n);
      const double t_old = best_seconds(reps, [&] {
        bmm_dot_order(a.data().data(), b.data().data(), c.data(), batch, m, k,
                      n);
      });
      // The fixed op, including its (unchanged) autograd node overhead.
      const double t_new =
          best_seconds(reps, [&] { (void)tensor::bmm(a, b); });
      t.add_row({std::to_string(batch) + "x" + std::to_string(m) + "x" +
                     std::to_string(k) + "x" + std::to_string(n),
                 util::Table::num(t_old * 1e3, 2),
                 util::Table::num(t_new * 1e3, 2),
                 util::Table::num(t_old / t_new, 2)});
      json += std::string(ci == 0 ? "" : ",") +
              "{\"batch\":" + std::to_string(batch) +
              ",\"m\":" + std::to_string(m) + ",\"k\":" + std::to_string(k) +
              ",\"n\":" + std::to_string(n) +
              ",\"dot_order_ms\":" + json_num(t_old * 1e3) +
              ",\"row_accum_ms\":" + json_num(t_new * 1e3) +
              ",\"speedup\":" + json_num(t_old / t_new) + "}";
    }
    json += "]";
    std::printf("\nbatched_matmul forward loop order (satellite fix)\n");
    t.print();
  }

  // ---- transformer forward: autograd vs kernel ----------------------------
  {
    struct ModelCase {
      const char* name;
      core::ReconModelConfig cfg;
      int batch;
    };
    std::vector<ModelCase> cases;
    {
      core::ReconModelConfig serve_cfg;
      serve_cfg.patchify = {.patch = 16, .sub_patch = 2};
      serve_cfg.channels = 3;
      serve_cfg.d_model = 64;
      serve_cfg.num_heads = 4;
      serve_cfg.ffn_hidden = 128;
      cases.push_back({"p16_b2_d64 (serve)", serve_cfg, smoke ? 4 : 8});
    }
    if (!smoke) {
      core::ReconModelConfig paper_cfg;  // defaults: p32/b4, d256
      cases.push_back({"p32_b4_d256 (paper)", paper_cfg, 4});
    }
    util::Table t({"model", "batch", "autograd tok/s", "kern@1 tok/s",
                   std::string("kern@") + std::to_string(multi) + " tok/s",
                   "kern@1/autograd", "reconstruct@1 tok/s"});
    json += ",\"forward\":[";
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const ModelCase& mc = cases[ci];
      util::Pcg32 mrng(11);
      const core::ReconstructionModel model(mc.cfg, mrng);
      const int total = mc.cfg.patchify.tokens();
      const int token_dim = mc.cfg.patchify.token_dim(mc.cfg.channels);
      util::Pcg32 mask_rng(5);
      const core::EraseMask mask = core::make_row_conditional_mask(
          mc.cfg.patchify.grid(), std::max(1, mc.cfg.patchify.grid() / 4),
          mask_rng);
      const tensor::Tensor tokens =
          tensor::Tensor::randn({mc.batch, total, token_dim}, mrng, 0.3F);
      const double toks = static_cast<double>(mc.batch) * total;

      kern::set_threads(1);
      const double t_auto =
          best_seconds(reps, [&] { (void)model.forward(tokens, mask); });
      const double t_k1 =
          best_seconds(reps, [&] { (void)model.infer(tokens, mask); });
      // reconstruct(): the serving entry, whose last decoder block and head
      // run for the erased tokens only. Reported, not gated.
      const double t_r1 =
          best_seconds(reps, [&] { (void)model.reconstruct(tokens, mask); });
      kern::set_threads(multi);
      const double t_kn =
          best_seconds(reps, [&] { (void)model.infer(tokens, mask); });

      t.add_row({mc.name, std::to_string(mc.batch),
                 util::Table::num(toks / t_auto, 0),
                 util::Table::num(toks / t_k1, 0),
                 util::Table::num(toks / t_kn, 0),
                 util::Table::num(t_auto / t_k1, 2),
                 util::Table::num(toks / t_r1, 0)});
      json += std::string(ci == 0 ? "" : ",") + "{\"config\":\"" + mc.name +
              "\",\"batch\":" + std::to_string(mc.batch) +
              ",\"autograd_tokens_per_s\":" + json_num(toks / t_auto) +
              ",\"kernel_t1_tokens_per_s\":" + json_num(toks / t_k1) +
              ",\"kernel_multi_tokens_per_s\":" + json_num(toks / t_kn) +
              ",\"kernel_vs_autograd_t1\":" + json_num(t_auto / t_k1) +
              ",\"reconstruct_tok_s_t1\":" + json_num(toks / t_r1) +
              ",\"multi_threads\":" + std::to_string(multi) + "}";
    }
    json += "]";
    std::printf("\ntransformer forward (tokens reconstructed per second)\n");
    t.print();
  }

  // ---- int8 vs fp32 forward -----------------------------------------------
  {
    struct ModelCase {
      const char* name;
      core::ReconModelConfig cfg;
      int batch;
    };
    std::vector<ModelCase> cases;
    {
      core::ReconModelConfig serve_cfg;
      serve_cfg.patchify = {.patch = 16, .sub_patch = 2};
      serve_cfg.channels = 3;
      serve_cfg.d_model = 64;
      serve_cfg.num_heads = 4;
      serve_cfg.ffn_hidden = 128;
      cases.push_back({"p16_b2_d64 (serve)", serve_cfg, smoke ? 4 : 8});
    }
    if (!smoke) {
      core::ReconModelConfig paper_cfg;  // defaults: p32/b4, d256
      cases.push_back({"p32_b4_d256 (paper)", paper_cfg, 4});
    }
    util::Table t({"model", "batch", "fp32@1 tok/s", "int8@1 tok/s",
                   std::string("int8@") + std::to_string(multi) + " tok/s",
                   "int8/fp32@1", "int8@1/autograd"});
    json += ",\"forward_int8\":[";
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const ModelCase& mc = cases[ci];
      util::Pcg32 mrng(11);
      core::ReconstructionModel model(mc.cfg, mrng);
      const int total = mc.cfg.patchify.tokens();
      const int token_dim = mc.cfg.patchify.token_dim(mc.cfg.channels);
      util::Pcg32 mask_rng(5);
      const core::EraseMask mask = core::make_row_conditional_mask(
          mc.cfg.patchify.grid(), std::max(1, mc.cfg.patchify.grid() / 4),
          mask_rng);
      const tensor::Tensor tokens =
          tensor::Tensor::randn({mc.batch, total, token_dim}, mrng, 0.3F);
      model.calibrate_and_quantize({{tokens, mask}});
      const double toks = static_cast<double>(mc.batch) * total;

      kern::set_threads(1);
      // The gated int8 ratio shares the fp32 gate's denominator (autograd
      // forward): an int8/fp32 ratio would fall whenever fp32 got faster.
      const double t_auto =
          best_seconds(reps, [&] { (void)model.forward(tokens, mask); });
      const double t_f32 =
          best_seconds(reps, [&] { (void)model.infer(tokens, mask); });
      const double t_i8 = best_seconds(reps, [&] {
        (void)model.infer(tokens, mask, nn::Precision::kInt8);
      });
      kern::set_threads(multi);
      const double t_i8n = best_seconds(reps, [&] {
        (void)model.infer(tokens, mask, nn::Precision::kInt8);
      });

      t.add_row({mc.name, std::to_string(mc.batch),
                 util::Table::num(toks / t_f32, 0),
                 util::Table::num(toks / t_i8, 0),
                 util::Table::num(toks / t_i8n, 0),
                 util::Table::num(t_f32 / t_i8, 2),
                 util::Table::num(t_auto / t_i8, 2)});
      json += std::string(ci == 0 ? "" : ",") + "{\"config\":\"" + mc.name +
              "\",\"batch\":" + std::to_string(mc.batch) +
              ",\"autograd_tokens_per_s\":" + json_num(toks / t_auto) +
              ",\"fp32_t1_tokens_per_s\":" + json_num(toks / t_f32) +
              ",\"int8_t1_tokens_per_s\":" + json_num(toks / t_i8) +
              ",\"int8_multi_tokens_per_s\":" + json_num(toks / t_i8n) +
              ",\"int8_vs_fp32_t1\":" + json_num(t_f32 / t_i8) +
              ",\"int8_vs_autograd_t1\":" + json_num(t_auto / t_i8) +
              ",\"multi_threads\":" + std::to_string(multi) + "}";
    }
    json += "]";
    std::printf(
        "\ntransformer forward, int8 vs fp32 kernel (tokens per second)\n");
    t.print();
  }
  // ---- hardware counters (ROADMAP item 2: llc_miss in bench JSON) ---------
  //
  // Cycles/instructions/LLC refs+misses around a single-thread GEMM burst
  // at the serve-model qkv shape — the memory-hierarchy signature of the
  // kernel hot loop. Degrades to "unavailable" per counter when
  // perf_event_open is not permitted (see obs/perf_counters.hpp).
  {
    const int m = 128, k = 64, n = 192;
    const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({k, n}, rng);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    kern::set_threads(1);
    obs::PerfCounters counters;
    obs::PerfReading reading;
    {
      obs::PerfScope scope(counters, reading);
      for (int r = 0; r < (smoke ? 4 : 32); ++r) {
        kern::gemm(a.data().data(), k, b.data().data(), n, c.data(), n, m, k,
                   n);
      }
    }
    json += ",\"perf\":" + reading.to_json();
    std::printf("\nhardware counters (1-thread GEMM %dx%dx%d burst)\n  %s\n",
                m, k, n, reading.to_json().c_str());
  }
  json += "}";
  kern::set_threads(kern::default_threads());

  if (json_path != nullptr) {
    if (std::FILE* f = std::fopen(json_path, "w")) {
      std::fputs(json.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
  } else {
    std::printf("\n%s\n", json.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "bench_infer: %s\n", e.what());
  return 2;
}
