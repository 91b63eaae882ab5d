// Lightweight transformer reconstructor (paper §III-B, Fig. 5).
//
// Encoder (2 blocks) sees only the un-erased sub-patch tokens; their features
// are scattered back into the full N x N token grid with zero vectors at
// erased positions (plus positional embeddings), and the decoder (2 blocks)
// predicts pixel values for every token. One model serves every erase
// ratio — the mask is an input, not an architecture parameter — which is the
// paper's agility claim. Default dimensions give ~8.6 MB of fp32 weights,
// matching the paper's 8.7 MB figure.
#pragma once

#include <memory>

#include "core/mask.hpp"
#include "core/patchify.hpp"
#include "nn/quantize.hpp"
#include "nn/transformer.hpp"

namespace easz::core {

struct ReconModelConfig {
  PatchifyConfig patchify;  ///< n and b; grid N = n/b tokens per side
  int channels = 3;
  int d_model = 256;
  int num_heads = 4;
  int ffn_hidden = 576;
  int encoder_blocks = 2;
  int decoder_blocks = 2;
};

class ReconstructionModel : public nn::Module {
 public:
  ReconstructionModel(ReconModelConfig config, util::Pcg32& rng);

  [[nodiscard]] const ReconModelConfig& config() const { return config_; }

  /// Full forward pass: `tokens` is [B, N^2, token_dim] with arbitrary values
  /// at erased positions (they are ignored); returns predicted tokens of the
  /// same shape. Differentiable end to end — this is the TRAINING path.
  [[nodiscard]] nn::Tensor forward(const nn::Tensor& tokens,
                                   const EraseMask& mask) const;

  /// Grad-free inference entry: same contract and same weights as forward,
  /// but the whole pass runs on the tensor::kern fast path (register-tiled
  /// parallel GEMMs, fused softmax/layernorm/bias+GELU) using the calling
  /// thread's Workspace arena — a steady-state call performs zero heap
  /// allocations beyond the output tensor. At kFp32, matches forward() to
  /// <= 1e-5 (same per-element summation order; asserted in kernels_test).
  /// At kInt8, every Linear runs the quantized kernel (requires
  /// is_quantized(); throws std::logic_error otherwise) and results are
  /// DETERMINISTIC per precision: static calibrated scales make each patch
  /// row's output independent of batch composition and thread count, so
  /// pooled serving batches reproduce per-request bytes exactly
  /// (tests/quant_test.cpp). Safe to call concurrently from many threads;
  /// NOT safe concurrently with training or quantization.
  [[nodiscard]] nn::Tensor infer(
      const nn::Tensor& tokens, const EraseMask& mask,
      nn::Precision precision = nn::Precision::kFp32) const;

  /// Inference convenience: infer + paste-through of kept tokens + clamp
  /// to [0, 1] (the decoder only ever has to be trusted for erased
  /// content). Runs on the kernel fast path, never the autograd substrate,
  /// and computes the last decoder block past its attention, and the head,
  /// for the erased positions only: the result is byte-identical to
  /// infer() followed by the paste-through and clamp.
  ///
  /// Re-entrant: infer passes only read parameter data, so many threads
  /// may call this concurrently on one model (the serve runtime does) —
  /// but not concurrently with training, whose backward pass mutates
  /// shared gradient buffers. Per-patch outputs are independent of batch
  /// composition (attention never crosses batch elements), so a batch
  /// pooled across requests reproduces per-request results exactly.
  [[nodiscard]] nn::Tensor reconstruct(
      const nn::Tensor& tokens, const EraseMask& mask,
      nn::Precision precision = nn::Precision::kFp32) const;

  // ---- int8 quantization (DESIGN.md §7) ----

  /// One calibration input: a token batch plus the mask it decodes under.
  struct CalibSample {
    nn::Tensor tokens;
    EraseMask mask;
  };

  /// Post-training quantization: runs fp32 inference over `samples` with
  /// activation observers on (absmax per Linear input), then quantizes
  /// every Linear per output channel with the observed ranges. Single-
  /// threaded; must not overlap serving or training. Idempotent given the
  /// same weights and samples (deterministic bytes).
  void calibrate_and_quantize(const std::vector<CalibSample>& samples);

  /// True once every Linear carries int8 state (calibrated or sidecar).
  [[nodiscard]] bool is_quantized() const;

  /// Exports the frozen int8 plan (layer order: embed, encoder blocks'
  /// qkv/proj/fc1/fc2, decoder blocks' ditto, head) for the EAZQ sidecar.
  /// Throws std::logic_error when not quantized.
  [[nodiscard]] nn::QuantSidecar quant_sidecar() const;

  /// Installs a sidecar exported from an architecturally identical model.
  /// Throws on layer count / dimension mismatch or corrupt scales.
  void apply_quant_sidecar(const nn::QuantSidecar& sidecar);

  /// Forward FLOPs for `batch` patches at erase count T per row — drives the
  /// testbed latency model (server-side reconstruction stage).
  [[nodiscard]] double flops_per_batch(int batch, int erased_per_row) const;

  // ---- deployment versioning (DESIGN.md §10) ----

  /// Monotonic deployment version tag. 0 = unversioned (fresh construction);
  /// the serve runtime stamps each hot-reloaded checkpoint with the next
  /// version at deploy time. Carried on the model — not beside it — so batch
  /// group keys and response metadata can name the exact weights that
  /// produced a byte stream. Not serialized: a checkpoint is version-free
  /// until deployed.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  void set_version(std::uint64_t v) { version_ = v; }

 private:
  /// Every Linear in sidecar order (see quant_sidecar).
  [[nodiscard]] std::vector<nn::Linear*> linears() const;

  /// The kernel forward behind infer() and reconstruct(). Returns the head
  /// output in the calling thread's Workspace (valid until its next reset):
  /// [B * N^2, token_dim], or with `positions` (grid positions) only those
  /// rows, [B * positions->size(), token_dim], the last decoder block and
  /// the head then running for those rows alone.
  [[nodiscard]] const float* infer_rows(
      const nn::Tensor& tokens, const EraseMask& mask,
      nn::Precision precision, const std::vector<int>* positions) const;

  ReconModelConfig config_;
  std::uint64_t version_ = 0;               // deployment tag, see version()
  std::unique_ptr<nn::Linear> embed_;       // token_dim -> d_model
  nn::Tensor pos_embedding_;                // [N^2, d_model]
  std::vector<std::unique_ptr<nn::TransformerBlock>> encoder_;
  std::vector<std::unique_ptr<nn::TransformerBlock>> decoder_;
  std::unique_ptr<nn::Linear> head_;        // d_model -> token_dim
};

}  // namespace easz::core
