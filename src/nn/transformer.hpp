// Transformer primitives: multi-head self-attention, feed-forward and the
// pre-norm transformer block used by the Easz reconstructor (paper Fig. 5:
// "three layernorms, one attention layer and one feedforward layer" per
// block).
#pragma once

#include "nn/module.hpp"

namespace easz::nn {

/// Multi-head self-attention over [B, T, D] token stacks.
///
/// Two execution paths share one set of weights: forward() builds the
/// autograd DAG (training), infer() runs the grad-free tensor::kern fast
/// path over raw spans (serving). The infer path reproduces forward's
/// results element-for-element (same per-element summation order); the
/// contract is asserted in tests/kernels_test.cpp.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int d_model, int num_heads, util::Pcg32& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// x: [batch * tokens, D] row-major. The fused attention core
  /// (kern::attention) parallelises over (batch, head) pairs on the kern
  /// pool; scratch comes from `ws` (no heap allocation once the arena is
  /// warm). A non-null `queries` (token positions, the same for every
  /// sequence) computes only those output rows: out and `residual` are then
  /// [batch * queries->size(), D], otherwise [batch * tokens, D]. A
  /// non-null `residual` is added in the output projection's epilogue. Not
  /// safe concurrently with training.
  void infer(const float* x, float* out, int batch, int tokens,
             tensor::kern::Workspace& ws, const float* residual = nullptr,
             const std::vector<int>* queries = nullptr) const;

  /// Int8 variant: qkv and output projections run the quantized kernel;
  /// the attention core (scores, softmax, weighted sum) stays fp32 —
  /// activations round-trip through int8 only at layer boundaries
  /// (DESIGN.md §7). Requires quantized() == true.
  void infer_q(const float* x, float* out, int batch, int tokens,
               tensor::kern::Workspace& ws, const float* residual = nullptr,
               const std::vector<int>* queries = nullptr) const;

  [[nodiscard]] bool quantized() const {
    return qkv_->quantized() && proj_->quantized();
  }
  void collect_linears(std::vector<Linear*>& out) const {
    out.push_back(qkv_.get());
    out.push_back(proj_.get());
  }

  [[nodiscard]] int d_model() const { return d_model_; }
  [[nodiscard]] int num_heads() const { return heads_; }

  /// FLOPs for one forward pass over B stacks of T tokens — feeds the testbed
  /// cost model.
  [[nodiscard]] static double flops(int batch, int tokens, int d_model,
                                    int num_heads);

 private:
  int d_model_;
  int heads_;
  int head_dim_;
  std::unique_ptr<Linear> qkv_;
  std::unique_ptr<Linear> proj_;
};

/// Two-layer GELU MLP.
class FeedForward : public Module {
 public:
  FeedForward(int d_model, int hidden, util::Pcg32& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// x, out: [rows, D]. Fuses bias+GELU into the first GEMM's epilogue and
  /// a non-null `residual` ([rows, D]) into the second's.
  void infer(const float* x, float* out, int rows,
             tensor::kern::Workspace& ws,
             const float* residual = nullptr) const;

  /// Int8 variant: both projections quantized, dequant + bias + GELU fused
  /// into fc1's epilogue; the hidden activation re-enters int8 at fc2's
  /// boundary with its own calibrated scale.
  void infer_q(const float* x, float* out, int rows,
               tensor::kern::Workspace& ws,
               const float* residual = nullptr) const;

  [[nodiscard]] bool quantized() const {
    return fc1_->quantized() && fc2_->quantized();
  }
  void collect_linears(std::vector<Linear*>& out) const {
    out.push_back(fc1_.get());
    out.push_back(fc2_.get());
  }

  [[nodiscard]] static double flops(int batch, int tokens, int d_model,
                                    int hidden);

 private:
  std::unique_ptr<Linear> fc1_;
  std::unique_ptr<Linear> fc2_;
};

/// Pre-norm block: x + Attn(LN(x)), then x + FFN(LN(x)), with a final LN —
/// the paper's three-layernorm layout.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int d_model, int num_heads, int ffn_hidden,
                   util::Pcg32& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// x: [batch * tokens, D]; out must not alias x (the residual adds,
  /// fused into the proj and fc2 epilogues, re-read x). Runs the whole
  /// block on the kern fast path. A non-null `positions` (token positions,
  /// the same for every sequence) keeps only those output rows: LN1 and qkv
  /// still run on every row (keys and values need every token), attention,
  /// proj, LN2, the FFN and LN3 on the listed rows only, and out is
  /// [batch * positions->size(), D] holding the same bytes as those rows of
  /// the full call. nullptr means every position.
  void infer(const float* x, float* out, int batch, int tokens,
             tensor::kern::Workspace& ws,
             const std::vector<int>* positions = nullptr) const;

  /// Int8 variant: layernorms, residual adds and the attention core stay
  /// fp32; every Linear runs the quantized kernel.
  void infer_q(const float* x, float* out, int batch, int tokens,
               tensor::kern::Workspace& ws,
               const std::vector<int>* positions = nullptr) const;

  [[nodiscard]] bool quantized() const {
    return attn_->quantized() && ffn_->quantized();
  }
  void collect_linears(std::vector<Linear*>& out) const {
    attn_->collect_linears(out);
    ffn_->collect_linears(out);
  }

  [[nodiscard]] static double flops(int batch, int tokens, int d_model,
                                    int num_heads, int ffn_hidden);

 private:
  void run(const float* x, float* out, int batch, int tokens,
           tensor::kern::Workspace& ws, const std::vector<int>* positions,
           bool int8) const;

  std::unique_ptr<LayerNorm> ln1_;
  std::unique_ptr<MultiHeadAttention> attn_;
  std::unique_ptr<LayerNorm> ln2_;
  std::unique_ptr<FeedForward> ffn_;
  std::unique_ptr<LayerNorm> ln3_;
};

}  // namespace easz::nn
