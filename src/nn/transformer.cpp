#include "nn/transformer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace easz::nn {

MultiHeadAttention::MultiHeadAttention(int d_model, int num_heads,
                                       util::Pcg32& rng)
    : d_model_(d_model), heads_(num_heads), head_dim_(d_model / num_heads) {
  if (d_model % num_heads != 0) {
    throw std::invalid_argument("MHA: d_model must be divisible by heads");
  }
  qkv_ = std::make_unique<Linear>(d_model, 3 * d_model, rng);
  proj_ = std::make_unique<Linear>(d_model, d_model, rng);
  absorb(*qkv_);
  absorb(*proj_);
}

Tensor MultiHeadAttention::forward(const Tensor& x) const {
  if (x.rank() != 3 || x.dim(2) != d_model_) {
    throw std::invalid_argument("MHA: expected [B, T, D] with D=" +
                                std::to_string(d_model_));
  }
  const int b = x.dim(0);
  const int t = x.dim(1);

  const Tensor qkv = qkv_->forward(x);  // [B, T, 3D]
  const float inv_sqrt_d =
      1.0F / std::sqrt(static_cast<float>(head_dim_));

  // Per-head attention via last-dim slices; each head sees [B, T, head_dim].
  std::vector<Tensor> head_outputs;
  head_outputs.reserve(heads_);
  for (int h = 0; h < heads_; ++h) {
    const Tensor q = tensor::slice_last(qkv, h * head_dim_, head_dim_);
    const Tensor k =
        tensor::slice_last(qkv, d_model_ + h * head_dim_, head_dim_);
    const Tensor v =
        tensor::slice_last(qkv, 2 * d_model_ + h * head_dim_, head_dim_);
    const Tensor scores =
        tensor::scale(tensor::bmm(q, k, /*transpose_b=*/true), inv_sqrt_d);
    const Tensor weights = tensor::softmax(scores);  // [B, T, T]
    head_outputs.push_back(tensor::bmm(weights, v)); // [B, T, head_dim]
  }
  const Tensor merged = tensor::concat_last(head_outputs);  // [B, T, D]
  (void)b;
  (void)t;
  return proj_->forward(merged);
}

void MultiHeadAttention::infer(const float* x, float* out, int batch,
                               int tokens, tensor::kern::Workspace& ws,
                               const float* residual,
                               const std::vector<int>* queries) const {
  const std::size_t rows = static_cast<std::size_t>(batch) * tokens;
  const std::size_t out_rows =
      queries == nullptr ? rows : batch * queries->size();
  float* qkv = ws.alloc(rows * 3 * static_cast<std::size_t>(d_model_));
  qkv_->infer(x, qkv, static_cast<int>(rows));
  float* merged = ws.alloc(out_rows * static_cast<std::size_t>(d_model_));
  tensor::kern::attention(qkv, merged, batch, tokens, heads_, head_dim_,
                          queries);
  proj_->infer(merged, out, static_cast<int>(out_rows), false, true,
               residual);
}

void MultiHeadAttention::infer_q(const float* x, float* out, int batch,
                                 int tokens, tensor::kern::Workspace& ws,
                                 const float* residual,
                                 const std::vector<int>* queries) const {
  const std::size_t rows = static_cast<std::size_t>(batch) * tokens;
  const std::size_t out_rows =
      queries == nullptr ? rows : batch * queries->size();
  float* qkv = ws.alloc(rows * 3 * static_cast<std::size_t>(d_model_));
  qkv_->infer_q(x, qkv, static_cast<int>(rows));
  float* merged = ws.alloc(out_rows * static_cast<std::size_t>(d_model_));
  tensor::kern::attention(qkv, merged, batch, tokens, heads_, head_dim_,
                          queries);
  proj_->infer_q(merged, out, static_cast<int>(out_rows), false, true,
                 residual);
}

double MultiHeadAttention::flops(int batch, int tokens, int d_model,
                                 int num_heads) {
  (void)num_heads;  // head split does not change the op count
  const double bt = static_cast<double>(batch) * tokens;
  const double qkv = bt * 3.0 * d_model * d_model * 2.0;
  const double scores = static_cast<double>(batch) * tokens * tokens * d_model * 2.0;
  const double apply = scores;
  const double proj = bt * d_model * d_model * 2.0;
  return qkv + scores + apply + proj;
}

FeedForward::FeedForward(int d_model, int hidden, util::Pcg32& rng) {
  fc1_ = std::make_unique<Linear>(d_model, hidden, rng);
  fc2_ = std::make_unique<Linear>(hidden, d_model, rng);
  absorb(*fc1_);
  absorb(*fc2_);
}

Tensor FeedForward::forward(const Tensor& x) const {
  return fc2_->forward(tensor::gelu(fc1_->forward(x)));
}

void FeedForward::infer(const float* x, float* out, int rows,
                        tensor::kern::Workspace& ws,
                        const float* residual) const {
  float* hidden = ws.alloc(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(fc1_->out_features()));
  fc1_->infer(x, hidden, rows, /*fuse_gelu=*/true);
  fc2_->infer(hidden, out, rows, false, true, residual);
}

void FeedForward::infer_q(const float* x, float* out, int rows,
                          tensor::kern::Workspace& ws,
                          const float* residual) const {
  float* hidden = ws.alloc(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(fc1_->out_features()));
  fc1_->infer_q(x, hidden, rows, /*fuse_gelu=*/true);
  fc2_->infer_q(hidden, out, rows, false, true, residual);
}

double FeedForward::flops(int batch, int tokens, int d_model, int hidden) {
  return static_cast<double>(batch) * tokens * d_model * hidden * 4.0;
}

TransformerBlock::TransformerBlock(int d_model, int num_heads, int ffn_hidden,
                                   util::Pcg32& rng) {
  ln1_ = std::make_unique<LayerNorm>(d_model);
  attn_ = std::make_unique<MultiHeadAttention>(d_model, num_heads, rng);
  ln2_ = std::make_unique<LayerNorm>(d_model);
  ffn_ = std::make_unique<FeedForward>(d_model, ffn_hidden, rng);
  ln3_ = std::make_unique<LayerNorm>(d_model);
  absorb(*ln1_);
  absorb(*attn_);
  absorb(*ln2_);
  absorb(*ffn_);
  absorb(*ln3_);
}

Tensor TransformerBlock::forward(const Tensor& x) const {
  const Tensor a = tensor::add(x, attn_->forward(ln1_->forward(x)));
  const Tensor f = tensor::add(a, ffn_->forward(ln2_->forward(a)));
  return ln3_->forward(f);
}

void TransformerBlock::infer(const float* x, float* out, int batch, int tokens,
                             tensor::kern::Workspace& ws,
                             const std::vector<int>* positions) const {
  run(x, out, batch, tokens, ws, positions, /*int8=*/false);
}

void TransformerBlock::infer_q(const float* x, float* out, int batch,
                               int tokens, tensor::kern::Workspace& ws,
                               const std::vector<int>* positions) const {
  run(x, out, batch, tokens, ws, positions, /*int8=*/true);
}

void TransformerBlock::run(const float* x, float* out, int batch, int tokens,
                           tensor::kern::Workspace& ws,
                           const std::vector<int>* positions,
                           bool int8) const {
  const std::size_t d = static_cast<std::size_t>(attn_->d_model());
  const std::size_t rows = static_cast<std::size_t>(batch) * tokens;
  const std::size_t out_rows =
      positions == nullptr ? rows : batch * positions->size();

  float* normed = ws.alloc(rows * d);
  ln1_->infer(x, normed, rows);
  // The attention residual is x at the listed rows.
  const float* residual = x;
  if (positions != nullptr) {
    float* gathered = ws.alloc(out_rows * d);
    for (std::size_t b = 0; b < static_cast<std::size_t>(batch); ++b) {
      for (std::size_t r = 0; r < positions->size(); ++r) {
        std::copy_n(x + (b * tokens + (*positions)[r]) * d, d,
                    gathered + (b * positions->size() + r) * d);
      }
    }
    residual = gathered;
  }
  float* attn = ws.alloc(out_rows * d);  // x + Attn(LN1(x))
  if (int8) {
    attn_->infer_q(normed, attn, batch, tokens, ws, residual, positions);
  } else {
    attn_->infer(normed, attn, batch, tokens, ws, residual, positions);
  }

  ln2_->infer(attn, normed, out_rows);  // normed buffer reused
  float* ffn = ws.alloc(out_rows * d);
  if (int8) {
    ffn_->infer_q(normed, ffn, static_cast<int>(out_rows), ws, attn);
  } else {
    ffn_->infer(normed, ffn, static_cast<int>(out_rows), ws, attn);
  }

  ln3_->infer(ffn, out, out_rows);
}

double TransformerBlock::flops(int batch, int tokens, int d_model,
                               int num_heads, int ffn_hidden) {
  return MultiHeadAttention::flops(batch, tokens, d_model, num_heads) +
         FeedForward::flops(batch, tokens, d_model, ffn_hidden) +
         static_cast<double>(batch) * tokens * d_model * 15.0;  // layernorms
}

}  // namespace easz::nn
