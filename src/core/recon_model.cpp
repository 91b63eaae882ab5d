#include "core/recon_model.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace easz::core {

ReconstructionModel::ReconstructionModel(ReconModelConfig config,
                                         util::Pcg32& rng)
    : config_(config) {
  config_.patchify.validate();
  const int token_dim = config_.patchify.token_dim(config_.channels);
  const int tokens = config_.patchify.tokens();

  embed_ = std::make_unique<nn::Linear>(token_dim, config_.d_model, rng);
  absorb(*embed_);
  pos_embedding_ = register_param(nn::Tensor::randn(
      {tokens, config_.d_model}, rng, 0.02F, /*requires_grad=*/true));
  for (int i = 0; i < config_.encoder_blocks; ++i) {
    encoder_.push_back(std::make_unique<nn::TransformerBlock>(
        config_.d_model, config_.num_heads, config_.ffn_hidden, rng));
    absorb(*encoder_.back());
  }
  for (int i = 0; i < config_.decoder_blocks; ++i) {
    decoder_.push_back(std::make_unique<nn::TransformerBlock>(
        config_.d_model, config_.num_heads, config_.ffn_hidden, rng));
    absorb(*decoder_.back());
  }
  head_ = std::make_unique<nn::Linear>(config_.d_model, token_dim, rng);
  absorb(*head_);
}

nn::Tensor ReconstructionModel::forward(const nn::Tensor& tokens,
                                        const EraseMask& mask) const {
  const int total = config_.patchify.tokens();
  const int token_dim = config_.patchify.token_dim(config_.channels);
  if (tokens.rank() != 3 || tokens.dim(1) != total ||
      tokens.dim(2) != token_dim) {
    throw std::invalid_argument("ReconstructionModel: bad token tensor shape");
  }
  if (mask.grid() != config_.patchify.grid()) {
    throw std::invalid_argument("ReconstructionModel: mask grid mismatch");
  }
  const int batch = tokens.dim(0);
  const std::vector<int> kept = mask.kept_indices();
  const int m = static_cast<int>(kept.size());

  // Gather the un-erased tokens of every batch element.
  std::vector<int> flat_kept;
  flat_kept.reserve(static_cast<std::size_t>(batch) * m);
  for (int b = 0; b < batch; ++b) {
    for (const int j : kept) flat_kept.push_back(b * total + j);
  }
  const nn::Tensor flat =
      tokens.reshape({batch * total, token_dim});
  nn::Tensor kept_tokens = tensor::gather_rows(flat, flat_kept);  // [B*m, td]

  // Embed + positional information for the kept grid positions.
  nn::Tensor x = embed_->forward(kept_tokens);  // [B*m, d]
  const nn::Tensor kept_pos = tensor::gather_rows(pos_embedding_, kept);
  x = x.reshape({batch, m, config_.d_model});
  x = tensor::add_broadcast(x, kept_pos.reshape({m, config_.d_model}));

  for (const auto& block : encoder_) x = block->forward(x);

  // Zero-vector infill: scatter encoded features back into the full grid;
  // erased positions stay zero and receive only their positional embedding.
  nn::Tensor scattered = tensor::scatter_rows(
      x.reshape({batch * m, config_.d_model}), flat_kept, batch * total);
  nn::Tensor y = scattered.reshape({batch, total, config_.d_model});
  y = tensor::add_broadcast(y, pos_embedding_.reshape(
                                   {total, config_.d_model}));

  for (const auto& block : decoder_) y = block->forward(y);

  const nn::Tensor out = head_->forward(y);  // [B, total, token_dim]
  return out;
}

nn::Tensor ReconstructionModel::infer(const nn::Tensor& tokens,
                                      const EraseMask& mask,
                                      nn::Precision precision) const {
  const float* rows = infer_rows(tokens, mask, precision, nullptr);
  nn::Tensor out({tokens.dim(0), config_.patchify.tokens(),
                  config_.patchify.token_dim(config_.channels)});
  std::copy_n(rows, out.numel(), out.data().data());
  return out;
}

const float* ReconstructionModel::infer_rows(
    const nn::Tensor& tokens, const EraseMask& mask, nn::Precision precision,
    const std::vector<int>* positions) const {
  namespace kern = tensor::kern;
  const bool int8 = precision == nn::Precision::kInt8;
  if (int8 && !is_quantized()) {
    throw std::logic_error(
        "ReconstructionModel: int8 inference requested but the model is not "
        "quantized (run calibrate_and_quantize or apply an EAZQ sidecar)");
  }
  const int total = config_.patchify.tokens();
  const int token_dim = config_.patchify.token_dim(config_.channels);
  if (tokens.rank() != 3 || tokens.dim(1) != total ||
      tokens.dim(2) != token_dim) {
    throw std::invalid_argument("ReconstructionModel: bad token tensor shape");
  }
  if (mask.grid() != config_.patchify.grid()) {
    throw std::invalid_argument("ReconstructionModel: mask grid mismatch");
  }
  const int batch = tokens.dim(0);
  const int d = config_.d_model;
  const std::vector<int> kept = mask.kept_indices();
  const int m = static_cast<int>(kept.size());

  kern::Workspace& ws = kern::Workspace::for_this_thread();
  ws.reset();
  const float* in = tokens.data().data();
  const float* pos = pos_embedding_.data().data();

  // Gather the un-erased tokens of every batch element into [B*m, td].
  float* kept_tokens =
      ws.alloc(static_cast<std::size_t>(batch) * m * token_dim);
  for (int b = 0; b < batch; ++b) {
    for (int r = 0; r < m; ++r) {
      const float* src =
          in + (static_cast<std::size_t>(b) * total + kept[r]) * token_dim;
      float* dst =
          kept_tokens + (static_cast<std::size_t>(b) * m + r) * token_dim;
      std::copy_n(src, token_dim, dst);
    }
  }

  // Embed + positional information for the kept grid positions.
  float* x = ws.alloc(static_cast<std::size_t>(batch) * m * d);
  if (int8) {
    embed_->infer_q(kept_tokens, x, batch * m);
  } else {
    embed_->infer(kept_tokens, x, batch * m);
  }
  for (int b = 0; b < batch; ++b) {
    for (int r = 0; r < m; ++r) {
      float* row = x + (static_cast<std::size_t>(b) * m + r) * d;
      kern::add_rows(row, pos + static_cast<std::size_t>(kept[r]) * d, row, d);
    }
  }

  float* ping = ws.alloc(static_cast<std::size_t>(batch) * m * d);
  float* cur = x;
  for (const auto& block : encoder_) {
    if (int8) {
      block->infer_q(cur, ping, batch, m, ws);
    } else {
      block->infer(cur, ping, batch, m, ws);
    }
    std::swap(cur, ping);
  }

  // Zero-vector infill: scatter encoded features back into the full grid;
  // erased positions stay zero and receive only their positional embedding.
  float* y = ws.alloc(static_cast<std::size_t>(batch) * total * d);
  std::fill_n(y, static_cast<std::size_t>(batch) * total * d, 0.0F);
  for (int b = 0; b < batch; ++b) {
    for (int r = 0; r < m; ++r) {
      std::copy_n(cur + (static_cast<std::size_t>(b) * m + r) * d, d,
                  y + (static_cast<std::size_t>(b) * total + kept[r]) * d);
    }
  }
  for (int b = 0; b < batch; ++b) {
    float* rows = y + static_cast<std::size_t>(b) * total * d;
    kern::add_rows(rows, pos, rows,
                   static_cast<std::size_t>(total) * d);  // pos is [N^2, D]
  }

  // Every decoder block but the last needs every position (the next
  // block's keys and values); the last emits only the requested rows.
  float* pong = ws.alloc(static_cast<std::size_t>(batch) * total * d);
  float* cur_y = y;
  for (std::size_t i = 0; i < decoder_.size(); ++i) {
    const std::vector<int>* rows =
        i + 1 == decoder_.size() ? positions : nullptr;
    if (int8) {
      decoder_[i]->infer_q(cur_y, pong, batch, total, ws, rows);
    } else {
      decoder_[i]->infer(cur_y, pong, batch, total, ws, rows);
    }
    std::swap(cur_y, pong);
  }
  int out_rows = batch * total;
  if (positions != nullptr) {
    out_rows = batch * static_cast<int>(positions->size());
    if (decoder_.empty()) {  // no block to cut: gather before the head
      for (int b = 0; b < batch; ++b) {
        for (std::size_t r = 0; r < positions->size(); ++r) {
          std::copy_n(
              y + (static_cast<std::size_t>(b) * total + (*positions)[r]) * d,
              d, pong + (b * positions->size() + r) * d);
        }
      }
      cur_y = pong;
    }
  }

  float* out = ws.alloc(static_cast<std::size_t>(out_rows) * token_dim);
  if (int8) {
    head_->infer_q(cur_y, out, out_rows);
  } else {
    head_->infer(cur_y, out, out_rows);
  }
  return out;
}

nn::Tensor ReconstructionModel::reconstruct(const nn::Tensor& tokens,
                                            const EraseMask& mask,
                                            nn::Precision precision) const {
  // Serving hot path: the kernel forward, cut to the erased positions after
  // the last decoder block's attention (the decoder only ever has to be
  // trusted for erased content). Kept positions paste straight through.
  const std::vector<int> erased = mask.erased_indices();
  const float* pred = infer_rows(tokens, mask, precision, &erased);
  const int batch = tokens.dim(0);
  const int total = config_.patchify.tokens();
  const int token_dim = config_.patchify.token_dim(config_.channels);

  nn::Tensor out({batch, total, token_dim});
  std::copy(tokens.data().begin(), tokens.data().end(), out.data().begin());
  for (int b = 0; b < batch; ++b) {
    for (std::size_t r = 0; r < erased.size(); ++r) {
      std::copy_n(
          pred + (b * erased.size() + r) * token_dim, token_dim,
          out.data().data() +
              (static_cast<std::size_t>(b) * total + erased[r]) * token_dim);
    }
  }
  // Clamp predictions into the valid sample range.
  for (auto& v : out.data()) v = std::min(1.0F, std::max(0.0F, v));
  return out;
}

std::vector<nn::Linear*> ReconstructionModel::linears() const {
  std::vector<nn::Linear*> out;
  out.push_back(embed_.get());
  for (const auto& block : encoder_) block->collect_linears(out);
  for (const auto& block : decoder_) block->collect_linears(out);
  out.push_back(head_.get());
  return out;
}

void ReconstructionModel::calibrate_and_quantize(
    const std::vector<CalibSample>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument(
        "ReconstructionModel: calibration needs at least one sample");
  }
  // Observers record absmax per Linear input during plain fp32 inference;
  // the whole pass is the production code path, so calibration sees exactly
  // the activation distribution serving will. Start from a clean slate so
  // RE-calibration reflects these samples, not the widest range ever seen.
  for (nn::Linear* l : linears()) l->reset_observed_absmax();
  nn::set_calibration(true);
  try {
    for (const CalibSample& s : samples) (void)infer(s.tokens, s.mask);
  } catch (...) {
    nn::set_calibration(false);
    throw;
  }
  nn::set_calibration(false);
  for (nn::Linear* l : linears()) l->build_quant(l->observed_absmax());
}

bool ReconstructionModel::is_quantized() const {
  for (nn::Linear* l : linears()) {
    if (!l->quantized()) return false;
  }
  return true;
}

nn::QuantSidecar ReconstructionModel::quant_sidecar() const {
  nn::QuantSidecar out;
  for (nn::Linear* l : linears()) {
    const nn::Linear::QuantState& q = l->quant();  // throws if not quantized
    nn::QuantSidecar::Layer layer;
    layer.in = static_cast<std::uint32_t>(l->in_features());
    layer.out = static_cast<std::uint32_t>(l->out_features());
    layer.act_scale = q.act_scale;
    layer.w_scale = q.w_scale;
    layer.w_q = q.w_q;
    out.layers.push_back(std::move(layer));
  }
  return out;
}

void ReconstructionModel::apply_quant_sidecar(const nn::QuantSidecar& sidecar) {
  const std::vector<nn::Linear*> layers = linears();
  if (sidecar.layers.size() != layers.size()) {
    throw std::invalid_argument(
        "ReconstructionModel: sidecar layer count does not match the model");
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const nn::QuantSidecar::Layer& l = sidecar.layers[i];
    if (static_cast<int>(l.in) != layers[i]->in_features() ||
        static_cast<int>(l.out) != layers[i]->out_features()) {
      throw std::invalid_argument(
          "ReconstructionModel: sidecar layer dimensions do not match");
    }
    layers[i]->apply_quant(l.act_scale, l.w_scale, l.w_q);
  }
}

double ReconstructionModel::flops_per_batch(int batch, int erased_per_row) const {
  const int grid = config_.patchify.grid();
  const int total = grid * grid;
  const int m = grid * (grid - erased_per_row);
  const int token_dim = config_.patchify.token_dim(config_.channels);
  double flops = 0.0;
  // Embedding and head projections.
  flops += 2.0 * batch * m * token_dim * config_.d_model;
  flops += 2.0 * batch * total * config_.d_model * token_dim;
  for (int i = 0; i < config_.encoder_blocks; ++i) {
    flops += nn::TransformerBlock::flops(batch, m, config_.d_model,
                                         config_.num_heads, config_.ffn_hidden);
  }
  for (int i = 0; i < config_.decoder_blocks; ++i) {
    flops += nn::TransformerBlock::flops(batch, total, config_.d_model,
                                         config_.num_heads, config_.ffn_hidden);
  }
  return flops;
}

}  // namespace easz::core
