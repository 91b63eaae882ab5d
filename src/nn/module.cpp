#include "nn/module.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace easz::nn {

namespace {

// Calibration is single-threaded by contract (see set_calibration); a plain
// global keeps the serving hot path to one relaxed-cost bool read.
bool g_calibrating = false;

}  // namespace

const char* precision_name(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

void set_calibration(bool on) { g_calibrating = on; }

bool calibration_active() { return g_calibrating; }

Linear::Linear(int in_features, int out_features, util::Pcg32& rng)
    : in_(in_features), out_(out_features) {
  const float stddev = 1.0F / std::sqrt(static_cast<float>(in_features));
  weight_ = register_param(
      Tensor::randn({in_features, out_features}, rng, stddev, true));
  Tensor b({out_features}, true);
  bias_ = register_param(b);
}

void Linear::infer(const float* x, float* y, int rows, bool fuse_gelu,
                   bool parallel, const float* residual) const {
  if (g_calibrating) {
    float mx = observed_absmax_;
    const std::size_t count = static_cast<std::size_t>(rows) * in_;
    for (std::size_t i = 0; i < count; ++i) mx = std::max(mx, std::fabs(x[i]));
    observed_absmax_ = mx;
  }
  tensor::kern::GemmOpts opts;
  opts.bias = bias_.data().data();
  opts.gelu = fuse_gelu;
  opts.residual = residual;
  opts.parallel = parallel;
  tensor::kern::gemm(x, static_cast<std::size_t>(in_), weight_.data().data(),
                     static_cast<std::size_t>(out_), y,
                     static_cast<std::size_t>(out_), rows, in_, out_, opts);
}

const Linear::QuantState& Linear::quant() const {
  if (!quant_) throw std::logic_error("Linear: not quantized");
  return *quant_;
}

void Linear::build_quant(float act_absmax) {
  const std::vector<float>& w = weight_.data();
  std::vector<float> w_scale(static_cast<std::size_t>(out_));
  std::vector<std::int8_t> w_q(w.size());
  for (int j = 0; j < out_; ++j) {
    float mx = 0.0F;
    for (int p = 0; p < in_; ++p) {
      mx = std::max(mx, std::fabs(w[static_cast<std::size_t>(p) * out_ + j]));
    }
    const float scale = mx > 0.0F ? mx / 127.0F : 1.0F;
    w_scale[static_cast<std::size_t>(j)] = scale;
    const float inv = 1.0F / scale;
    for (int p = 0; p < in_; ++p) {
      const std::size_t idx = static_cast<std::size_t>(p) * out_ + j;
      // lrintf (nearest-even) everywhere the int8 path rounds: the same
      // instruction on every x86-64 machine, so quantized bytes are stable.
      const long q = std::lrintf(w[idx] * inv);
      w_q[idx] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
    }
  }
  apply_quant(act_absmax > 0.0F ? act_absmax / 127.0F : 1.0F,
              std::move(w_scale), std::move(w_q));
}

void Linear::apply_quant(float act_scale, std::vector<float> w_scale,
                         std::vector<std::int8_t> w_q) {
  if (w_scale.size() != static_cast<std::size_t>(out_) ||
      w_q.size() != static_cast<std::size_t>(in_) * out_) {
    throw std::invalid_argument("Linear: quant state dimension mismatch");
  }
  if (!std::isfinite(act_scale) || act_scale <= 0.0F) {
    throw std::invalid_argument("Linear: activation scale must be positive");
  }
  for (const float s : w_scale) {
    if (!std::isfinite(s) || s <= 0.0F) {
      throw std::invalid_argument("Linear: weight scales must be positive");
    }
  }
  auto q = std::make_unique<QuantState>();
  q->act_scale = act_scale;
  q->w_scale = std::move(w_scale);
  q->w_q = std::move(w_q);
  q->dq_scale.resize(static_cast<std::size_t>(out_));
  q->col_sum.assign(static_cast<std::size_t>(out_), 0);
  for (int j = 0; j < out_; ++j) {
    q->dq_scale[static_cast<std::size_t>(j)] =
        act_scale * q->w_scale[static_cast<std::size_t>(j)];
    std::int32_t cs = 0;
    for (int p = 0; p < in_; ++p) {
      cs += q->w_q[static_cast<std::size_t>(p) * out_ + j];
    }
    q->col_sum[static_cast<std::size_t>(j)] = cs;
  }
  q->packed = tensor::kern::pack_b_s8(q->w_q.data(), in_, out_);
  quant_ = std::move(q);
}

void Linear::infer_q(const float* x, float* y, int rows, bool fuse_gelu,
                     bool parallel, const float* residual) const {
  const QuantState& q = quant();  // throws when not quantized
  // Grow-only per-thread staging for the quantized input; the GEMM consumes
  // it before returning, so one buffer per thread suffices even with the
  // pool splitting the row panels.
  static thread_local std::vector<std::uint8_t> qbuf;
  const std::size_t count = static_cast<std::size_t>(rows) * in_;
  if (qbuf.size() < count) qbuf.resize(count);
  tensor::kern::quantize_rows_u8(x, qbuf.data(), count, q.act_scale);

  tensor::kern::QuantGemmOpts opts;
  opts.bias = bias_.data().data();
  opts.gelu = fuse_gelu;
  opts.residual = residual;
  opts.parallel = parallel;
  tensor::kern::gemm_u8s8(qbuf.data(), static_cast<std::size_t>(in_), q.packed,
                          y, static_cast<std::size_t>(out_), rows, in_, out_,
                          q.dq_scale.data(), q.col_sum.data(), opts);
}

Tensor Linear::forward(const Tensor& x) const {
  // Flatten leading dims into rows for the 2-D matmul, then restore.
  tensor::Shape orig = x.shape();
  if (orig.back() != in_) {
    throw std::invalid_argument("Linear: expected last dim " +
                                std::to_string(in_));
  }
  const int rows = static_cast<int>(x.numel()) / in_;
  Tensor flat = x.reshape({rows, in_});
  Tensor y = tensor::add_broadcast(tensor::matmul(flat, weight_), bias_);
  tensor::Shape out_shape = orig;
  out_shape.back() = out_;
  return y.reshape(out_shape);
}

LayerNorm::LayerNorm(int dim) {
  gamma_ = register_param(Tensor::full({dim}, 1.0F));
  gamma_.node()->requires_grad = true;
  Tensor b({dim}, true);
  beta_ = register_param(b);
}

Tensor LayerNorm::forward(const Tensor& x) const {
  return tensor::layernorm(x, gamma_, beta_);
}

void LayerNorm::infer(const float* x, float* y, std::size_t rows,
                      bool parallel) const {
  tensor::kern::layernorm_rows(x, gamma_.data().data(), beta_.data().data(), y,
                               rows, gamma_.dim(0), 1e-5F, parallel);
}

}  // namespace easz::nn
