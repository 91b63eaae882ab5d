// Neural-network building blocks on top of the tensor library.
//
// Modules own their parameters (leaf tensors with requires_grad) and expose
// them via parameters() for the optimizer and the serializer. Construction
// takes the RNG so weight init is deterministic per seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/prng.hpp"

namespace easz::nn {

using tensor::Tensor;

/// Numeric path of a grad-free forward. kInt8 requires the module to have
/// been quantized (calibrate + build_quant / EAZQ sidecar); training always
/// runs fp32.
enum class Precision { kFp32, kInt8 };

/// "fp32" / "int8" — used by serve stats and flag parsing.
const char* precision_name(Precision p);

/// Calibration mode: while on, every Linear::infer records the absmax of
/// its input into observed_absmax(). Single-threaded by contract — run the
/// calibration forwards from one thread with no concurrent serving.
void set_calibration(bool on);
[[nodiscard]] bool calibration_active();

/// Base class: parameter registry.
class Module {
 public:
  virtual ~Module() = default;

  /// All learnable parameters, in a stable order (serialization relies on it).
  [[nodiscard]] std::vector<Tensor> parameters() const { return params_; }

  [[nodiscard]] std::size_t num_parameters() const {
    std::size_t n = 0;
    for (const Tensor& p : params_) n += p.numel();
    return n;
  }

  /// Serialized fp32 size — the "model size"/"load latency" quantity in the
  /// paper's Fig. 1 and Table I.
  [[nodiscard]] std::size_t model_bytes() const {
    return num_parameters() * sizeof(float);
  }

 protected:
  Tensor register_param(Tensor t) {
    params_.push_back(t);
    return t;
  }
  void absorb(const Module& child) {
    for (const Tensor& p : child.parameters()) params_.push_back(p);
  }

 private:
  std::vector<Tensor> params_;
};

/// Fully-connected layer: y = x W + b, x = [..., in], W = [in, out].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, util::Pcg32& rng);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// Grad-free fast path: y[rows, out] = x[rows, in] W + b over raw spans,
  /// reading the SAME parameter tensors as forward (a shared-weights view,
  /// nothing is duplicated). `fuse_gelu` applies GELU in the GEMM epilogue
  /// (the FFN's first projection); a non-null `residual` ([rows, out]) is
  /// added last, y = residual + (x W + b). Not safe concurrently with
  /// training.
  void infer(const float* x, float* y, int rows, bool fuse_gelu = false,
             bool parallel = true, const float* residual = nullptr) const;

  // ---- int8 path (DESIGN.md §7) ----

  /// Frozen int8 artefacts of one layer. w_q/w_scale/act_scale are the
  /// serialized truth (EAZQ sidecar); packed/col_sum/dq_scale are derived
  /// deterministically on install.
  struct QuantState {
    float act_scale = 1.0F;             ///< input u8 step (zero point 128)
    std::vector<float> w_scale;         ///< [out] per-output-channel steps
    std::vector<std::int8_t> w_q;       ///< [in, out] row-major
    std::vector<float> dq_scale;        ///< [out] act_scale * w_scale
    std::vector<std::int32_t> col_sum;  ///< [out] zero-point correction
    tensor::kern::PackedBInt8 packed;
  };

  [[nodiscard]] bool quantized() const { return quant_ != nullptr; }
  [[nodiscard]] const QuantState& quant() const;  ///< throws if !quantized()

  /// Input absmax recorded by infer() while calibration mode was on.
  [[nodiscard]] float observed_absmax() const { return observed_absmax_; }

  /// Forgets previous observations. Call before a fresh calibration pass:
  /// observations accumulate across passes by design (more samples widen
  /// the range), so RE-calibration against a new distribution must start
  /// from zero or it silently keeps the widest range ever seen.
  void reset_observed_absmax() { observed_absmax_ = 0.0F; }

  /// Quantizes the CURRENT weights per output channel (symmetric, +-127)
  /// and freezes `act_absmax` as the activation range. Deterministic:
  /// identical weights + absmax produce identical bytes on every machine.
  void build_quant(float act_absmax);

  /// Installs quantization parsed from an EAZQ sidecar (no calibration
  /// run needed). Throws on dimension mismatch or non-positive scales.
  void apply_quant(float act_scale, std::vector<float> w_scale,
                   std::vector<std::int8_t> w_q);

  /// Int8 fast path: statically-quantized input (u8, calibrated scale),
  /// exact-i32 GEMM, fused dequant + bias (+ GELU) epilogue back to fp32.
  /// Row results are row-local (static scales), so batch pooling is exact.
  /// `residual` as in infer(). Throws std::logic_error if not quantized.
  void infer_q(const float* x, float* y, int rows, bool fuse_gelu = false,
               bool parallel = true, const float* residual = nullptr) const;

  [[nodiscard]] int in_features() const { return in_; }
  [[nodiscard]] int out_features() const { return out_; }

 private:
  int in_;
  int out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out]
  std::unique_ptr<QuantState> quant_;
  mutable float observed_absmax_ = 0.0F;  // written only in calibration mode
};

/// LayerNorm with learnable affine parameters.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  [[nodiscard]] Tensor forward(const Tensor& x) const;

  /// Grad-free fast path over raw spans; y may alias x.
  void infer(const float* x, float* y, std::size_t rows,
             bool parallel = true) const;

  [[nodiscard]] int dim() const { return gamma_.dim(0); }

 private:
  Tensor gamma_;
  Tensor beta_;
};

}  // namespace easz::nn
