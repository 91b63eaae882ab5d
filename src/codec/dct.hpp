// 2-D type-II DCT / type-III inverse DCT for small square blocks.
//
// Shared by the JPEG-style (8x8) and BPG-style (variable block) codecs.
// The transform is separable — two small matrix multiplies against a
// precomputed orthonormal basis — and is executed as exactly that:
// dedicated fully-unrolled kernels for the hot 8x8 and 16x16 shapes
// (compiled twice, AVX2+FMA and baseline, dispatched at runtime like
// tensor::kern), and tensor::kern::gemm for every other size. Instances
// are immutable after construction and safe to share across threads.
#pragma once

#include <vector>

namespace easz::codec {

/// Orthonormal DCT operator for n x n blocks (n in [2, 64]).
class Dct2d {
 public:
  explicit Dct2d(int n);

  [[nodiscard]] int size() const { return n_; }

  /// In-place forward DCT of a row-major n*n block.
  void forward(float* block) const;

  /// In-place inverse DCT.
  void inverse(float* block) const;

 private:
  int n_;
  std::vector<float> basis_;    // basis_[k * n + x] = c_k cos(...)
  std::vector<float> basis_t_;  // transpose, so every product streams rows
};

}  // namespace easz::codec
