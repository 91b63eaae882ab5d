#include "codec/jpeg_like.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "codec/dct.hpp"
#include "entropy/bitstream.hpp"
#include "entropy/huffman.hpp"
#include "image/color.hpp"

namespace easz::codec {
namespace {

constexpr int kBlock = 8;
constexpr int kBlockArea = kBlock * kBlock;

// ITU-T T.81 Annex K reference quantisation tables.
constexpr std::array<int, kBlockArea> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, kBlockArea> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99,  //
    18, 21, 26, 66, 99, 99, 99, 99,  //
    24, 26, 56, 99, 99, 99, 99, 99,  //
    47, 66, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99,  //
    99, 99, 99, 99, 99, 99, 99, 99};

// Standard zigzag order for an 8x8 block.
constexpr std::array<int, kBlockArea> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// JPEG quality scaling (IJG convention).
std::array<int, kBlockArea> scaled_quant(const std::array<int, kBlockArea>& base,
                                         int quality) {
  const int q = std::clamp(quality, 1, 100);
  const int scale = q < 50 ? 5000 / q : 200 - 2 * q;
  std::array<int, kBlockArea> out{};
  for (int i = 0; i < kBlockArea; ++i) {
    out[i] = std::clamp((base[i] * scale + 50) / 100, 1, 255);
  }
  return out;
}

// Magnitude category (number of bits) for a coefficient value, as in JPEG.
int bit_size(int value) {
  int v = std::abs(value);
  int size = 0;
  while (v > 0) {
    v >>= 1;
    ++size;
  }
  return size;
}

// (run, size) alphabet: run in [0,15], size in [0,11] -> 16*12 symbols, plus
// EOB = (0,0) and ZRL = (15,0) are natural members.
constexpr int kAcAlphabet = 16 * 12;
constexpr int kDcAlphabet = 12;

struct PlaneSymbols {
  std::vector<int> dc_symbols;        // size categories
  std::vector<int> dc_amplitudes;     // raw values (sign-coded)
  std::vector<int> ac_symbols;        // run*12 + size
  std::vector<int> ac_amplitudes;
};

// Quantises one plane to (run,size)/amplitude symbols, one block at a time
// in raster order: level shift, forward DCT, quantise, then DC DPCM and AC
// run/size symbolisation of that block's levels.
PlaneSymbols encode_plane(const image::Image& plane,
                          const std::array<int, kBlockArea>& quant,
                          const Dct2d& dct) {
  PlaneSymbols out;
  const int w = plane.width();
  const int h = plane.height();
  const int blocks_x = (w + kBlock - 1) / kBlock;
  const int blocks_y = (h + kBlock - 1) / kBlock;
  const float* sp = plane.plane(0);
  std::array<float, kBlockArea> block;
  std::array<int, kBlockArea> q;
  int prev_dc = 0;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      for (int y = 0; y < kBlock; ++y) {
        const float* row =
            sp + static_cast<std::size_t>(std::min(by * kBlock + y, h - 1)) * w;
        for (int x = 0; x < kBlock; ++x) {
          // Level shift to [-128, 127] like JPEG.
          block[y * kBlock + x] =
              row[std::min(bx * kBlock + x, w - 1)] * 255.0F - 128.0F;
        }
      }
      dct.forward(block.data());
      // The orthonormal DCT already yields JPEG's coefficient scale
      // (DC in [-1024, 1016] for level-shifted 8-bit input).
      for (int i = 0; i < kBlockArea; ++i) {
        const float coeff = block[i] / static_cast<float>(quant[i]);
        q[i] = static_cast<int>(std::lround(coeff));
      }

      const int dc_diff = q[0] - prev_dc;
      prev_dc = q[0];
      out.dc_symbols.push_back(bit_size(dc_diff));
      out.dc_amplitudes.push_back(dc_diff);

      int run = 0;
      for (int i = 1; i < kBlockArea; ++i) {
        const int v = q[kZigzag[i]];
        if (v == 0) {
          ++run;
          continue;
        }
        while (run > 15) {
          out.ac_symbols.push_back(15 * 12 + 0);  // ZRL
          out.ac_amplitudes.push_back(0);
          run -= 16;
        }
        const int size = bit_size(v);
        out.ac_symbols.push_back(run * 12 + size);
        out.ac_amplitudes.push_back(v);
        run = 0;
      }
      out.ac_symbols.push_back(0);  // EOB = (0,0)
      out.ac_amplitudes.push_back(0);
    }
  }
  return out;
}

void write_amplitude(entropy::BitWriter& bw, int value, int size) {
  if (size == 0) return;
  // JPEG convention: negative values stored as value - 1 in `size` bits.
  const int coded = value >= 0 ? value : value + (1 << size) - 1;
  bw.write_bits(static_cast<std::uint32_t>(coded), size);
}

int read_amplitude(entropy::BitReader& br, int size) {
  if (size == 0) return 0;
  const int coded = static_cast<int>(br.read_bits(size));
  if (coded < (1 << (size - 1))) return coded - (1 << size) + 1;
  return coded;
}

// Decodes one plane block by block in raster order: entropy-decode the
// block's coefficients (the Huffman bitstream and the DC DPCM chain are
// serial anyway), then dequantise, inverse DCT and store its pixels.
image::Image decode_plane(entropy::BitReader& br, int width, int height,
                          const std::array<int, kBlockArea>& quant,
                          const Dct2d& dct,
                          const entropy::HuffmanCode& dc_code,
                          const entropy::HuffmanCode& ac_code) {
  image::Image plane(width, height, 1);
  const int blocks_x = (width + kBlock - 1) / kBlock;
  const int blocks_y = (height + kBlock - 1) / kBlock;

  float* pp = plane.plane(0);
  std::array<int, kBlockArea> q;
  std::array<float, kBlockArea> block;
  int prev_dc = 0;
  for (int by = 0; by < blocks_y; ++by) {
    for (int bx = 0; bx < blocks_x; ++bx) {
      q.fill(0);
      const int dc_size = dc_code.decode_symbol(br);
      const int dc_diff = read_amplitude(br, dc_size);
      prev_dc += dc_diff;
      q[0] = prev_dc;

      // The encoder terminates every block with an EOB, even full ones, so
      // read until EOB unconditionally to stay in sync.
      int i = 1;
      for (;;) {
        const int sym = ac_code.decode_symbol(br);
        const int run = sym / 12;
        const int size = sym % 12;
        if (run == 0 && size == 0) break;  // EOB
        if (run == 15 && size == 0) {      // ZRL
          i += 16;
          continue;
        }
        i += run;
        if (i >= kBlockArea) throw std::runtime_error("jpeg: AC overrun");
        q[kZigzag[i]] = read_amplitude(br, size);
        ++i;
      }

      for (int k = 0; k < kBlockArea; ++k) {
        block[k] = static_cast<float>(q[k]) * static_cast<float>(quant[k]);
      }
      dct.inverse(block.data());
      const int ph = std::min(kBlock, height - by * kBlock);
      const int pw = std::min(kBlock, width - bx * kBlock);
      for (int y = 0; y < ph; ++y) {
        float* row = pp + static_cast<std::size_t>(by * kBlock + y) * width +
                     bx * kBlock;
        const float* bl = block.data() + y * kBlock;
        for (int x = 0; x < pw; ++x) {
          row[x] = std::clamp((bl[x] + 128.0F) / 255.0F, 0.0F, 1.0F);
        }
      }
    }
  }
  return plane;
}

}  // namespace

JpegLikeCodec::JpegLikeCodec(int quality) : quality_(std::clamp(quality, 1, 100)) {}

void JpegLikeCodec::set_quality(int quality) {
  quality_ = std::clamp(quality, 1, 100);
}

Compressed JpegLikeCodec::encode(const image::Image& img) const {
  if (img.empty()) throw std::invalid_argument("jpeg: empty image");
  const bool color = img.channels() == 3;
  const image::Image ycbcr = color ? image::rgb_to_ycbcr(img) : img;

  const auto luma_q = scaled_quant(kLumaQuant, quality_);
  const auto chroma_q = scaled_quant(kChromaQuant, quality_);
  const Dct2d dct(kBlock);

  // Collect plane symbol streams: Y at full resolution, Cb/Cr at 4:2:0.
  std::vector<PlaneSymbols> planes;
  planes.push_back(encode_plane(ycbcr.channel(0), luma_q, dct));
  if (color) {
    planes.push_back(
        encode_plane(image::downsample2x(ycbcr.channel(1)), chroma_q, dct));
    planes.push_back(
        encode_plane(image::downsample2x(ycbcr.channel(2)), chroma_q, dct));
  }

  // Global Huffman tables over all planes (one DC + one AC table).
  std::vector<std::uint64_t> dc_freq(kDcAlphabet, 0);
  std::vector<std::uint64_t> ac_freq(kAcAlphabet, 0);
  for (const auto& p : planes) {
    for (const int s : p.dc_symbols) ++dc_freq[s];
    for (const int s : p.ac_symbols) ++ac_freq[s];
  }
  // Guarantee decodability of headers even for degenerate content.
  dc_freq[0] += 1;
  ac_freq[0] += 1;
  const auto dc_code = entropy::HuffmanCode::from_frequencies(dc_freq);
  const auto ac_code = entropy::HuffmanCode::from_frequencies(ac_freq);

  entropy::BitWriter bw;
  bw.write_bits(static_cast<std::uint32_t>(img.width()), 16);
  bw.write_bits(static_cast<std::uint32_t>(img.height()), 16);
  bw.write_bits(color ? 1U : 0U, 1);
  bw.write_bits(static_cast<std::uint32_t>(quality_), 7);
  dc_code.write_lengths(bw);
  ac_code.write_lengths(bw);

  for (const auto& p : planes) {
    for (std::size_t b = 0, ai = 0; b < p.dc_symbols.size(); ++b) {
      dc_code.encode_symbol(bw, p.dc_symbols[b]);
      write_amplitude(bw, p.dc_amplitudes[b], p.dc_symbols[b]);
      // Emit this block's AC symbols until (and including) its EOB.
      for (;;) {
        const int sym = p.ac_symbols[ai];
        const int amp = p.ac_amplitudes[ai];
        ++ai;
        ac_code.encode_symbol(bw, sym);
        write_amplitude(bw, amp, sym % 12);
        if (sym == 0) break;  // EOB terminates the block
      }
    }
  }

  Compressed out;
  out.bytes = bw.finish();
  out.width = img.width();
  out.height = img.height();
  out.channels = img.channels();
  return out;
}

image::Image JpegLikeCodec::decode(const Compressed& c) const {
  entropy::BitReader br(c.bytes);
  const int width = static_cast<int>(br.read_bits(16));
  const int height = static_cast<int>(br.read_bits(16));
  const bool color = br.read_bit();
  const int q = static_cast<int>(br.read_bits(7));

  const auto luma_q = scaled_quant(kLumaQuant, q);
  const auto chroma_q = scaled_quant(kChromaQuant, q);
  const Dct2d dct(kBlock);
  const auto dc_code = entropy::HuffmanCode::read_lengths(br, kDcAlphabet);
  const auto ac_code = entropy::HuffmanCode::read_lengths(br, kAcAlphabet);

  const image::Image y =
      decode_plane(br, width, height, luma_q, dct, dc_code, ac_code);
  if (!color) return y;

  const int cw = (width + 1) / 2;
  const int ch = (height + 1) / 2;
  const image::Image cb =
      decode_plane(br, cw, ch, chroma_q, dct, dc_code, ac_code);
  const image::Image cr =
      decode_plane(br, cw, ch, chroma_q, dct, dc_code, ac_code);

  image::Image ycbcr(width, height, 3);
  std::copy_n(y.plane(0), y.pixel_count(), ycbcr.plane(0));
  const image::Image cb_up = image::upsample2x(cb, width, height);
  const image::Image cr_up = image::upsample2x(cr, width, height);
  std::copy_n(cb_up.plane(0), cb_up.pixel_count(), ycbcr.plane(1));
  std::copy_n(cr_up.plane(0), cr_up.pixel_count(), ycbcr.plane(2));
  return image::ycbcr_to_rgb(ycbcr);
}

double JpegLikeCodec::encode_flops(int width, int height) const {
  // Per pixel: color convert (~10), DCT (2 * 8 muls per output sample * 2
  // passes ~ 32), quantise (~2), entropy (~5). ~50 flops/pixel * 1.5 for
  // chroma at 4:2:0.
  return 75.0 * width * height;
}

double JpegLikeCodec::decode_flops(int width, int height) const {
  return 75.0 * width * height;
}

}  // namespace easz::codec
