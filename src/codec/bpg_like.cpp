#include "codec/bpg_like.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "codec/dct.hpp"
#include "entropy/bitstream.hpp"
#include "entropy/rans.hpp"
#include "image/color.hpp"

namespace easz::codec {
namespace {

constexpr int kLumaBlock = 16;
constexpr int kChromaBlock = 8;
constexpr int kMaxBlock = kLumaBlock;

// v2 container magic. v1 streams (no magic) start with the u32 LE image
// width, whose fourth byte is nonzero only for widths >= 2^24 — unencodable
// in practice — so the prefix is an unambiguous version sniff.
constexpr std::uint8_t kMagicV2[4] = {'E', 'Z', 'B', '2'};

enum class IntraMode : int {
  kDc = 0,
  kPlanar = 1,
  kHorizontal = 2,
  kVertical = 3,
  kDiagDown = 4,   // 45 deg, top-left to bottom-right
  kDiagUp = 5,     // 45 deg, bottom-left to top-right
  kCount = 6,
};

// Quantisation step from the quality knob: quality 1 -> very coarse,
// quality 100 -> near-lossless. Exponential like HEVC's QP-to-step mapping.
float quant_step(int quality) {
  const float qp = 51.0F * (1.0F - static_cast<float>(quality - 1) / 99.0F);
  return 0.15F * std::pow(2.0F, qp / 6.0F);
}

// Reference samples for a block at (x0, y0): decoded row above and column
// left (replicated at image borders; 0.5 when nothing is decoded yet).
struct RefSamples {
  std::array<float, kMaxBlock> top;   // x0..x0+n-1 at row y0-1
  std::array<float, kMaxBlock> left;  // y0..y0+n-1 at col x0-1
  float corner = 0.5F;
};

RefSamples gather_refs(const image::Image& decoded, int x0, int y0, int n) {
  RefSamples r;
  const int w = decoded.width();
  const int h = decoded.height();
  const bool has_top = y0 > 0;
  const bool has_left = x0 > 0;
  const float* plane = decoded.plane(0);
  if (has_top) {
    const float* row = plane + static_cast<std::size_t>(y0 - 1) * w;
    for (int x = 0; x < n; ++x) r.top[x] = row[std::min(x0 + x, w - 1)];
  } else {
    const float v = has_left ? plane[static_cast<std::size_t>(y0) * w + x0 - 1]
                             : 0.5F;
    for (int x = 0; x < n; ++x) r.top[x] = v;
  }
  if (has_left) {
    for (int y = 0; y < n; ++y) {
      r.left[y] =
          plane[static_cast<std::size_t>(std::min(y0 + y, h - 1)) * w + x0 - 1];
    }
  } else {
    const float v = has_top ? plane[static_cast<std::size_t>(y0 - 1) * w + x0]
                            : 0.5F;
    for (int y = 0; y < n; ++y) r.left[y] = v;
  }
  r.corner = (has_top && has_left)
                 ? plane[static_cast<std::size_t>(y0 - 1) * w + x0 - 1]
             : has_top  ? r.top[0]
             : has_left ? r.left[0]
                        : 0.5F;
  return r;
}

void predict(const RefSamples& r, IntraMode mode, int n, float* pred) {
  switch (mode) {
    case IntraMode::kDc: {
      float sum = 0.0F;
      for (int i = 0; i < n; ++i) sum += r.top[i] + r.left[i];
      const float dc = sum / static_cast<float>(2 * n);
      std::fill_n(pred, n * n, dc);
      break;
    }
    case IntraMode::kPlanar: {
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          const float h = (static_cast<float>(n - 1 - x) * r.left[y] +
                           static_cast<float>(x + 1) * r.top[n - 1]);
          const float v = (static_cast<float>(n - 1 - y) * r.top[x] +
                           static_cast<float>(y + 1) * r.left[n - 1]);
          pred[y * n + x] = (h + v) / static_cast<float>(2 * n);
        }
      }
      break;
    }
    case IntraMode::kHorizontal:
      for (int y = 0; y < n; ++y) std::fill_n(pred + y * n, n, r.left[y]);
      break;
    case IntraMode::kVertical:
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) pred[y * n + x] = r.top[x];
      }
      break;
    case IntraMode::kDiagDown:
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          const int d = x - y;
          pred[y * n + x] = d > 0   ? r.top[d - 1]
                            : d < 0 ? r.left[-d - 1]
                                    : r.corner;
        }
      }
      break;
    case IntraMode::kDiagUp:
      for (int y = 0; y < n; ++y) {
        for (int x = 0; x < n; ++x) {
          const int s = x + y + 1;
          pred[y * n + x] = s < n ? r.top[s] : r.left[std::min(2 * n - 1 - s, n - 1)];
        }
      }
      break;
    default:
      throw std::logic_error("bpg: bad intra mode");
  }
}

// Zigzag order for an n x n block, generated on the fly.
std::vector<int> zigzag_order(int n) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n) * n);
  for (int s = 0; s < 2 * n - 1; ++s) {
    if (s % 2 == 0) {
      for (int y = std::min(s, n - 1); y >= std::max(0, s - n + 1); --y) {
        order.push_back(y * n + (s - y));
      }
    } else {
      for (int x = std::min(s, n - 1); x >= std::max(0, s - n + 1); --x) {
        order.push_back((s - x) * n + x);
      }
    }
  }
  return order;
}

// Symbol mapping for quantised coefficients:
//   0..192   level in [-96, 96] (biased by 96)
//   193..252 run of 1..60 zero coefficients
//   253      EOB: all remaining zigzag coefficients in the block are zero
//   254      escape: level outside [-96, 96], raw value in a side channel
// Zero runs and the EOB token carry most of the compression on smooth 16x16
// blocks, mirroring HEVC's significance/last-position coding.
constexpr int kCoeffAlphabet = 255;
constexpr int kLevelBias = 96;
constexpr int kZeroRunBase = 193;
constexpr int kMaxZeroRun = 60;
constexpr int kEob = 253;
constexpr int kEscape = 254;

struct PlaneCode {
  std::vector<int> symbols;        // coefficient symbols, zigzag order
  std::vector<int> modes;          // one intra mode per block
  std::vector<std::int32_t> escapes;  // raw values for escape symbols
};

// Writes a reconstructed block (prediction + dequantised residual) into the
// decoded plane, clipped at the right/bottom image border. Encoder and
// decoder share it so their reconstructions stay bit-identical.
void store_block(image::Image& decoded, const float* pred, const float* resid,
                 int x0, int y0, int block) {
  const int w = decoded.width();
  const int ph = std::min(block, decoded.height() - y0);
  const int pw = std::min(block, w - x0);
  float* dp = decoded.plane(0);
  for (int y = 0; y < ph; ++y) {
    float* row = dp + static_cast<std::size_t>(y0 + y) * w + x0;
    const float* pr = pred + y * block;
    const float* rs = resid + y * block;
    for (int x = 0; x < pw; ++x) {
      row[x] = std::clamp(pr[x] + rs[x] * (1.0F / 255.0F), 0.0F, 1.0F);
    }
  }
}

// Encodes one plane with intra prediction against its own decoded state,
// mirroring what the decoder will do. Blocks run in raster order, so every
// block's N / W / NW neighbours (the only blocks intra prediction reads) are
// reconstructed before it, and symbols land in the stream in block order.
PlaneCode code_plane(const image::Image& plane, int block, float step) {
  const int w = plane.width();
  const int h = plane.height();
  const int bx_count = (w + block - 1) / block;
  const int by_count = (h + block - 1) / block;
  const Dct2d dct(block);
  const std::vector<int> zig = zigzag_order(block);

  image::Image decoded(w, h, 1);
  PlaneCode out;
  out.modes.reserve(static_cast<std::size_t>(bx_count) * by_count);
  float src[kMaxBlock * kMaxBlock];
  float pred[kMaxBlock * kMaxBlock];
  float resid[kMaxBlock * kMaxBlock];
  std::array<int, kMaxBlock * kMaxBlock> levels;

  for (int by = 0; by < by_count; ++by) {
    for (int bx = 0; bx < bx_count; ++bx) {
      const int x0 = bx * block;
      const int y0 = by * block;

      // Source block once, border-replicated — the mode search below then
      // runs over flat arrays instead of per-pixel clamped accessors.
      const float* sp = plane.plane(0);
      for (int y = 0; y < block; ++y) {
        const float* row =
            sp + static_cast<std::size_t>(std::min(y0 + y, h - 1)) * w;
        for (int x = 0; x < block; ++x) {
          src[y * block + x] = row[std::min(x0 + x, w - 1)];
        }
      }

      const RefSamples refs = gather_refs(decoded, x0, y0, block);

      // Mode decision: minimum residual energy (cheap SAD-style search).
      int best_mode = 0;
      float best_cost = std::numeric_limits<float>::max();
      for (int m = 0; m < static_cast<int>(IntraMode::kCount); ++m) {
        predict(refs, static_cast<IntraMode>(m), block, pred);
        float cost = 0.0F;
        for (int i = 0; i < block * block; ++i) {
          const float v = src[i] - pred[i];
          cost += v * v;
        }
        if (cost < best_cost) {
          best_cost = cost;
          best_mode = m;
        }
      }
      out.modes.push_back(best_mode);
      predict(refs, static_cast<IntraMode>(best_mode), block, pred);

      for (int i = 0; i < block * block; ++i) {
        resid[i] = (src[i] - pred[i]) * 255.0F;
      }
      dct.forward(resid);

      // Quantise, emit symbols up to the last nonzero (EOB-terminated),
      // dequantise into the reconstruction.
      int last_nonzero = -1;
      for (std::size_t zi = 0; zi < zig.size(); ++zi) {
        const int idx = zig[zi];
        // Dead-zone quantiser (intra rounding offset ~1/3, as in HEVC):
        // coefficients below ~2/3 of a step collapse to zero, trading a
        // tiny MSE increase for a large rate saving.
        const float a = resid[idx] / step;
        const int q = a >= 0.0F ? static_cast<int>(a + 0.3333F)
                                : -static_cast<int>(-a + 0.3333F);
        levels[zi] = q;
        if (q != 0) last_nonzero = static_cast<int>(zi);
        resid[idx] = static_cast<float>(q) * step;
      }
      int zero_run = 0;
      for (int zi = 0; zi <= last_nonzero; ++zi) {
        const int q = levels[zi];
        if (q == 0) {
          ++zero_run;
          continue;
        }
        while (zero_run > 0) {
          const int chunk = std::min(zero_run, kMaxZeroRun);
          out.symbols.push_back(kZeroRunBase + chunk - 1);
          zero_run -= chunk;
        }
        if (q >= -kLevelBias && q <= kLevelBias) {
          out.symbols.push_back(q + kLevelBias);
        } else {
          out.symbols.push_back(kEscape);
          out.escapes.push_back(q);
        }
      }
      out.symbols.push_back(kEob);

      dct.inverse(resid);
      store_block(decoded, pred, resid, x0, y0, block);
    }
  }
  return out;
}

// Decodes one plane in raster block order, validating each block's tokens
// as it reads them: a stream that runs out of symbols, places a level past
// the block's last coefficient or runs out of escapes throws.
image::Image decode_plane(const int* symbols, std::size_t symbol_count,
                          const std::vector<int>& modes,
                          const std::vector<std::int32_t>& escapes, int w,
                          int h, int block, float step) {
  const int bx_count = (w + block - 1) / block;
  const int by_count = (h + block - 1) / block;
  const std::size_t block_count =
      static_cast<std::size_t>(bx_count) * by_count;
  if (modes.size() != block_count) {
    throw std::runtime_error("bpg: mode count mismatch");
  }
  for (const int m : modes) {
    if (m < 0 || m >= static_cast<int>(IntraMode::kCount)) {
      throw std::runtime_error("bpg: bad intra mode");
    }
  }
  const Dct2d dct(block);
  const std::vector<int> zig = zigzag_order(block);

  image::Image decoded(w, h, 1);
  float pred[kMaxBlock * kMaxBlock];
  float resid[kMaxBlock * kMaxBlock];
  std::size_t pos = 0;
  std::size_t esc = 0;
  for (int by = 0; by < by_count; ++by) {
    for (int bx = 0; bx < bx_count; ++bx) {
      const int x0 = bx * block;
      const int y0 = by * block;
      const std::size_t bi = static_cast<std::size_t>(by) * bx_count + bx;

      const RefSamples refs = gather_refs(decoded, x0, y0, block);
      predict(refs, static_cast<IntraMode>(modes[bi]), block, pred);

      std::fill_n(resid, block * block, 0.0F);
      std::size_t zi = 0;
      for (;;) {
        if (pos >= symbol_count) {
          throw std::runtime_error("bpg: symbol stream underrun");
        }
        const int sym = symbols[pos++];
        if (sym == kEob) break;
        if (sym >= kZeroRunBase && sym < kZeroRunBase + kMaxZeroRun) {
          zi += static_cast<std::size_t>(sym - kZeroRunBase + 1);
          continue;
        }
        if (zi >= zig.size()) throw std::runtime_error("bpg: coeff overrun");
        int q = sym - kLevelBias;
        if (sym == kEscape) {
          if (esc >= escapes.size()) {
            throw std::runtime_error("bpg: escape stream underrun");
          }
          q = escapes[esc++];
        }
        resid[zig[zi++]] = static_cast<float>(q) * step;
      }
      dct.inverse(resid);
      store_block(decoded, pred, resid, x0, y0, block);
    }
  }
  return decoded;
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFU));
  }
}

std::uint32_t read_u32(const std::uint8_t* data, std::size_t size,
                       std::size_t& pos) {
  if (pos + 4 > size) throw std::out_of_range("bpg: truncated header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
  }
  return v;
}

}  // namespace

BpgLikeCodec::BpgLikeCodec(int quality) : quality_(std::clamp(quality, 1, 100)) {}

void BpgLikeCodec::set_quality(int quality) {
  quality_ = std::clamp(quality, 1, 100);
}

Compressed BpgLikeCodec::encode(const image::Image& img) const {
  if (img.empty()) throw std::invalid_argument("bpg: empty image");
  const bool color = img.channels() == 3;
  const image::Image ycbcr = color ? image::rgb_to_ycbcr(img) : img;
  const float step = quant_step(quality_);

  std::vector<PlaneCode> planes;
  planes.push_back(code_plane(ycbcr.channel(0), kLumaBlock, step));
  if (color) {
    planes.push_back(code_plane(image::downsample2x(ycbcr.channel(1)),
                                kChromaBlock, step * 1.2F));
    planes.push_back(code_plane(image::downsample2x(ycbcr.channel(2)),
                                kChromaBlock, step * 1.2F));
  }

  // v2 container: magic, header, per-plane side info (modes, escapes,
  // symbol count), then ONE interleaved rANS stream over the concatenated
  // coefficient symbols of all planes — a single shared frequency table
  // keeps the fixed overhead small at low rates.
  std::vector<std::uint8_t> bytes(kMagicV2, kMagicV2 + 4);
  append_u32(bytes, static_cast<std::uint32_t>(img.width()));
  append_u32(bytes, static_cast<std::uint32_t>(img.height()));
  bytes.push_back(color ? 1 : 0);
  bytes.push_back(static_cast<std::uint8_t>(quality_));

  std::vector<int> all_symbols;
  for (const auto& p : planes) {
    append_u32(bytes, static_cast<std::uint32_t>(p.modes.size()));
    // Modes packed 3 bits each (6 modes fit).
    {
      entropy::BitWriter mode_bits;
      for (const int m : p.modes) {
        mode_bits.write_bits(static_cast<std::uint32_t>(m), 3);
      }
      const auto packed = mode_bits.finish();
      bytes.insert(bytes.end(), packed.begin(), packed.end());
    }
    append_u32(bytes, static_cast<std::uint32_t>(p.escapes.size()));
    for (const std::int32_t e : p.escapes) {
      append_u32(bytes, static_cast<std::uint32_t>(e));
    }
    append_u32(bytes, static_cast<std::uint32_t>(p.symbols.size()));
    all_symbols.insert(all_symbols.end(), p.symbols.begin(), p.symbols.end());
  }
  const std::vector<std::uint8_t> payload =
      entropy::rans_encode_interleaved_with_table(all_symbols, kCoeffAlphabet);
  append_u32(bytes, static_cast<std::uint32_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  Compressed out;
  out.bytes = std::move(bytes);
  out.width = img.width();
  out.height = img.height();
  out.channels = img.channels();
  return out;
}

image::Image BpgLikeCodec::decode(const Compressed& c) const {
  const auto* data = c.bytes.data();
  const std::size_t size = c.bytes.size();
  // Version sniff: v2 containers start with the magic; v1 containers start
  // with the u32 width whose high byte is always zero for encodable sizes.
  const bool v2 = size >= 4 && std::memcmp(data, kMagicV2, 4) == 0;
  std::size_t pos = v2 ? 4 : 0;

  const auto width_u = read_u32(data, size, pos);
  const auto height_u = read_u32(data, size, pos);
  // Geometry sanity BEFORE any count-driven allocation: every later header
  // count is cross-checked against block counts derived from it, so a
  // bit-flipped count cannot demand a multi-gigabyte resize (a corrupt
  // upload on a serve host must cost an exception, not an OOM spike).
  if (width_u == 0 || height_u == 0 || width_u > 65535 || height_u > 65535) {
    throw std::runtime_error("bpg: implausible geometry");
  }
  const int width = static_cast<int>(width_u);
  const int height = static_cast<int>(height_u);
  if (pos + 2 > size) throw std::out_of_range("bpg: truncated header");
  const bool color = data[pos++] != 0;
  const int q = data[pos++];
  const float step = quant_step(q);

  struct PlaneSideInfo {
    std::vector<int> modes;
    std::vector<std::int32_t> escapes;
    std::size_t symbol_count = 0;
  };
  const int plane_count = color ? 3 : 1;
  const auto blocks_of = [](int dim, int block) {
    return static_cast<std::size_t>((dim + block - 1) / block);
  };
  const int cw = (width + 1) / 2;
  const int ch = (height + 1) / 2;
  std::vector<PlaneSideInfo> sides(plane_count);
  std::size_t total_symbols = 0;
  for (int p = 0; p < plane_count; ++p) {
    PlaneSideInfo& side = sides[p];
    const int block = p == 0 ? kLumaBlock : kChromaBlock;
    const std::size_t expected_blocks =
        p == 0 ? blocks_of(width, block) * blocks_of(height, block)
               : blocks_of(cw, block) * blocks_of(ch, block);
    const auto mode_count = read_u32(data, size, pos);
    if (mode_count != expected_blocks) {
      throw std::runtime_error("bpg: mode count does not match geometry");
    }
    side.modes.resize(mode_count);
    {
      const std::size_t packed_len =
          (static_cast<std::size_t>(mode_count) * 3 + 7) / 8;
      if (pos + packed_len > size) {
        throw std::out_of_range("bpg: truncated modes");
      }
      entropy::BitReader mode_bits(data + pos, packed_len);
      for (auto& m : side.modes) m = static_cast<int>(mode_bits.read_bits(3));
      pos += packed_len;
    }
    const auto escape_count = read_u32(data, size, pos);
    if (pos + static_cast<std::size_t>(escape_count) * 4 > size) {
      throw std::out_of_range("bpg: truncated escapes");
    }
    side.escapes.resize(escape_count);
    for (auto& e : side.escapes) {
      e = static_cast<std::int32_t>(read_u32(data, size, pos));
    }
    side.symbol_count = read_u32(data, size, pos);
    // Worst-case stream for a block: every coefficient a level symbol plus
    // interleaved maximal runs, then EOB — bounded by 2*n^2 + 1.
    const std::size_t coeffs = static_cast<std::size_t>(block) * block;
    if (side.symbol_count > expected_blocks * (2 * coeffs + 1)) {
      throw std::runtime_error("bpg: implausible symbol count");
    }
    total_symbols += side.symbol_count;
  }
  const auto payload_size = read_u32(data, size, pos);
  if (pos + payload_size > size) {
    throw std::out_of_range("bpg: truncated payload");
  }
  // v1 payloads decode through the scalar single-state path — bit-exact
  // with every stream ever written; v2 payloads ride the interleaved lanes.
  const std::vector<int> all_symbols =
      v2 ? entropy::rans_decode_interleaved_with_table(data + pos, payload_size,
                                                       total_symbols)
         : entropy::rans_decode_with_table(data + pos, payload_size,
                                           total_symbols);
  pos += payload_size;

  std::size_t sym_offset = 0;
  const auto read_plane = [&](const PlaneSideInfo& side, int w, int h,
                              int block, float plane_step) -> image::Image {
    const int* sym = all_symbols.data() + sym_offset;
    sym_offset += side.symbol_count;
    return decode_plane(sym, side.symbol_count, side.modes, side.escapes, w, h,
                        block, plane_step);
  };

  const image::Image y = read_plane(sides[0], width, height, kLumaBlock, step);
  if (!color) return y;

  const image::Image cb = read_plane(sides[1], cw, ch, kChromaBlock, step * 1.2F);
  const image::Image cr = read_plane(sides[2], cw, ch, kChromaBlock, step * 1.2F);

  image::Image ycbcr(width, height, 3);
  std::copy_n(y.plane(0), y.pixel_count(), ycbcr.plane(0));
  const image::Image cb_up = image::upsample2x(cb, width, height);
  const image::Image cr_up = image::upsample2x(cr, width, height);
  std::copy_n(cb_up.plane(0), cb_up.pixel_count(), ycbcr.plane(1));
  std::copy_n(cr_up.plane(0), cr_up.pixel_count(), ycbcr.plane(2));
  return image::ycbcr_to_rgb(ycbcr);
}

double BpgLikeCodec::encode_flops(int width, int height) const {
  // Mode search over 6 predictors plus a 16x16 DCT per block: ~40x the
  // arithmetic of the JPEG path per pixel, matching BPG's slower encode.
  return 400.0 * width * height;
}

double BpgLikeCodec::decode_flops(int width, int height) const {
  return 150.0 * width * height;
}

}  // namespace easz::codec
