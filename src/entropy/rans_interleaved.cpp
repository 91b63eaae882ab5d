// Interleaved (4-lane, 32-bit state, 16-bit word renormalisation) rANS —
// the v2 stream format of entropy/rans.hpp.
//
// Why it is faster than the scalar v1 coder: a rANS decode step is one long
// dependency chain (mask -> slot lookup -> packed freq|cum load -> multiply
// -> renormalise), ~12-15 cycles that nothing can overlap. Four independent
// states give the out-of-order core four such chains to interleave, and the
// 16-bit word renormalisation needs at most ONE conditional word read per
// symbol (the v1 byte loop can iterate up to three times). The per-lane
// streams are stitched with explicit offsets in the payload header, so the
// decoder points one cursor at each lane; symbols are round-robin across
// lanes (symbol i -> lane i % 4), which keeps encode deterministic and lets
// the decoder emit in plain forward order.
//
// There is one decode kernel, the portable 4-lane one below. An AVX2 gather
// kernel, picked by a timed race at startup, was removed: in bench_codec it
// was within ~3% of this kernel in 5 of 6 runs and 14% slower in the sixth.
//
// State invariants (L = 2^16, b = 2^16, kProbBits = 14):
//   encode: x in [L, b*L) before each step; renormalise (emit one u16) when
//           x >= ((L >> kProbBits) << 16) * f = f << 18 — at most once.
//   decode: after the update x >= f * (L >> kProbBits) >= 4; one u16 read
//           restores x >= 2^16 = L — again at most once.
#include "entropy/rans.hpp"

#include <algorithm>
#include <stdexcept>

namespace easz::entropy {
namespace {

constexpr std::uint32_t kInterleavedLowerBound = 1U << 16U;  // L
constexpr std::size_t kLaneHeaderBytes =
    sizeof(std::uint32_t) * (kRansLanes - 1);

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v & 0xFFU);
  p[1] = static_cast<std::uint8_t>((v >> 8U) & 0xFFU);
  p[2] = static_cast<std::uint8_t>((v >> 16U) & 0xFFU);
  p[3] = static_cast<std::uint8_t>((v >> 24U) & 0xFFU);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8U) |
         (static_cast<std::uint32_t>(p[2]) << 16U) |
         (static_cast<std::uint32_t>(p[3]) << 24U);
}

struct LaneCursors {
  const std::uint8_t* pos[kRansLanes];
  const std::uint8_t* end[kRansLanes];
  std::uint32_t state[kRansLanes];
};

/// Parses the lane-offset header and each lane's initial state. Validates
/// offsets (monotone, in bounds) and per-lane room for the 4-byte state.
LaneCursors open_lanes(const std::uint8_t* data, std::size_t size) {
  if (size < kLaneHeaderBytes) {
    throw std::out_of_range("rans_decode_interleaved: buffer too small");
  }
  const std::uint8_t* body = data + kLaneHeaderBytes;
  const std::size_t body_size = size - kLaneHeaderBytes;
  std::size_t off[kRansLanes + 1];
  off[0] = 0;
  for (int l = 1; l < kRansLanes; ++l) {
    off[l] = get_u32(data + static_cast<std::size_t>(l - 1) * 4);
  }
  off[kRansLanes] = body_size;
  for (int l = 0; l < kRansLanes; ++l) {
    if (off[l + 1] < off[l] || off[l + 1] > body_size) {
      throw std::runtime_error("rans_decode_interleaved: corrupt lane offset");
    }
  }
  LaneCursors c;
  for (int l = 0; l < kRansLanes; ++l) {
    if (off[l + 1] - off[l] < 4) {
      throw std::out_of_range("rans_decode_interleaved: truncated lane");
    }
    c.pos[l] = body + off[l] + 4;
    c.end[l] = body + off[l + 1];
    c.state[l] = get_u32(body + off[l]);
  }
  return c;
}

/// Portable 4-lane kernel. `SlotT` is uint8_t (alphabet <= 256) or uint16_t.
///
/// The hot loop runs over CHUNKS whose length is pre-validated against every
/// lane's remaining bytes (a symbol consumes at most one u16 word), so the
/// inner body carries no bounds checks and no throw edges — lane states and
/// cursors live in registers — and the word renormalisation is a branchless
/// conditional move instead of a per-symbol mispredicting branch. The final
/// symbols (or a truly truncated stream) fall through to the checked loop.
template <typename SlotT>
void decode_lanes_scalar(LaneCursors& c, const SlotT* slot_sym,
                         const std::uint32_t* fc, std::size_t count,
                         int* out) {
  constexpr std::uint32_t kMask = FrequencyTable::kProbScale - 1U;
  std::uint32_t x0 = c.state[0], x1 = c.state[1], x2 = c.state[2],
                x3 = c.state[3];
  const std::uint8_t* p0 = c.pos[0];
  const std::uint8_t* p1 = c.pos[1];
  const std::uint8_t* p2 = c.pos[2];
  const std::uint8_t* p3 = c.pos[3];

  std::size_t i = 0;
  for (;;) {
    std::size_t safe = static_cast<std::size_t>(c.end[0] - p0) / 2;
    safe = std::min(safe, static_cast<std::size_t>(c.end[1] - p1) / 2);
    safe = std::min(safe, static_cast<std::size_t>(c.end[2] - p2) / 2);
    safe = std::min(safe, static_cast<std::size_t>(c.end[3] - p3) / 2);
    const std::size_t chunk = std::min(safe, (count - i) / kRansLanes);
    if (chunk == 0) break;
    for (std::size_t k = 0; k < chunk; ++k) {
      // Four independent dependency chains. The renormalisation is forced
      // branchless (mask blend, not a ternary — the compiler turns ternaries
      // back into branches, and a ~50% renorm rate makes that branch
      // unpredictable): the u16 word is loaded unconditionally — safe inside
      // the validated chunk — and blended in only when x dropped below L.
      const auto step = [&](std::uint32_t& x, const std::uint8_t*& p,
                            std::size_t lane) {
        const std::uint32_t slot = x & kMask;
        const std::uint32_t s = slot_sym[slot];
        const std::uint32_t v = fc[s];
        x = (v >> 16U) * (x >> FrequencyTable::kProbBits) + slot -
            (v & 0xFFFFU);
        const std::uint32_t w = static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8U);
        const std::uint32_t mask =
            0U - static_cast<std::uint32_t>(x < kInterleavedLowerBound);
        x ^= (x ^ ((x << 16U) | w)) & mask;
        p += mask & 2U;
#if defined(__GNUC__) || defined(__clang__)
        // x is now exactly the next iteration's state, so this lane's next
        // slot→sym load address is already known — prefetch it while the
        // other three lanes' chains execute. The 16KB u8 table misses L1
        // constantly on real symbol streams and the load heads the ~13-cycle
        // dependency chain, which is why this is the one prefetch that pays.
        // Pure hint: decoded bytes are identical with or without it.
        __builtin_prefetch(&slot_sym[x & kMask], 0, 3);
#endif
        out[i + lane] = static_cast<int>(s);
      };
      step(x0, p0, 0);
      step(x1, p1, 1);
      step(x2, p2, 2);
      step(x3, p3, 3);
      i += kRansLanes;
    }
  }

  c.state[0] = x0;
  c.state[1] = x1;
  c.state[2] = x2;
  c.state[3] = x3;
  c.pos[0] = p0;
  c.pos[1] = p1;
  c.pos[2] = p2;
  c.pos[3] = p3;

  // Checked tail: fewer than kRansLanes symbols left, or some lane is down
  // to its last bytes (a symbol that renormalises there must throw).
  for (; i < count; ++i) {
    const int l = static_cast<int>(i % kRansLanes);
    std::uint32_t x = c.state[l];
    const std::uint32_t slot = x & kMask;
    const std::uint32_t s = slot_sym[slot];
    const std::uint32_t v = fc[s];
    x = (v >> 16U) * (x >> FrequencyTable::kProbBits) + slot - (v & 0xFFFFU);
    if (x < kInterleavedLowerBound) {
      if (c.pos[l] + 2 > c.end[l]) {
        throw std::out_of_range("rans_decode_interleaved: truncated lane");
      }
      x = (x << 16U) |
          (static_cast<std::uint32_t>(c.pos[l][0]) |
           (static_cast<std::uint32_t>(c.pos[l][1]) << 8U));
      c.pos[l] += 2;
    }
    c.state[l] = x;
    out[i] = static_cast<int>(s);
  }
}

}  // namespace

std::vector<std::uint8_t> rans_encode_interleaved(
    const std::vector<int>& symbols, const FrequencyTable& table) {
  // Per-lane renormalisation words, recorded in encode order; the stream
  // stores them reversed (decode order).
  std::vector<std::uint16_t> words[kRansLanes];
  const std::size_t est_per_lane =
      static_cast<std::size_t>(table.entropy_bits() *
                               static_cast<double>(symbols.size()) /
                               (16.0 * kRansLanes)) +
      symbols.size() / (8 * kRansLanes) + 8;
  for (auto& w : words) w.reserve(est_per_lane);

  std::uint32_t x[kRansLanes];
  for (auto& s : x) s = kInterleavedLowerBound;

  // Encode in reverse; symbol i belongs to lane i % kRansLanes.
  for (std::size_t i = symbols.size(); i-- > 0;) {
    const int lane = static_cast<int>(i % kRansLanes);
    const int s = symbols[i];
    const std::uint32_t f = table.freq(s);
    if (f == 0) {
      throw std::invalid_argument("rans_encode_interleaved: zero-freq symbol");
    }
    // x_max = ((L >> kProbBits) << 16) * f = f << 18; compare in 64 bits
    // because f = 2^14 makes it exactly 2^32.
    const std::uint64_t x_max = static_cast<std::uint64_t>(f) << 18U;
    if (x[lane] >= x_max) {
      words[lane].push_back(static_cast<std::uint16_t>(x[lane] & 0xFFFFU));
      x[lane] >>= 16U;
    }
    x[lane] = ((x[lane] / f) << FrequencyTable::kProbBits) + (x[lane] % f) +
              table.cum_freq(s);
  }

  std::size_t lane_bytes[kRansLanes];
  std::size_t total = kLaneHeaderBytes;
  for (int l = 0; l < kRansLanes; ++l) {
    lane_bytes[l] = 4 + words[l].size() * 2;
    total += lane_bytes[l];
  }
  std::vector<std::uint8_t> out(total);
  std::size_t off = 0;
  std::uint8_t* body = out.data() + kLaneHeaderBytes;
  for (int l = 0; l < kRansLanes; ++l) {
    if (l > 0) {
      put_u32(out.data() + static_cast<std::size_t>(l - 1) * 4,
              static_cast<std::uint32_t>(off));
    }
    put_u32(body + off, x[l]);
    std::uint8_t* p = body + off + 4;
    for (auto it = words[l].rbegin(); it != words[l].rend(); ++it) {
      p[0] = static_cast<std::uint8_t>(*it & 0xFFU);
      p[1] = static_cast<std::uint8_t>((*it >> 8U) & 0xFFU);
      p += 2;
    }
    off += lane_bytes[l];
  }
  return out;
}

std::vector<int> rans_decode_interleaved(const std::uint8_t* data,
                                         std::size_t size, std::size_t count,
                                         const FrequencyTable& table) {
  LaneCursors c = open_lanes(data, size);
  if (count == 0) return {};
  table.ensure_lookup();
  std::vector<int> out(count);
  if (table.slot_sym8() != nullptr) {
    decode_lanes_scalar(c, table.slot_sym8(), table.sym_fc(), count,
                        out.data());
  } else {
    decode_lanes_scalar(c, table.slot_sym16(), table.sym_fc(), count,
                        out.data());
  }
  return out;
}

namespace detail {

std::vector<int> rans_decode_interleaved_scalar(const std::uint8_t* data,
                                                std::size_t size,
                                                std::size_t count,
                                                const FrequencyTable& table) {
  return rans_decode_interleaved(data, size, count, table);
}

bool rans_interleaved_avx2_available() { return false; }

}  // namespace detail

}  // namespace easz::entropy
