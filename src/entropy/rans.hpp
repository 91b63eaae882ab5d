// Range asymmetric numeral system (rANS) coders with static per-buffer
// frequency tables.
//
// This is the entropy-coding workhorse for the BPG-style codec and the
// neural codecs' latent bottleneck: callers build a FrequencyTable over the
// symbols they are about to emit (two-pass), serialise the table, then code.
// Symbols are encoded in reverse and decoded forward, the usual rANS trick.
//
// Two stream formats share one table format:
//
//  * scalar v1 (`rans_encode` / `rans_decode`): one 32-bit state,
//    byte-at-a-time renormalisation. Every pre-existing bitstream in the
//    wild is v1; the decoder is kept bit-exact forever.
//  * interleaved v2 (`rans_encode_interleaved` / `rans_decode_interleaved`):
//    kRansLanes (4) independent 32-bit states, 16-bit word renormalisation,
//    symbol i owned by lane i % 4. Each lane is its own byte stream; the
//    payload header carries explicit lane offsets so the decoder can point
//    one cursor at each lane and run all four dependency chains in
//    parallel on one portable kernel. The encoder is deterministic, so v2
//    streams are byte-stable across machines.
//
// Decode-side lookup is a cache-compact packed layout built lazily on first
// decode (encode-only tables never pay for it): a slot->symbol table with
// one byte per slot (16 KB for the 14-bit probability space; two bytes when
// the alphabet exceeds 256) plus one packed `freq << 16 | cum` uint32 per
// symbol (1 KB at alphabet 256). One load into the 16 KB table + one load
// into the L1-resident packed array replaces the seed's 32 KB uint16 walk
// followed by two more indexed reads. (symbol, freq, cum) per slot cannot
// fit a single uint32 at 14-bit precision — 8 + 14 + 14 = 36 bits — so the
// per-symbol fc array is the compact remainder.
#pragma once

#include <cstdint>
#include <vector>

namespace easz::entropy {

/// Normalised cumulative frequency table over `alphabet_size` symbols.
/// Total probability mass is 2^kProbBits. Every symbol that will be encoded
/// must have non-zero frequency; normalisation guarantees a floor of 1 for
/// observed symbols.
class FrequencyTable {
 public:
  static constexpr int kProbBits = 14;
  static constexpr std::uint32_t kProbScale = 1U << kProbBits;

  /// Builds from raw counts. Symbols with zero count receive zero mass unless
  /// `laplace_floor` is set, which gives every symbol at least one slot
  /// (needed when the decoder may see unseen symbols, e.g. latent coding).
  static FrequencyTable from_counts(const std::vector<std::uint64_t>& counts,
                                    bool laplace_floor = false);

  [[nodiscard]] std::uint32_t freq(int symbol) const { return freq_[symbol]; }
  [[nodiscard]] std::uint32_t cum_freq(int symbol) const { return cum_[symbol]; }
  [[nodiscard]] int alphabet_size() const {
    return static_cast<int>(freq_.size());
  }

  /// Maps a slot value in [0, kProbScale) back to its symbol. Builds the
  /// decode lookup on first use (see ensure_lookup()).
  [[nodiscard]] int symbol_from_slot(std::uint32_t slot) const;

  /// Compact serialisation of the frequency table.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  static FrequencyTable deserialize(const std::uint8_t* data, std::size_t size,
                                    std::size_t* consumed);

  /// Shannon entropy of the normalised distribution in bits/symbol.
  [[nodiscard]] double entropy_bits() const;

  /// Builds the packed decode lookup if not built yet. Lazy so encode-only
  /// tables never pay the table-construction cost; the decoders call it once
  /// up front. Idempotent but NOT thread-safe on the first call — build it
  /// before sharing one table object across decoding threads.
  void ensure_lookup() const;
  [[nodiscard]] bool lookup_built() const { return !sym_fc_.empty(); }

  // Hot decode accessors (valid after ensure_lookup()).
  /// One byte per slot; null when the alphabet exceeds 256 (use slot_sym16).
  [[nodiscard]] const std::uint8_t* slot_sym8() const {
    return slot_sym8_.empty() ? nullptr : slot_sym8_.data();
  }
  [[nodiscard]] const std::uint16_t* slot_sym16() const {
    return slot_sym16_.empty() ? nullptr : slot_sym16_.data();
  }
  /// Per symbol: freq << 16 | cum (freq <= 2^14 and cum < 2^14 both fit).
  [[nodiscard]] const std::uint32_t* sym_fc() const { return sym_fc_.data(); }

 private:
  std::vector<std::uint32_t> freq_;
  std::vector<std::uint32_t> cum_;  // cum_[s] = sum of freq_[0..s-1]; size n+1

  // Lazily-built packed decode lookup (see header comment).
  mutable std::vector<std::uint8_t> slot_sym8_;
  mutable std::vector<std::uint16_t> slot_sym16_;
  mutable std::vector<std::uint32_t> sym_fc_;
};

// ---- scalar v1 stream ------------------------------------------------------

/// Encodes a symbol sequence with a single static table (v1 stream: one
/// state, byte renormalisation). Output capacity is reserved from the
/// table's entropy estimate and bytes are emitted back to front, so the
/// encoder neither reallocates per byte nor reverses the buffer afterwards.
std::vector<std::uint8_t> rans_encode(const std::vector<int>& symbols,
                                      const FrequencyTable& table);

/// Decodes `count` symbols from a v1 stream.
std::vector<int> rans_decode(const std::uint8_t* data, std::size_t size,
                             std::size_t count, const FrequencyTable& table);

/// Convenience: builds a table (no Laplace floor), serialises
/// table + payload into one buffer. Decode side reads the table back.
std::vector<std::uint8_t> rans_encode_with_table(const std::vector<int>& symbols,
                                                 int alphabet_size);
std::vector<int> rans_decode_with_table(const std::uint8_t* data,
                                        std::size_t size, std::size_t count);

// ---- interleaved v2 stream -------------------------------------------------

/// Interleave width of the v2 stream format.
inline constexpr int kRansLanes = 4;

/// Encodes into the interleaved v2 layout:
///   [u32 off1][u32 off2][u32 off3]  byte offsets of lanes 1..3, relative to
///                                   the end of this 12-byte header (lane 0
///                                   starts at 0, lane 3 ends at payload end)
///   lane 0 .. lane 3                each: [u32 initial decoder state]
///                                         [u16 renormalisation words]
/// Symbol i belongs to lane i % kRansLanes. Deterministic byte output.
std::vector<std::uint8_t> rans_encode_interleaved(
    const std::vector<int>& symbols, const FrequencyTable& table);

/// Decodes `count` symbols from an interleaved v2 payload with the portable
/// 4-lane kernel. Throws std::out_of_range on truncated lanes and
/// std::runtime_error on corrupt lane offsets.
std::vector<int> rans_decode_interleaved(const std::uint8_t* data,
                                         std::size_t size, std::size_t count,
                                         const FrequencyTable& table);

/// Convenience pair mirroring rans_{encode,decode}_with_table but with an
/// interleaved payload.
std::vector<std::uint8_t> rans_encode_interleaved_with_table(
    const std::vector<int>& symbols, int alphabet_size);
std::vector<int> rans_decode_interleaved_with_table(const std::uint8_t* data,
                                                    std::size_t size,
                                                    std::size_t count);

namespace detail {

/// Same as rans_decode_interleaved: there is one decode kernel. Kept, with
/// the function below, because the perfbench/ ledger calls both.
std::vector<int> rans_decode_interleaved_scalar(const std::uint8_t* data,
                                                std::size_t size,
                                                std::size_t count,
                                                const FrequencyTable& table);

/// Always false: there is no AVX2 decode kernel any more.
bool rans_interleaved_avx2_available();

}  // namespace detail

}  // namespace easz::entropy
