#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "entropy/bitstream.hpp"
#include "entropy/huffman.hpp"
#include "entropy/rans.hpp"
#include "util/prng.hpp"

namespace easz::entropy {
namespace {

TEST(BitStream, SingleBitsRoundTrip) {
  BitWriter bw;
  const std::vector<bool> bits = {true, false, true, true, false, false, true};
  for (const bool b : bits) bw.write_bit(b);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (const bool b : bits) EXPECT_EQ(br.read_bit(), b);
}

TEST(BitStream, MultiBitFieldsRoundTrip) {
  BitWriter bw;
  bw.write_bits(0xDEADBEEFU, 32);
  bw.write_bits(0x5U, 3);
  bw.write_bits(0x1FFU, 9);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.read_bits(32), 0xDEADBEEFU);
  EXPECT_EQ(br.read_bits(3), 0x5U);
  EXPECT_EQ(br.read_bits(9), 0x1FFU);
}

TEST(BitStream, ExpGolombRoundTrip) {
  BitWriter bw;
  for (std::uint32_t v = 0; v < 200; ++v) bw.write_ue(v);
  for (std::int32_t v = -100; v <= 100; ++v) bw.write_se(v);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (std::uint32_t v = 0; v < 200; ++v) EXPECT_EQ(br.read_ue(), v);
  for (std::int32_t v = -100; v <= 100; ++v) EXPECT_EQ(br.read_se(), v);
}

TEST(BitStream, ReadPastEndThrows) {
  BitWriter bw;
  bw.write_bits(0xFF, 8);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  br.read_bits(8);
  EXPECT_THROW(br.read_bit(), std::out_of_range);
}

TEST(BitStream, BitCountTracksWrites) {
  BitWriter bw;
  bw.write_bits(0, 5);
  bw.write_bits(0, 13);
  EXPECT_EQ(bw.bit_count(), 18U);
}

TEST(Huffman, RoundTripSkewedDistribution) {
  std::vector<std::uint64_t> freq = {1000, 500, 100, 20, 4, 1};
  const auto code = HuffmanCode::from_frequencies(freq);

  util::Pcg32 rng(11);
  std::vector<int> symbols;
  for (int i = 0; i < 5000; ++i) {
    symbols.push_back(static_cast<int>(rng.next_below(6)));
  }
  BitWriter bw;
  for (const int s : symbols) code.encode_symbol(bw, s);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (const int s : symbols) EXPECT_EQ(code.decode_symbol(br), s);
}

TEST(Huffman, SkewedCodesAreShorterForFrequentSymbols) {
  std::vector<std::uint64_t> freq = {1000000, 10, 10, 10};
  const auto code = HuffmanCode::from_frequencies(freq);
  EXPECT_LE(code.lengths()[0], code.lengths()[1]);
  EXPECT_LE(code.lengths()[0], code.lengths()[3]);
}

TEST(Huffman, SingleSymbolAlphabetWorks) {
  std::vector<std::uint64_t> freq = {0, 42, 0};
  const auto code = HuffmanCode::from_frequencies(freq);
  BitWriter bw;
  for (int i = 0; i < 10; ++i) code.encode_symbol(bw, 1);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(code.decode_symbol(br), 1);
}

TEST(Huffman, LengthTableSerializationRoundTrip) {
  std::vector<std::uint64_t> freq = {100, 50, 25, 12, 6, 3, 1, 1};
  const auto code = HuffmanCode::from_frequencies(freq);
  BitWriter bw;
  code.write_lengths(bw);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  const auto restored = HuffmanCode::read_lengths(br, 8);
  EXPECT_EQ(restored.lengths(), code.lengths());
}

TEST(Huffman, AllZeroFrequenciesThrow) {
  std::vector<std::uint64_t> freq = {0, 0, 0};
  EXPECT_THROW(HuffmanCode::from_frequencies(freq), std::invalid_argument);
}

TEST(Huffman, EncodingAbsentSymbolThrows) {
  std::vector<std::uint64_t> freq = {10, 0, 10};
  const auto code = HuffmanCode::from_frequencies(freq);
  BitWriter bw;
  EXPECT_THROW(code.encode_symbol(bw, 1), std::invalid_argument);
}

TEST(Huffman, CompressionBeatsFixedWidthOnSkewedData) {
  // 16-symbol alphabet, geometric distribution.
  std::vector<std::uint64_t> freq(16);
  std::uint64_t f = 1U << 20U;
  for (auto& v : freq) {
    v = f;
    f = std::max<std::uint64_t>(1, f / 2);
  }
  const auto code = HuffmanCode::from_frequencies(freq);

  util::Pcg32 rng(13);
  std::vector<int> symbols;
  for (int i = 0; i < 20000; ++i) {
    // Sample geometric-ish: count leading successes.
    int s = 0;
    while (s < 15 && rng.next_float() < 0.5F) ++s;
    symbols.push_back(s);
  }
  BitWriter bw;
  for (const int s : symbols) code.encode_symbol(bw, s);
  // Fixed-width would need 4 bits/symbol; entropy here is ~2 bits.
  EXPECT_LT(bw.bit_count(), symbols.size() * 3);
}

TEST(Rans, FrequencyTableNormalisesToProbScale) {
  std::vector<std::uint64_t> counts = {5, 0, 17, 3, 1000};
  const auto table = FrequencyTable::from_counts(counts);
  std::uint32_t total = 0;
  for (int s = 0; s < table.alphabet_size(); ++s) total += table.freq(s);
  EXPECT_EQ(total, FrequencyTable::kProbScale);
  EXPECT_EQ(table.freq(1), 0U);
  EXPECT_GT(table.freq(4), table.freq(2));
}

TEST(Rans, LaplaceFloorGivesEverySymbolMass) {
  std::vector<std::uint64_t> counts = {0, 0, 100};
  const auto table = FrequencyTable::from_counts(counts, true);
  for (int s = 0; s < 3; ++s) EXPECT_GT(table.freq(s), 0U);
}

TEST(Rans, SlotLookupIsConsistentWithCumulative) {
  std::vector<std::uint64_t> counts = {10, 20, 30, 40};
  const auto table = FrequencyTable::from_counts(counts);
  for (int s = 0; s < 4; ++s) {
    if (table.freq(s) == 0) continue;
    EXPECT_EQ(table.symbol_from_slot(table.cum_freq(s)), s);
    EXPECT_EQ(table.symbol_from_slot(table.cum_freq(s) + table.freq(s) - 1), s);
  }
}

TEST(Rans, TableSerializationRoundTrip) {
  std::vector<std::uint64_t> counts = {1, 0, 999, 50, 0, 3};
  const auto table = FrequencyTable::from_counts(counts, true);
  const auto bytes = table.serialize();
  std::size_t consumed = 0;
  const auto restored =
      FrequencyTable::deserialize(bytes.data(), bytes.size(), &consumed);
  EXPECT_EQ(consumed, bytes.size());
  for (int s = 0; s < 6; ++s) EXPECT_EQ(restored.freq(s), table.freq(s));
}

TEST(Rans, RoundTripUniformSymbols) {
  util::Pcg32 rng(17);
  std::vector<int> symbols;
  for (int i = 0; i < 10000; ++i) {
    symbols.push_back(static_cast<int>(rng.next_below(64)));
  }
  std::vector<std::uint64_t> counts(64, 0);
  for (const int s : symbols) ++counts[s];
  const auto table = FrequencyTable::from_counts(counts);
  const auto encoded = rans_encode(symbols, table);
  const auto decoded =
      rans_decode(encoded.data(), encoded.size(), symbols.size(), table);
  EXPECT_EQ(decoded, symbols);
}

TEST(Rans, RoundTripSkewedSymbols) {
  util::Pcg32 rng(19);
  std::vector<int> symbols;
  for (int i = 0; i < 30000; ++i) {
    int s = 0;
    while (s < 31 && rng.next_float() < 0.6F) ++s;
    symbols.push_back(s);
  }
  const auto buffer = rans_encode_with_table(symbols, 32);
  const auto decoded =
      rans_decode_with_table(buffer.data(), buffer.size(), symbols.size());
  EXPECT_EQ(decoded, symbols);
}

TEST(Rans, CompressionApproachesEntropy) {
  // Highly skewed: ~0.47 bits/symbol entropy. rANS should get close; a
  // fixed-width code would need 6 bits.
  util::Pcg32 rng(23);
  std::vector<int> symbols;
  for (int i = 0; i < 50000; ++i) {
    symbols.push_back(rng.next_float() < 0.92F ? 0
                                               : static_cast<int>(rng.next_below(64)));
  }
  std::vector<std::uint64_t> counts(64, 0);
  for (const int s : symbols) ++counts[s];
  const auto table = FrequencyTable::from_counts(counts);
  const auto encoded = rans_encode(symbols, table);
  const double bits_per_symbol =
      static_cast<double>(encoded.size()) * 8.0 / static_cast<double>(symbols.size());
  EXPECT_LT(bits_per_symbol, table.entropy_bits() + 0.1);
}

TEST(Rans, EmptyishInputHandled) {
  std::vector<int> symbols = {0};
  const auto buffer = rans_encode_with_table(symbols, 4);
  const auto decoded = rans_decode_with_table(buffer.data(), buffer.size(), 1);
  EXPECT_EQ(decoded, symbols);
}

TEST(Rans, EncodingZeroFrequencySymbolThrows) {
  std::vector<std::uint64_t> counts = {100, 0};
  const auto table = FrequencyTable::from_counts(counts);
  EXPECT_THROW(rans_encode({1}, table), std::invalid_argument);
}

TEST(Rans, TruncatedStreamThrows) {
  std::vector<int> symbols(100, 1);
  std::vector<std::uint64_t> counts = {1, 100, 1};
  const auto table = FrequencyTable::from_counts(counts, true);
  auto encoded = rans_encode(symbols, table);
  encoded.resize(2);
  EXPECT_THROW(rans_decode(encoded.data(), encoded.size(), 100, table),
               std::out_of_range);
}

}  // namespace
}  // namespace easz::entropy
