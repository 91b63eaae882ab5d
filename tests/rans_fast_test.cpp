// Coverage for the fast entropy substrate: interleaved-vs-scalar rANS
// equivalence, negative paths (truncation, corrupt lane offsets), the v1
// golden-stream backward-compat contract, and the one-pass FrequencyTable
// normalisation.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "entropy/rans.hpp"
#include "util/prng.hpp"

namespace easz::entropy {
namespace {

#include "golden_v1_streams.inc"

std::vector<int> skewed_symbols(int count, int alphabet, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<int> symbols;
  symbols.reserve(count);
  for (int i = 0; i < count; ++i) {
    int s = 0;
    while (s < alphabet - 1 && rng.next_float() < 0.55F) ++s;
    symbols.push_back(s);
  }
  return symbols;
}

FrequencyTable table_for(const std::vector<int>& symbols, int alphabet) {
  std::vector<std::uint64_t> counts(alphabet, 0);
  for (const int s : symbols) ++counts[s];
  return FrequencyTable::from_counts(counts, true);
}

TEST(RansInterleaved, RoundTripRandomSymbols) {
  util::Pcg32 rng(101);
  std::vector<int> symbols;
  for (int i = 0; i < 20000; ++i) {
    symbols.push_back(static_cast<int>(rng.next_below(64)));
  }
  const auto table = table_for(symbols, 64);
  const auto encoded = rans_encode_interleaved(symbols, table);
  EXPECT_EQ(rans_decode_interleaved(encoded.data(), encoded.size(),
                                    symbols.size(), table),
            symbols);
}

TEST(RansInterleaved, RoundTripSkewedSymbols) {
  const auto symbols = skewed_symbols(30000, 32, 103);
  const auto buffer = rans_encode_interleaved_with_table(symbols, 32);
  EXPECT_EQ(rans_decode_interleaved_with_table(buffer.data(), buffer.size(),
                                               symbols.size()),
            symbols);
}

TEST(RansInterleaved, RoundTripDegenerateOneSymbolAlphabet) {
  const std::vector<int> symbols(5000, 0);
  const std::vector<std::uint64_t> counts = {42};
  const auto table = FrequencyTable::from_counts(counts);
  const auto encoded = rans_encode_interleaved(symbols, table);
  EXPECT_EQ(rans_decode_interleaved(encoded.data(), encoded.size(),
                                    symbols.size(), table),
            symbols);
}

TEST(RansInterleaved, RoundTripWideAlphabet) {
  // Alphabet > 256 exercises the uint16 slot table variant.
  const auto symbols = skewed_symbols(20000, 500, 107);
  const auto buffer = rans_encode_interleaved_with_table(symbols, 500);
  EXPECT_EQ(rans_decode_interleaved_with_table(buffer.data(), buffer.size(),
                                               symbols.size()),
            symbols);
}

TEST(RansInterleaved, RoundTripShortCounts) {
  // Counts below / around the lane width hit the checked-tail path.
  for (const int count : {0, 1, 2, 3, 4, 5, 7, 9}) {
    const auto symbols = skewed_symbols(count, 16, 109 + count);
    const auto table = table_for(symbols.empty() ? std::vector<int>{0} : symbols, 16);
    const auto encoded = rans_encode_interleaved(symbols, table);
    EXPECT_EQ(rans_decode_interleaved(encoded.data(), encoded.size(),
                                      symbols.size(), table),
              symbols)
        << "count=" << count;
  }
}

TEST(RansInterleaved, EncodeIsDeterministic) {
  const auto symbols = skewed_symbols(10000, 64, 127);
  const auto table = table_for(symbols, 64);
  EXPECT_EQ(rans_encode_interleaved(symbols, table),
            rans_encode_interleaved(symbols, table));
}

TEST(RansInterleaved, TruncatedStreamThrows) {
  const auto symbols = skewed_symbols(5000, 32, 131);
  const auto table = table_for(symbols, 32);
  auto encoded = rans_encode_interleaved(symbols, table);
  // Too small for even the lane header.
  EXPECT_THROW(rans_decode_interleaved(encoded.data(), 8, symbols.size(), table),
               std::out_of_range);
  // Drop the final lane's tail: decoding all symbols must fail, not wrap.
  encoded.resize(encoded.size() - 6);
  EXPECT_THROW(rans_decode_interleaved(encoded.data(), encoded.size(),
                                       symbols.size(), table),
               std::exception);
}

// Fuzz-style breadth behind the hand-picked negative cases above: over a
// seeded corpus, EVERY truncation length and hundreds of random byte
// corruptions must end in a clean throw or a decode (possibly of wrong
// symbols — that is entropy coding), never a crash or out-of-range read.
TEST(RansInterleaved, TruncationSweepThrowsAtEveryLength) {
  const auto symbols = skewed_symbols(3000, 24, 137);
  const auto table = table_for(symbols, 24);
  const auto encoded = rans_encode_interleaved(symbols, table);
  for (std::size_t n = 0; n < encoded.size(); ++n) {
    EXPECT_THROW(
        rans_decode_interleaved(encoded.data(), n, symbols.size(), table),
        std::exception)
        << "prefix " << n;
  }
  EXPECT_EQ(rans_decode_interleaved(encoded.data(), encoded.size(),
                                    symbols.size(), table),
            symbols);
}

TEST(RansInterleaved, RandomCorruptionNeverEscapesAsCrash) {
  const auto symbols = skewed_symbols(2000, 16, 139);
  const auto table = table_for(symbols, 16);
  const auto encoded = rans_encode_interleaved(symbols, table);
  util::Pcg32 fuzz(0xC0FE);
  int threw = 0, decoded = 0, wrong = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto mutated = encoded;
    const int flips = 1 + fuzz.next_int(0, 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          fuzz.next_below(static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1U << fuzz.next_int(0, 7));
    }
    try {
      const auto out = rans_decode_interleaved(mutated.data(), mutated.size(),
                                               symbols.size(), table);
      ++decoded;
      if (out != symbols) ++wrong;  // tolerated; crashing is not
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + decoded, 600);
  // The lane-offset/word-bounds validators must be load-bearing.
  EXPECT_GT(threw, 0);
}

TEST(RansInterleaved, CorruptLaneOffsetThrows) {
  const auto symbols = skewed_symbols(5000, 32, 137);
  const auto table = table_for(symbols, 32);
  auto encoded = rans_encode_interleaved(symbols, table);
  // Lane offsets must be monotone and in bounds; poison offset 2 to point
  // past the payload.
  auto poisoned = encoded;
  poisoned[4] = 0xFF;
  poisoned[5] = 0xFF;
  poisoned[6] = 0xFF;
  poisoned[7] = 0xFF;
  EXPECT_THROW(rans_decode_interleaved(poisoned.data(), poisoned.size(),
                                       symbols.size(), table),
               std::runtime_error);
  // Non-monotone offsets (lane 2 before lane 1).
  poisoned = encoded;
  poisoned[4] = 0x01;
  poisoned[5] = 0x00;
  poisoned[6] = 0x00;
  poisoned[7] = 0x00;
  EXPECT_THROW(rans_decode_interleaved(poisoned.data(), poisoned.size(),
                                       symbols.size(), table),
               std::exception);
}

TEST(RansV1, GoldenStreamStillDecodesBitExactly) {
  // Stream written by the seed (pre-interleave) encoder, checked in as
  // bytes. The v1 decode path must reproduce the original symbols forever.
  const std::vector<std::uint8_t> stream(
      kGoldenRansV1, kGoldenRansV1 + sizeof(kGoldenRansV1));
  const std::size_t count =
      sizeof(kGoldenRansV1Symbols) / sizeof(kGoldenRansV1Symbols[0]);
  const std::vector<int> expected(kGoldenRansV1Symbols,
                                  kGoldenRansV1Symbols + count);
  EXPECT_EQ(rans_decode_with_table(stream.data(), stream.size(), count),
            expected);
}

TEST(RansV1, EncodeStillRoundTripsAfterBackToFrontRewrite) {
  // The back-to-front emitter must produce streams the decoder accepts even
  // when the entropy estimate undershoots (tables that mismatch content).
  std::vector<int> symbols(20000, 0);
  util::Pcg32 rng(139);
  for (auto& s : symbols) s = static_cast<int>(rng.next_below(4));
  // Table heavily skewed toward symbol 0 while content is uniform: actual
  // bits/symbol far exceed the table entropy estimate, forcing the
  // grow-at-front path.
  std::vector<std::uint64_t> counts = {100000, 1, 1, 1};
  const auto table = FrequencyTable::from_counts(counts);
  const auto encoded = rans_encode(symbols, table);
  EXPECT_EQ(rans_decode(encoded.data(), encoded.size(), symbols.size(), table),
            symbols);
}

TEST(RansTable, NegativeLeftoverNormalisesInOnePass) {
  // Thousands of rare symbols each floored to 1 slot oversubscribe the
  // 2^14 budget; the proportional shrink must land exactly on kProbScale
  // with every observed symbol keeping >= 1 slot.
  std::vector<std::uint64_t> counts(10000, 1);
  counts[0] = 1000000;
  counts[1] = 500000;
  const auto table = FrequencyTable::from_counts(counts);
  std::uint64_t total = 0;
  for (int s = 0; s < table.alphabet_size(); ++s) total += table.freq(s);
  EXPECT_EQ(total, FrequencyTable::kProbScale);
  for (int s = 0; s < table.alphabet_size(); ++s) {
    EXPECT_GE(table.freq(s), 1U) << "symbol " << s;
  }
  EXPECT_GT(table.freq(0), table.freq(1));
  EXPECT_GT(table.freq(1), table.freq(2));
}

TEST(RansTable, NormalisationImpossibleThrows) {
  // More observed symbols than probability slots cannot be normalised.
  std::vector<std::uint64_t> counts(FrequencyTable::kProbScale + 1, 1);
  EXPECT_THROW(FrequencyTable::from_counts(counts), std::runtime_error);
}

TEST(RansTable, LookupIsLazyForEncodeOnlyTables) {
  std::vector<std::uint64_t> counts = {10, 20, 30};
  const auto table = FrequencyTable::from_counts(counts);
  EXPECT_FALSE(table.lookup_built());
  const auto encoded = rans_encode({0, 1, 2, 2}, table);
  EXPECT_FALSE(table.lookup_built());  // encode never pays for the lookup
  EXPECT_EQ(rans_decode(encoded.data(), encoded.size(), 4, table),
            (std::vector<int>{0, 1, 2, 2}));
  EXPECT_TRUE(table.lookup_built());
}

TEST(RansTable, PackedLookupMatchesCumulative) {
  const auto symbols = skewed_symbols(10000, 300, 149);
  const auto table = table_for(symbols, 300);
  table.ensure_lookup();
  for (int s = 0; s < table.alphabet_size(); ++s) {
    if (table.freq(s) == 0) continue;
    EXPECT_EQ(table.symbol_from_slot(table.cum_freq(s)), s);
    EXPECT_EQ(table.symbol_from_slot(table.cum_freq(s) + table.freq(s) - 1), s);
  }
}

}  // namespace
}  // namespace easz::entropy
