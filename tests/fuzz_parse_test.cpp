// Property/fuzz-style negative tests for the wire formats an untrusted
// party controls: the EAZC container, the EZB2 (bpg-like) bitstream and
// the EAZQ quantization sidecar of model checkpoints.
//
// The contract under test is the hostile-input half of "a deployable codec
// needs a self-describing file format": seeded corpora of random bit flips
// and truncations must ALWAYS terminate in one of two outcomes — a clean
// std::exception, or a successful parse that faithfully round-trips — and
// never a crash, hang, or count-driven allocation blow-up. (ctest itself is
// the crash detector: any signal fails the binary.) This extends the
// hand-picked corrupt cases in codec_test/rans_fast_test with breadth:
// every header byte position gets hit across the seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "codec/bpg_like.hpp"
#include "codec/jpeg_like.hpp"
#include "core/container.hpp"
#include "core/pipeline.hpp"
#include "data/synth.hpp"
#include "entropy/rans.hpp"
#include "nn/quantize.hpp"
#include "nn/serialize.hpp"
#include "util/prng.hpp"

namespace easz {
namespace {

core::EaszConfig small_config() {
  core::EaszConfig cfg;
  cfg.patchify = {.patch = 16, .sub_patch = 4};
  cfg.erased_per_row = 1;
  cfg.mask_seed = 7;
  return cfg;
}

std::vector<std::uint8_t> valid_container(codec::ImageCodec& codec,
                                          int w = 37, int h = 29) {
  util::Pcg32 rng(11);
  const image::Image img = data::synth_photo(w, h, rng);
  const core::EaszConfig cfg = small_config();
  const core::EaszPipeline edge(cfg, codec, nullptr);
  return core::serialize_container(edge.encode(img), cfg.patchify,
                                   codec.name());
}

// --------------------------------------------------------- EAZC container

TEST(ContainerFuzz, EveryStrictPrefixThrows) {
  codec::JpegLikeCodec jpeg(80);
  const std::vector<std::uint8_t> bytes = valid_container(jpeg);
  ASSERT_GT(bytes.size(), 32U);
  // The format is length-prefixed throughout, so EVERY proper prefix must
  // be detected — there is no length at which a cut container still parses.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    EXPECT_THROW(core::parse_container(cut), std::exception) << "prefix " << n;
  }
  // Trailing garbage is rejected too: a parse must consume exactly the
  // container, or a concatenation bug would silently pass.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_THROW(core::parse_container(padded), std::exception);
  // The untouched original still parses (the corpus is actually valid).
  EXPECT_NO_THROW(core::parse_container(bytes));
}

TEST(ContainerFuzz, RandomBitFlipsThrowOrRoundTripFaithfully) {
  codec::JpegLikeCodec jpeg(80);
  const std::vector<std::uint8_t> bytes = valid_container(jpeg);
  util::Pcg32 rng(0xF112);
  int threw = 0, parsed = 0;
  for (int trial = 0; trial < 800; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    const int flips = 1 + rng.next_int(0, 2);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(
          static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1U << rng.next_int(0, 7));
    }
    try {
      const core::ParsedContainer out = core::parse_container(mutated);
      ++parsed;
      // A flip the validators cannot distinguish from a legal container
      // (e.g. inside the payload bytes) must at least be FAITHFUL: the
      // parse re-serialises to exactly the mutated input. Anything else
      // means fields were silently dropped or reinterpreted.
      EXPECT_EQ(core::serialize_container(out.compressed, out.patchify,
                                          out.codec_name),
                mutated)
          << "trial " << trial;
    } catch (const std::exception&) {
      ++threw;  // the expected outcome for header damage
    }
  }
  // Most of the file is entropy-coded payload, so some flips survive; but
  // the header validators must be doing real work.
  EXPECT_GT(threw, 0);
  EXPECT_GT(parsed, 0);
  EXPECT_EQ(threw + parsed, 800);
}

TEST(ContainerFuzz, HeaderFieldDamageIsRejectedNotPropagated) {
  codec::JpegLikeCodec jpeg(80);
  const std::vector<std::uint8_t> bytes = valid_container(jpeg);
  // Magic and version: any damage to the first 6 bytes must throw.
  for (std::size_t pos = 0; pos < 6; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_THROW(core::parse_container(mutated), std::exception)
          << "byte " << pos << " bit " << bit;
    }
  }
  // Saturating a length field must throw (bounds check), never allocate.
  std::vector<std::uint8_t> huge_name = bytes;
  huge_name[6] = 0xFF;  // codec-name length low byte
  huge_name[7] = 0xFF;
  EXPECT_THROW(core::parse_container(huge_name), std::exception);
}

// ------------------------------------------------------- EZB2 bitstream

TEST(Ezb2Fuzz, EveryStrictPrefixThrows) {
  codec::BpgLikeCodec bpg(50);
  util::Pcg32 rng(23);
  const image::Image img = data::synth_photo(64, 48, rng);
  const codec::Compressed c = bpg.encode(img);
  ASSERT_GT(c.bytes.size(), 64U);
  for (std::size_t n = 0; n < c.bytes.size(); ++n) {
    codec::Compressed cut = c;
    cut.bytes.resize(n);
    EXPECT_THROW(bpg.decode(cut), std::exception) << "prefix " << n;
  }
  EXPECT_NO_THROW(bpg.decode(c));
}

TEST(Ezb2Fuzz, RandomBitFlipsNeverCrashAndKeepGeometryWhenTheyDecode) {
  codec::BpgLikeCodec bpg(50);
  util::Pcg32 rng(29);
  const image::Image img = data::synth_photo(64, 48, rng);
  const codec::Compressed c = bpg.encode(img);

  util::Pcg32 fuzz(0xB1F5);
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 400; ++trial) {
    codec::Compressed mutated = c;
    const int flips = 1 + fuzz.next_int(0, 2);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = fuzz.next_below(
          static_cast<std::uint32_t>(mutated.bytes.size()));
      mutated.bytes[pos] ^= static_cast<std::uint8_t>(1U << fuzz.next_int(0, 7));
    }
    try {
      const image::Image out = bpg.decode(mutated);
      ++decoded;
      // A flip deep in residual data can decode to wrong pixels — that is
      // entropy coding, not a safety bug — but the header-declared
      // geometry must hold, or downstream indexing breaks.
      EXPECT_EQ(out.width(), img.width());
      EXPECT_EQ(out.height(), img.height());
      EXPECT_EQ(out.channels(), img.channels());
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);  // rANS lane offsets + symbol-count validators fire
  EXPECT_EQ(threw + decoded, 400);
}

TEST(Ezb2Fuzz, HeaderBitFlipsThrowAcrossTheWholeHeader) {
  codec::BpgLikeCodec bpg(50);
  util::Pcg32 rng(31);
  const image::Image img = data::synth_photo(48, 32, rng);
  const codec::Compressed c = bpg.encode(img);
  // Magic bytes: every single-bit flip must be rejected (v1 fallback
  // included — a flipped v2 magic is not a valid v1 stream either).
  int threw = 0, tried = 0;
  for (std::size_t pos = 0; pos < 4; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      codec::Compressed mutated = c;
      mutated.bytes[pos] ^= static_cast<std::uint8_t>(1U << bit);
      ++tried;
      try {
        (void)bpg.decode(mutated);
      } catch (const std::exception&) {
        ++threw;
      }
    }
  }
  EXPECT_EQ(threw, tried) << "corrupt magic must never decode";
}

// Hand-built grayscale EZB2 stream: `blocks_x` 16x16 luma blocks in one
// row, every block in DC mode, then the given escapes and coefficient
// symbols. The header is valid, so decode reaches the per-block token
// checks; the cases below each break exactly one of them.
codec::Compressed ezb2_gray(int blocks_x, const std::vector<std::int32_t>& escapes,
                            const std::vector<int>& symbols) {
  std::vector<std::uint8_t> b = {'E', 'Z', 'B', '2'};
  const auto u32 = [&b](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  u32(static_cast<std::uint32_t>(16 * blocks_x));  // width
  u32(16);                                          // height
  b.push_back(0);                                   // grayscale
  b.push_back(50);                                  // quality
  u32(static_cast<std::uint32_t>(blocks_x));        // mode count
  b.insert(b.end(), (blocks_x * 3 + 7) / 8, 0);     // 3-bit modes, all DC
  u32(static_cast<std::uint32_t>(escapes.size()));
  for (const std::int32_t e : escapes) u32(static_cast<std::uint32_t>(e));
  u32(static_cast<std::uint32_t>(symbols.size()));
  const std::vector<std::uint8_t> payload =
      entropy::rans_encode_interleaved_with_table(symbols, 255);
  u32(static_cast<std::uint32_t>(payload.size()));
  b.insert(b.end(), payload.begin(), payload.end());
  codec::Compressed c;
  c.bytes = std::move(b);
  c.width = 16 * blocks_x;
  c.height = 16;
  c.channels = 1;
  return c;
}

void expect_bpg_error(const codec::Compressed& c, const char* message) {
  const codec::BpgLikeCodec bpg(50);
  try {
    (void)bpg.decode(c);
    ADD_FAILURE() << "decoded; expected \"" << message << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), message);
  }
}

// Coefficient symbols of the bpg codec (bpg_like.cpp): levels are biased by
// 96, 193 + k is a run of k + 1 zeros, 253 ends a block, 254 is an escape.
constexpr int kLevelOne = 97;
constexpr int kRun16 = 193 + 15;
constexpr int kRun60 = 193 + 59;
constexpr int kEob = 253;
constexpr int kEscape = 254;

TEST(Ezb2Fuzz, HandBuiltStreamDecodes) {
  // Control for the cases below: the builder itself makes valid streams.
  const codec::BpgLikeCodec bpg(50);
  const image::Image out = bpg.decode(
      ezb2_gray(2, {300}, {kLevelOne, kEob, kEscape, kEob}));
  EXPECT_EQ(out.width(), 32);
  EXPECT_EQ(out.height(), 16);
}

TEST(Ezb2Fuzz, TooFewSymbolsForTheDeclaredBlocksThrows) {
  // Two blocks declared, one EOB: the second block runs off the stream.
  expect_bpg_error(ezb2_gray(2, {}, {kLevelOne, kEob}),
                   "bpg: symbol stream underrun");
}

TEST(Ezb2Fuzz, LevelPastTheLastCoefficientThrows) {
  // Zero runs skip all 256 coefficients of the 16x16 block; the level that
  // follows would land on coefficient 256.
  expect_bpg_error(
      ezb2_gray(1, {}, {kRun60, kRun60, kRun60, kRun60, kRun16, kLevelOne, kEob}),
      "bpg: coeff overrun");
  // The last coefficient itself (index 255) is still writable.
  const codec::BpgLikeCodec bpg(50);
  EXPECT_NO_THROW((void)bpg.decode(ezb2_gray(
      1, {}, {kRun60, kRun60, kRun60, kRun60, 193 + 14, kLevelOne, kEob})));
}

TEST(Ezb2Fuzz, MoreEscapeSymbolsThanEscapesThrows) {
  expect_bpg_error(ezb2_gray(1, {500}, {kEscape, kEscape, kEob}),
                   "bpg: escape stream underrun");
}

// ------------------------------------------------------- EAZQ sidecar

nn::QuantSidecar small_sidecar() {
  nn::QuantSidecar q;
  util::Pcg32 rng(17);
  for (const auto& [in, out] : {std::pair{12, 8}, std::pair{8, 16}}) {
    nn::QuantSidecar::Layer l;
    l.in = static_cast<std::uint32_t>(in);
    l.out = static_cast<std::uint32_t>(out);
    l.act_scale = 0.01F + rng.next_float() * 0.1F;
    for (int j = 0; j < out; ++j) {
      l.w_scale.push_back(0.001F + rng.next_float() * 0.01F);
    }
    for (int i = 0; i < in * out; ++i) {
      l.w_q.push_back(
          static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127));
    }
    q.layers.push_back(std::move(l));
  }
  return q;
}

bool sidecar_equal(const nn::QuantSidecar& a, const nn::QuantSidecar& b) {
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& la = a.layers[i];
    const auto& lb = b.layers[i];
    if (la.in != lb.in || la.out != lb.out) return false;
    // Bit compare (a NaN-producing flip must never "equal" anything).
    if (std::memcmp(&la.act_scale, &lb.act_scale, 4) != 0) return false;
    if (la.w_scale.size() != lb.w_scale.size() ||
        std::memcmp(la.w_scale.data(), lb.w_scale.data(),
                    la.w_scale.size() * 4) != 0) {
      return false;
    }
    if (la.w_q != lb.w_q) return false;
  }
  return true;
}

TEST(EazqFuzz, EveryStrictPrefixThrows) {
  const std::vector<std::uint8_t> bytes =
      nn::serialize_quant_sidecar(small_sidecar());
  ASSERT_GT(bytes.size(), 32U);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(n));
    EXPECT_THROW((void)nn::parse_quant_sidecar(cut), std::exception)
        << "prefix " << n;
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0x00);
  EXPECT_THROW((void)nn::parse_quant_sidecar(padded), std::exception);
  EXPECT_NO_THROW((void)nn::parse_quant_sidecar(bytes));
}

TEST(EazqFuzz, RandomBitFlipsThrowOrParseWithSaneScales) {
  const nn::QuantSidecar original = small_sidecar();
  const std::vector<std::uint8_t> bytes = nn::serialize_quant_sidecar(original);
  util::Pcg32 rng(0xEA2F);
  int threw = 0, parsed = 0;
  for (int trial = 0; trial < 800; ++trial) {
    std::vector<std::uint8_t> mutated = bytes;
    const int flips = 1 + rng.next_int(0, 2);
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos =
          rng.next_below(static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1U << rng.next_int(0, 7));
    }
    try {
      const nn::QuantSidecar out = nn::parse_quant_sidecar(mutated);
      ++parsed;
      // A surviving flip landed in weight/scale payload. The scale
      // validators are the contract: whatever parsed must be executable —
      // finite positive scales only, NEVER NaN/inf/zero reaching the
      // dequant epilogue.
      for (const auto& l : out.layers) {
        ASSERT_TRUE(std::isfinite(l.act_scale) && l.act_scale > 0.0F);
        for (const float s : l.w_scale) {
          ASSERT_TRUE(std::isfinite(s) && s > 0.0F) << "trial " << trial;
        }
      }
      // And faithfully: re-serialising reproduces the mutated input.
      EXPECT_EQ(nn::serialize_quant_sidecar(out), mutated) << "trial " << trial;
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(parsed, 0);
  EXPECT_EQ(threw + parsed, 800);
}

TEST(EazqFuzz, CorruptScaleTablesAlwaysThrow) {
  const nn::QuantSidecar original = small_sidecar();
  // act_scale of layer 0 sits at offset 10 + 8 (magic+version+count, in+out).
  const std::size_t act_scale_off = 4 + 2 + 4 + 4 + 4;
  for (const float bad : {0.0F, -1.0F, std::nanf(""), INFINITY, -INFINITY}) {
    std::vector<std::uint8_t> bytes = nn::serialize_quant_sidecar(original);
    std::memcpy(bytes.data() + act_scale_off, &bad, 4);
    EXPECT_THROW((void)nn::parse_quant_sidecar(bytes), std::exception);
    // First w_scale entry right after act_scale.
    std::vector<std::uint8_t> bytes2 = nn::serialize_quant_sidecar(original);
    std::memcpy(bytes2.data() + act_scale_off + 4, &bad, 4);
    EXPECT_THROW((void)nn::parse_quant_sidecar(bytes2), std::exception);
  }
}

TEST(EazqFuzz, SaturatedCountFieldsThrowInsteadOfAllocating) {
  std::vector<std::uint8_t> bytes =
      nn::serialize_quant_sidecar(small_sidecar());
  // Layer count u32 at offset 6.
  for (const std::size_t off : {6U, 10U, 14U}) {  // count, layer0 in, out
    std::vector<std::uint8_t> mutated = bytes;
    mutated[off] = 0xFF;
    mutated[off + 1] = 0xFF;
    mutated[off + 2] = 0xFF;
    mutated[off + 3] = 0xFF;
    EXPECT_THROW((void)nn::parse_quant_sidecar(mutated), std::exception)
        << "offset " << off;
  }
}

TEST(EazqFuzz, CheckpointTailRoundTripsAndRejectsGarbageTails) {
  // A checkpoint with a sidecar appended: the loader must find it, and a
  // checkpoint whose tail is NOT a valid sidecar must throw, not load.
  util::Pcg32 rng(19);
  std::vector<tensor::Tensor> params = {
      tensor::Tensor::randn({4, 3}, rng),
      tensor::Tensor::randn({7}, rng),
  };
  const nn::QuantSidecar q = small_sidecar();
  const std::vector<std::uint8_t> bytes =
      nn::serialize_checkpoint_with_quant(params, q);
  std::vector<tensor::Tensor> loaded = {tensor::Tensor({4, 3}),
                                        tensor::Tensor({7})};
  const auto side = nn::deserialize_checkpoint_with_quant(loaded, bytes);
  ASSERT_TRUE(side.has_value());
  EXPECT_TRUE(sidecar_equal(q, *side));

  std::vector<std::uint8_t> garbage = nn::serialize_parameters(params);
  garbage.insert(garbage.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_THROW(
      (void)nn::deserialize_checkpoint_with_quant(loaded, garbage),
      std::exception);
}

// Cross-check: the container validators catch a mismatched payload before
// the inner codec ever sees it, so a swapped-payload splice fails cleanly.
TEST(ContainerFuzz, SplicedForeignPayloadIsRejectedByGeometryChecks) {
  codec::JpegLikeCodec jpeg(80);
  const std::vector<std::uint8_t> a = valid_container(jpeg, 37, 29);
  const std::vector<std::uint8_t> b = valid_container(jpeg, 85, 61);
  // Graft b's tail (payload area) onto a's header region. Offsets are not
  // field-aligned on purpose; the parser must reject the hybrid.
  ASSERT_GT(a.size(), 40U);
  ASSERT_GT(b.size(), 40U);
  std::vector<std::uint8_t> spliced;
  spliced.reserve(b.size());
  for (std::size_t i = 0; i < 40; ++i) spliced.push_back(a[i]);
  for (std::size_t i = 40; i < b.size(); ++i) spliced.push_back(b[i]);
  EXPECT_THROW(core::parse_container(spliced), std::exception);
}

}  // namespace
}  // namespace easz
