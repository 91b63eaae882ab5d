// Classical codec substrate bench: rANS MB/s (scalar v1 vs interleaved v2),
// DCT blocks/s (unrolled/GEMM-routed vs the seed's naive triple loop), and
// whole-codec encode/decode MP/s. The codecs run one serial path, so codec
// figures are single-threaded.
//
// Usage: bench_codec [out.json] [--smoke]
// Emits a human table on stdout and a JSON report to out.json
// (default bench_codec.json). --smoke shrinks workloads for CI while
// keeping the same report schema.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "codec/bpg_like.hpp"
#include "codec/dct.hpp"
#include "codec/jpeg_like.hpp"
#include "data/synth.hpp"
#include "entropy/rans.hpp"
#include "obs/perf_counters.hpp"
#include "obs/registry.hpp"
#include "util/prng.hpp"

namespace {

using namespace easz;
using Clock = std::chrono::steady_clock;

template <typename F>
double time_best_s(F&& fn, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

// The seed's naive triple-loop DCT, kept here as the bench baseline.
class NaiveDct {
 public:
  explicit NaiveDct(int n) : n_(n), basis_(static_cast<std::size_t>(n) * n) {
    const double pi = 3.14159265358979323846;
    for (int k = 0; k < n; ++k) {
      const double ck = k == 0 ? std::sqrt(1.0 / n) : std::sqrt(2.0 / n);
      for (int x = 0; x < n; ++x) {
        basis_[static_cast<std::size_t>(k) * n + x] = static_cast<float>(
            ck * std::cos((2.0 * x + 1.0) * k * pi / (2.0 * n)));
      }
    }
    scratch_.resize(static_cast<std::size_t>(n) * n);
  }
  void forward(float* block) {
    const int n = n_;
    for (int y = 0; y < n; ++y) {
      for (int k = 0; k < n; ++k) {
        float acc = 0.0F;
        for (int x = 0; x < n; ++x) acc += block[y * n + x] * basis_[k * n + x];
        scratch_[static_cast<std::size_t>(y) * n + k] = acc;
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int x = 0; x < n; ++x) {
        float acc = 0.0F;
        for (int y = 0; y < n; ++y) {
          acc += basis_[k * n + y] * scratch_[static_cast<std::size_t>(y) * n + x];
        }
        block[k * n + x] = acc;
      }
    }
  }
  void inverse(float* block) {
    const int n = n_;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        float acc = 0.0F;
        for (int k = 0; k < n; ++k) acc += basis_[k * n + y] * block[k * n + x];
        scratch_[static_cast<std::size_t>(y) * n + x] = acc;
      }
    }
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        float acc = 0.0F;
        for (int k = 0; k < n; ++k) {
          acc += scratch_[static_cast<std::size_t>(y) * n + k] * basis_[k * n + x];
        }
        block[y * n + x] = acc;
      }
    }
  }

 private:
  int n_;
  std::vector<float> basis_;
  std::vector<float> scratch_;
};

// Coefficient-shaped symbol stream: heavy EOB/level/zero-run mix like the
// bpg codec emits on natural content.
std::vector<int> coeff_stream(std::size_t count) {
  std::vector<int> symbols;
  symbols.reserve(count);
  util::Pcg32 rng(7);
  for (std::size_t i = 0; i < count; ++i) {
    const float u = rng.next_float();
    int s;
    if (u < 0.35F) {
      s = 253;  // EOB
    } else if (u < 0.6F) {
      s = 92 + static_cast<int>(rng.next_below(9));  // small levels
    } else if (u < 0.8F) {
      s = 193 + static_cast<int>(rng.next_below(12));  // zero runs
    } else {
      s = static_cast<int>(rng.next_below(193));
    }
    symbols.push_back(s);
  }
  return symbols;
}

struct CodecFigures {
  double encode_mpps_1t = 0.0;
  double decode_mpps_1t = 0.0;
  double bpp = 0.0;
};

CodecFigures run_codec(codec::ImageCodec& c, const image::Image& img,
                       int reps) {
  CodecFigures f;
  const double mp = static_cast<double>(img.pixel_count()) / 1e6;
  codec::Compressed comp = c.encode(img);  // warm
  image::Image dec = c.decode(comp);
  f.encode_mpps_1t = mp / time_best_s([&] { comp = c.encode(img); }, reps);
  f.decode_mpps_1t = mp / time_best_s([&] { dec = c.decode(comp); }, reps);
  f.bpp = comp.bpp();
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "bench_codec.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (argv[i][0] != '-') {
      out_path = argv[i];
    }
  }

  std::printf("bench_codec: entropy/transform/codec substrate "
              "(%s workload)\n\n", smoke ? "smoke" : "full");

  // ---- rANS ---------------------------------------------------------------
  const std::size_t sym_count = smoke ? (1U << 18U) : (1U << 21U);
  const int rans_reps = smoke ? 5 : 10;
  const std::vector<int> symbols = coeff_stream(sym_count);
  std::vector<std::uint64_t> counts(255, 0);
  for (const int s : symbols) ++counts[static_cast<std::size_t>(s)];
  const auto table = entropy::FrequencyTable::from_counts(counts);
  const auto enc_v1 = entropy::rans_encode(symbols, table);
  const auto enc_v2 = entropy::rans_encode_interleaved(symbols, table);
  table.ensure_lookup();

  std::vector<int> sink;
  const double t_v1 = time_best_s(
      [&] {
        sink = entropy::rans_decode(enc_v1.data(), enc_v1.size(), sym_count,
                                    table);
      },
      rans_reps);
  const double t_v2 = time_best_s(
      [&] {
        sink = entropy::rans_decode_interleaved(enc_v2.data(), enc_v2.size(),
                                                sym_count, table);
      },
      rans_reps);
  const double t_enc_v2 = time_best_s(
      [&] {
        auto e = entropy::rans_encode_interleaved(symbols, table);
        if (e.empty()) std::exit(3);
      },
      rans_reps);
  const double msym = static_cast<double>(sym_count) / 1e6;
  const double rans_decode_mbps_v1 =
      static_cast<double>(enc_v1.size()) / t_v1 / 1e6;
  const double rans_decode_mbps_v2 =
      static_cast<double>(enc_v2.size()) / t_v2 / 1e6;
  const double rans_speedup = t_v1 / t_v2;
  std::printf("rANS on bpg coefficient streams (%zu symbols, %.2f bits/sym "
              "entropy):\n", sym_count, table.entropy_bits());
  std::printf("  scalar v1 decode          %8.1f Msym/s  %7.1f MB/s\n",
              msym / t_v1, rans_decode_mbps_v1);
  std::printf("  interleaved v2 decode     %8.1f Msym/s  %7.1f MB/s  "
              "(%.2fx scalar)\n",
              msym / t_v2, rans_decode_mbps_v2, rans_speedup);
  std::printf("  interleaved v2 encode     %8.1f Msym/s\n\n",
              msym / t_enc_v2);

  // ---- DCT ----------------------------------------------------------------
  const int dct_iters = smoke ? 20000 : 100000;
  double dct_blocks_per_s[3] = {0, 0, 0};
  double naive_blocks_per_s[3] = {0, 0, 0};
  const int sizes[3] = {8, 16, 32};
  std::printf("DCT forward+inverse pairs:\n");
  // Seeded once, OUTSIDE the size loop (bench seeding policy, see
  // bench/common.hpp): re-seeding per iteration would hand every size the
  // same leading stream and make cross-size variance meaningless.
  util::Pcg32 dct_rng(9);
  for (int si = 0; si < 3; ++si) {
    const int n = sizes[si];
    codec::Dct2d dct(n);
    NaiveDct naive(n);
    std::vector<float> block(static_cast<std::size_t>(n) * n);
    for (auto& v : block) v = dct_rng.next_float() * 255.0F - 128.0F;
    const int iters = dct_iters * 64 / (n * n);
    const double t_fast = time_best_s(
        [&] {
          for (int i = 0; i < iters; ++i) {
            dct.forward(block.data());
            dct.inverse(block.data());
          }
        },
        3);
    const double t_naive = time_best_s(
        [&] {
          for (int i = 0; i < iters; ++i) {
            naive.forward(block.data());
            naive.inverse(block.data());
          }
        },
        3);
    dct_blocks_per_s[si] = iters / t_fast;
    naive_blocks_per_s[si] = iters / t_naive;
    std::printf("  %2dx%-2d  %10.0f pairs/s  (naive %10.0f, %.2fx)\n", n, n,
                dct_blocks_per_s[si], naive_blocks_per_s[si],
                dct_blocks_per_s[si] / naive_blocks_per_s[si]);
  }
  std::printf("\n");

  // ---- whole codecs -------------------------------------------------------
  const int dim = smoke ? 192 : 512;
  const int codec_reps = smoke ? 3 : 6;
  util::Pcg32 img_rng(42);
  const image::Image img = data::synth_photo(dim, dim, img_rng);
  codec::JpegLikeCodec jpeg(75);
  codec::BpgLikeCodec bpg(50);
  const CodecFigures fj = run_codec(jpeg, img, codec_reps);
  const CodecFigures fb = run_codec(bpg, img, codec_reps);
  std::printf("codecs on %dx%d synth photo (MP/s):\n", dim, dim);
  for (const auto& [name, fig] : {std::pair{"jpeg", fj}, std::pair{"bpg", fb}}) {
    std::printf("  %-5s enc 1t %6.2f  dec 1t %6.2f  (%.2f bpp)\n", name,
                fig.encode_mpps_1t, fig.decode_mpps_1t, fig.bpp);
  }

  // ---- JSON ---------------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"smoke\":%s,"
               "\"rans\":{\"symbols\":%zu,\"entropy_bits\":%.4f,"
               "\"scalar_decode_msyms\":%.3f,\"interleaved_decode_msyms\":%.3f,"
               "\"interleaved_encode_msyms\":%.3f,"
               "\"decode_speedup_interleaved_vs_scalar\":%.4f},",
               smoke ? "true" : "false", sym_count, table.entropy_bits(),
               msym / t_v1, msym / t_v2, msym / t_enc_v2, rans_speedup);
  std::fprintf(f, "\"dct\":{");
  for (int si = 0; si < 3; ++si) {
    std::fprintf(f,
                 "\"n%d\":{\"pairs_per_s\":%.1f,\"naive_pairs_per_s\":%.1f,"
                 "\"speedup\":%.4f}%s",
                 sizes[si], dct_blocks_per_s[si], naive_blocks_per_s[si],
                 dct_blocks_per_s[si] / naive_blocks_per_s[si],
                 si + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "},\"codecs\":{");
  const auto dump_codec = [&](const char* name, const CodecFigures& fig,
                              bool comma) {
    std::fprintf(f,
                 "\"%s\":{\"encode_mpps_1t\":%.4f,\"decode_mpps_1t\":%.4f,"
                 "\"bpp\":%.4f}%s",
                 name, fig.encode_mpps_1t, fig.decode_mpps_1t, fig.bpp,
                 comma ? "," : "");
  };
  dump_codec("jpeg", fj, true);
  dump_codec("bpg", fb, false);

  // Hardware counters around a bpg decode burst; "unavailable" per counter
  // when the kernel forbids perf_event_open. Always carries the llc_miss key.
  obs::PerfReading perf;
  {
    codec::Compressed comp = bpg.encode(img);
    obs::PerfCounters counters;
    obs::PerfScope scope(counters, perf);
    for (int r = 0; r < codec_reps; ++r) (void)bpg.decode(comp);
  }
  std::printf("hardware counters (bpg decode burst)\n  %s\n",
              perf.to_json().c_str());

  // Registry totals accumulated during the runs above.
  const obs::Registry::Snapshot reg = obs::Registry::global().snapshot();
  std::fprintf(f, "},\"perf\":%s,\"obs_totals\":{", perf.to_json().c_str());
  for (std::size_t i = 0; i < reg.counters.size(); ++i) {
    std::fprintf(f, "%s\"%s\":%llu", i == 0 ? "" : ",",
                 reg.counters[i].first.c_str(),
                 static_cast<unsigned long long>(reg.counters[i].second));
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
  std::printf("\nJSON report: %s\n", out_path.c_str());
  return 0;
}
