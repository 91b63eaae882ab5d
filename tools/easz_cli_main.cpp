// easz — command-line codec front end.
//
//   easz compress   <in.ppm> <out.easz> [--codec jpeg|bpg] [--quality Q]
//                   [--erase T] [--patch N] [--sub B] [--vertical]
//   easz decompress <in.easz> <out.ppm>  [--model ckpt] [--neighbor-fill]
//   easz info       <in.easz>
//
// The compressed file is the self-describing container from
// core/container.hpp; decompression reconstructs with the transformer when a
// model checkpoint is available (assets/recon_p16_b2_d64.ckpt by default for
// the canonical configuration) and falls back to neighbour fill otherwise.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "codec/codec.hpp"
#include "core/container.hpp"
#include "core/deblock.hpp"
#include "image/io_ppm.hpp"
#include "nn/serialize.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"

namespace {

using namespace easz;
using util::flag_value;
using util::has_flag;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  easz compress   <in.ppm> <out.easz> [--codec jpeg|bpg] "
               "[--quality Q] [--erase T] [--patch N] [--sub B] [--vertical]\n"
               "  easz decompress <in.easz> <out.ppm> [--model ckpt] "
               "[--neighbor-fill]\n"
               "  easz info       <in.easz>\n");
  return 2;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in_path = argv[0];
  const std::string out_path = argv[1];
  const std::string codec_name = flag_value(argc, argv, "--codec", "jpeg");
  // Strict numeric flags (util/parse.hpp): junk, trailing characters and
  // out-of-range values are usage errors naming the flag, never a silent 0.
  int quality = 0, erase = 0, patch = 0, sub = 0;
  try {
    const auto int_flag = [&](const char* name, const char* fallback, int min,
                              int max) {
      return util::parse_int32(flag_value(argc, argv, name, fallback), name,
                               min, max);
    };
    quality = int_flag("--quality", "70", 1, 100);
    erase = int_flag("--erase", "2", 0, 1 << 15);
    patch = int_flag("--patch", "16", 1, 1 << 15);
    sub = int_flag("--sub", "2", 1, 1 << 15);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "easz: %s\n", e.what());
    return 2;
  }

  const image::Image img = image::read_pnm(in_path);
  auto codec = codec::make_classical_codec(codec_name, quality);
  core::EaszConfig cfg;
  cfg.patchify = {.patch = patch, .sub_patch = sub};
  cfg.erased_per_row = erase;
  cfg.axis = has_flag(argc, argv, "--vertical") ? core::SqueezeAxis::kVertical
                                                : core::SqueezeAxis::kHorizontal;
  core::EaszPipeline pipeline(cfg, *codec, nullptr);
  const core::EaszCompressed c = pipeline.encode(img);
  core::write_container(c, cfg.patchify, codec_name, out_path);
  std::printf("%s: %dx%d -> %zu bytes (%.3f bpp, mask %zu B, codec %s q%d, "
              "erase %d/%d)\n",
              out_path.c_str(), img.width(), img.height(), c.size_bytes(),
              c.bpp(), c.mask_bytes.size(), codec_name.c_str(), quality, erase,
              cfg.patchify.grid());
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string in_path = argv[0];
  const std::string out_path = argv[1];
  const core::ParsedContainer parsed = core::read_container(in_path);
  auto codec = codec::make_classical_codec(parsed.codec_name, 70);

  core::EaszConfig cfg;
  cfg.patchify = parsed.patchify;
  cfg.erased_per_row = parsed.compressed.erased_per_row;
  cfg.axis = parsed.compressed.axis;

  const bool canonical = parsed.patchify.patch == 16 &&
                         parsed.patchify.sub_patch == 2;
  std::unique_ptr<core::ReconstructionModel> model;
  if (!has_flag(argc, argv, "--neighbor-fill")) {
    core::ReconModelConfig mc;
    mc.patchify = parsed.patchify;
    mc.d_model = 64;
    mc.num_heads = 4;
    mc.ffn_hidden = 128;
    util::Pcg32 rng(11);
    model = std::make_unique<core::ReconstructionModel>(mc, rng);
    const char* explicit_path = flag_value(argc, argv, "--model", nullptr);
    bool loaded = false;
    if (explicit_path != nullptr) {
      auto params = model->parameters();
      nn::load_parameters(params, explicit_path);  // throws on failure
      loaded = true;
    } else if (canonical) {
      for (const char* path : {"assets/recon_p16_b2_d64.ckpt",
                               "../assets/recon_p16_b2_d64.ckpt"}) {
        try {
          auto params = model->parameters();
          nn::load_parameters(params, path);
          loaded = true;
          break;
        } catch (const std::exception&) {
        }
      }
    }
    if (!loaded) {
      std::fprintf(stderr,
                   "warning: no model checkpoint found; using neighbour "
                   "fill\n");
      model.reset();
    }
  }

  core::EaszPipeline pipeline(cfg, *codec, model.get());
  const image::Image out = model != nullptr
                               ? pipeline.decode(parsed.compressed)
                               : pipeline.decode_neighbor_fill(parsed.compressed);
  image::write_pnm(out, out_path);
  std::printf("%s: %dx%d reconstructed (%s)\n", out_path.c_str(), out.width(),
              out.height(), model != nullptr ? "transformer" : "neighbour fill");
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  const core::ParsedContainer parsed = core::read_container(argv[0]);
  const auto& c = parsed.compressed;
  std::printf("easz container: %dx%d (padded %dx%d)\n", c.full_width,
              c.full_height, c.padded_width, c.padded_height);
  std::printf("  codec: %s, payload %zu bytes, mask %zu bytes, %.3f bpp\n",
              parsed.codec_name.c_str(), c.payload.bytes.size(),
              c.mask_bytes.size(), c.bpp());
  std::printf("  patchify: n=%d b=%d (grid %d), erase %d/row (%.1f %%), %s\n",
              parsed.patchify.patch, parsed.patchify.sub_patch,
              parsed.patchify.grid(), c.erased_per_row,
              100.0 * c.erased_per_row / parsed.patchify.grid(),
              c.axis == core::SqueezeAxis::kVertical ? "vertical"
                                                     : "horizontal");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "compress") return cmd_compress(argc - 2, argv + 2);
  if (cmd == "decompress") return cmd_decompress(argc - 2, argv + 2);
  if (cmd == "info") return cmd_info(argc - 2, argv + 2);
  return usage();
}
