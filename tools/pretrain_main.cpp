// Offline pretraining (paper §IV-A): trains the reconstruction model on
// synthetic CIFAR-like content with random masks and saves a checkpoint
// under assets/. Benches and examples load the checkpoint when present and
// fall back to quick training otherwise.
//
// Usage: easz_pretrain [steps] [out_dir]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/recon_model.hpp"
#include "core/trainer.hpp"
#include "data/synth.hpp"
#include "nn/serialize.hpp"
#include "util/parse.hpp"

int main(int argc, char** argv) {
  using namespace easz;
  int steps = 2500;
  try {
    if (argc > 1) steps = util::parse_int32(argv[1], "steps", 0, 1 << 30);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "easz_pretrain: %s\n", e.what());
    return 2;
  }
  const std::string out_dir = argc > 2 ? argv[2] : "assets";

  core::ReconModelConfig cfg;
  cfg.patchify = {.patch = 16, .sub_patch = 2};
  cfg.channels = 3;
  cfg.d_model = 64;
  cfg.num_heads = 4;
  cfg.ffn_hidden = 128;

  util::Pcg32 rng(11);
  core::ReconstructionModel model(cfg, rng);
  std::printf("model: %zu parameters (%.2f MB)\n", model.num_parameters(),
              model.model_bytes() / 1048576.0);

  core::TrainerConfig tcfg;
  tcfg.batch_patches = 8;
  tcfg.use_perceptual = false;
  tcfg.lr = 2e-3F;
  tcfg.min_erase_ratio = 0.1F;
  tcfg.max_erase_ratio = 0.45F;
  core::Trainer trainer(model, tcfg, rng);

  std::vector<image::Image> corpus;
  util::Pcg32 data_rng(11 ^ 0xDA7A);
  for (int i = 0; i < 64; ++i) {
    if (i % 4 == 3) {
      corpus.push_back(data::synth_texture(32, 32, data_rng));
    } else if (i % 4 == 2) {
      corpus.push_back(data::synth_cartoon(32, 32, data_rng));
    } else {
      corpus.push_back(data::synth_photo(32, 32, data_rng));
    }
  }

  // Step-decay schedule: /4 at 60 %, /4 again at 85 %.
  const int phase1 = steps * 3 / 5;
  const int phase2 = steps * 17 / 20 - phase1;
  const int phase3 = steps - phase1 - phase2;
  float loss = 0.0F;
  core::TrainStats s1 = trainer.train(corpus, phase1);
  loss = s1.final_loss();
  std::printf("phase1 done (%d steps): loss %.5f\n", phase1, loss);
  trainer.optimizer().config().lr = 5e-4F;
  core::TrainStats s2 = trainer.train(corpus, phase2);
  std::printf("phase2 done (%d steps): loss %.5f\n", phase2, s2.final_loss());
  trainer.optimizer().config().lr = 1.2e-4F;
  core::TrainStats s3 = trainer.train(corpus, phase3);
  std::printf("phase3 done (%d steps): loss %.5f\n", phase3, s3.final_loss());

  const std::string path = out_dir + "/recon_p16_b2_d64.ckpt";
  auto params = model.parameters();
  nn::save_parameters(params, path);
  std::printf("saved %s\n", path.c_str());
  return 0;
}
