// Checkpointing workflow: train, save, resume in a fresh process-like
// context, and verify the restored model serves the same predictions — plus
// feature-cached training (paper §8) as a config flag.
//
//   ./checkpoint_resume [epochs]
#include <cstdio>
#include <iostream>

#include "core/system.h"
#include "nn/serialize.h"

int main(int argc, char** argv) {
  using namespace salient;
  const int epochs = argc > 1 ? std::atoi(argv[1]) : 4;
  const char* ckpt = "/tmp/salient_quickstart.ckpt";

  SystemConfig cfg;
  cfg.dataset = "arxiv-sim";
  cfg.dataset_scale = 0.04;
  cfg.arch = "sage";
  cfg.hidden_channels = 48;
  cfg.num_layers = 2;
  cfg.train_fanouts = {10, 5};
  cfg.infer_fanouts = {20, 20};
  cfg.batch_size = 512;
  // Keep the hottest 10% of nodes' features (676 of 6,760) resident on the
  // device: only cache misses cross the PCIe link (paper §8 / GNS-style
  // caching).
  cfg.cache_percentage = 0.1;

  // First session: train and checkpoint.
  double acc_before;
  {
    System sys(cfg);
    std::cout << "training " << epochs << " epochs with feature cache of "
              << sys.trainer().feature_cache()->capacity() << " nodes...\n";
    for (int e = 0; e < epochs; ++e) {
      std::cout << sys.train_epoch().summary() << "\n";
    }
    acc_before = sys.test_accuracy();
    nn::save_checkpoint(*sys.model(), ckpt);
    std::cout << "saved checkpoint to " << ckpt
              << "  (test acc " << acc_before << ")\n";
  }

  // Second session: fresh system (fresh random init), restore, evaluate.
  {
    System sys(cfg);  // same dataset seed => same graph/splits
    const double acc_fresh = sys.test_accuracy();
    nn::load_checkpoint(*sys.model(), ckpt);
    const double acc_restored = sys.test_accuracy();
    std::cout << "fresh-init accuracy:    " << acc_fresh
              << "\nrestored accuracy:      " << acc_restored
              << "  (should match " << acc_before << ")\n";

    // Resume training from the checkpoint.
    std::cout << "resuming training...\n";
    for (int e = 0; e < 2; ++e) {
      std::cout << sys.train_epoch().summary() << "\n";
    }
    std::cout << "final accuracy:         " << sys.test_accuracy() << "\n";
  }
  std::remove(ckpt);
  return 0;
}
