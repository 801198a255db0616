// salient_run — a complete command-line front end over the library: pick a
// dataset (preset or .bin file), architecture, pipeline mode and training
// options; train, evaluate, and optionally checkpoint. This is the "drop-in
// system" face of the reproduction.
//
//   ./salient_run --dataset products-sim --scale 0.05 --arch sage
//                 --epochs 5 --fanouts 15,10,5 --infer-fanouts 20,20,20
//                 --mode salient --workers 2 --cache-pct 10
//                 --save /tmp/model.ckpt        (one command, wrapped)
//   ./salient_run --data-file mygraph.bin --arch gat --epochs 3
//   ./salient_run --help
#include <iostream>
#include <map>
#include <string>

#include "core/system.h"
#include "graph/io.h"
#include "nn/serialize.h"

namespace {

void usage() {
  std::cout <<
      R"(salient_run — train/evaluate GNNs with the SALIENT pipeline

options (all optional):
  --dataset NAME      preset: arxiv-sim | products-sim | papers-sim  [arxiv-sim]
  --scale X           preset size multiplier                         [0.05]
  --data-file PATH    load a dataset saved with save_dataset() instead
  --arch NAME         sage | gat | gin | sage-ri                     [sage]
  --hidden N          hidden channels                                [64]
  --layers N          GNN depth (both fanout lists must match)       [3]
  --fanouts A,B,C     training fanouts                               [15,10,5]
  --infer-fanouts ... inference fanouts                              [20,20,20]
  --epochs N          training epochs                                [4]
  --batch N           mini-batch size                                [512]
  --workers N         preparation workers                            [2]
  --lr X              Adam learning rate                             [3e-3]
  --mode M            salient (pipelined) | baseline (blocking PyG)  [salient]
  --cache-pct P       device feature cache, percent of nodes         [0]
  --cache-policy M    degree | presample | lru | auto (docs/CACHING.md)
                                                                     [degree]
  --feature-dtype D   feature wire format: f32 | f16 | i8q
                      (docs/PERFORMANCE.md)                          [f16]
  --seed N            global seed                                    [1]
  --save PATH         write a checkpoint after training
  --load PATH         load a checkpoint before training
  --trace-out PATH    write a Chrome trace of the run (open in Perfetto)
  --metrics-out PATH  dump the metrics registry as JSON on exit
  --help              this text

options may be spelled --key value or --key=value.
)";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace salient;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--help") {
      usage();
      return 0;
    }
    if (key.rfind("--", 0) != 0) {
      std::cerr << "bad argument: " << key << " (try --help)\n";
      return 1;
    }
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(2, eq - 2)] = key.substr(eq + 1);
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "bad argument: " << key << " (try --help)\n";
      return 1;
    }
    args[key.substr(2)] = argv[++i];
  }
  auto get = [&args](const char* key, const std::string& def) {
    auto it = args.find(key);
    return it == args.end() ? def : it->second;
  };

  SystemConfig cfg;
  cfg.dataset = get("dataset", "arxiv-sim");
  cfg.dataset_scale = std::stod(get("scale", "0.05"));
  cfg.arch = get("arch", "sage");
  cfg.hidden_channels = std::stoll(get("hidden", "64"));
  cfg.num_layers = std::stoi(get("layers", "3"));
  cfg.train_fanouts = parse_fanouts(get("fanouts", "15,10,5"));
  cfg.infer_fanouts = parse_fanouts(get("infer-fanouts", "20,20,20"));
  cfg.batch_size = std::stoll(get("batch", "512"));
  cfg.num_workers = std::stoi(get("workers", "2"));
  cfg.lr = std::stod(get("lr", "3e-3"));
  cfg.seed = std::stoull(get("seed", "1"));
  cfg.cache_percentage = std::stod(get("cache-pct", "0")) / 100.0;
  cfg.cache_policy = get("cache-policy", "degree");
  cfg.feature_dtype = get("feature-dtype", "f16");
  try {
    parse_cache_policy(cfg.cache_policy);  // reject typos before building
    parse_feature_dtype(cfg.feature_dtype);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (try --help)\n";
    return 1;
  }
  cfg.trace_out = get("trace-out", "");
  cfg.metrics_out = get("metrics-out", "");
  const std::string mode = get("mode", "salient");
  if (mode == "baseline") {
    cfg.loader_kind = LoaderKind::kBaseline;
  } else if (mode != "salient") {
    std::cerr << "unknown --mode " << mode << "\n";
    return 1;
  }

  const int epochs = std::stoi(get("epochs", "4"));
  const std::string data_file = get("data-file", "");

  try {
    std::unique_ptr<System> sys;
    if (!data_file.empty()) {
      std::cout << "loading dataset from " << data_file << "\n";
      sys = std::make_unique<System>(load_dataset(data_file), cfg);
    } else {
      std::cout << "generating " << cfg.dataset << " (scale "
                << cfg.dataset_scale << ")\n";
      sys = std::make_unique<System>(cfg);
    }
    if (const auto& cache = sys->trainer().feature_cache()) {
      std::cout << "device feature cache: " << cache->capacity()
                << " nodes, policy " << cache->policy_name() << "\n";
    }
    std::cout << "model " << cfg.arch << " ("
              << sys->model()->num_parameters() << " parameters), mode "
              << mode << ", feature wire " << cfg.feature_dtype << "\n\n";

    const std::string load = get("load", "");
    if (!load.empty()) {
      nn::load_checkpoint(*sys->model(), load);
      std::cout << "restored checkpoint " << load << "\n";
    }
    for (int e = 0; e < epochs; ++e) {
      std::cout << sys->train_epoch().summary() << "\n";
    }
    std::cout << "\nval accuracy:  " << sys->val_accuracy()
              << "\ntest accuracy: " << sys->test_accuracy() << "\n";

    const std::string save = get("save", "");
    if (!save.empty()) {
      nn::save_checkpoint(*sys->model(), save);
      std::cout << "saved checkpoint " << save << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
