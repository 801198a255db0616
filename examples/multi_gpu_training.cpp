// Distributed data-parallel training across simulated devices (paper §6,
// "Multi-GPU scaling"): replicas keep parameters in sync via ring
// all-reduce; the effective batch size scales with the number of replicas.
// It runs as a ClusterTrainer whose replication cache holds every remote
// vertex, so each replica reads its whole feature store locally and no
// feature row crosses the interconnect.
// Also prints the calibrated cluster-simulator projection of the same run
// on the paper's testbed hardware at 1..16 GPUs (Figure 5's experiment).
//
//   ./multi_gpu_training [world_size] [epochs]
#include <cstdlib>
#include <iostream>

#include "dist/cluster/cluster_trainer.h"
#include "graph/dataset.h"
#include "sim/calibration.h"
#include "sim/pipeline_model.h"
#include "train/inference.h"

int main(int argc, char** argv) {
  using namespace salient;
  const int world = argc > 1 ? std::atoi(argv[1]) : 2;
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 3;

  DatasetConfig dc = products_sim_config(0.03);
  Dataset ds = generate_dataset(dc);
  std::cout << "dataset " << ds.name << ": " << ds.graph.num_nodes()
            << " nodes, " << ds.graph.num_edges() << " adjacency entries, "
            << ds.train_idx.size() << " train nodes\n";

  dist::ClusterConfig cfg;
  cfg.partition.num_nodes = world;
  cfg.cache.policy = CachePolicyKind::kDegree;
  cfg.cache.cache_percentage = 1.0;  // full replication
  cfg.arch = "sage";
  cfg.model.in_channels = ds.feature_dim;
  cfg.model.hidden_channels = 64;
  cfg.model.out_channels = ds.num_classes;
  cfg.model.num_layers = 3;
  cfg.batch_size = world * 256;  // 256 rows per replica
  cfg.fanouts = {15, 10, 5};
  dist::ClusterTrainer trainer(ds, cfg);

  std::cout << "training with " << world << " replicas (ring all-reduce)\n";
  for (int e = 0; e < epochs; ++e) {
    const auto r = trainer.train_epoch(e);
    std::cout << "epoch " << e << ": " << r.wall_seconds << "s, loss "
              << r.mean_loss << ", " << r.num_steps << " steps, remote "
              << static_cast<double>(r.remote_feature_bytes) / 1e6
              << " MB, in sync: "
              << (trainer.replicas_in_sync() ? "yes" : "NO!") << "\n";
  }
  const std::vector<std::int64_t> fanouts{20, 20, 20};
  std::cout << "test accuracy: "
            << evaluate_sampled(*trainer.replica(0), ds, ds.test_idx, fanouts,
                                256, 1)
                   .accuracy
            << "\n\n";

  // Project the same workload onto the paper's cluster (Figure 5).
  sim::CalibrationConfig cc;
  cc.batch_size = 256;
  cc.fanouts = {15, 10, 5};
  cc.hidden_channels = 64;
  const sim::WorkloadModel w = sim::calibrate(ds, cc);
  const sim::HwProfile hw;
  std::cout << "cluster-simulator projection (paper testbed, SALIENT):\n";
  for (const int gpus : {1, 2, 4, 8, 16}) {
    const auto r = sim::simulate_epoch(w, hw, sim::SystemOptions::salient(),
                                       20, gpus);
    std::cout << "  " << gpus << " GPUs: " << r.epoch_seconds
              << " s/epoch\n";
  }
  return 0;
}
