// Figure 5: epoch time when scaling to multiple GPUs (1..16, two per
// machine) with proportionally scaled effective batch size, SAGE (15,10,5).
//
// REAL rows: data-parallel training on a scaled dataset, run as a
// ClusterTrainer whose replication cache holds every remote vertex (the
// whole feature store on every replica, as in the paper's DDP runs; real
// ring all-reduce across replica threads) — validating the distributed
// *mechanics*; on one core the wall clock cannot show parallel speedup.
// SIMULATED rows: the calibrated cluster simulator on the paper-testbed
// profile, reproducing the scaling curves (larger graphs scale better;
// 4.5x-8x at 16 GPUs).
#include "bench_common.h"
#include "dist/cluster/cluster_trainer.h"
#include "graph/dataset.h"
#include "sim/pipeline_model.h"

int main() {
  using namespace salient;
  using namespace salient::benchutil;
  const double scale = env_scale();

  heading("Figure 5 (paper): 16-GPU speedups 4.45x (arxiv) .. 8.05x (papers)");

  heading("Figure 5 (REAL data-parallel mechanics, this machine, "
          "products-sim scaled)");
  {
    Dataset ds = generate_dataset(preset_config("products-sim",
                                                0.1 * scale));
    TablePrinter t({"replicas", "epoch", "steps", "loss", "remote MB",
                    "in sync"});
    for (const int world : {1, 2, 4}) {
      dist::ClusterConfig cfg;
      cfg.partition.num_nodes = world;
      cfg.cache.policy = CachePolicyKind::kDegree;
      cfg.cache.cache_percentage = 1.0;  // full replication
      cfg.model.in_channels = ds.feature_dim;
      cfg.model.hidden_channels = 32;
      cfg.model.out_channels = ds.num_classes;
      cfg.model.num_layers = 3;
      cfg.batch_size = world * 128;  // 128 rows per replica
      cfg.fanouts = {15, 10, 5};
      dist::ClusterTrainer trainer(ds, cfg);
      const auto r = trainer.train_epoch(0);
      t.add_row({std::to_string(world), fmt(r.wall_seconds, 2) + "s",
                 std::to_string(r.num_steps), fmt(r.mean_loss, 3),
                 fmt(static_cast<double>(r.remote_feature_bytes) / 1e6, 2),
                 trainer.replicas_in_sync() ? "yes" : "NO"});
    }
    t.print();
  }

  heading("Figure 5 (SIMULATED, paper testbed, full-scale workloads)");
  {
    TablePrinter t({"GPUs", "arxiv", "products", "papers", "papers speedup"});
    const sim::HwProfile hw;
    double papers_base = 0;
    for (const int gpus : {1, 2, 4, 8, 16}) {
      std::vector<std::string> row{std::to_string(gpus)};
      double papers_t = 0;
      for (const char* name : {"arxiv", "products", "papers"}) {
        const auto r = sim::simulate_epoch(sim::paper_workload(name), hw,
                                           sim::SystemOptions::salient(), 20,
                                           gpus);
        row.push_back(fmt(r.epoch_seconds, 2) + "s");
        if (std::string(name) == "papers") papers_t = r.epoch_seconds;
      }
      if (gpus == 1) papers_base = papers_t;
      row.push_back(fmt(papers_base / papers_t, 2) + "x");
      t.add_row(std::move(row));
    }
    t.print();
  }
  return 0;
}
