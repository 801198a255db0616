// Ablations for the paper's §8 future-work directions implemented in this
// repository:
//   (a) device feature caching (GNS-style, Dong et al. 2021): cache capacity
//       vs hit rate vs host->device transfer volume;
//   (b) streaming graph partitioning (LDG vs random): edge cut, balance, and
//       the distributed-sampling communication fraction the paper says a
//       partitioning objective should account for.
#include "bench_common.h"
#include "core/system.h"
#include "train/inference.h"
#include "prep/feature_cache.h"
#include "graph/partition.h"
#include "prep/batch.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "util/timer.h"

int main() {
  using namespace salient;
  using namespace salient::benchutil;
  const double scale = 0.1 * env_scale();

  Dataset ds = generate_dataset(preset_config("products-sim", scale));
  const std::vector<std::int64_t> fanouts{15, 10, 5};
  std::cout << "dataset " << ds.name << ": " << ds.graph.num_nodes()
            << " nodes, " << ds.graph.num_edges() << " adjacency entries\n";

  heading("(a) Device feature cache: capacity vs hit rate vs transfer volume");
  {
    FastSampler sampler(ds.graph, fanouts);
    // Sample a fixed set of batches once; evaluate each cache against them.
    std::vector<Mfg> mfgs;
    const std::int64_t bs = 512;
    for (int b = 0; b < 6; ++b) {
      if ((b + 1) * bs > static_cast<std::int64_t>(ds.train_idx.size())) {
        break;
      }
      mfgs.push_back(sampler.sample(
          {ds.train_idx.data() + b * bs, static_cast<std::size_t>(bs)},
          100 + static_cast<unsigned>(b)));
    }
    TablePrinter t({"cache capacity", "device MB", "hit rate",
                    "feature MB/batch", "saved"});
    double base_mb = 0;
    for (const double frac : {0.0, 0.01, 0.05, 0.10, 0.25}) {
      FeatureCache cache(
          ds, static_cast<std::int64_t>(frac * static_cast<double>(
                                                   ds.graph.num_nodes())));
      double hit = 0, mb = 0;
      for (const auto& mfg : mfgs) {
        const CachePlan plan = plan_cached_batch(mfg, cache);
        hit += plan.hit_rate();
        mb += static_cast<double>(plan.num_missing) *
              static_cast<double>(ds.feature_dim) * 2 / 1e6;
      }
      hit /= static_cast<double>(mfgs.size());
      mb /= static_cast<double>(mfgs.size());
      if (frac == 0.0) base_mb = mb;
      t.add_row({fmt(100 * frac, 0) + "% of nodes",
                 fmt(static_cast<double>(cache.device_bytes()) / 1e6, 1),
                 fmt(100 * hit, 1) + "%", fmt(mb, 2),
                 fmt(100 * (1 - mb / base_mb), 1) + "%"});
    }
    t.print();
    std::cout << "(degree-ordered static cache; hit rate exceeds the "
                 "capacity fraction because sampling favours hubs)\n";
  }

  heading("(b) Trainer-integrated cache: per-epoch transfer volume");
  {
    TablePrinter t({"cache", "epoch transfer", "epoch time", "final loss"});
    for (const std::int64_t frac_pct : {0, 10, 25}) {
      SystemConfig cfg;
      DatasetConfig dc = preset_config("products-sim", scale);
      Dataset dsc = generate_dataset(dc);
      cfg.hidden_channels = 16;
      cfg.batch_size = 512;
      cfg.num_workers = 2;
      cfg.cache_percentage = static_cast<double>(frac_pct) / 100.0;
      System sys(std::move(dsc), cfg);
      const EpochStats s = sys.train_epoch();
      t.add_row({std::to_string(frac_pct) + "% of nodes",
                 fmt(static_cast<double>(s.transfer_bytes) / 1e6, 1) + "MB",
                 fmt(s.epoch_seconds, 2) + "s", fmt(s.mean_loss, 3)});
    }
    t.print();
    std::cout << "(transfer_bytes counts staged bytes; cached rows never "
                 "leave the device)\n";
  }

  heading("(c) Lazy sampling schedule (LazyGCN, paper 2.2): period vs "
          "prep cost vs accuracy");
  {
    TablePrinter t({"period", "mean epoch", "prep-free epochs", "test acc"});
    DatasetConfig dc = preset_config("products-sim", scale);
    dc.train_frac = 0.3;
    dc.val_frac = 0.05;
    dc.test_frac = 0.3;
    dc.feature_signal = 0.12;
    Dataset dsl = generate_dataset(dc);
    for (const int period : {1, 3, 5}) {
      nn::ModelConfig mc;
      mc.in_channels = dsl.feature_dim;
      mc.hidden_channels = 32;
      mc.out_channels = dsl.num_classes;
      mc.num_layers = 3;
      mc.seed = 5;
      auto model = nn::make_model("sage", mc);
      DeviceSim device;
      TrainConfig tc;
      tc.loader.batch_size = 512;
      tc.loader.fanouts = {15, 10, 5};
      tc.loader.num_workers = 2;
      tc.sampling_period = period;
      Trainer trainer(dsl, model, device, tc);
      double total = 0;
      int prep_free = 0;
      const int epochs = 6;
      for (int e = 0; e < epochs; ++e) {
        const EpochStats s = trainer.train_epoch(e);
        total += s.epoch_seconds;
        prep_free += (period > 1 && e % period != 0);
      }
      const std::vector<std::int64_t> fan{20, 20, 20};
      const double acc =
          evaluate_sampled(*model, dsl, dsl.test_idx, fan, 512, 3).accuracy;
      t.add_row({std::to_string(period), fmt(total / epochs, 3) + "s",
                 std::to_string(prep_free) + "/" + std::to_string(epochs),
                 fmt(acc, 4)});
    }
    t.print();
    std::cout << "(longer periods skip preparation on replay epochs at a "
                 "small accuracy cost — the LazyGCN tradeoff)\n";
  }

  heading("(d) Graph partitioning: LDG vs random (4 and 8 parts)");
  {
    TablePrinter t({"parts", "method", "edge cut", "balance",
                    "sampling comm", "partition time"});
    for (const int parts : {4, 8}) {
      WallTimer timer;
      GraphPartition random = partition_random(ds.graph, parts, 7);
      const double t_rand = timer.seconds();
      timer.reset();
      GraphPartition ldg = partition_ldg(ds.graph, parts);
      const double t_ldg = timer.seconds();
      for (const auto& [name, p, secs] :
           {std::tuple<const char*, const GraphPartition&, double>{
                "random", random, t_rand},
            {"LDG", ldg, t_ldg}}) {
        const double comm = estimate_sampling_comm_fraction(
            ds.graph, p, ds.train_idx, fanouts, 512, 4, 17);
        t.add_row({std::to_string(parts), name,
                   fmt(100 * edge_cut_fraction(ds.graph, p), 1) + "%",
                   fmt(balance_factor(p), 3),
                   fmt(100 * comm, 1) + "%", fmt(secs * 1e3, 1) + "ms"});
      }
    }
    t.print();
    std::cout << "(sampling comm = fraction of sampled MFG edges crossing "
                 "partitions,\n i.e. remote neighbor fetches a distributed "
                 "sampler would pay — §8)\n";
  }
  return 0;
}
