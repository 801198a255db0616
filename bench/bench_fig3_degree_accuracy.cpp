// Figure 3: test accuracy and node count versus node degree on
// ogbn-products (GraphSAGE), for full-neighborhood inference and sampling
// fanouts 5/10/20. The paper's observation: high-degree nodes are few and
// predicted less accurately under full neighborhoods, and growing fanout
// approximates the full-neighborhood accuracy profile from the left
// (low-degree) side first.
//
// Fully REAL: per-node predictions from the actual inference paths, bucketed
// by (log-scaled) test-node degree.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/system.h"
#include "train/inference.h"

int main() {
  using namespace salient;
  using namespace salient::benchutil;
  const double scale = 0.05 * env_scale();
  const int epochs = env_epochs(8);

  // Harder low-SNR features + denser train split (see bench_table6 note).
  DatasetConfig dc = preset_config("products-sim", scale);
  dc.feature_signal = 0.12;
  dc.feature_noise = 1.0;
  dc.train_frac = 0.3;
  dc.val_frac = 0.05;
  dc.test_frac = 0.3;
  SystemConfig cfg;
  cfg.hidden_channels = 64;
  cfg.num_layers = 3;
  cfg.train_fanouts = {15, 10, 5};
  cfg.batch_size = 512;
  cfg.num_workers = 2;
  System sys(generate_dataset(dc), cfg);
  std::cout << "training GraphSAGE on " << sys.dataset().name << " ("
            << sys.dataset().graph.num_nodes() << " nodes) for " << epochs
            << " epochs...\n";
  sys.train(epochs);

  const Dataset& ds = sys.dataset();
  const auto& test = ds.test_idx;

  // Predictions per fanout setting.
  struct Series {
    std::string label;
    std::vector<std::int64_t> pred;
  };
  std::vector<Series> series;
  series.push_back(
      {"all", evaluate_layerwise(*sys.model(), ds, test).predictions});
  for (const std::int64_t f : {20, 10, 5}) {
    const std::vector<std::int64_t> fan{f, f, f};
    series.push_back({std::to_string(f),
                      evaluate_sampled(*sys.model(), ds, test, fan, 512, 7)
                          .predictions});
  }

  // Degree buckets: powers of two.
  const int kBuckets = 12;
  auto bucket_of = [](std::int64_t deg) {
    int b = 0;
    while (deg > 1 && b < kBuckets - 1) {
      deg >>= 1;
      ++b;
    }
    return b;
  };
  std::vector<std::int64_t> count(kBuckets, 0);
  std::vector<std::vector<std::int64_t>> hits(
      series.size(), std::vector<std::int64_t>(kBuckets, 0));
  const std::int64_t* labels = ds.labels.data<std::int64_t>();
  for (std::size_t i = 0; i < test.size(); ++i) {
    const int b = bucket_of(ds.graph.degree(test[i]));
    ++count[static_cast<std::size_t>(b)];
    for (std::size_t s = 0; s < series.size(); ++s) {
      hits[s][static_cast<std::size_t>(b)] +=
          (series[s].pred[i] == labels[test[i]]);
    }
  }

  heading("Figure 3 (REAL): accuracy and node count vs degree (" +
          ds.name + ")");
  TablePrinter t({"degree", "#nodes", "acc(all)", "acc(20)", "acc(10)",
                  "acc(5)"});
  for (int b = 0; b < kBuckets; ++b) {
    if (count[static_cast<std::size_t>(b)] == 0) continue;
    std::vector<std::string> row;
    const std::int64_t lo = b == 0 ? 0 : (1LL << b);
    std::string range = "[";
    range += std::to_string(lo);
    range += ',';
    range += std::to_string((2LL << b) - 1);
    range += ']';
    row.push_back(std::move(range));
    row.push_back(std::to_string(count[static_cast<std::size_t>(b)]));
    for (std::size_t s = 0; s < series.size(); ++s) {
      row.push_back(fmt(
          static_cast<double>(hits[s][static_cast<std::size_t>(b)]) /
              static_cast<double>(count[static_cast<std::size_t>(b)]),
          3));
    }
    t.add_row(std::move(row));
  }
  t.print();
  std::cout << "\n(high-degree buckets hold few nodes; small fanouts track"
               "\n the full-neighborhood profile on low-degree nodes first,"
               "\n larger fanouts close the gap on the right — Figure 3)\n";
  return 0;
}
