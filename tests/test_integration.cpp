// End-to-end integration tests through the salient::System facade: the full
// SALIENT stack (dataset -> loaders -> device -> model -> optimizer) trains
// to above-chance accuracy; the baseline configuration behaves equivalently
// in learning terms; sampled inference saturates with fanout (Table 6's
// qualitative claim at integration scale).
#include <gtest/gtest.h>

#include "core/system.h"

namespace salient {
namespace {

SystemConfig tiny_config() {
  SystemConfig cfg;
  cfg.dataset = "arxiv-sim";
  cfg.dataset_scale = 0.03;  // ~5K nodes: fast CI-size run
  cfg.arch = "sage";
  cfg.hidden_channels = 32;
  cfg.num_layers = 2;
  cfg.train_fanouts = {8, 5};
  cfg.infer_fanouts = {10, 10};
  cfg.batch_size = 256;
  cfg.num_workers = 2;
  cfg.lr = 5e-3;
  cfg.seed = 7;
  return cfg;
}

TEST(System, BuildsFromPreset) {
  System sys(tiny_config());
  EXPECT_EQ(sys.dataset().name, "arxiv-sim");
  EXPECT_EQ(sys.dataset().feature_dim, 128);
  EXPECT_EQ(sys.dataset().num_classes, 40);
  EXPECT_GT(sys.dataset().graph.num_nodes(), 4000);
  EXPECT_EQ(sys.model()->arch(), std::string("sage"));
}

TEST(System, SalientPipelineTrainsAboveChance) {
  System sys(tiny_config());
  auto stats = sys.train(6);
  ASSERT_EQ(stats.size(), 6u);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  const double acc = sys.test_accuracy();
  EXPECT_GT(acc, 0.30);  // chance is 1/40 = 0.025
  EXPECT_GT(sys.val_accuracy(), 0.30);
  EXPECT_EQ(sys.epochs_trained(), 6);
}

TEST(System, BaselineConfigurationAlsoTrains) {
  SystemConfig cfg = tiny_config();
  cfg.loader_kind = LoaderKind::kBaseline;
  System sys(cfg);
  auto stats = sys.train(4);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
  EXPECT_GT(sys.test_accuracy(), 0.2);
  // blocking run attributes blocking time to transfer (assertions on)
  EXPECT_GT(stats.front().blocking.total(Phase::kTransfer), 0.0);
}

TEST(System, CustomDatasetConstructor) {
  DatasetConfig dc;
  dc.name = "custom";
  dc.num_nodes = 3000;
  dc.feature_dim = 12;
  dc.num_classes = 3;
  dc.avg_degree = 8;
  dc.seed = 5;
  Dataset ds = generate_dataset(dc);
  SystemConfig cfg = tiny_config();
  cfg.hidden_channels = 16;
  System sys(std::move(ds), cfg);
  EXPECT_EQ(sys.dataset().name, "custom");
  sys.train(3);
  EXPECT_GT(sys.test_accuracy(), 0.4);  // 3 classes, strong structure
}

TEST(System, InferenceFanoutSweepSaturates) {
  System sys(tiny_config());
  sys.train(6);
  const std::vector<std::int64_t> f5{5, 5};
  const std::vector<std::int64_t> f20{20, 20};
  const double a5 = sys.test_accuracy(f5);
  const double a20 = sys.test_accuracy(f20);
  // fanout 20 within a whisker of (usually above) fanout 5
  EXPECT_GT(a20, a5 - 0.03);
}

TEST(System, ParseFanoutsHelper) {
  EXPECT_EQ(parse_fanouts("15,10,5"),
            (std::vector<std::int64_t>{15, 10, 5}));
  EXPECT_EQ(parse_fanouts("20"), (std::vector<std::int64_t>{20}));
  EXPECT_THROW(parse_fanouts(""), std::invalid_argument);
}

TEST(System, ArchitectureSweepRuns) {
  for (const char* arch : {"gat", "gin", "sage-ri"}) {
    SystemConfig cfg = tiny_config();
    cfg.arch = arch;
    cfg.batch_size = 512;
    System sys(cfg);
    auto stats = sys.train(1);
    EXPECT_GT(stats[0].num_batches, 0) << arch;
    EXPECT_TRUE(std::isfinite(stats[0].mean_loss)) << arch;
  }
}

}  // namespace
}  // namespace salient
