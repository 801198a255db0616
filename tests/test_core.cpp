// System-facade tests: configuration propagation, error paths, and the
// cross-cutting integrations (feature cache through SystemConfig, MFG/model
// depth contracts, device assertion mode by pipeline choice).
#include <gtest/gtest.h>

#include "core/system.h"
#include "sampling/fast_sampler.h"

namespace salient {
namespace {

SystemConfig small_cfg() {
  SystemConfig cfg;
  cfg.dataset = "arxiv-sim";
  cfg.dataset_scale = 0.02;
  cfg.hidden_channels = 16;
  cfg.num_layers = 2;
  cfg.train_fanouts = {6, 4};
  cfg.infer_fanouts = {8, 8};
  cfg.batch_size = 256;
  cfg.num_workers = 1;
  return cfg;
}

TEST(SystemConfig, BaselineModeEnablesTransferValidation) {
  // The PyG baseline keeps the blocking sparse-tensor assertions (4.3);
  // SALIENT skips them. The System derives this, and the baseline's
  // blocking pipeline depth 0, from the loader kind.
  SystemConfig cfg = small_cfg();
  cfg.loader_kind = LoaderKind::kBaseline;
  System baseline(cfg);
  EXPECT_TRUE(baseline.device().config().validate_sparse_after_transfer);
  EXPECT_EQ(baseline.trainer().config().pipeline_depth, 0);

  cfg = small_cfg();
  System pipelined(cfg);
  EXPECT_FALSE(pipelined.device().config().validate_sparse_after_transfer);
  EXPECT_GT(pipelined.trainer().config().pipeline_depth, 0);
}

TEST(SystemConfig, FeatureCachePropagatesToTrainer) {
  SystemConfig cfg = small_cfg();
  cfg.cache_percentage = 0.0296;  // 100 of arxiv-sim@0.02's 3,380 nodes
  System sys(cfg);
  ASSERT_NE(sys.trainer().feature_cache(), nullptr);
  EXPECT_EQ(sys.trainer().feature_cache()->capacity(), 100);
  sys.train_epoch();  // cached path end to end
  SystemConfig no_cache = small_cfg();
  System plain(no_cache);
  EXPECT_EQ(plain.trainer().feature_cache(), nullptr);
}

TEST(System, AccuraciesRunTheTrainersInferenceWindow) {
  // test_accuracy is the trainer's inference_epoch, and on the f16 wire
  // without a cache both equal evaluate_sampled over the same nodes, batches
  // and seed: one sampled-inference path.
  SystemConfig cfg = small_cfg();
  System sys(cfg);
  sys.train_epoch();
  const std::vector<std::int64_t> fanouts{5, 5};
  const std::uint64_t seed = cfg.seed ^ 0x7e57;
  const double acc = sys.test_accuracy(fanouts);
  const Dataset& ds = sys.dataset();
  EXPECT_EQ(acc, sys.trainer().inference_epoch(ds.test_idx, fanouts, seed)
                     .accuracy);
  EXPECT_EQ(acc, evaluate_sampled(*sys.model(), ds, ds.test_idx, fanouts,
                                  cfg.batch_size, seed)
                     .accuracy);
}

TEST(SystemConfig, RejectsUnknownDatasetAndArch) {
  SystemConfig cfg = small_cfg();
  cfg.dataset = "reddit";
  EXPECT_THROW(System{cfg}, std::invalid_argument);
  cfg = small_cfg();
  cfg.arch = "transformer";
  EXPECT_THROW(System{cfg}, std::invalid_argument);
}

TEST(System, ModelDepthMustMatchFanoutDepth) {
  // A 2-layer model fed a 3-level MFG must fail loudly, not silently.
  SystemConfig cfg = small_cfg();
  System sys(cfg);
  FastSampler sampler(sys.dataset().graph, {3, 3, 3});
  std::vector<NodeId> batch{0, 1, 2};
  Mfg mfg = sampler.sample(batch, 1);
  Tensor x = Tensor::uniform({mfg.num_input_nodes(),
                              sys.dataset().feature_dim},
                             1, -1, 1);
  EXPECT_THROW(sys.model()->forward(Variable(x), mfg),
               std::invalid_argument);
  // Sampled inference runs that forward on the compute stream, and the
  // pass rethrows its error instead of reporting an accuracy.
  const std::vector<std::int64_t> three_levels{3, 3, 3};
  EXPECT_THROW(sys.test_accuracy(three_levels), std::invalid_argument);
}

TEST(System, RejectsFanoutListsOfTheWrongDepth) {
  // Both fanout lists must name one fanout per layer, checked when the
  // System is built rather than at the first forward of another depth,
  // which for the inference fanouts comes only after training.
  SystemConfig train_short = small_cfg();
  train_short.train_fanouts = {6};
  EXPECT_THROW(System{train_short}, std::invalid_argument);
  SystemConfig infer_long = small_cfg();
  infer_long.infer_fanouts = {8, 8, 8};
  EXPECT_THROW(System{infer_long}, std::invalid_argument);
  const Dataset ds = generate_dataset(
      preset_config(small_cfg().dataset, small_cfg().dataset_scale));
  EXPECT_THROW((System{ds, infer_long}), std::invalid_argument);
}

TEST(System, EpochSeedsAdvance) {
  // Two epochs must not replay identical batches (epoch seed advances):
  // compare per-epoch mean loss trajectories under frozen LR 0 — identical
  // sampling would give identical loss.
  SystemConfig cfg = small_cfg();
  cfg.lr = 0.0;  // no parameter movement: loss differences come from batches
  System sys(cfg);
  const double l0 = sys.train_epoch().mean_loss;
  const double l1 = sys.train_epoch().mean_loss;
  EXPECT_NE(l0, l1);
}

TEST(System, StatsAreInternallyConsistent) {
  SystemConfig cfg = small_cfg();
  System sys(cfg);
  const EpochStats s = sys.train_epoch();
  EXPECT_GT(s.epoch_seconds, 0.0);
  EXPECT_GE(s.epoch_seconds + 1e-6, s.blocking.grand_total() * 0.5);
  EXPECT_EQ(s.num_batches,
            static_cast<std::int64_t>(
                (sys.dataset().train_idx.size() + 255) / 256));
  EXPECT_GT(s.transfer_bytes,
            static_cast<std::size_t>(s.num_batches));  // nonzero per batch
  EXPECT_NE(s.summary().find("epoch 0"), std::string::npos);
}

}  // namespace
}  // namespace salient
