// Training-loop tests: every pipeline depth (0 = blocking) produces EXACTLY
// the same parameters (same seeds), loss decreases, learned accuracy beats
// chance, sampled inference predicts alike through inference_epoch and
// evaluate_sampled, and it agrees closely with layer-wise full-neighborhood
// inference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string_view>

#include "graph/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "nn/models.h"
#include "optim/adam.h"
#include "tensor/kernel_config.h"
#include "train/inference.h"
#include "train/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

Dataset& train_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "train-test";
    c.num_nodes = 6000;
    c.feature_dim = 24;
    c.num_classes = 5;
    c.avg_degree = 10;
    c.p_in = 0.85;
    c.feature_signal = 0.4;
    c.feature_noise = 0.8;
    c.seed = 11;
    return generate_dataset(c);
  }();
  return ds;
}

nn::ModelConfig model_config(const Dataset& ds, std::uint64_t seed = 9) {
  nn::ModelConfig mc;
  mc.in_channels = ds.feature_dim;
  mc.hidden_channels = 32;
  mc.out_channels = ds.num_classes;
  mc.num_layers = 2;
  mc.seed = seed;
  return mc;
}

TrainConfig train_config() {
  TrainConfig tc;
  tc.loader.batch_size = 256;
  tc.loader.fanouts = {8, 5};
  tc.loader.num_workers = 1;
  tc.loader.seed = 21;
  tc.lr = 5e-3;
  return tc;
}

TEST(Trainer, PipelinedMatchesBlockingExactly) {
  // Pipelining is a pure performance transformation: with one worker and
  // identical seeds, every pipeline depth (0 = blocking) trains the same
  // losses and bit-identical parameters, and infers the same accuracy over
  // the same batches and bytes — uncached f16 and cached i8q, fresh epochs
  // and the LazyGCN replay schedule alike.
  const Dataset& ds = train_dataset();
  struct Wire {
    DType dtype;
    double cache_percentage;
  };
  struct Run {
    std::vector<double> losses;
    std::vector<std::size_t> bytes;
    std::shared_ptr<nn::GnnModel> model;
    Trainer::InferenceEpoch infer;
  };
  auto run = [&](int depth, Wire wire, int period) {
    Run r;
    r.model = nn::make_model("sage", model_config(ds));
    DeviceSim device;
    TrainConfig tc = train_config();
    tc.pipeline_depth = depth;
    tc.loader.feature_dtype = wire.dtype;
    tc.loader.cache_percentage = wire.cache_percentage;
    tc.sampling_period = period;
    Trainer trainer(ds, r.model, device, tc);
    for (int e = 0; e < 4; ++e) {  // period 3: fresh, replay, replay, fresh
      const EpochStats s = trainer.train_epoch(e);
      r.losses.push_back(s.mean_loss);
      r.bytes.push_back(s.transfer_bytes);
    }
    const std::vector<std::int64_t> fanouts{10, 10};
    r.infer = trainer.inference_epoch(ds.test_idx, fanouts, 3);
    return r;
  };
  for (const Wire wire : {Wire{DType::kF16, 0.0}, Wire{DType::kInt8Q, 0.1}}) {
    for (const int period : {1, 3}) {
      SCOPED_TRACE(std::string(dtype_name(wire.dtype)) + " period " +
                   std::to_string(period));
      const Run ref = run(0, wire, period);
      for (const int depth : {1, 2, 4}) {
        SCOPED_TRACE("depth " + std::to_string(depth));
        const Run r = run(depth, wire, period);
        EXPECT_EQ(r.losses, ref.losses);
        EXPECT_EQ(r.bytes, ref.bytes);
        const auto pa = ref.model->parameters();
        const auto pb = r.model->parameters();
        ASSERT_EQ(pa.size(), pb.size());
        for (std::size_t i = 0; i < pa.size(); ++i) {
          EXPECT_TRUE(allclose(pa[i].data(), pb[i].data(), 0.0, 0.0))
              << "parameter " << i << " diverged";
        }
        EXPECT_EQ(r.infer.accuracy, ref.infer.accuracy);
        EXPECT_EQ(r.infer.num_batches, ref.infer.num_batches);
        EXPECT_EQ(r.infer.transfer_bytes, ref.infer.transfer_bytes);
      }
    }
  }
}

TEST(TrainStep, BitwiseEqualAcrossKernelPools) {
  // One train_step of a 3-layer GraphSAGE at kernel pools of 1, 4 and 8
  // threads. Layer 0 maps 6,000 rows to 4,500 at 128 features: its fused
  // conv GEMM (4,500 x 256 x 64) clears ops::kGemmGrain, so it splits row
  // panels across the pool, and so do its weight gradients (64 x 4,500 x
  // 128 each), which take the split-K path over several K chunks. Loss,
  // every gradient and every updated parameter must be bitwise equal.
  const std::int64_t sizes[] = {6000, 4500, 1500, 512};
  const std::int64_t fanout = 6;
  Mfg mfg;
  Xoshiro256ss rng(71);
  for (int l = 0; l < 3; ++l) {
    std::vector<std::int64_t> indptr{0}, indices;
    for (std::int64_t d = 0; d < sizes[l + 1]; ++d) {
      for (std::int64_t k = 0; k < fanout; ++k) {
        indices.push_back(static_cast<std::int64_t>(
            bounded_rand(rng, static_cast<std::uint64_t>(sizes[l]))));
      }
      indptr.push_back(static_cast<std::int64_t>(indices.size()));
    }
    MfgLevel level;
    level.num_src = sizes[l];
    level.num_dst = sizes[l + 1];
    level.indptr = std::make_shared<std::vector<std::int64_t>>(indptr);
    level.indices = std::make_shared<std::vector<std::int64_t>>(indices);
    mfg.levels.push_back(level);
  }
  mfg.n_ids.resize(static_cast<std::size_t>(sizes[0]));
  std::iota(mfg.n_ids.begin(), mfg.n_ids.end(), NodeId{0});
  mfg.batch_size = sizes[3];
  ASSERT_TRUE(mfg.valid());
  const std::int64_t in = 128, hidden = 64, classes = 16;
  ASSERT_GE(hidden * sizes[1] * in, ops::kGemmGrain);
  const Tensor x = Tensor::uniform({sizes[0], in}, 72, -1, 1);
  std::vector<std::int64_t> labels;
  for (std::int64_t i = 0; i < sizes[3]; ++i) {
    labels.push_back(static_cast<std::int64_t>(bounded_rand(rng, classes)));
  }
  const Tensor y = Tensor::from_vector(labels);

  struct Result {
    double loss = 0;
    std::vector<Tensor> grads, params;
  };
  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    ops::set_kernel_pool(&pool);
    auto model = nn::make_model("sage", nn::ModelConfig{in, hidden, classes,
                                                         3, 5});
    optim::Adam opt(model->parameters(), 1e-2);
    Result r;
    r.loss = train_step(*model, opt, x, mfg, y);
    for (const Variable& p : model->parameters()) {
      r.grads.push_back(p.grad().clone());
      r.params.push_back(p.data().clone());
    }
    ops::set_kernel_pool(nullptr);
    return r;
  };
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.raw(), b.raw(), a.nbytes()) == 0;
  };
  const Result base = run(1);
  for (const std::size_t threads : {4u, 8u}) {
    const Result r = run(threads);
    EXPECT_EQ(std::memcmp(&base.loss, &r.loss, sizeof(double)), 0)
        << threads << " threads: loss " << base.loss << " vs " << r.loss;
    ASSERT_EQ(base.grads.size(), r.grads.size());
    for (std::size_t i = 0; i < base.grads.size(); ++i) {
      EXPECT_TRUE(same(base.grads[i], r.grads[i]))
          << threads << " threads: gradient " << i;
      EXPECT_TRUE(same(base.params[i], r.params[i]))
          << threads << " threads: parameter " << i;
    }
  }
}

TEST(Trainer, EveryBatchSpanOpensOnceAndClosesAtRetire) {
  // Each source opens one async `batch` span per batch it yields and the
  // trainer closes it when it retires the batch: at depth 0 and 2, from
  // either loader, and on a LazyGCN replay epoch.
  if constexpr (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (SALIENT_TRACING=OFF)";
  }
  const Dataset& ds = train_dataset();
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();
  struct Case {
    int depth;
    LoaderKind loader;
    bool replay;
  };
  for (const Case c : {Case{0, LoaderKind::kSalient, false},
                       Case{2, LoaderKind::kSalient, false},
                       Case{0, LoaderKind::kBaseline, false},
                       Case{0, LoaderKind::kSalient, true},
                       Case{2, LoaderKind::kSalient, true}}) {
    SCOPED_TRACE("depth " + std::to_string(c.depth) +
                 (c.loader == LoaderKind::kBaseline ? " baseline" : "") +
                 (c.replay ? " replay" : ""));
    auto model = nn::make_model("sage", model_config(ds));
    DeviceSim device;
    TrainConfig tc = train_config();
    tc.pipeline_depth = c.depth;
    tc.loader_kind = c.loader;
    tc.sampling_period = c.replay ? 2 : 1;
    Trainer trainer(ds, model, device, tc);
    if (c.replay) trainer.train_epoch(0);  // the epoch that epoch 1 replays
    recorder.reset();
    recorder.enable(true);
    const EpochStats s = trainer.train_epoch(c.replay ? 1 : 0);
    recorder.enable(false);
    std::int64_t begins = 0, ends = 0;
    for (const obs::CollectedEvent& ce : recorder.collect()) {
      if (std::string_view(ce.event.name) != "batch") continue;
      begins += ce.event.kind == obs::EventKind::kAsyncBegin;
      ends += ce.event.kind == obs::EventKind::kAsyncEnd;
    }
    recorder.reset();
    EXPECT_GT(s.num_batches, 0);
    EXPECT_EQ(begins, s.num_batches);
    EXPECT_EQ(ends, s.num_batches);
  }
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds));
  DeviceSim device;
  TrainConfig tc = train_config();
  Trainer trainer(ds, model, device, tc);
  EpochStats first = trainer.train_epoch(0);
  EpochStats last;
  for (int e = 1; e < 5; ++e) last = trainer.train_epoch(e);
  EXPECT_LT(last.mean_loss, first.mean_loss * 0.8);
  EXPECT_GT(last.train_accuracy, 0.5);  // chance = 0.2
  EXPECT_GT(first.num_batches, 0);
  EXPECT_GT(first.transfer_bytes, 0u);
}

TEST(Trainer, BaselineLoaderAlsoLearns) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 31));
  DeviceSim device;
  TrainConfig tc = train_config();
  tc.loader_kind = LoaderKind::kBaseline;
  tc.pipeline_depth = 0;
  tc.loader.num_workers = 2;
  Trainer trainer(ds, model, device, tc);
  EpochStats first = trainer.train_epoch(0);
  EpochStats last;
  for (int e = 1; e < 4; ++e) last = trainer.train_epoch(e);
  EXPECT_LT(last.mean_loss, first.mean_loss);
  // blocking stats attribute time to all three phases
  EXPECT_GT(first.blocking.total(Phase::kSample), 0.0);
  EXPECT_GT(first.blocking.total(Phase::kTransfer), 0.0);
  EXPECT_GT(first.blocking.total(Phase::kTrain), 0.0);
}

TEST(Trainer, RejectsBadPipelineDepths) {
  // A negative depth, and the baseline above depth 0: the baseline is
  // Listing 1's blocking workflow. Nor does the baseline take a feature
  // cache, which its loader never plans against.
  const Dataset& ds = train_dataset();
  DeviceSim device;
  TrainConfig negative = train_config();
  negative.pipeline_depth = -1;
  TrainConfig baseline = train_config();
  baseline.loader_kind = LoaderKind::kBaseline;
  ASSERT_GT(baseline.pipeline_depth, 0);
  TrainConfig cached_baseline = baseline;
  cached_baseline.pipeline_depth = 0;
  cached_baseline.loader.cache_percentage = 0.1;
  for (const TrainConfig& tc : {negative, baseline, cached_baseline}) {
    EXPECT_THROW(Trainer(ds, nn::make_model("sage", model_config(ds)),
                         device, tc),
                 std::invalid_argument);
  }
}

TEST(Trainer, MultiWorkerPipelinedLearns) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 41));
  DeviceSim device;
  TrainConfig tc = train_config();
  tc.loader.num_workers = 3;
  tc.pipeline_depth = 3;
  Trainer trainer(ds, model, device, tc);
  EpochStats first = trainer.train_epoch(0);
  EpochStats last;
  for (int e = 1; e < 4; ++e) last = trainer.train_epoch(e);
  EXPECT_LT(last.mean_loss, first.mean_loss);
}

TEST(Inference, SampledAccuracyBeatsChanceAfterTraining) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 51));
  DeviceSim device;
  Trainer trainer(ds, model, device, train_config());
  for (int e = 0; e < 5; ++e) trainer.train_epoch(e);

  const std::vector<std::int64_t> fanouts{10, 10};
  auto result = evaluate_sampled(*model, ds, ds.test_idx, fanouts, 256, 7);
  EXPECT_GT(result.accuracy, 0.5);
  EXPECT_EQ(result.predictions.size(), ds.test_idx.size());
}

TEST(Inference, SampledIsDeterministicUnderFixedSeed) {
  // Per-batch seeding makes sampled inference reproducible: the same seed
  // gives bit-identical predictions on repeat runs, and (with fanouts small
  // enough to actually subsample) different seeds give different samples.
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 81));

  const std::vector<std::int64_t> fanouts{4, 4};
  std::vector<NodeId> nodes(ds.test_idx.begin(), ds.test_idx.begin() + 400);
  auto a = evaluate_sampled(*model, ds, nodes, fanouts, 128, 12345);
  auto b = evaluate_sampled(*model, ds, nodes, fanouts, 128, 12345);
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.accuracy, b.accuracy);
  // Batch size changes batch boundaries (hence per-batch seeds) but must not
  // change the *shape* of the result.
  auto c = evaluate_sampled(*model, ds, nodes, fanouts, 64, 12345);
  EXPECT_EQ(c.predictions.size(), a.predictions.size());
}

TEST(Inference, LayerwiseMatchesHighFanoutSampled) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 61));
  DeviceSim device;
  Trainer trainer(ds, model, device, train_config());
  for (int e = 0; e < 5; ++e) trainer.train_epoch(e);

  auto layerwise = evaluate_layerwise(*model, ds, ds.test_idx, 1024);
  const std::vector<std::int64_t> huge{10000, 10000};
  auto sampled = evaluate_sampled(*model, ds, ds.test_idx, huge, 256, 3);
  // Full-fanout sampling IS the full neighborhood: predictions must agree
  // (both deterministic in eval mode).
  ASSERT_EQ(layerwise.predictions.size(), sampled.predictions.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < layerwise.predictions.size(); ++i) {
    agree += (layerwise.predictions[i] == sampled.predictions[i]);
  }
  EXPECT_GT(static_cast<double>(agree) /
                static_cast<double>(layerwise.predictions.size()),
            0.99);
  EXPECT_NEAR(layerwise.accuracy, sampled.accuracy, 0.01);
}

TEST(Inference, AccuracyImprovesWithFanout) {
  // The Table 6 phenomenon: small fanouts lose a little accuracy; by
  // fanout ~20 it saturates near the full-neighborhood value.
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 71));
  DeviceSim device;
  Trainer trainer(ds, model, device, train_config());
  for (int e = 0; e < 6; ++e) trainer.train_epoch(e);

  auto acc = [&](std::int64_t f) {
    const std::vector<std::int64_t> fanouts{f, f};
    return evaluate_sampled(*model, ds, ds.test_idx, fanouts, 256, 99)
        .accuracy;
  };
  const double a2 = acc(2);
  const double a20 = acc(20);
  const double full = evaluate_layerwise(*model, ds, ds.test_idx).accuracy;
  EXPECT_GT(a20, a2 - 0.02);            // monotone-ish
  EXPECT_NEAR(a20, full, 0.03);         // saturation at fanout 20
  EXPECT_GT(full, 0.5);
}

TEST(Inference, LayerwiseRejectsDenseModels) {
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage-ri", model_config(ds, 81));
  EXPECT_THROW(evaluate_layerwise(*model, ds, ds.test_idx),
               std::invalid_argument);
  EXPECT_GT(layerwise_memory_bytes(*model, ds, 32),
            layerwise_memory_bytes(*nn::make_model("sage", model_config(ds)),
                                   ds, 32));
}

TEST(Trainer, FeatureCachedTrainingMatchesUncachedExactly) {
  // The device feature cache is a pure transfer optimization: with identical
  // seeds, training with and without it must produce bit-identical models
  // while moving fewer bytes over the (simulated) PCIe link.
  const Dataset& ds = train_dataset();
  auto run = [&](double cache_pct, std::size_t* bytes) {
    auto model = nn::make_model("sage", model_config(ds));
    DeviceSim device;
    TrainConfig tc = train_config();
    tc.loader.cache_percentage = cache_pct;
    Trainer trainer(ds, model, device, tc);
    if (cache_pct > 0) {
      EXPECT_EQ(trainer.feature_cache()->capacity(),
                ds.graph.num_nodes() / 4);
    }
    trainer.train_epoch(0);
    trainer.train_epoch(1);
    if (bytes != nullptr) *bytes = device.dma().bytes_transferred();
    return model;
  };
  std::size_t bytes_plain = 0, bytes_cached = 0;
  auto plain = run(0, &bytes_plain);
  auto cached = run(0.25, &bytes_cached);
  const auto pa = plain->parameters();
  const auto pb = cached->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(allclose(pa[i].data(), pb[i].data(), 0.0, 0.0))
        << "parameter " << i;
  }
  EXPECT_LT(bytes_cached, bytes_plain);
}

TEST(Trainer, PipelinedInferenceMatchesDirectEvaluation) {
  // One sampled-inference path: inference_epoch and evaluate_sampled run the
  // same window from the same seed, so at fanouts that subsample they
  // predict alike node for node, and so does a trainer with three loader
  // workers, whose batches can arrive out of order.
  const Dataset& ds = train_dataset();
  auto model = nn::make_model("sage", model_config(ds, 55));
  DeviceSim device;
  Trainer trainer(ds, model, device, train_config());
  for (int e = 0; e < 4; ++e) trainer.train_epoch(e);

  const std::vector<std::int64_t> fanouts{20, 20};
  std::int64_t max_degree = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    max_degree = std::max(max_degree, ds.graph.degree(v));
  }
  ASSERT_GT(max_degree, fanouts[0]);
  const auto pipeline = trainer.inference_epoch(ds.test_idx, fanouts, 3);
  const auto direct = evaluate_sampled(*model, ds, ds.test_idx, fanouts,
                                       trainer.config().loader.batch_size, 3);
  EXPECT_EQ(pipeline.predictions, direct.predictions);
  EXPECT_EQ(pipeline.accuracy, direct.accuracy);
  TrainConfig three = train_config();
  three.loader.num_workers = 3;
  DeviceSim device3;
  Trainer trainer3(ds, model, device3, three);
  EXPECT_EQ(trainer3.inference_epoch(ds.test_idx, fanouts, 3).predictions,
            pipeline.predictions);

  EXPECT_GT(pipeline.accuracy, 0.5);
  EXPECT_EQ(pipeline.num_batches,
            static_cast<std::int64_t>(
                (ds.test_idx.size() + 255) / 256));
  EXPECT_GT(pipeline.transfer_bytes, 0u);
}

TEST(Trainer, LazySamplingReplaysEpochsAndStillLearns) {
  const Dataset& ds = train_dataset();
  // A replayed batch keeps every wire field: an i8q batch that lost its
  // scale/zero sidecars fails to dequantize on the compute stream, which
  // only counts the error and trains on all-zero features (loss ln C).
  const obs::Counter& work_errors =
      obs::Registry::global().counter("stream.work_errors");
  struct Case {
    int depth;
    DType wire;
  };
  for (const Case c : {Case{2, DType::kF16}, Case{2, DType::kInt8Q},
                       Case{0, DType::kF16}, Case{0, DType::kInt8Q}}) {
    SCOPED_TRACE(std::string(dtype_name(c.wire)) + " depth " +
                 std::to_string(c.depth));
    const std::int64_t errors_before = work_errors.value();
    auto model = nn::make_model("sage", model_config(ds, 65));
    DeviceSim device;
    TrainConfig tc = train_config();
    tc.pipeline_depth = c.depth;
    tc.loader.feature_dtype = c.wire;
    tc.sampling_period = 3;  // resample on epochs 0 and 3; replay 1,2,4,5
    Trainer trainer(ds, model, device, tc);
    const EpochStats fresh = trainer.train_epoch(0);
    const EpochStats replay1 = trainer.train_epoch(1);
    const EpochStats replay2 = trainer.train_epoch(2);
    const EpochStats fresh2 = trainer.train_epoch(3);
    EpochStats last;
    for (int e = 4; e < 8; ++e) last = trainer.train_epoch(e);

    // Replay epochs skip batch preparation entirely.
    EXPECT_EQ(replay1.num_batches, fresh.num_batches);
    EXPECT_EQ(replay2.num_batches, fresh.num_batches);
    EXPECT_DOUBLE_EQ(replay1.blocking.total(Phase::kSample), 0.0);
    EXPECT_DOUBLE_EQ(replay2.blocking.total(Phase::kSample), 0.0);
    EXPECT_EQ(fresh2.num_batches, fresh.num_batches);
    // Replays train on the real features...
    EXPECT_EQ(work_errors.value(), errors_before);
    EXPECT_LT(replay1.mean_loss, std::log(static_cast<double>(ds.num_classes)));
    // ...and the lazy schedule still converges (LazyGCN's claim).
    EXPECT_LT(last.mean_loss, fresh.mean_loss * 0.8);
    EXPECT_GT(last.train_accuracy, 0.5);
  }
}

TEST(Trainer, GatAndGinTrainWithoutError) {
  const Dataset& ds = train_dataset();
  for (const char* arch : {"gat", "gin", "sage-ri"}) {
    auto model = nn::make_model(arch, model_config(ds, 91));
    DeviceSim device;
    TrainConfig tc = train_config();
    tc.loader.batch_size = 512;  // fewer batches: keep the test quick
    Trainer trainer(ds, model, device, tc);
    EpochStats s = trainer.train_epoch(0);
    EXPECT_GT(s.num_batches, 0) << arch;
    EXPECT_TRUE(std::isfinite(s.mean_loss)) << arch;
  }
}

// --- compressed wire feature formats (LoaderConfig::feature_dtype) -----------

/// An f32-store dataset, so the f16/int8 wire formats genuinely lose
/// precision relative to the f32 wire (with the default f16 store every wire
/// dtype decompresses to the same values and the comparison is vacuous).
Dataset& f32_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "train-test-f32";
    c.num_nodes = 6000;
    c.feature_dim = 24;
    c.num_classes = 5;
    c.avg_degree = 10;
    c.p_in = 0.85;
    c.feature_signal = 0.4;
    c.feature_noise = 0.8;
    c.seed = 11;
    c.feature_dtype = DType::kF32;
    return generate_dataset(c);
  }();
  return ds;
}

std::shared_ptr<nn::GnnModel> train_with_wire(const Dataset& ds, DType wire,
                                              int epochs, EpochStats* last) {
  auto model = nn::make_model("sage", model_config(ds));
  DeviceSim device;
  TrainConfig tc = train_config();
  tc.loader.feature_dtype = wire;
  Trainer trainer(ds, model, device, tc);
  for (int e = 0; e < epochs; ++e) {
    EpochStats s = trainer.train_epoch(e);
    if (last != nullptr) *last = s;
  }
  return model;
}

TEST(WireDtype, RunToRunBitwiseReproducible) {
  // Compressed transport must not perturb determinism: two identical f16-wire
  // runs produce bit-identical parameters.
  const Dataset& ds = f32_dataset();
  auto a = train_with_wire(ds, DType::kF16, 2, nullptr);
  auto b = train_with_wire(ds, DType::kF16, 2, nullptr);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(allclose(pa[i].data(), pb[i].data(), 0.0, 0.0))
        << "parameter " << i;
  }
}

TEST(WireDtype, F16ConvergesWithinToleranceOfF32) {
  const Dataset& ds = f32_dataset();
  EpochStats f32_last, f16_last;
  train_with_wire(ds, DType::kF32, 4, &f32_last);
  train_with_wire(ds, DType::kF16, 4, &f16_last);
  // Both learn well past chance (0.2) and the compressed run lands within a
  // few points of the uncompressed one (f16 features carry ~11 bits).
  EXPECT_GT(f32_last.train_accuracy, 0.5);
  EXPECT_GT(f16_last.train_accuracy, 0.5);
  EXPECT_NEAR(f16_last.train_accuracy, f32_last.train_accuracy, 0.1);
  EXPECT_NEAR(f16_last.mean_loss, f32_last.mean_loss,
              0.2 * f32_last.mean_loss + 0.05);
}

TEST(WireDtype, Int8QuantizedWireTrains) {
  const Dataset& ds = f32_dataset();
  auto model = nn::make_model("sage", model_config(ds));
  DeviceSim device;
  TrainConfig tc = train_config();
  tc.loader.feature_dtype = DType::kInt8Q;
  Trainer trainer(ds, model, device, tc);
  const EpochStats first = trainer.train_epoch(0);
  EpochStats last;
  for (int e = 1; e < 4; ++e) last = trainer.train_epoch(e);
  EXPECT_TRUE(std::isfinite(last.mean_loss));
  EXPECT_LT(last.mean_loss, first.mean_loss * 0.9);
  EXPECT_GT(last.train_accuracy, 0.4);  // chance = 0.2
  // The quantized wire moves fewer bytes than an f32 wire would have.
  EXPECT_GT(first.transfer_bytes, 0u);
}

}  // namespace
}  // namespace salient
