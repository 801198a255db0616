#include "train/trainer.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <stdexcept>

#include "autograd/functions.h"
#include "obs/trace.h"
#include "nn/loss.h"
#include "prep/baseline_loader.h"
#include "prep/salient_loader.h"
#include "sampling/distributed.h"
#include "tensor/ops.h"

namespace salient {

Trainer::Trainer(const Dataset& dataset, std::shared_ptr<nn::GnnModel> model,
                 DeviceSim& device, TrainConfig config)
    : dataset_(dataset),
      model_(std::move(model)),
      device_(device),
      config_(std::move(config)),
      optimizer_(model_->parameters(), config_.lr),
      pool_(std::make_shared<PinnedPool>()) {
  if (config_.loader_kind == LoaderKind::kBaseline &&
      config_.execution == ExecutionMode::kPipelined) {
    // The pipelined loop runs SalientLoader; there is no pipelined baseline.
    throw std::invalid_argument(
        "trainer: the baseline loader runs only with blocking execution");
  }
  const auto cache_nodes = static_cast<std::int64_t>(
      config_.loader.cache_percentage *
      static_cast<double>(dataset_.graph.num_nodes()));
  if (cache_nodes > 0) {
    // The warmup/probe sampling of the presample and auto policies mirrors
    // the training workload: same fanouts, batch size, and seed family.
    CachePolicyConfig policy;
    policy.kind = config_.loader.cache_policy;
    policy.presample_epochs = config_.loader.presample_epochs;
    policy.presample_workers = config_.loader.num_workers;
    policy.presample_seeds = PresampleSeeds::kTrain;
    policy.fanouts = config_.loader.fanouts;
    policy.batch_size = config_.loader.batch_size;
    policy.seed = config_.loader.seed;
    cache_ = std::make_shared<const FeatureCache>(dataset_, cache_nodes,
                                                  policy);
  }
}

double train_step(nn::GnnModel& model, optim::Adam& optimizer,
                  const Tensor& x, const Mfg& mfg, const Tensor& y,
                  double* accuracy, const GradReduce& reduce) {
  if (mfg.batch_size == 0) {
    model.zero_grad();
    if (reduce) reduce(optimizer.params());
    optimizer.step();
    if (accuracy != nullptr) *accuracy = 0;
    return 0;
  }
  Variable logp = model.forward(Variable(x, /*requires_grad=*/false), mfg);
  Variable loss = nn::nll_loss(logp, y);
  model.zero_grad();
  loss.backward();
  if (reduce) reduce(optimizer.params());
  optimizer.step();
  if (accuracy != nullptr) *accuracy = ops::accuracy(logp.data(), y);
  return static_cast<double>(loss.data().data<float>()[0]);
}

DeviceBatch Trainer::transfer(const PreparedBatch& batch, bool blocking,
                              Event* ready) {
  return batch.cache_plan
             ? device_.transfer_batch_cached(batch, *batch.cache_plan,
                                             *cache_, blocking, ready)
             : device_.transfer_batch(batch, blocking, ready);
}

EpochStats Trainer::train_epoch(int epoch) {
  LoaderConfig epoch_cfg = config_.loader;
  epoch_cfg.seed = schedule_epoch_seed(config_.loader.seed, epoch);
  model_->train(true);

  if (config_.execution == ExecutionMode::kPipelined) {
    if (config_.sampling_period > 1 &&
        epoch % config_.sampling_period != 0 && !replay_batches_.empty()) {
      return run_replay(epoch);  // LazyGCN: reuse the stored mega-batch
    }
    if (config_.sampling_period > 1) replay_batches_.clear();
    return run_pipelined(epoch, epoch_cfg);
  }
  if (config_.loader_kind == LoaderKind::kBaseline) {
    BaselineLoader loader(dataset_, dataset_.train_idx, epoch_cfg, pool_);
    return run_blocking(loader, epoch);
  }
  SalientLoader loader(dataset_, dataset_.train_idx, epoch_cfg, pool_,
                       cache_);
  return run_blocking(loader, epoch);
}

template <class Loader>
EpochStats Trainer::run_blocking(Loader& loader, int epoch) {
  EpochStats stats;
  stats.epoch = epoch;
  WallTimer epoch_timer;
  SALIENT_TRACE_THREAD_NAME("main");
  double loss_sum = 0, acc_sum = 0;

  for (;;) {
    // 1. Batch preparation (blocking on the loader).
    WallTimer t;
    std::optional<PreparedBatch> maybe_batch;
    {
      SALIENT_TRACE_SCOPE("loader.next");
      maybe_batch = loader.next();
    }
    if (!maybe_batch.has_value()) break;
    stats.blocking.add(Phase::kSample, t.seconds());
    PreparedBatch batch = std::move(*maybe_batch);
    stats.transfer_bytes += batch.transfer_bytes();

    // 2. Blocking transfer (Listing 1's `batch.to(GPU)`).
    t.reset();
    SALIENT_TRACE_ASYNC_BEGIN("device-batch", batch.index);
    DeviceBatch dev;
    {
      SALIENT_TRACE_SCOPE_ARG("transfer.blocking", batch.index);
      dev = transfer(batch, /*blocking=*/true, /*ready=*/nullptr);
    }
    stats.blocking.add(Phase::kTransfer, t.seconds());
    loader.recycle(std::move(batch));

    // 3. Training step on the compute stream, synchronized.
    t.reset();
    double acc = 0, loss = 0;
    device_.compute_stream().enqueue([this, &dev, &acc, &loss] {
      loss = train_step(*model_, optimizer_, dev.x_f32, dev.mfg, dev.y, &acc);
    }, "train.step");
    {
      SALIENT_TRACE_SCOPE_ARG("train.wait", dev.index);
      device_.compute_stream().synchronize();
    }
    SALIENT_TRACE_ASYNC_END("device-batch", dev.index);
    stats.blocking.add(Phase::kTrain, t.seconds());

    loss_sum += loss;
    acc_sum += acc;
    ++stats.num_batches;
  }
  stats.epoch_seconds = epoch_timer.seconds();
  if (stats.num_batches > 0) {
    stats.mean_loss = loss_sum / static_cast<double>(stats.num_batches);
    stats.train_accuracy = acc_sum / static_cast<double>(stats.num_batches);
  }
  return stats;
}

EpochStats Trainer::run_replay(int epoch) {
  EpochStats stats;
  stats.epoch = epoch;
  WallTimer epoch_timer;
  double loss_sum = 0, acc_sum = 0;

  // Reshuffle the stored batches so replay epochs still decorrelate the
  // optimizer's update order (LazyGCN shuffles within the mega-batch).
  std::vector<std::size_t> order(replay_batches_.size());
  std::iota(order.begin(), order.end(), 0);
  Xoshiro256ss rng(config_.loader.seed * 131 +
                   static_cast<std::uint64_t>(epoch));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[bounded_rand(rng, i)]);
  }

  for (const std::size_t idx : order) {
    const PreparedBatch& batch = replay_batches_[idx];
    stats.transfer_bytes += batch.transfer_bytes();
    WallTimer t;
    DeviceBatch dev = transfer(batch, /*blocking=*/true, /*ready=*/nullptr);
    stats.blocking.add(Phase::kTransfer, t.seconds());
    t.reset();
    double acc = 0, loss = 0;
    device_.compute_stream().enqueue(
        [this, &dev, &acc, &loss] {
          loss = train_step(*model_, optimizer_, dev.x_f32, dev.mfg, dev.y,
                            &acc);
        },
        "train.step");
    device_.compute_stream().synchronize();
    stats.blocking.add(Phase::kTrain, t.seconds());
    loss_sum += loss;
    acc_sum += acc;
    ++stats.num_batches;
  }
  stats.epoch_seconds = epoch_timer.seconds();
  if (stats.num_batches > 0) {
    stats.mean_loss = loss_sum / static_cast<double>(stats.num_batches);
    stats.train_accuracy = acc_sum / static_cast<double>(stats.num_batches);
  }
  return stats;
}

Trainer::InferenceEpoch Trainer::inference_epoch(
    std::span<const NodeId> nodes, std::span<const std::int64_t> fanouts,
    std::uint64_t seed) {
  InferenceEpoch result;
  WallTimer timer;
  SALIENT_TRACE_THREAD_NAME("main");
  model_->train(false);

  LoaderConfig cfg = config_.loader;
  cfg.fanouts.assign(fanouts.begin(), fanouts.end());
  cfg.seed = seed;
  cfg.shuffle = false;  // inference order is the caller's node order
  SalientLoader loader(dataset_, nodes, cfg, pool_, cache_);

  struct Inflight {
    std::shared_ptr<DeviceBatch> dev;
    PreparedBatch host;
    Event done;
    std::shared_ptr<std::pair<std::int64_t, std::int64_t>> hits;  // hit, n
  };
  std::deque<Inflight> inflight;
  std::int64_t hits = 0, total = 0;

  auto retire_front = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    {
      SALIENT_TRACE_SCOPE_ARG("infer.wait", f.dev->index);
      f.done.synchronize();
    }
    SALIENT_TRACE_ASYNC_END("batch", f.dev->index);
    loader.recycle(std::move(f.host));
    hits += f.hits->first;
    total += f.hits->second;
    ++result.num_batches;
  };

  while (auto maybe_batch = loader.next()) {
    PreparedBatch batch = std::move(*maybe_batch);
    result.transfer_bytes += batch.transfer_bytes();
    Inflight item;
    Event ready;
    item.dev = std::make_shared<DeviceBatch>(
        transfer(batch, /*blocking=*/false, &ready));
    item.host = std::move(batch);
    item.hits = std::make_shared<std::pair<std::int64_t, std::int64_t>>(0, 0);
    auto dev = item.dev;
    auto hit_slot = item.hits;
    auto model = model_;
    device_.compute_stream().enqueue([dev, hit_slot, model] {
      Variable logp = model->forward(Variable(dev->x_f32), dev->mfg);
      Tensor pred = ops::argmax_rows(logp.data());
      const std::int64_t* pp = pred.data<std::int64_t>();
      const std::int64_t* py = dev->y.data<std::int64_t>();
      std::int64_t h = 0;
      for (std::int64_t i = 0; i < pred.size(0); ++i) h += (pp[i] == py[i]);
      hit_slot->first = h;
      hit_slot->second = pred.size(0);
    }, "infer.forward");
    item.done = device_.compute_stream().record();
    inflight.push_back(std::move(item));
    while (static_cast<int>(inflight.size()) > config_.pipeline_depth) {
      retire_front();
    }
  }
  while (!inflight.empty()) retire_front();

  result.seconds = timer.seconds();
  result.accuracy =
      total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0;
  return result;
}

EpochStats Trainer::run_pipelined(int epoch, const LoaderConfig& epoch_cfg) {
  EpochStats stats;
  stats.epoch = epoch;
  WallTimer epoch_timer;
  SALIENT_TRACE_THREAD_NAME("main");

  SalientLoader loader(dataset_, dataset_.train_idx, epoch_cfg, pool_,
                       cache_);

  struct Inflight {
    std::shared_ptr<DeviceBatch> dev;
    PreparedBatch host;    // recycled once copies completed
    Event copies_done;     // copy-stream completion for this batch
    Event train_done;      // compute-stream completion for this batch
    std::shared_ptr<std::pair<double, double>> result;  // loss, acc
  };
  std::deque<Inflight> inflight;
  double loss_sum = 0, acc_sum = 0;

  auto retire_front = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    WallTimer t;
    {
      SALIENT_TRACE_SCOPE_ARG("train.wait", f.dev->index);
      f.train_done.synchronize();
    }
    SALIENT_TRACE_ASYNC_END("batch", f.dev->index);
    stats.blocking.add(Phase::kTrain, t.seconds());
    if (config_.sampling_period > 1) {
      // LazyGCN schedule: keep an unpinned deep copy for replay epochs
      // (the pinned staging buffers still return to the pool).
      // Every field is kept: an i8q batch without its scale/zero sidecars
      // cannot be dequantized.
      PreparedBatch copy = f.host;
      for (Tensor* t : {&copy.x, &copy.y, &copy.x_scale, &copy.x_zero}) {
        if (t->defined()) *t = t->clone();
      }
      replay_batches_.push_back(std::move(copy));
    }
    loader.recycle(std::move(f.host));
    loss_sum += f.result->first;
    acc_sum += f.result->second;
    ++stats.num_batches;
    SALIENT_TRACE_COUNTER("pipeline.inflight",
                          static_cast<std::int64_t>(inflight.size()));
  };

  for (;;) {
    WallTimer t;
    std::optional<PreparedBatch> maybe_batch;
    {
      SALIENT_TRACE_SCOPE("loader.wait");
      maybe_batch = loader.next();
    }
    if (!maybe_batch.has_value()) break;
    stats.blocking.add(Phase::kSample, t.seconds());
    PreparedBatch batch = std::move(*maybe_batch);
    stats.transfer_bytes += batch.transfer_bytes();

    // Enqueue the H2D transfer on the copy stream (returns immediately) and
    // chain the training step behind the per-batch ready event.
    t.reset();
    Inflight item;
    Event ready;
    item.dev = std::make_shared<DeviceBatch>(
        transfer(batch, /*blocking=*/false, &ready));
    item.copies_done = device_.copy_stream().record();
    item.host = std::move(batch);
    item.result = std::make_shared<std::pair<double, double>>(0.0, 0.0);
    auto dev = item.dev;
    auto result = item.result;
    device_.compute_stream().enqueue([this, dev, result] {
      double acc = 0;
      result->first = train_step(*model_, optimizer_, dev->x_f32, dev->mfg,
                                 dev->y, &acc);
      result->second = acc;
    }, "train.step");
    item.train_done = device_.compute_stream().record();
    stats.blocking.add(Phase::kTransfer, t.seconds());
    inflight.push_back(std::move(item));
    SALIENT_TRACE_COUNTER("pipeline.inflight",
                          static_cast<std::int64_t>(inflight.size()));

    // Throttle the pipeline depth: block on the oldest batch's training.
    while (static_cast<int>(inflight.size()) > config_.pipeline_depth) {
      retire_front();
    }
  }
  while (!inflight.empty()) retire_front();

  stats.epoch_seconds = epoch_timer.seconds();
  if (stats.num_batches > 0) {
    stats.mean_loss = loss_sum / static_cast<double>(stats.num_batches);
    stats.train_accuracy = acc_sum / static_cast<double>(stats.num_batches);
  }
  return stats;
}

}  // namespace salient
