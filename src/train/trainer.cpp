#include "train/trainer.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <type_traits>

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
      pool_(std::make_shared<PinnedPool>()),
      store_(make_wire_store(dataset_.features,
                             config_.loader.feature_dtype)) {
  if (config_.pipeline_depth < 0) {
    throw std::invalid_argument("trainer: pipeline_depth must be >= 0");
  }
  if (config_.loader_kind == LoaderKind::kBaseline &&
      config_.pipeline_depth > 0) {
    // The baseline is Listing 1's workflow, which blocks on every batch.
    throw std::invalid_argument(
        "trainer: the baseline loader runs only at pipeline depth 0");
  }
  const auto cache_nodes = static_cast<std::int64_t>(
      config_.loader.cache_percentage *
      static_cast<double>(dataset_.graph.num_nodes()));
  if (cache_nodes > 0 && config_.loader_kind == LoaderKind::kBaseline) {
    // BaselineLoader never plans against a cache: it would move every row.
    throw std::invalid_argument(
        "trainer: the baseline loader runs without a feature cache");
  }
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

namespace {

/// The stored LazyGCN epoch as a batch source: its batches in a fresh order
/// each replay epoch (LazyGCN shuffles within the mega-batch), as shallow
/// copies that need no recycling. Like the loaders, it opens each batch's
/// async `batch` span.
class ReplaySource {
 public:
  ReplaySource(const std::vector<PreparedBatch>& batches, std::uint64_t seed)
      : batches_(batches), order_(batches.size()) {
    std::iota(order_.begin(), order_.end(), NodeId{0});
    schedule_shuffle(order_, seed);
  }

  std::optional<PreparedBatch> next() {
    if (next_ == order_.size()) return std::nullopt;
    const PreparedBatch& batch =
        batches_[static_cast<std::size_t>(order_[next_++])];
    SALIENT_TRACE_ASYNC_BEGIN("batch", batch.index);
    return batch;
  }

  void recycle(PreparedBatch&&) {}

 private:
  const std::vector<PreparedBatch>& batches_;
  std::vector<NodeId> order_;  // positions into batches_
  std::size_t next_ = 0;
};

/// The in-flight window of every epoch and of sampled inference (see the
/// file comment of trainer.h): each batch of `source` is transferred to
/// `device` (through `cache` when it carries a cache plan) and `step` runs
/// behind it on the compute stream under `step_label`; more than `depth`
/// batches in flight retire the oldest, and `retire` receives each host
/// batch with its step's result, in batch order. Blocking time is charged
/// to `phases` when non-null.
template <class Source, class Step, class Retire>
void run_window(DeviceSim& device, const FeatureCache* cache, int depth,
                Source& source, PhaseTimer* phases, const char* step_label,
                Step step, Retire retire) {
  using Result = std::invoke_result_t<Step&, const DeviceBatch&>;
  struct Inflight {
    std::shared_ptr<DeviceBatch> dev;
    PreparedBatch host;  // recycled once its step ran
    Event done;          // the step's completion on the compute stream
    std::shared_ptr<Result> result;
  };
  std::deque<Inflight> inflight;
  const auto charge = [phases](Phase phase, const WallTimer& t) {
    if (phases != nullptr) phases->add(phase, t.seconds());
  };
  const auto retire_front = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    WallTimer t;
    {
      SALIENT_TRACE_SCOPE_ARG("step.wait", f.host.index);
      f.done.synchronize();
    }
    charge(Phase::kTrain, t);
    SALIENT_TRACE_ASYNC_END("batch", f.host.index);
    retire(f.host, *f.result);
    source.recycle(std::move(f.host));
    SALIENT_TRACE_COUNTER("pipeline.inflight",
                          static_cast<std::int64_t>(inflight.size()));
  };

  SALIENT_TRACE_THREAD_NAME("main");
  const bool blocking = depth == 0;
  for (;;) {
    WallTimer t;
    Inflight item;
    {
      SALIENT_TRACE_SCOPE("loader.wait");
      std::optional<PreparedBatch> batch = source.next();
      if (!batch.has_value()) break;
      item.host = std::move(*batch);
    }
    // A replay samples nothing, so waiting on it is not sample time.
    if constexpr (!std::is_same_v<Source, ReplaySource>) {
      charge(Phase::kSample, t);
    }

    // Issue the H2D transfer on the copy stream (only depth 0 waits for it:
    // Listing 1's `.to(device)`) and chain the step behind it.
    t.reset();
    {
      SALIENT_TRACE_SCOPE_ARG("transfer.issue", item.host.index);
      const PreparedBatch& b = item.host;
      item.dev = std::make_shared<DeviceBatch>(
          b.cache_plan ? device.transfer_batch_cached(b, *b.cache_plan,
                                                      *cache, blocking,
                                                      nullptr)
                       : device.transfer_batch(b, blocking, nullptr));
      item.result = std::make_shared<Result>();
      device.compute_stream().enqueue(
          [dev = item.dev, result = item.result, step] {
            *result = step(*dev);
          },
          step_label);
      item.done = device.compute_stream().record();
    }
    charge(Phase::kTransfer, t);
    inflight.push_back(std::move(item));
    SALIENT_TRACE_COUNTER("pipeline.inflight",
                          static_cast<std::int64_t>(inflight.size()));
    while (static_cast<int>(inflight.size()) > depth) retire_front();
  }
  while (!inflight.empty()) retire_front();
}

}  // namespace

EpochStats Trainer::train_epoch(int epoch) {
  EpochStats stats;
  stats.epoch = epoch;
  WallTimer epoch_timer;
  model_->train(true);
  double loss_sum = 0, acc_sum = 0;

  // LazyGCN: a sampling epoch stores its batches, and the epochs up to the
  // next sampling epoch replay them.
  const bool lazy = config_.sampling_period > 1;
  const bool replay = lazy && epoch % config_.sampling_period != 0 &&
                      !replay_batches_.empty();
  const bool store = lazy && !replay;
  if (store) replay_batches_.clear();

  auto run = [&](auto& source) {
    run_window(
        device_, cache_.get(), config_.pipeline_depth, source,
        &stats.blocking, "train.step",
        [this](const DeviceBatch& dev) {
          double acc = 0;
          const double loss = train_step(*model_, optimizer_, dev.x_f32,
                                         dev.mfg, dev.y, &acc);
          return std::pair{loss, acc};
        },
        [&](const PreparedBatch& host, const auto& result) {
          if (store) {
            // An unpinned deep copy, so the pinned staging buffers still
            // return to the pool. Every field is kept: an i8q batch without
            // its scale/zero sidecars cannot be dequantized.
            PreparedBatch& copy = replay_batches_.emplace_back(host);
            for (Tensor* t : {&copy.x, &copy.y, &copy.x_scale, &copy.x_zero}) {
              if (t->defined()) *t = t->clone();
            }
          }
          stats.transfer_bytes += host.transfer_bytes();
          loss_sum += result.first;
          acc_sum += result.second;
          ++stats.num_batches;
        });
  };
  if (replay) {
    ReplaySource source(replay_batches_, config_.loader.seed * 131 +
                                             static_cast<std::uint64_t>(epoch));
    run(source);
  } else {
    LoaderConfig epoch_cfg = config_.loader;
    epoch_cfg.seed = schedule_epoch_seed(config_.loader.seed, epoch);
    if (config_.loader_kind == LoaderKind::kBaseline) {
      BaselineLoader loader(dataset_, dataset_.train_idx, epoch_cfg, pool_,
                            store_);
      run(loader);
    } else {
      SalientLoader loader(dataset_, dataset_.train_idx, epoch_cfg, pool_,
                           cache_, store_);
      run(loader);
    }
  }

  stats.epoch_seconds = epoch_timer.seconds();
  if (stats.num_batches > 0) {
    stats.mean_loss = loss_sum / static_cast<double>(stats.num_batches);
    stats.train_accuracy = acc_sum / static_cast<double>(stats.num_batches);
  }
  return stats;
}

InferenceResult sampled_inference(nn::GnnModel& model, const Dataset& dataset,
                                  std::span<const NodeId> nodes,
                                  LoaderConfig loader, DeviceSim& device,
                                  std::shared_ptr<PinnedPool> pool,
                                  std::shared_ptr<const FeatureCache> cache,
                                  std::shared_ptr<const WireStore> store,
                                  int pipeline_depth) {
  WallTimer timer;
  model.train(false);
  loader.shuffle = false;  // inference order is the caller's node order
  const std::int64_t batch_size = loader.batch_size;
  SalientLoader source(dataset, nodes, std::move(loader), std::move(pool),
                       cache, std::move(store));

  InferenceResult result;
  result.predictions.resize(nodes.size());
  // A forward that throws (say, a model of another depth than the fanouts)
  // is rethrown once the window has drained.
  std::exception_ptr error;
  run_window(
      device, cache.get(), pipeline_depth, source, /*phases=*/nullptr,
      "infer.forward",
      [&model](const DeviceBatch& dev) {
        std::pair<Tensor, std::exception_ptr> out;
        try {
          out.first = ops::argmax_rows(
              model.forward(Variable(dev.x_f32), dev.mfg).data());
        } catch (...) {
          out.second = std::current_exception();
        }
        return out;
      },
      [&](const PreparedBatch& host,
          const std::pair<Tensor, std::exception_ptr>& out) {
        result.transfer_bytes += host.transfer_bytes();
        ++result.num_batches;
        if (out.second) {
          if (!error) error = out.second;
          return;
        }
        std::copy_n(out.first.data<std::int64_t>(), out.first.size(0),
                    result.predictions.begin() + host.index * batch_size);
      });
  if (error) std::rethrow_exception(error);

  std::int64_t hits = 0;
  const std::int64_t* labels = dataset.labels.data<std::int64_t>();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    hits += result.predictions[i] == labels[nodes[i]];
  }
  result.seconds = timer.seconds();
  result.accuracy = nodes.empty() ? 0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(nodes.size());
  return result;
}

InferenceResult Trainer::inference_epoch(std::span<const NodeId> nodes,
                                         std::span<const std::int64_t> fanouts,
                                         std::uint64_t seed) {
  LoaderConfig loader = config_.loader;
  loader.fanouts.assign(fanouts.begin(), fanouts.end());
  loader.seed = seed;
  return sampled_inference(*model_, dataset_, nodes, std::move(loader),
                           device_, pool_, cache_, store_,
                           config_.pipeline_depth);
}

}  // namespace salient
