#include "dist/cluster/cluster_trainer.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <exception>
#include <thread>

#include "device/device_sim.h"
#include "dist/allreduce.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "util/half.h"
#include "util/timer.h"

namespace salient::dist {

namespace {

/// One node's in-flight state for one global batch (one slot of the node's
/// prefetch ring). Written by the owning node thread when the batch is
/// prepared and trained; read (and its staging buffer targeted by posted
/// fetches) by the rank-0 thread in the serialized network phase — the step
/// barriers are the synchronization.
struct StepState {
  std::int64_t rows = 0;      ///< this node's chunk of the global batch
  double loss_weight = 0;     ///< rows / global batch rows
  double loss = 0;            ///< this node's mean chunk loss
  double train_sim = 0;       ///< modelled compute seconds of this chunk
  /// The staged batch: x holds the plan's missing rows in wire precision
  /// (f16) in the plan's staging layout, y the labels; both pooled.
  PreparedBatch batch;
  RemotePlan rp;
  std::vector<FetchId> fetch_ids;  ///< posted fetches not yet waited on
  double issue = 0;                ///< sim time the fetches were posted
  double ready = 0;                ///< sim time the last fetch completes
};

/// Phase-A work for one (node, batch) chunk: sample, plan against the remote
/// cache, slice this node's own rows into the first block of a pooled f16
/// staging buffer (the fetches fill the owners' blocks later) and slice the
/// labels. An empty chunk stages nothing.
void prepare_chunk(StepState& s, const Dataset& dataset, FastSampler& sampler,
                   const RemoteFeatureCache& rcache, PinnedPool& pool,
                   const std::vector<NodeId>& order, std::int64_t lo,
                   const ChunkRange& chunk, std::int64_t global_rows,
                   std::uint64_t sample_seed, double train_us_per_row) {
  s.rows = chunk.size();
  s.loss_weight =
      static_cast<double>(s.rows) / static_cast<double>(global_rows);
  if (s.rows <= 0) return;
  PreparedBatch& b = s.batch;
  b.mfg = sampler.sample(
      {order.data() + lo + chunk.begin, static_cast<std::size_t>(chunk.size())},
      sample_seed);
  s.rp = rcache.plan(b.mfg);
  s.train_sim = train_us_per_row * 1e-6 *
                static_cast<double>(b.mfg.num_input_nodes());
  b.x = pool.acquire({s.rp.plan.num_missing, dataset.feature_dim},
                     DType::kF16);
  std::vector<NodeId> owned;
  owned.reserve(s.rp.local_rows.size());
  for (const std::int64_t i : s.rp.local_rows) {
    owned.push_back(b.mfg.n_ids[static_cast<std::size_t>(i)]);
  }
  Tensor first_block =
      b.x.narrow_rows(0, static_cast<std::int64_t>(owned.size()));
  slice_rows_serial(dataset.features, owned, first_block);
  b.y = pool.acquire({b.mfg.batch_size}, DType::kI64);
  slice_labels(
      dataset.labels,
      {b.mfg.n_ids.data(), static_cast<std::size_t>(b.mfg.batch_size)}, b.y);
}

/// The cluster's gradient reduce (train_step's hook): weight this node's
/// gradients so the all-reduce *mean* equals the global-batch gradient,
/// sum_p (rows_p/B) * grad_p = (1/world) * sum_p flat_p, then write the mean
/// back. Independent of the pipeline depth, which is what makes losses
/// bitwise depth-invariant.
void allreduce_gradients(const std::vector<Variable>& params,
                         RingAllreduce& allreduce, int rank, float scale) {
  std::size_t flat_size = 0;
  for (const auto& p : params) {
    flat_size += static_cast<std::size_t>(p.data().numel());
  }
  std::vector<float> flat(flat_size, 0.0f);
  std::size_t off = 0;
  for (const auto& p : params) {
    const auto n = static_cast<std::size_t>(p.data().numel());
    if (p.grad().defined()) {
      const float* g = p.grad().data<float>();
      for (std::size_t i = 0; i < n; ++i) flat[off + i] = g[i] * scale;
    }
    off += n;
  }
  allreduce.run(rank, flat);
  off = 0;
  for (auto p : params) {
    const auto n = static_cast<std::size_t>(p.data().numel());
    Tensor g(p.data().shape(), DType::kF32);
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + n),
              g.data<float>());
    p.zero_grad();
    p.accumulate_grad(g);
    off += n;
  }
}

/// Nodes slice their shards and ship remote rows at f16 wire precision, so
/// the store must be f16. Checked before partitioning and the cache warm-up
/// rather than at the first epoch's read.
const Dataset& require_f16_store(const Dataset& dataset) {
  if (dataset.features.dtype() != DType::kF16) {
    throw std::invalid_argument(
        std::string("cluster: feature store must be f16, got ") +
        dtype_name(dataset.features.dtype()));
  }
  return dataset;
}

/// Epoch-level straggler detection: relative to the median node, with an
/// absolute floor so tiny runs on a loaded host are not misflagged.
/// Lower-middle median: with an even node count the upper-middle element can
/// be the straggler itself (e.g. 2 nodes), which would mask it.
void flag_stragglers(const ClusterConfig& config,
                     const std::vector<double>& node_secs,
                     ClusterEpochResult& result) {
  static obs::Counter& m_stragglers =
      obs::Registry::global().counter("dist.node.stragglers");
  std::vector<double> sorted = node_secs;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[(sorted.size() - 1) / 2];
  for (std::size_t p = 0; p < node_secs.size(); ++p) {
    if (node_secs[p] > config.straggler_factor * median &&
        node_secs[p] > config.straggler_min_seconds) {
      result.stragglers.push_back(static_cast<int>(p));
    }
  }
  m_stragglers.add(static_cast<std::int64_t>(result.stragglers.size()));
}

}  // namespace

ClusterTrainer::ClusterTrainer(const Dataset& dataset, ClusterConfig config)
    : dataset_(require_f16_store(dataset)),
      config_(std::move(config)),
      partition_(build_cluster_partition(dataset.graph, config_.partition)),
      net_(config_.partition.num_nodes, config_.net) {
  if (config_.batch_size < 1) {
    throw std::invalid_argument("cluster: batch_size must be >= 1");
  }
  if (config_.pipeline_depth < 0) {
    throw std::invalid_argument("cluster: pipeline_depth must be >= 0");
  }
  if (config_.sim_train_us_per_input_row < 0) {
    throw std::invalid_argument(
        "cluster: sim_train_us_per_input_row must be >= 0");
  }
  // The presample warmup replays the trainer's own workload: its fanouts,
  // global batch size and seed family.
  CachePolicyConfig policy;
  policy.kind = config_.cache.policy;
  policy.presample_epochs = config_.cache.presample_epochs;
  policy.fanouts = config_.fanouts;
  policy.batch_size = config_.batch_size;
  policy.seed = config_.seed;

  const int world = config_.partition.num_nodes;
  node_clock_.assign(static_cast<std::size_t>(world), 0.0);
  for (int p = 0; p < world; ++p) {
    // Identical model seed => identical initial parameters on every node.
    models_.push_back(nn::make_model(config_.arch, config_.model));
    optimizers_.push_back(std::make_unique<optim::Adam>(
        models_.back()->parameters(), config_.lr));
    caches_.push_back(std::make_unique<RemoteFeatureCache>(
        dataset_, partition_, p, config_.cache.cache_percentage, policy));
  }
}

void ClusterTrainer::set_timeline(sim::Timeline* timeline) {
  timeline_ = timeline;
  net_.set_timeline(timeline);
}

ClusterEpochResult ClusterTrainer::train_epoch(int epoch) {
  const int world = num_nodes();
  const auto worldz = static_cast<std::size_t>(world);
  const int depth = config_.pipeline_depth;
  const int slots = depth + 1;
  static obs::Gauge& m_depth =
      obs::Registry::global().gauge("dist.pipeline.depth");
  m_depth.set(static_cast<double>(depth));
  static obs::Counter& m_node_retries =
      obs::Registry::global().counter("dist.node.retries");
  static obs::Counter& m_stall_ms =
      obs::Registry::global().counter("dist.pipeline.stall_ms");
  static obs::Counter& m_overlap_ms =
      obs::Registry::global().counter("dist.net.overlap_saved_ms");

  ClusterEpochResult result;
  result.epoch = epoch;
  result.pipeline_depth = depth;
  WallTimer wall;

  // Same epoch-seed derivation and shuffle as the single-node trainer
  // (train/trainer.cpp + prep/salient_loader.cpp) — the parity anchor.
  const std::uint64_t epoch_seed = schedule_epoch_seed(config_.seed, epoch);
  std::vector<NodeId> order = dataset_.train_idx;
  schedule_shuffle(order, epoch_seed);
  const auto total = static_cast<std::int64_t>(order.size());
  const std::int64_t batch = config_.batch_size;
  const std::int64_t num_steps = (total + batch - 1) / batch;
  if (num_steps == 0) {
    throw std::invalid_argument("cluster: dataset has no training nodes");
  }

  const std::size_t bytes0 = net_.bytes_on_wire();
  const std::int64_t msgs0 = net_.messages();
  const std::int64_t retr0 = net_.retries();
  const double busy0 = net_.busy_seconds();
  const double sim0 =
      *std::max_element(node_clock_.begin(), node_clock_.end());

  const std::int64_t feat_dim = dataset_.feature_dim;
  const Half* feat = dataset_.features.data<Half>();
  std::size_t param_count = 0;
  for (const auto& p : models_[0]->parameters()) {
    param_count += static_cast<std::size_t>(p.data().numel());
  }

  RingAllreduce allreduce(world);
  std::barrier<> bar(world);
  // The micro-pipeline: a ring of depth+1 in-flight batches per node — the
  // batch training now plus a prefetch window of `depth` batches, empty at
  // depth 0. Batch j lives in slot j % slots; by the time slot j % slots is
  // reused (batch j + depth + 1 prepared at step j + 1) batch j has
  // finished training.
  std::vector<std::vector<StepState>> ring(worldz);
  for (auto& r : ring) r.resize(static_cast<std::size_t>(slots));
  std::vector<std::exception_ptr> errors(worldz);
  std::atomic<bool> abort{false};
  std::atomic<std::int64_t> node_retries{0};
  std::vector<double> node_secs(worldz, 0.0);
  double loss_sum = 0;

  // Virtual-clock bookkeeping, written only in the serialized rank-0
  // phases: the previous step's allreduce end (the earliest a node may
  // start anything new) and the current batch's compute start per node.
  std::vector<double> prev_ar_end = node_clock_;
  std::vector<double> compute_start(worldz, 0.0);
  double stall_sum = 0;
  double overlap_sum = 0;

  // Post batch j's remote fetches for every node in deterministic
  // (destination, owner) order, at per-node issue time `issue[p]`. Payload
  // rows are staged from the owner's shard and snapshotted by the
  // interconnect; completion events land in the batch's StepState.
  std::vector<Half> scratch;
  const auto post_batch = [&](std::int64_t j,
                              const std::vector<double>& issue) {
    for (int p = 0; p < world; ++p) {
      StepState& s =
          ring[static_cast<std::size_t>(p)][static_cast<std::size_t>(
              j % slots)];
      s.issue = issue[static_cast<std::size_t>(p)];
      s.ready = s.issue;
      // Each owner's rows land in its block of the staging buffer, which
      // starts after this node's own rows.
      auto off = static_cast<std::int64_t>(s.rp.local_rows.size());
      for (const auto& f : s.rp.fetches) {
        const auto rows = static_cast<std::int64_t>(f.rows.size());
        scratch.resize(static_cast<std::size_t>(rows * feat_dim));
        for (std::int64_t k = 0; k < rows; ++k) {
          std::memcpy(scratch.data() + k * feat_dim,
                      feat + s.batch.mfg.n_ids[static_cast<std::size_t>(
                                 f.rows[static_cast<std::size_t>(k)])] *
                                 feat_dim,
                      static_cast<std::size_t>(feat_dim) * sizeof(Half));
        }
        const std::size_t nb =
            static_cast<std::size_t>(rows * feat_dim) * sizeof(Half);
        const PostedFetch posted = net_.post_fetch(
            f.owner, p, scratch.data(),
            s.batch.x.data<Half>() + off * feat_dim, nb, s.issue);
        s.fetch_ids.push_back(posted.id);
        s.ready = std::max(s.ready, posted.completion);
        off += rows;
        result.remote_rows_fetched += rows;
        result.remote_feature_bytes += nb;
      }
      result.remote_hits += s.rp.remote_hits;
      result.remote_misses += s.rp.remote_misses;
    }
  };

  auto node_body = [&](int rank) {
    const auto rankz = static_cast<std::size_t>(rank);
    auto& model = *models_[rankz];
    auto& opt = *optimizers_[rankz];
    model.train(true);
    FastSampler sampler(dataset_.graph, config_.fanouts);
    const RemoteFeatureCache& rcache = *caches_[rankz];

    // Drain this node's posted-but-unwaited fetches and return its staged
    // buffers, so an aborted epoch leaves no in-flight messages or pinned
    // buffers behind (the completions are already modelled; waiting just
    // commits or discards the payloads).
    const auto drain_in_flight = [&] {
      for (auto& s : ring[rankz]) {
        for (const FetchId id : s.fetch_ids) {
          try {
            net_.wait_fetch(id);
          } catch (...) {
            // Unknown-handle races cannot happen (handles are node-owned);
            // nothing else throws. Draining must never mask the root error.
          }
        }
        s.fetch_ids.clear();
        release_batch_buffers(pool_, std::move(s.batch));
      }
    };

    for (std::int64_t b = 0; b < num_steps; ++b) {
      WallTimer t;
      // Batches entering the window this step: the whole initial window
      // [0, depth] at step 0, then just batch b + depth.
      const ChunkRange admit = pipeline_admit_range(b, depth, num_steps);

      // -- Phase A: sample + plan + stage every batch entering the
      // pipeline window, one per step in steady state. `dist.node.fail`
      // discards the attempt's freshly prepared batches (the simulated node
      // crash), returns their buffers and redoes them — no fetches have been
      // posted for them yet, so recovery is lossless.
      bool ok = false;
      for (int attempt = 0; attempt <= config_.max_step_retries && !ok;
           ++attempt) {
        SALIENT_FAILPOINT_WEDGE("dist.node.slow");
        for (std::int64_t j = admit.begin; j < admit.end; ++j) {
          StepState& s = ring[rankz][static_cast<std::size_t>(j % slots)];
          release_batch_buffers(pool_, std::move(s.batch));
          s = StepState{};
          const std::int64_t lo = j * batch;
          const std::int64_t hi = std::min(total, lo + batch);
          const std::int64_t global_rows = hi - lo;
          const ChunkRange chunk = chunk_range(global_rows, world, rank);
          prepare_chunk(s, dataset_, sampler, rcache, pool_, order, lo, chunk,
                        global_rows,
                        schedule_mix_seed(epoch_seed, j * world + rank),
                        config_.sim_train_us_per_input_row);
        }
        if (SALIENT_FAILPOINT("dist.node.fail")) {
          node_retries.fetch_add(1, std::memory_order_relaxed);
          m_node_retries.add();
          continue;
        }
        ok = true;
      }
      if (!ok) {
        errors[rankz] = std::make_exception_ptr(ClusterError(
            "cluster: node " + std::to_string(rank) + " failed step " +
            std::to_string(b) + " after " +
            std::to_string(config_.max_step_retries) + " retries"));
      }
      node_secs[rankz] += t.seconds();
      bar.arrive_and_wait();

      // -- Phase B (rank 0, serialized): advance the virtual clock. Batch
      // b's compute start is gated on its completion events; the batches
      // entering ahead of it post their fetches at that compute start — on
      // the wire while batch b trains, which is the overlap pipelining
      // exists for. Posting order is deterministic (batch, destination,
      // owner).
      if (rank == 0) {
        for (const auto& e : errors) {
          if (e) abort.store(true, std::memory_order_relaxed);
        }
        if (!abort.load(std::memory_order_relaxed)) {
          try {
            if (admit.begin == b) {
              // Batch b enters the window at its own step (step 0, or every
              // step of an empty window at depth 0): nothing trains ahead of
              // it, so its fetches post at the step's base clock and sit on
              // the critical path in full.
              post_batch(b, prev_ar_end);
            }
            for (int p = 0; p < world; ++p) {
              const auto pz = static_cast<std::size_t>(p);
              const StepState& s =
                  ring[pz][static_cast<std::size_t>(b % slots)];
              compute_start[pz] = std::max(prev_ar_end[pz], s.ready);
              const double stall = compute_start[pz] - prev_ar_end[pz];
              const double span = s.ready - s.issue;
              stall_sum += stall;
              overlap_sum += std::max(0.0, span - stall);
              m_stall_ms.add(static_cast<std::int64_t>(stall * 1e3));
              m_overlap_ms.add(
                  static_cast<std::int64_t>(std::max(0.0, span - stall) * 1e3));
            }
            for (std::int64_t j = std::max(b + 1, admit.begin);
                 j < admit.end; ++j) {
              post_batch(j, compute_start);
            }
          } catch (...) {
            errors[0] = std::current_exception();
            abort.store(true, std::memory_order_relaxed);
          }
        }
      }
      bar.arrive_and_wait();
      if (abort.load(std::memory_order_relaxed)) {
        drain_in_flight();
        break;
      }

      // -- Phase C: wait batch b's completion events (committing the
      // fetched payloads), assemble the f32 inputs, train, allreduce, step,
      // and return the staged buffers. Nothing here depends on the depth,
      // so losses are depth-invariant.
      t.reset();
      StepState& s = ring[rankz][static_cast<std::size_t>(b % slots)];
      for (const FetchId id : s.fetch_ids) net_.wait_fetch(id);
      s.fetch_ids.clear();
      Tensor x;  // stays undefined for an empty chunk
      if (s.rows > 0) {
        x = Tensor({s.batch.mfg.num_input_nodes(), feat_dim}, DType::kF32);
        assemble_features(s.batch.x, s.batch.x_scale, s.batch.x_zero,
                          &s.rp.plan, rcache.cache().features(), x);
      }
      GradReduce reduce;
      if (world > 1) {
        const auto scale = static_cast<float>(
            static_cast<double>(s.rows) * static_cast<double>(world) /
            static_cast<double>(std::min(total, (b + 1) * batch) - b * batch));
        reduce = [&allreduce, rank, scale](const std::vector<Variable>& ps) {
          allreduce_gradients(ps, allreduce, rank, scale);
        };
      }
      s.loss = train_step(model, opt, x, s.batch.mfg, s.batch.y, nullptr,
                          reduce);
      release_batch_buffers(pool_, std::move(s.batch));
      node_secs[rankz] += t.seconds();
      bar.arrive_and_wait();

      // -- Step accounting (rank 0): batch-weighted loss, per-node compute
      // spans on the virtual clock, one ring all-reduce pass at the step
      // boundary (at every depth — the optimizer math depends on it).
      if (rank == 0) {
        double step_loss = 0;
        for (int p = 0; p < world; ++p) {
          const auto pz = static_cast<std::size_t>(p);
          const StepState& sp = ring[pz][static_cast<std::size_t>(b % slots)];
          step_loss += sp.loss_weight * sp.loss;
          node_clock_[pz] = compute_start[pz] + sp.train_sim;
          if (timeline_ != nullptr && sp.train_sim > 0) {
            timeline_->add("node" + std::to_string(p) + ".compute",
                           "batch" + std::to_string(b), -1, compute_start[pz],
                           node_clock_[pz]);
          }
        }
        loss_sum += step_loss;
        if (world > 1) {
          const double begin =
              *std::max_element(node_clock_.begin(), node_clock_.end());
          const double end =
              net_.allreduce_time(param_count * sizeof(float), begin);
          std::fill(node_clock_.begin(), node_clock_.end(), end);
        }
        prev_ar_end = node_clock_;
      }
      bar.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(worldz);
  for (int p = 0; p < world; ++p) threads.emplace_back(node_body, p);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  result.wall_seconds = wall.seconds();
  result.num_steps = num_steps;
  result.mean_loss = loss_sum / static_cast<double>(num_steps);
  result.node_retries = node_retries.load(std::memory_order_relaxed);
  result.wire_bytes = net_.bytes_on_wire() - bytes0;
  result.net_messages = net_.messages() - msgs0;
  result.net_retries = net_.retries() - retr0;
  result.sim_net_seconds = net_.busy_seconds() - busy0;
  result.sim_epoch_seconds =
      *std::max_element(node_clock_.begin(), node_clock_.end()) - sim0;
  result.stall_seconds = stall_sum;
  result.overlap_saved_seconds = overlap_sum;
  result.node_seconds = node_secs;
  flag_stragglers(config_, node_secs, result);
  return result;
}

bool ClusterTrainer::replicas_in_sync() const {
  if (models_.size() < 2) return true;
  const auto ref = models_[0]->parameters();
  for (std::size_t r = 1; r < models_.size(); ++r) {
    const auto params = models_[r]->parameters();
    if (params.size() != ref.size()) return false;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (!allclose(params[i].data(), ref[i].data(), 0.0, 0.0)) return false;
    }
  }
  return true;
}

}  // namespace salient::dist
