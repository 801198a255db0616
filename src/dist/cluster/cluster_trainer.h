// Multi-node cluster training simulation (docs/DISTRIBUTED.md; the
// SALIENT++ direction of ROADMAP item 1).
//
// Every cluster node is a thread owning a replica of the model, its
// partition shard of the feature store, and a RemoteFeatureCache of hot
// remote rows. This is the repository's one data-parallel trainer: with a
// cache that holds every remote vertex (kDegree at cache_percentage 1.0) no
// feature row crosses the interconnect, which is the paper's DDP setting.
// Each global mini-batch of the epoch-shuffled training schedule is split
// into per-node contiguous chunks (sampling/distributed.h chunk_range).
// One step protocol runs every epoch (the SALIENT idea applied across
// nodes): each node keeps a ring of depth+1 in-flight batches; batch
// k+depth is sampled and its remote fetches posted on the
// Interconnect (post_fetch) while batch k trains, and batch k's training
// starts from its per-batch completion events (wait_fetch) — mirroring the
// device-stream overlap in SalientLoader. pipeline_depth == 0 is the same
// loop with an empty prefetch window: every batch posts its own fetches at
// its step's start, so they sit on the simulated critical path in full (no
// overlap). Each node trains with the single-node trainer's train_step,
// whose gradient-reduce hook is the ring allreduce. The allreduce stays at
// step boundaries, so the optimizer math — and therefore every loss — is
// bitwise identical at any depth.
//
// The virtual clock charges a deterministic modelled compute cost per batch
// (sim_train_us_per_input_row), which is the window pipelining hides
// fetches in: simulated epoch time drops below the depth-0 run while losses
// stay bitwise equal, which is exactly what tools/dist_bench gates.
//
// A 1-node cluster degenerates to the single-node Trainer's exact schedule
// (same epoch seeds, same shuffle, same per-batch sampler seeds, elementwise
// identical feature conversion) and reproduces its loss trajectory bitwise —
// tests/test_cluster.cpp asserts this, which pins the distributed code to
// the validated single-node semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/cluster/interconnect.h"
#include "dist/cluster/partitioner.h"
#include "dist/cluster/remote_cache.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "optim/adam.h"
#include "prep/pinned_pool.h"

/// \file
/// \brief The multi-node cluster training driver (docs/DISTRIBUTED.md).

namespace salient::dist {

/// Configuration of a simulated training cluster.
struct ClusterConfig {
  /// Graph partitioning: node count, assignment strategy, seed, slack.
  ClusterPartitionConfig partition;
  /// Interconnect model: bandwidth, latency, framing, retry budget.
  InterconnectConfig net;
  /// Per-node remote-feature cache: policy, capacity and warmup epochs. The
  /// presample warmup replays this config's own fanouts, batch size and
  /// seed.
  RemoteCacheConfig cache;
  /// Model architecture name (nn::make_model).
  std::string arch = "sage";
  /// Model dimensions; the shared seed gives every replica identical
  /// initial parameters (the DDP invariant).
  nn::ModelConfig model;
  /// Sampling fanouts per layer, outermost first.
  std::vector<std::int64_t> fanouts{15, 10, 5};
  /// Global mini-batch size (split across nodes by chunk_range).
  std::int64_t batch_size = 1024;
  /// Base seed; epoch seeds derive with schedule_epoch_seed, matching the
  /// single-node trainer.
  std::uint64_t seed = 1;
  /// Adam learning rate.
  double lr = 3e-3;
  /// Bounded per-step retries of a failed node step (`dist.node.fail`).
  int max_step_retries = 2;
  /// Micro-pipeline prefetch depth per node: while batch k trains, batches
  /// up to k+depth are sampled and their remote fetches posted on the
  /// interconnect (at most depth+1 batches in flight per node). 0 is an
  /// empty prefetch window: each batch's fetches are exposed in full, the
  /// no-overlap reference. Any depth produces bitwise-identical losses;
  /// only simulated epoch time changes. CLI form (tools/dist_bench):
  /// --depths=<list>.
  int pipeline_depth = 2;
  /// Modelled training compute charged to the virtual clock, in
  /// microseconds per MFG input row. Deterministic in the sampled batch, so
  /// simulated epoch times are exactly reproducible; this is the compute
  /// window overlapped fetches hide in. Applied identically at every depth
  /// so simulated epoch times are comparable across depths.
  double sim_train_us_per_input_row = 1.0;
  /// Straggler flagging: a node is flagged when its epoch work time exceeds
  /// straggler_factor * median(node times) ...
  double straggler_factor = 1.5;
  /// ... and this absolute floor (filters scheduler noise on small runs).
  double straggler_min_seconds = 0.25;
};

/// A node step failed even after the configured bounded retries.
struct ClusterError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Statistics of one synchronized cluster epoch.
struct ClusterEpochResult {
  int epoch = 0;               ///< epoch index
  int pipeline_depth = 0;      ///< prefetch depth the epoch ran at
  double wall_seconds = 0;     ///< host wall time of the epoch
  double sim_net_seconds = 0;  ///< interconnect busy seconds (sum per link)
  double sim_epoch_seconds = 0;  ///< modelled epoch time (fetch+compute+ring)
  double overlap_saved_seconds = 0;  ///< fetch time hidden behind compute
  double stall_seconds = 0;    ///< compute stalled waiting on fetches (at
                               ///< depth 0: every fetch's exposed time)
  double mean_loss = 0;        ///< batch-weighted mean training loss
  std::int64_t num_steps = 0;  ///< global synchronized steps

  std::int64_t remote_rows_fetched = 0;   ///< feature rows moved over links
  std::size_t remote_feature_bytes = 0;   ///< payload bytes of those rows
  std::size_t wire_bytes = 0;             ///< framed bytes (incl. allreduce)
  std::int64_t net_messages = 0;          ///< delivered messages
  std::int64_t net_retries = 0;           ///< dropped-and-retried messages
  std::int64_t node_retries = 0;          ///< node-step retries (failpoint)
  std::int64_t remote_hits = 0;           ///< remote rows served from cache
  std::int64_t remote_misses = 0;         ///< remote rows fetched over links

  std::vector<double> node_seconds;  ///< per-node epoch work time
  std::vector<int> stragglers;       ///< nodes flagged as stragglers

  /// Fraction of remote rows served from the replication caches.
  double remote_hit_rate() const {
    const auto r = remote_hits + remote_misses;
    return r > 0 ? static_cast<double>(remote_hits) / static_cast<double>(r)
                 : 0.0;
  }
};

/// Driver of a simulated multi-node training cluster.
///
/// Construction partitions the graph and builds every node's replica and
/// remote cache (the presample policy runs its warmup here). train_epoch()
/// is deterministic for a fixed (seed, node count): identical losses,
/// traffic and simulated times on every run.
class ClusterTrainer {
 public:
  /// Build a cluster over `dataset` (borrowed; must outlive the trainer).
  /// \throws std::invalid_argument on a feature store that is not f16, bad
  /// node counts or cache configs.
  ClusterTrainer(const Dataset& dataset, ClusterConfig config);

  /// Run one synchronized epoch over the dataset's training split at the
  /// configured `pipeline_depth`. In-flight fetches are drained before an
  /// error surfaces.
  /// \throws ClusterError when a node step exhausts its bounded retries and
  /// NetError when a message exhausts the interconnect's retry budget.
  ClusterEpochResult train_epoch(int epoch);

  /// Attach a timeline: the interconnect records its message spans and the
  /// trainer adds per-batch "node<p>.compute" spans (nullptr
  /// detaches). The timeline must outlive the trainer or the next call.
  void set_timeline(sim::Timeline* timeline);

  /// True when all replicas' parameters are exactly equal (the gradient
  /// averaging invariant; tests assert it after every epoch).
  bool replicas_in_sync() const;

  /// The derived cluster partition (ownership, halo and boundary maps).
  const ClusterPartition& partition() const { return partition_; }
  /// Node `p`'s remote-feature replication cache.
  const RemoteFeatureCache& remote_cache(int p) const {
    return *caches_[static_cast<std::size_t>(p)];
  }
  /// Node `r`'s model replica (e.g. replica 0 for evaluation).
  const std::shared_ptr<nn::GnnModel>& replica(int r) const {
    return models_[static_cast<std::size_t>(r)];
  }
  /// The modelled interconnect (whole-run traffic counters).
  Interconnect& interconnect() { return net_; }
  /// Number of cluster nodes.
  int num_nodes() const { return config_.partition.num_nodes; }
  /// The cluster's full configuration.
  const ClusterConfig& config() const { return config_; }

 private:
  const Dataset& dataset_;
  ClusterConfig config_;
  ClusterPartition partition_;
  Interconnect net_;
  std::vector<std::shared_ptr<nn::GnnModel>> models_;
  std::vector<std::unique_ptr<optim::Adam>> optimizers_;
  std::vector<std::unique_ptr<RemoteFeatureCache>> caches_;
  /// Pinned staging and label buffers of every node's in-flight batches.
  PinnedPool pool_;
  /// Per-node simulated clock (seconds); persists across epochs so link
  /// occupancy carries over like the Interconnect's NIC clocks.
  std::vector<double> node_clock_;
  sim::Timeline* timeline_ = nullptr;  ///< borrowed; see set_timeline
};

}  // namespace salient::dist
