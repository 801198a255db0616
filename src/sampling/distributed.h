// Distributed-sampling cost analysis (paper §8, future work).
//
// In a distributed deployment the graph is partitioned across machines and
// every sampled edge whose source lives on a different partition than its
// destination is a remote neighbor fetch. These helpers quantify that cost
// for sampled MFGs under a given partition — the metric the paper says a
// sampling-aware partitioning objective should optimize.
#pragma once

#include <cstdint>
#include <span>

#include "graph/partition.h"
#include "sampling/mfg.h"

namespace salient {

/// Fraction of an MFG's sampled edges that cross partitions — the remote-
/// fetch share a distributed neighborhood sampler would pay.
double mfg_cross_partition_fraction(const Mfg& mfg, const GraphPartition& p);

/// Average cross-partition fraction over sampled mini-batches of `batch`
/// nodes drawn from `nodes`, using the fast sampler with `fanouts`.
/// A cheap Monte-Carlo estimate of a partitioning's distributed-sampling
/// communication cost.
double estimate_sampling_comm_fraction(const CsrGraph& graph,
                                       const GraphPartition& p,
                                       std::span<const NodeId> nodes,
                                       std::span<const std::int64_t> fanouts,
                                       std::int64_t batch_size,
                                       int num_batches, std::uint64_t seed);

/// A contiguous sub-range [begin, end) of a mini-batch's rows.
struct ChunkRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  std::int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

/// Balanced contiguous split of `rows` batch rows across `num_nodes` cluster
/// nodes: node `node` receives rows [begin, end) with sizes differing by at
/// most one (the first rows % num_nodes nodes take the extra row). At
/// num_nodes == 1 the range is the whole batch, which is what lets a 1-node
/// cluster replay the single-node loader's batches exactly
/// (docs/DISTRIBUTED.md). Deterministic; both the ClusterTrainer's runtime
/// schedule and a partitioned cache's presample warmup use it so frequency
/// estimation sees the true per-node workload.
ChunkRange chunk_range(std::int64_t rows, int num_nodes, int node);

/// The per-batch sampler seed, SplitMix64 over seed ^ golden-ratio *
/// (index + 1); the only one in the library. Both loaders, the cache-policy
/// warmups, the inference server and the cluster trainer seed batch
/// `index` with it, so sampled MFGs depend on (seed, index) alone, never on
/// worker scheduling. The cluster trainer seeds chunk (batch, node) pairs
/// with index = batch * num_nodes + node, which at one node collapses to the
/// single-node loader's per-batch seed — the keystone of the 1-node
/// bitwise-parity guarantee (docs/DISTRIBUTED.md). The presample warmups use
/// the same mixing so they count the exact expansions training will sample.
std::uint64_t schedule_mix_seed(std::uint64_t seed, std::int64_t index);

/// The seed of epoch `epoch` of a run seeded with `seed`:
/// seed * 0x10001 + epoch + 1; the only one in the library. Both trainers
/// and the presample warmup seed their epochs with it, which keeps the
/// 1-node cluster on the single-node trainer's schedule.
std::uint64_t schedule_epoch_seed(std::uint64_t seed, int epoch);

/// The deterministic epoch shuffle (Fisher-Yates over Xoshiro256ss(seed));
/// the only one in the library, shared by the loaders, the cache-policy
/// warmups and the cluster trainer for the same parity reason as
/// schedule_mix_seed.
void schedule_shuffle(std::vector<NodeId>& nodes, std::uint64_t seed);

/// Group an MFG's input rows by owning partition: result[q] holds the
/// ascending row indices i (into mfg.n_ids) with p.part_of(n_ids[i]) == q.
/// The per-owner fetch lists a distributed feature loader would issue when
/// nothing is cached; tests cross-check RemoteFeatureCache plans against it.
std::vector<std::vector<std::int64_t>> group_rows_by_owner(
    const Mfg& mfg, const GraphPartition& p);

/// The batches a depth-bounded micro-pipeline admits at step `step` of an
/// epoch with `num_steps` batches: step 0 fills the whole initial window
/// [0, min(depth, num_steps-1)], every later step admits just the entering
/// batch step + depth (empty once the epoch tail has nothing left). Summed
/// over steps, every batch in [0, num_steps) is admitted exactly once, at
/// the latest step that still keeps it `depth` batches ahead of training —
/// the schedule both ClusterTrainer and its property tests derive their
/// in-flight windows from. depth == 0 is the empty window: each batch is
/// admitted at its own step.
/// \throws std::invalid_argument on negative step/depth or num_steps < 1.
ChunkRange pipeline_admit_range(std::int64_t step, int depth,
                                std::int64_t num_steps);

}  // namespace salient
