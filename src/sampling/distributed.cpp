#include "sampling/distributed.h"

#include <algorithm>
#include <stdexcept>

#include "sampling/fast_sampler.h"
#include "util/rng.h"

namespace salient {

double mfg_cross_partition_fraction(const Mfg& mfg, const GraphPartition& p) {
  std::int64_t cross = 0, total = 0;
  for (const auto& level : mfg.levels) {
    for (std::int64_t d = 0; d < level.num_dst; ++d) {
      const auto dst_part =
          p.part_of(mfg.n_ids[static_cast<std::size_t>(d)]);
      for (std::int64_t e = (*level.indptr)[static_cast<std::size_t>(d)];
           e < (*level.indptr)[static_cast<std::size_t>(d) + 1]; ++e) {
        const NodeId src_global = mfg.n_ids[static_cast<std::size_t>(
            (*level.indices)[static_cast<std::size_t>(e)])];
        cross += (p.part_of(src_global) != dst_part);
        ++total;
      }
    }
  }
  return total > 0 ? static_cast<double>(cross) / static_cast<double>(total)
                   : 0.0;
}

double estimate_sampling_comm_fraction(const CsrGraph& graph,
                                       const GraphPartition& p,
                                       std::span<const NodeId> nodes,
                                       std::span<const std::int64_t> fanouts,
                                       std::int64_t batch_size,
                                       int num_batches, std::uint64_t seed) {
  FastSampler sampler(graph,
                      std::vector<std::int64_t>(fanouts.begin(),
                                                fanouts.end()));
  // Sample batches from a shuffled copy of the node list.
  std::vector<NodeId> pool(nodes.begin(), nodes.end());
  schedule_shuffle(pool, seed);
  double sum = 0;
  int measured = 0;
  for (int b = 0; b < num_batches; ++b) {
    const std::int64_t begin = b * batch_size;
    if (begin >= static_cast<std::int64_t>(pool.size())) break;
    const std::int64_t end = std::min<std::int64_t>(
        begin + batch_size, static_cast<std::int64_t>(pool.size()));
    Mfg mfg = sampler.sample(
        {pool.data() + begin, static_cast<std::size_t>(end - begin)},
        seed + static_cast<unsigned>(b) + 1);
    sum += mfg_cross_partition_fraction(mfg, p);
    ++measured;
  }
  return measured > 0 ? sum / measured : 0.0;
}

ChunkRange chunk_range(std::int64_t rows, int num_nodes, int node) {
  const auto world = static_cast<std::int64_t>(std::max(1, num_nodes));
  const auto rank = static_cast<std::int64_t>(node);
  const std::int64_t base = rows / world;
  const std::int64_t rem = rows % world;
  const std::int64_t begin = rank * base + std::min(rank, rem);
  return {begin, begin + base + (rank < rem ? 1 : 0)};
}

std::uint64_t schedule_mix_seed(std::uint64_t seed, std::int64_t index) {
  SplitMix64 sm(seed ^
                (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(index + 1)));
  return sm.next();
}

std::uint64_t schedule_epoch_seed(std::uint64_t seed, int epoch) {
  return seed * 0x10001ull + static_cast<std::uint64_t>(epoch) + 1;
}

void schedule_shuffle(std::vector<NodeId>& nodes, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[bounded_rand(rng, i)]);
  }
}

ChunkRange pipeline_admit_range(std::int64_t step, int depth,
                                std::int64_t num_steps) {
  if (step < 0 || depth < 0 || num_steps < 1) {
    throw std::invalid_argument("pipeline_admit_range: bad step/depth/steps");
  }
  const std::int64_t last = std::min<std::int64_t>(step + depth, num_steps - 1);
  const std::int64_t first = step == 0 ? 0 : step + depth;
  return {first, std::max(first, last + 1)};
}

std::vector<std::vector<std::int64_t>> group_rows_by_owner(
    const Mfg& mfg, const GraphPartition& p) {
  std::vector<std::vector<std::int64_t>> rows(
      static_cast<std::size_t>(std::max(1, p.num_parts)));
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    rows[static_cast<std::size_t>(p.part_of(mfg.n_ids[i]))].push_back(
        static_cast<std::int64_t>(i));
  }
  return rows;
}

}  // namespace salient
