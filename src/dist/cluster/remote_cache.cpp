#include "dist/cluster/remote_cache.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace salient::dist {

namespace {

/// Node `node`'s FeatureCache. The policy is built first: make_cache_policy
/// rejects an out-of-range node before `owned[node]` is read or any warmup
/// runs.
FeatureCache make_node_cache(const Dataset& dataset,
                             const ClusterPartition& partition, int node,
                             double cache_percentage,
                             CachePolicyConfig policy) {
  policy.partition = &partition.assignment;
  policy.node = node;
  std::unique_ptr<CachePolicy> placement = make_cache_policy(policy);
  const std::int64_t n = dataset.graph.num_nodes();
  const std::int64_t remote =
      n - static_cast<std::int64_t>(
              partition.owned[static_cast<std::size_t>(node)].size());
  const auto rows =
      static_cast<std::int64_t>(cache_percentage * static_cast<double>(n));
  return FeatureCache(dataset, std::clamp<std::int64_t>(rows, 0, remote),
                      std::move(placement));
}

}  // namespace

RemoteFeatureCache::RemoteFeatureCache(const Dataset& dataset,
                                       const ClusterPartition& partition,
                                       int node, double cache_percentage,
                                       CachePolicyConfig policy)
    : partition_(&partition),
      node_(node),
      cache_(make_node_cache(dataset, partition, node, cache_percentage,
                             std::move(policy))) {}

RemotePlan RemoteFeatureCache::plan(const Mfg& mfg) const {
  auto& reg = obs::Registry::global();
  static obs::Counter& m_hits = reg.counter("dist.cache.row_hits");
  static obs::Counter& m_misses = reg.counter("dist.cache.row_misses");

  RemotePlan rp;
  rp.plan = plan_cached_batch(mfg, cache_);
  std::vector<std::vector<std::int64_t>> per_owner(
      static_cast<std::size_t>(partition_->num_nodes));
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    if (rp.plan.from_cache[i]) {
      ++rp.remote_hits;  // only remote vertices are ever admitted
      continue;
    }
    const NodeId v = mfg.n_ids[i];
    const auto owner = partition_->owner_of(v);
    if (owner == node_) {
      rp.local_rows.push_back(static_cast<std::int64_t>(i));
    } else {
      per_owner[static_cast<std::size_t>(owner)].push_back(
          static_cast<std::int64_t>(i));
      ++rp.remote_misses;
    }
  }
  // The staging layout (each missing row's CachePlan::source): this node's
  // own rows first, then one contiguous block per owner in fetch order.
  std::int64_t slot = 0;
  for (const std::int64_t i : rp.local_rows) {
    rp.plan.source[static_cast<std::size_t>(i)] = slot++;
  }
  for (std::size_t q = 0; q < per_owner.size(); ++q) {
    if (per_owner[q].empty()) continue;
    for (const std::int64_t i : per_owner[q]) {
      rp.plan.source[static_cast<std::size_t>(i)] = slot++;
    }
    rp.fetches.push_back({static_cast<int>(q), std::move(per_owner[q])});
  }
  m_hits.add(rp.remote_hits);
  m_misses.add(rp.remote_misses);
  return rp;
}

}  // namespace salient::dist
