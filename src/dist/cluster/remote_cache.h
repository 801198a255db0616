// Per-node replication cache of remote vertex features (docs/DISTRIBUTED.md).
//
// In the partitioned cluster each node stores only the feature rows of the
// vertices it owns, so every sampled batch needs the features of remote
// vertices fetched over the interconnect — the cross-node traffic SALIENT++
// identifies as the distributed bottleneck. This cache keeps the *hot*
// remote features replicated locally, and — the SALIENT++ idea — drives
// which those are from neighborhood-expansion frequency estimates computed
// by presampling the node's own slice of the training schedule, rather than
// from recency. The cache is a FeatureCache built by make_cache_policy
// (prep/cache_policy.h) from a partitioned config, so the degree, presample
// and LRU policies are the device cache's own, restricted to the vertices
// the node does not own; what this layer adds is the per-batch plan that
// splits rows into owned, cached and per-owner fetches.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/cluster/partitioner.h"
#include "prep/feature_cache.h"

/// \file
/// \brief The per-node remote-feature replication cache and its per-batch
/// fetch plan (docs/DISTRIBUTED.md).

namespace salient::dist {

/// The cache knobs of a cluster (ClusterConfig::cache); the warmup's
/// workload shape is the trainer's own fanouts, batch size and seed.
struct RemoteCacheConfig {
  /// Placement policy. kDegree and kPresample pin statically over remote
  /// candidates; kLru admits remote misses dynamically; kAuto resolves to
  /// kPresample (the auto probe measures single-node hit rate, which is the
  /// wrong objective here).
  CachePolicyKind policy = CachePolicyKind::kPresample;
  /// Cache capacity as a fraction of |V| in [0, 1] per node, clamped to the
  /// node's remote-vertex count.
  double cache_percentage = 0.0;
  /// Presample policy: warmup epochs K (>= 1) over the node's slice of the
  /// cluster training schedule.
  int presample_epochs = 2;
};

/// One per-owner remote fetch of a batch's missing rows.
struct RemoteFetch {
  /// The node owning the fetched rows.
  int owner = 0;
  /// Ascending row indices into the MFG's input set (mfg.n_ids).
  std::vector<std::int64_t> rows;
};

/// A partition-aware transfer plan for one mini-batch: every input row is
/// either owned locally, replicated in the remote cache, or listed in a
/// per-owner fetch.
struct RemotePlan {
  /// The underlying cache classification (hits serve from the cache). The
  /// `source` of a missing row is its row in the batch's staging buffer:
  /// the locally owned rows first, then each fetch's rows as one
  /// contiguous block, in fetch order.
  CachePlan plan;
  /// Ascending row indices owned by this node (sliced from the local
  /// feature-store shard into the staging buffer's first block).
  std::vector<std::int64_t> local_rows;
  /// Per-owner fetches of the remote misses, ascending owner order; owners
  /// with no missing rows are omitted.
  std::vector<RemoteFetch> fetches;
  /// Remote input rows served from the replication cache.
  std::int64_t remote_hits = 0;
  /// Remote input rows that must cross the interconnect.
  std::int64_t remote_misses = 0;

  /// Remote rows in this batch (hits + misses).
  std::int64_t remote_rows() const { return remote_hits + remote_misses; }
  /// Fraction of remote rows served locally (0 when the batch has none).
  double remote_hit_rate() const {
    const auto r = remote_rows();
    return r > 0 ? static_cast<double>(remote_hits) / static_cast<double>(r)
                 : 0.0;
  }
};

/// One cluster node's replication cache of remote vertex features.
///
/// Construction may be expensive (the presample policy runs its warmup
/// sampling epochs); plan() is cheap and thread-safe. Capacity 0 is a valid
/// always-fetch cache, which is how the uncached baseline is modelled.
class RemoteFeatureCache {
 public:
  /// Build node `node`'s cache over `dataset` under `partition`, holding up
  /// to `cache_percentage * |V|` rows (clamped to the node's remote-vertex
  /// count) placed by `policy`, whose partition and node this sets. Both
  /// borrowed objects must outlive the cache.
  /// \throws std::invalid_argument on an out-of-range node or a config
  /// make_cache_policy rejects, before any warmup runs.
  RemoteFeatureCache(const Dataset& dataset, const ClusterPartition& partition,
                     int node, double cache_percentage,
                     CachePolicyConfig policy);

  /// Classify a sampled batch: cache hits, locally owned rows, and the
  /// per-owner remote fetch lists, and lay out the missing rows' staging
  /// buffer (RemotePlan::plan). Counts the cluster-wide
  /// `dist.cache.row_{hits,misses}` metrics (remote rows only).
  RemotePlan plan(const Mfg& mfg) const;

  /// The underlying feature cache: resident rows, capacity after the
  /// remote-vertex clamp, policy name.
  const FeatureCache& cache() const { return cache_; }

 private:
  const ClusterPartition* partition_;  ///< borrowed; outlives the cache
  int node_ = 0;
  FeatureCache cache_;
};

}  // namespace salient::dist
