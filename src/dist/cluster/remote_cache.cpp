#include "dist/cluster/remote_cache.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "prep/frequency_table.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "util/rng.h"

namespace salient::dist {

namespace {

/// Top-`capacity` of `candidates` under `better`, sorted by `better` so the
/// slot order is deterministic (the remote-candidate analogue of
/// cache_policy.cpp's top_nodes).
template <class Cmp>
std::vector<NodeId> top_candidates(std::vector<NodeId> candidates,
                                   std::int64_t capacity, Cmp better) {
  capacity = std::clamp<std::int64_t>(
      capacity, 0, static_cast<std::int64_t>(candidates.size()));
  std::nth_element(candidates.begin(),
                   candidates.begin() + static_cast<std::ptrdiff_t>(capacity),
                   candidates.end(), better);
  candidates.resize(static_cast<std::size_t>(capacity));
  std::sort(candidates.begin(), candidates.end(), better);
  return candidates;
}

/// Every vertex this node does not own, ascending.
std::vector<NodeId> remote_candidates(const ClusterPartition& partition,
                                      int node, std::int64_t num_nodes_total) {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(num_nodes_total));
  for (NodeId v = 0; v < num_nodes_total; ++v) {
    if (partition.owner_of(v) != node) out.push_back(v);
  }
  return out;
}

/// Static degree-ordered pinning restricted to remote vertices (the GNS
/// baseline lifted to the partitioned setting).
class RemoteDegreePolicy final : public CachePolicy {
 public:
  RemoteDegreePolicy(const ClusterPartition& partition, int node)
      : partition_(&partition), node_(node) {}

  const char* name() const override { return "degree"; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    return top_candidates(
        remote_candidates(*partition_, node_, dataset.graph.num_nodes()),
        capacity, [&](NodeId a, NodeId b) {
          const auto da = dataset.graph.degree(a);
          const auto db = dataset.graph.degree(b);
          return da != db ? da > db : a < b;
        });
  }

 private:
  const ClusterPartition* partition_;
  int node_;
};

/// SALIENT++-style presample pinning: replay K warmup epochs of this node's
/// slice of the cluster training schedule (same shuffle, same chunk split,
/// same per-chunk seeds as ClusterTrainer), count how often each *remote*
/// vertex appears in the sampled neighborhood expansions, and pin the
/// top-capacity by (frequency, degree, id). Zero-count ties degrade to
/// remote-degree order.
class RemotePresamplePolicy final : public CachePolicy {
 public:
  RemotePresamplePolicy(const ClusterPartition& partition, int node,
                        RemoteCacheConfig config)
      : partition_(&partition), node_(node), config_(std::move(config)) {}

  const char* name() const override { return "presample"; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    if (capacity <= 0) return {};  // always-fetch baseline: skip the warmup
    SALIENT_TRACE_SCOPE("dist.cache.presample");
    static obs::Counter& m_batches =
        obs::Registry::global().counter("dist.presample.batches");

    const std::int64_t n = dataset.graph.num_nodes();
    FrequencyTable freq(n);
    FastSampler sampler(dataset.graph, config_.fanouts);
    std::vector<NodeId> seeds = dataset.train_idx;
    const std::int64_t batch = std::max<std::int64_t>(1, config_.batch_size);
    const auto total = static_cast<std::int64_t>(seeds.size());
    const std::int64_t num_batches = (total + batch - 1) / batch;
    const int world = partition_->num_nodes;

    for (int epoch = 0; epoch < config_.presample_epochs; ++epoch) {
      // Identical epoch-seed derivation and shuffle as the training loop, so
      // the warmup counts the exact expansions the first K epochs will run.
      const std::uint64_t epoch_seed =
          config_.seed * 0x10001ull + static_cast<std::uint64_t>(epoch) + 1;
      schedule_shuffle(seeds, epoch_seed);
      for (std::int64_t b = 0; b < num_batches; ++b) {
        const std::int64_t lo = b * batch;
        const std::int64_t hi = std::min(total, lo + batch);
        const ChunkRange chunk = chunk_range(hi - lo, world, node_);
        if (chunk.empty()) continue;
        const Mfg mfg = sampler.sample(
            {seeds.data() + lo + chunk.begin,
             static_cast<std::size_t>(chunk.size())},
            schedule_mix_seed(epoch_seed, b * world + node_));
        for (const NodeId v : mfg.n_ids) {
          if (partition_->owner_of(v) != node_) freq.add(v);
        }
        m_batches.add();
      }
    }

    std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
    for (const auto& [v, c] : freq.items()) {
      counts[static_cast<std::size_t>(v)] = c;
    }
    return top_candidates(remote_candidates(*partition_, node_, n), capacity,
                          [&](NodeId a, NodeId b) {
                            const auto ca = counts[static_cast<std::size_t>(a)];
                            const auto cb = counts[static_cast<std::size_t>(b)];
                            if (ca != cb) return ca > cb;
                            const auto da = dataset.graph.degree(a);
                            const auto db = dataset.graph.degree(b);
                            return da != db ? da > db : a < b;
                          });
  }

 private:
  const ClusterPartition* partition_;
  int node_;
  RemoteCacheConfig config_;
};

/// Dynamic LRU restricted to remote vertices: delegates the recency
/// machinery to the single-node LRU policy and declines admission of
/// locally-owned vertices (their rows never cross the wire, so replicating
/// them would only waste capacity).
class RemoteLruPolicy final : public CachePolicy {
 public:
  RemoteLruPolicy(const ClusterPartition& partition, int node)
      : partition_(&partition), node_(node) {
    CachePolicyConfig config;
    config.kind = CachePolicyKind::kLru;
    delegate_ = make_cache_policy(config);
  }

  const char* name() const override { return "lru"; }
  bool dynamic() const override { return true; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    return delegate_->pin(dataset, capacity);  // cold cache
  }

  std::int64_t admit(NodeId v) override {
    if (partition_->owner_of(v) == node_) return -1;
    return delegate_->admit(v);
  }

  void touch(std::int64_t slot) override { delegate_->touch(slot); }

 private:
  const ClusterPartition* partition_;
  int node_;
  std::unique_ptr<CachePolicy> delegate_;
};

std::unique_ptr<CachePolicy> make_remote_policy(
    const ClusterPartition& partition, int node,
    const RemoteCacheConfig& config) {
  if (config.presample_epochs < 1) {
    throw std::invalid_argument("remote cache: presample_epochs must be >= 1");
  }
  if (config.batch_size < 1) {
    throw std::invalid_argument("remote cache: batch_size must be >= 1");
  }
  switch (config.policy) {
    case CachePolicyKind::kLru:
      return std::make_unique<RemoteLruPolicy>(partition, node);
    case CachePolicyKind::kDegree:
      return std::make_unique<RemoteDegreePolicy>(partition, node);
    case CachePolicyKind::kPresample:
    case CachePolicyKind::kAuto:
      return std::make_unique<RemotePresamplePolicy>(partition, node, config);
  }
  throw std::invalid_argument("remote cache: unknown policy kind");
}

std::int64_t effective_capacity(const Dataset& dataset,
                                const ClusterPartition& partition, int node,
                                const RemoteCacheConfig& config) {
  const std::int64_t n = dataset.graph.num_nodes();
  const auto pct = static_cast<std::int64_t>(config.cache_percentage *
                                             static_cast<double>(n));
  std::int64_t remote = 0;
  for (NodeId v = 0; v < n; ++v) remote += (partition.owner_of(v) != node);
  return std::clamp<std::int64_t>(std::max(config.capacity_nodes, pct), 0,
                                  remote);
}

}  // namespace

RemoteFeatureCache::RemoteFeatureCache(const Dataset& dataset,
                                       const ClusterPartition& partition,
                                       int node,
                                       const RemoteCacheConfig& config)
    : partition_(&partition),
      node_(node),
      cache_(dataset, effective_capacity(dataset, partition, node, config),
             make_remote_policy(partition, node, config)) {
  if (node < 0 || node >= partition.num_nodes) {
    throw std::invalid_argument("remote cache: node out of range");
  }
  const std::int64_t n = dataset.graph.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    num_remote_ += (partition.owner_of(v) != node);
  }
}

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
