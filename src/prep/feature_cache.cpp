#include "prep/feature_cache.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "prep/slicing.h"

namespace salient {

FeatureCache::FeatureCache(const Dataset& dataset, std::int64_t capacity)
    : FeatureCache(dataset, capacity,
                   make_cache_policy(CachePolicyConfig{})) {}

FeatureCache::FeatureCache(const Dataset& dataset, std::int64_t capacity,
                           const CachePolicyConfig& config)
    : FeatureCache(dataset, capacity, make_cache_policy(config)) {}

FeatureCache::FeatureCache(const Dataset& dataset, std::int64_t capacity,
                           std::unique_ptr<CachePolicy> policy)
    : dataset_(&dataset), policy_(std::move(policy)) {
  if (!policy_) {
    throw std::invalid_argument("FeatureCache: null policy");
  }
  const std::int64_t n = dataset.graph.num_nodes();
  capacity_ = std::clamp<std::int64_t>(capacity, 0, n);
  feature_dim_ = dataset.feature_dim;

  std::vector<NodeId> pinned = policy_->pin(dataset, capacity_);
  if (static_cast<std::int64_t>(pinned.size()) > capacity_) {
    throw std::logic_error("FeatureCache: policy pinned beyond capacity");
  }
  dynamic_ = policy_->dynamic();

  // Materialize the pinned rows in device precision.
  Tensor host_rows({static_cast<std::int64_t>(pinned.size()), feature_dim_},
                   dataset.features.dtype());
  slice_rows_serial(dataset.features, pinned, host_rows);
  const Tensor pinned_f32 = host_rows.to(DType::kF32);

  if (!dynamic_) {
    slot_.assign(static_cast<std::size_t>(n), -1);
    features_ = pinned_f32;
    for (std::size_t s = 0; s < pinned.size(); ++s) {
      slot_[static_cast<std::size_t>(pinned[s])] =
          static_cast<std::int64_t>(s);
    }
    return;
  }
  LockGuard lock(mu_);
  dyn_slot_.assign(static_cast<std::size_t>(n), -1);
  node_of_slot_.assign(static_cast<std::size_t>(capacity_), -1);
  dyn_features_ = Tensor({capacity_, feature_dim_}, DType::kF32);
  const std::size_t row_bytes =
      static_cast<std::size_t>(feature_dim_) * sizeof(float);
  for (std::size_t s = 0; s < pinned.size(); ++s) {
    dyn_slot_[static_cast<std::size_t>(pinned[s])] =
        static_cast<std::int64_t>(s);
    node_of_slot_[s] = pinned[s];
    std::memcpy(dyn_features_.data<float>() +
                    static_cast<std::int64_t>(s) * feature_dim_,
                pinned_f32.data<float>() +
                    static_cast<std::int64_t>(s) * feature_dim_,
                row_bytes);
  }
}

std::int64_t FeatureCache::slot_of(NodeId v) const {
  if (!dynamic_) {
    return v >= 0 && v < static_cast<NodeId>(slot_.size())
               ? slot_[static_cast<std::size_t>(v)]
               : -1;
  }
  LockGuard lock(mu_);
  return v >= 0 && v < static_cast<NodeId>(dyn_slot_.size())
             ? dyn_slot_[static_cast<std::size_t>(v)]
             : -1;
}

std::vector<NodeId> FeatureCache::resident_nodes() const {
  std::vector<NodeId> out;
  if (!dynamic_) {
    for (std::size_t v = 0; v < slot_.size(); ++v) {
      if (slot_[v] >= 0) out.push_back(static_cast<NodeId>(v));
    }
    return out;  // ascending by construction
  }
  LockGuard lock(mu_);
  for (const NodeId v : node_of_slot_) {
    if (v >= 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t FeatureCache::device_bytes() const {
  if (!dynamic_) return features_.nbytes();
  return static_cast<std::size_t>(capacity_) *
         static_cast<std::size_t>(feature_dim_) * sizeof(float);
}

CachePlan FeatureCache::plan_static(const Mfg& mfg) const {
  CachePlan plan;
  plan.from_cache.reserve(mfg.n_ids.size());
  plan.source.reserve(mfg.n_ids.size());
  for (const NodeId v : mfg.n_ids) {
    const std::int64_t slot =
        v >= 0 && v < static_cast<NodeId>(slot_.size())
            ? slot_[static_cast<std::size_t>(v)]
            : -1;
    if (slot >= 0) {
      plan.from_cache.push_back(1);
      plan.source.push_back(slot);
    } else {
      plan.from_cache.push_back(0);
      plan.source.push_back(plan.num_missing++);
    }
  }
  return plan;
}

CachePlan FeatureCache::plan_dynamic(const Mfg& mfg) const {
  CachePlan plan;
  plan.from_cache.reserve(mfg.n_ids.size());
  plan.source.reserve(mfg.n_ids.size());
  const std::size_t row_floats = static_cast<std::size_t>(feature_dim_);
  std::vector<float> hit_staging;  // hits * F, snapshotted under the lock
  std::vector<NodeId> admitted_nodes;
  std::vector<std::int64_t> admitted_slots;
  {
    LockGuard lock(mu_);
    const float* feat = dyn_features_.data<float>();
    for (const NodeId v : mfg.n_ids) {
      const bool in_range =
          v >= 0 && v < static_cast<NodeId>(dyn_slot_.size());
      const std::int64_t slot =
          in_range ? dyn_slot_[static_cast<std::size_t>(v)] : -1;
      if (slot >= 0) {
        policy_->touch(slot);
        plan.from_cache.push_back(1);
        plan.source.push_back(
            static_cast<std::int64_t>(hit_staging.size() / row_floats));
        const float* row = feat + slot * feature_dim_;
        hit_staging.insert(hit_staging.end(), row, row + feature_dim_);
      } else {
        plan.from_cache.push_back(0);
        plan.source.push_back(plan.num_missing++);
        if (capacity_ > 0 && in_range) {
          const std::int64_t victim = policy_->admit(v);
          if (victim >= 0) {
            // Retarget the slot; the row contents are written below. No hit
            // later in this batch can reference the victim slot (input node
            // ids are unique), so deferring the copy is safe.
            const NodeId old = node_of_slot_[static_cast<std::size_t>(victim)];
            if (old >= 0) dyn_slot_[static_cast<std::size_t>(old)] = -1;
            node_of_slot_[static_cast<std::size_t>(victim)] = v;
            dyn_slot_[static_cast<std::size_t>(v)] = victim;
            admitted_nodes.push_back(v);
            admitted_slots.push_back(victim);
          }
        }
      }
    }
    if (!admitted_nodes.empty()) {
      // One batched slice + convert for all admissions of this plan.
      Tensor host({static_cast<std::int64_t>(admitted_nodes.size()),
                   feature_dim_},
                  dataset_->features.dtype());
      slice_rows_serial(dataset_->features, admitted_nodes, host);
      const Tensor rows_f32 = host.to(DType::kF32);
      const std::size_t row_bytes = row_floats * sizeof(float);
      for (std::size_t i = 0; i < admitted_slots.size(); ++i) {
        std::memcpy(dyn_features_.data<float>() +
                        admitted_slots[i] * feature_dim_,
                    rows_f32.data<float>() +
                        static_cast<std::int64_t>(i) * feature_dim_,
                    row_bytes);
      }
    }
  }
  const auto hits =
      static_cast<std::int64_t>(hit_staging.size() / row_floats);
  plan.hit_rows = Tensor({hits, feature_dim_}, DType::kF32);
  if (hits > 0) {
    std::memcpy(plan.hit_rows.raw(), hit_staging.data(),
                hit_staging.size() * sizeof(float));
  }
  return plan;
}

CachePlan plan_cached_batch(const Mfg& mfg, const FeatureCache& cache) {
  // Whole-run hit/miss totals for the metrics dump: the cache's measured hit
  // ratio (vs. the capacity/|V| lower bound) without running the ablation
  // bench. hit_rate = hits / (hits + misses). The auto policy probes read
  // the same counters to rank candidate policies (docs/CACHING.md).
  auto& reg = obs::Registry::global();
  static obs::Counter& m_hits = reg.counter("prep.cache.row_hits");
  static obs::Counter& m_misses = reg.counter("prep.cache.row_misses");

  CachePlan plan = cache.dynamic_policy() ? cache.plan_dynamic(mfg)
                                          : cache.plan_static(mfg);
  const auto total = static_cast<std::int64_t>(plan.from_cache.size());
  m_hits.add(total - plan.num_missing);
  m_misses.add(plan.num_missing);
  return plan;
}

std::vector<NodeId> missing_node_ids(const Mfg& mfg, const CachePlan& plan) {
  std::vector<NodeId> missing;
  missing.reserve(static_cast<std::size_t>(plan.num_missing));
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    if (!plan.from_cache[i]) missing.push_back(mfg.n_ids[i]);
  }
  return missing;
}

}  // namespace salient
