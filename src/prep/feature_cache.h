// Device-resident feature caching (paper §8, future work) with pluggable
// placement policies (docs/CACHING.md).
//
// "one must avail of additional techniques such as GPU-based slicing (Min
// et al., 2021) or caching data on the GPU (Dong et al., 2021) to reduce the
// slicing or data transfer volume."
//
// The cache keeps the features of up to `capacity` vertices resident on the
// device in compute precision (f32). Which vertices those are is decided by
// a CachePolicy (prep/cache_policy.h): static degree-ordered pinning (the
// GNS cache of Dong et al., the default), static presample-based pinning
// (FGNN/GNNLab-style warmup frequency counting), dynamic LRU, or an
// auto-selection mode. Because node-wise sampling visits high-degree nodes
// far more often than uniformly, frequency-informed placement achieves hit
// rates much higher than capacity/|V| — the effect the ablation bench and
// the `serve_loadgen --sweep-cache` curves quantify.
//
// Pipeline integration: the preparation side slices only the *missing* rows
// into pinned staging (prepare_batch: plan_cached_batch + missing_node_ids +
// a gather from the wire store), and the device assembles the full feature
// matrix from the cache plus the transferred rows on the compute stream
// (DeviceSim::transfer_batch_cached).
//
// Concurrency: caches built with a static policy are immutable after
// construction and planned against lock-free from any number of loader /
// serve prep workers. A dynamic policy (LRU) mutates the resident set at
// plan time, so plans take the internal cache mutex and carry a snapshot of
// their hit rows (CachePlan::hit_rows) — in-flight batches stay coherent
// even if their rows are evicted before the device consumes the plan.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/dataset.h"
#include "prep/cache_policy.h"
#include "sampling/mfg.h"
#include "tensor/tensor.h"
#include "util/thread_annotations.h"

/// \file
/// \brief The device feature cache, its per-batch transfer plan, and the
/// list of a plan's missing rows.

namespace salient {

class FeatureCache;

/// A transfer plan for one mini-batch against a cache: row i of the batch's
/// input set comes either from the cache (when from_cache[i]) or from
/// transferred-missing-row `source[i]`.
struct CachePlan {
  /// Per input node: 1 when served from the cache, 0 when transferred.
  std::vector<std::uint8_t> from_cache;
  /// Per input node: for misses, the row in the staged miss buffer (dense
  /// and in input order from plan_cached_batch; the cluster's remote plan
  /// groups them by owner). For hits: the cache slot (static policies) or
  /// the row in `hit_rows` (dynamic policies, where hit_rows is defined).
  std::vector<std::int64_t> source;
  /// Number of rows the host must still transfer.
  std::int64_t num_missing = 0;
  /// Dynamic policies only: an f32 snapshot [hits, F] of the hit rows,
  /// taken atomically with the plan so later evictions cannot corrupt
  /// in-flight batches. Undefined for static policies (the device reads
  /// FeatureCache::features() directly — it never changes).
  Tensor hit_rows;

  /// Fraction of input rows served from the cache (0 on an empty plan).
  double hit_rate() const {
    return from_cache.empty()
               ? 0.0
               : 1.0 - static_cast<double>(num_missing) /
                           static_cast<double>(from_cache.size());
  }
};

/// Classify the MFG's input nodes against the cache, count the whole-run
/// `prep.cache.row_{hits,misses}` metrics, and (for dynamic policies) apply
/// the policy's admission/eviction decisions. Thread-safe.
CachePlan plan_cached_batch(const Mfg& mfg, const FeatureCache& cache);

/// Device-resident feature cache over a policy-selected vertex set.
///
/// Construction materializes the policy's pinned rows in device precision
/// (f32); capacity 0 is a valid always-miss cache. Instances are shared
/// across loader/serve workers via shared_ptr<const FeatureCache>; all
/// const member functions are thread-safe.
class FeatureCache {
 public:
  /// Degree-ordered static cache of the `capacity` highest-degree nodes
  /// (backward-compatible default policy).
  FeatureCache(const Dataset& dataset, std::int64_t capacity);

  /// Build with the policy described by `config` (the `--cache-policy`
  /// CLI surface; see CachePolicyConfig).
  FeatureCache(const Dataset& dataset, std::int64_t capacity,
               const CachePolicyConfig& config);

  /// Build over an explicit policy instance (tests, custom policies). The
  /// cache borrows `dataset`, which must outlive it.
  FeatureCache(const Dataset& dataset, std::int64_t capacity,
               std::unique_ptr<CachePolicy> policy);

  /// Maximum resident rows (clamped to the dataset's node count).
  std::int64_t capacity() const { return capacity_; }

  /// The governing policy's canonical name (e.g. "degree", "lru").
  const char* policy_name() const { return policy_->name(); }

  /// Whether the resident set mutates at plan time (see CachePolicy).
  bool dynamic_policy() const { return dynamic_; }

  /// Static policies: the resident feature matrix [capacity, F]
  /// (device-resident f32), immutable after construction. Undefined for
  /// dynamic policies — their plans carry CachePlan::hit_rows instead.
  const Tensor& features() const { return features_; }

  /// Cache slot of node `v`, or -1 when not resident. Static policies:
  /// lock-free O(1). Dynamic policies: takes the cache lock and reports the
  /// current resident set (a moving target under concurrent planning).
  std::int64_t slot_of(NodeId v) const;

  /// The resident vertex set, sorted ascending (test/diagnostic helper;
  /// takes the cache lock for dynamic policies).
  std::vector<NodeId> resident_nodes() const;

  /// Bytes of device memory the cache occupies.
  std::size_t device_bytes() const;

 private:
  friend CachePlan plan_cached_batch(const Mfg& mfg, const FeatureCache& cache);

  /// Lock-free plan against the immutable resident set.
  CachePlan plan_static(const Mfg& mfg) const;
  /// Locked plan: snapshot hits, consult the policy on misses, apply
  /// admissions/evictions.
  CachePlan plan_dynamic(const Mfg& mfg) const;

  const Dataset* dataset_ = nullptr;  ///< borrowed; outlives the cache
  std::unique_ptr<CachePolicy> policy_;
  bool dynamic_ = false;
  std::int64_t capacity_ = 0;
  std::int64_t feature_dim_ = 0;

  // Static-policy state: immutable after construction, read lock-free.
  Tensor features_;                 ///< [capacity, F] f32
  std::vector<std::int64_t> slot_;  ///< node -> slot or -1

  /// Guards every dyn_* member plus the policy's admission/recency state
  /// (dynamic policies only; never taken by static-policy caches).
  mutable Mutex mu_;
  mutable Tensor dyn_features_ GUARDED_BY(mu_);  ///< [capacity, F] f32
  mutable std::vector<std::int64_t> dyn_slot_ GUARDED_BY(mu_);
  mutable std::vector<NodeId> node_of_slot_ GUARDED_BY(mu_);
};

/// The node ids of the plan's cache-missing rows, in the order the device
/// expects them in the staged miss buffer (prepare_batch gathers these rows
/// from the wire store, so misses ship compressed).
std::vector<NodeId> missing_node_ids(const Mfg& mfg, const CachePlan& plan);

}  // namespace salient
