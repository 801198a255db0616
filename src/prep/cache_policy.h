// Pluggable feature-cache policies (docs/CACHING.md).
//
// The device feature cache (prep/feature_cache.h) hides host->device feature
// traffic, but *which* rows it keeps resident is a policy decision. SALIENT++
// and the FGNN/GNNLab line of systems show that for neighborhood-sampling
// workloads, static frequency-informed placement (degree-ordered, or counted
// from warmup sampling epochs) decisively beats dynamic LRU — the access
// stream is a near-stationary power law, so recency learns nothing that
// frequency does not already know, while paying admission/eviction churn on
// every batch. This header makes the policy a first-class, swappable object
// so the same cache body serves all of them: the device and serving caches,
// and each cluster node's remote-feature cache, whose partitioned config
// restricts the same policies to the vertices the node does not own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/dataset.h"
#include "graph/partition.h"

/// \file
/// \brief The CachePolicy interface and its configuration: pluggable
/// admission/eviction/pinning strategies for the device feature cache.

/// \namespace salient
/// \brief Root namespace of the SALIENT reproduction.
namespace salient {

/// Identifies a feature-cache policy implementation (docs/CACHING.md).
enum class CachePolicyKind : std::uint8_t {
  /// Dynamic least-recently-used: cold start, admit every miss, evict the
  /// least recently planned row. The classic baseline the static policies
  /// are measured against.
  kLru,
  /// Static degree-ordered pinning (GNS-style): the `capacity` highest
  /// degree vertices are pinned at construction and never change.
  kDegree,
  /// Static presample-based pinning (FGNN/GNNLab-style): run K warmup
  /// sampling epochs, count vertex access frequency in a flat hash table,
  /// pin the top-`capacity` vertices by observed frequency.
  kPresample,
  /// Auto-selection: probe each concrete policy on a short sampled access
  /// stream, read the observed `prep.cache.row_{hits,misses}` hit rate from
  /// the obs metrics registry, and delegate to the winner.
  kAuto,
};

/// Parse a policy name ("lru", "degree", "presample", "auto").
/// \throws std::invalid_argument on an unknown name.
CachePolicyKind parse_cache_policy(const std::string& name);

/// The canonical lower-case name of `kind` (inverse of parse_cache_policy).
const char* cache_policy_name(CachePolicyKind kind);

/// Which vertex set the presample warmup epochs sample from.
enum class PresampleSeeds : std::uint8_t {
  kTrain,  ///< the training split (training pipelines)
  kTest,   ///< the test split (serving pipelines)
  kAll,    ///< every vertex (workload-agnostic placement)
};

/// Everything a policy needs beyond the dataset: the sampling shape of the
/// workload it should optimize for, and its own tuning knobs. Owners
/// (Trainer, InferenceServer, ClusterTrainer) fill this from their configs
/// so the warmup epochs match the real workload's fanouts and batch size.
struct CachePolicyConfig {
  /// Which policy to build (the `--cache-policy` CLI knob).
  CachePolicyKind kind = CachePolicyKind::kDegree;
  /// Presample: number of warmup sampling epochs K (>= 1). More epochs
  /// sharpen the frequency estimate at linear warmup cost; K=2..3 is ample
  /// for power-law graphs (docs/CACHING.md).
  int presample_epochs = 2;
  /// Presample: warmup worker threads (0 = serial). Counting is
  /// deterministic across any worker count.
  int presample_workers = 0;
  /// Presample: which vertex set seeds the warmup epochs.
  PresampleSeeds presample_seeds = PresampleSeeds::kTrain;
  /// Per-layer sampling fanouts of the target workload, outermost first.
  std::vector<std::int64_t> fanouts{15, 10, 5};
  /// Mini-batch size of the target workload.
  std::int64_t batch_size = 1024;
  /// Seed for warmup/probe sampling (mixed per batch, so counting is
  /// independent of worker scheduling).
  std::uint64_t seed = 1;
  /// Auto: probe batches planned per candidate policy when measuring
  /// hit rates.
  int auto_probe_batches = 8;
  /// Partitioned caches (one cluster node's remote cache): the vertex ->
  /// node assignment, borrowed; it must outlive the policy. With it the
  /// policies never pin, count or admit a vertex `node` owns, the presample
  /// warmup samples only `node`'s chunk of each batch (the cluster
  /// schedule), and kAuto resolves to kPresample. Null: a single-node cache.
  const GraphPartition* partition = nullptr;
  /// Partitioned caches: the node the cache belongs to, in
  /// [0, partition->num_parts).
  int node = 0;
};

/// Strategy interface deciding which feature rows live in a FeatureCache.
///
/// A policy participates at two points in a cache's life:
///
///  * **Pinning** — pin() chooses the initial resident vertex set at cache
///    construction. Static policies (degree, presample) do all their work
///    here and are immutable afterwards, which is what makes them lock-free
///    to plan against.
///  * **Admission/eviction** — dynamic policies (dynamic() == true) are
///    additionally consulted once per planned batch row: touch() on every
///    hit updates recency state, admit() on every miss either names a
///    victim slot to overwrite or declines the admission. Both hooks are
///    invoked by FeatureCache under its internal cache lock, so
///    implementations need no synchronization of their own.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// The policy's canonical name (for metrics and logs).
  virtual const char* name() const = 0;

  /// Pinning hook: choose up to `capacity` vertices to make resident at
  /// construction. Called exactly once, before any other hook. May be
  /// expensive (the presample policy runs its warmup epochs here). Dynamic
  /// policies may return fewer than `capacity` vertices (LRU returns none —
  /// a cold cache); the returned set seeds slots 0..n-1 in order and the
  /// policy must account for those slots as already occupied.
  virtual std::vector<NodeId> pin(const Dataset& dataset,
                                  std::int64_t capacity) = 0;

  /// Whether the resident set changes at plan time (admission/eviction).
  /// Dynamic caches take a lock per planned batch and snapshot hit rows;
  /// static caches plan lock-free. Queried after pin().
  virtual bool dynamic() const { return false; }

  /// Eviction+admission hook (dynamic policies only; under the cache lock).
  /// A plan found `v` missing: return the slot to overwrite with `v`'s row
  /// (evicting that slot's current resident, if any), or -1 to decline the
  /// admission. The cache applies all slot bookkeeping.
  virtual std::int64_t admit(NodeId v) {
    (void)v;
    return -1;
  }

  /// Access hook (dynamic policies only; under the cache lock): a plan hit
  /// resident slot `slot` — update recency/frequency state.
  virtual void touch(std::int64_t slot) { (void)slot; }
};

/// Build a policy from `config` (the factory behind the `--cache-policy`
/// knob). \throws std::invalid_argument on invalid configuration (e.g.
/// presample_epochs < 1, or a partitioned config whose node is out of
/// range), before any warmup runs.
std::unique_ptr<CachePolicy> make_cache_policy(const CachePolicyConfig& config);

}  // namespace salient
