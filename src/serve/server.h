// Online GNN inference server (docs/SERVING.md).
//
// Turns the repo's batch pipeline into a request/response system, reusing
// the exact machinery the paper builds for training (the §5 unification is
// what makes this cheap): FastSampler workers, cache-aware pinned slicing,
// and overlapped copy/compute device streams. Stages, each on its own
// thread(s), connected by bounded queues:
//
//   submit() -> RequestQueue (admission control + shedding, serve.shed)
//     -> batcher thread: MicroBatcher coalesces requests; ResultCache
//        answers repeat nodes; fully cached requests return without compute
//     -> prep workers (xN): one-shot neighborhood sampling (seeded by batch
//        sequence number, so results are worker-count independent) + pinned,
//        FeatureCache-aware feature slicing
//     -> device thread: H2D transfer on the copy stream, forward + argmax on
//        the compute stream, pipeline_depth batches in flight
//     -> retire: scatter per-node predictions to each request's future,
//        insert into the ResultCache, record serve.latency_us/queue_us.
//
// p50/p95/p99 latency comes from the obs histogram registry
// (serve.latency_us, Histogram::quantile); every stage also emits trace
// spans, so a --trace-out capture shows a request's life the same way
// Figure 1(b) shows a training batch's.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "device/device_sim.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "prep/batch.h"
#include "prep/pinned_pool.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "util/blocking_queue.h"

namespace salient::serve {

struct ServeConfig {
  /// Per-layer inference fanouts (the paper's one-shot sampled inference
  /// uses (20,20,20)).
  std::vector<std::int64_t> fanouts{20, 20, 20};
  /// Admission bound: requests buffered beyond this are shed.
  std::size_t queue_capacity = 256;
  BatchPolicy batch;
  /// Sampling + slicing workers (the serving analogue of loader workers).
  int num_prep_workers = 2;
  /// Micro-batches buffered between batcher and prep, and between prep and
  /// the device stage (backpressure bounds, like the loader's output queue).
  std::size_t stage_queue_capacity = 4;
  /// Device batches in flight past transfer issue (the §4.3 overlap depth).
  int pipeline_depth = 2;
  /// LRU entries of recent per-node predictions; 0 disables the cache.
  std::int64_t result_cache_capacity = 0;
  /// Optional device-resident feature cache shared with training (§8). When
  /// null and cache_percentage > 0, the server builds its own cache from
  /// cache_policy/cache_percentage below.
  std::shared_ptr<const FeatureCache> feature_cache;
  /// Placement policy for a server-built feature cache (docs/CACHING.md).
  /// Presample warmup seeds from the test split — the serving workload.
  CachePolicyKind cache_policy = CachePolicyKind::kDegree;
  /// Capacity of a server-built feature cache as a fraction of |V| in
  /// [0, 1]; 0 leaves the cache to `feature_cache` (possibly disabled).
  double cache_percentage = 0.0;
  /// Presample warmup epochs for a server-built cache.
  int presample_epochs = 2;
  /// On-the-wire feature dtype for host->device transfers (kF16 default,
  /// kF32, or kInt8Q per-row affine; see LoaderConfig::feature_dtype — the
  /// serving pipeline compresses sliced rows the same way training does).
  DType feature_dtype = DType::kF16;
  /// Latency target for the serve.slo.{ok,miss} counters, microseconds.
  double slo_us = 50'000;
  /// Seed of the per-batch sampling RNG (mixed with the batch sequence
  /// number, so predictions are independent of worker count/scheduling).
  std::uint64_t seed = 0x5eed;
};

/// Snapshot of the serving metrics (read from the obs registry).
struct ServeStats {
  std::int64_t admitted = 0;
  std::int64_t shed = 0;
  std::int64_t completed = 0;
  std::int64_t batches = 0;
  double p50_us = 0, p95_us = 0, p99_us = 0, mean_us = 0;
  std::int64_t slo_ok = 0, slo_miss = 0;
  std::int64_t result_cache_hits = 0, result_cache_misses = 0;
  /// Graceful-degradation counters (serve.faults.*): requests rejected at
  /// validation, and requests completed kFailed after a prep-stage fault.
  std::int64_t invalid = 0, prep_faults = 0;
  /// Device feature-cache row hit rate (prep.cache.* counters); 0 when no
  /// feature cache is attached.
  double feature_cache_hit_rate = 0;

  std::string summary() const;
};

class InferenceServer {
 public:
  /// The server borrows dataset/device and shares the model; all must
  /// outlive it. Serving starts immediately. The model must not be trained
  /// concurrently with serving — pause submission, update, then call
  /// notify_model_updated().
  InferenceServer(const Dataset& dataset, std::shared_ptr<nn::GnnModel> model,
                  DeviceSim& device, ServeConfig config);
  /// Drains in-flight work (shutdown()) and joins the serving threads.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Asynchronous entry point: validate, then admit or shed. A request
  /// naming an out-of-range node (a "poison" request that would corrupt
  /// sampling) resolves immediately with kInvalid — it never enters the
  /// pipeline. See RequestQueue::submit for admission semantics.
  std::future<Response> submit(std::vector<NodeId> nodes);

  /// Synchronous convenience wrapper: submit + wait.
  Response predict(std::vector<NodeId> nodes);

  /// Invalidate the result cache after the model's weights changed; returns
  /// the new model generation.
  std::uint64_t notify_model_updated();

  /// Stop admission, drain everything in flight, join threads. Idempotent;
  /// runs automatically at destruction. Futures of drained requests resolve
  /// normally; nothing is dropped.
  void shutdown();

  ServeStats stats() const;
  std::uint64_t model_generation() const { return cache_.generation(); }
  std::size_t queue_depth() const { return queue_.depth(); }
  const ServeConfig& config() const { return config_; }

 private:
  /// A micro-batch flowing through the compute stages.
  struct ComputeBatch {
    std::int64_t seq = -1;
    std::vector<Request> requests;
    std::chrono::steady_clock::time_point closed_at;
    std::uint64_t generation = 0;
    /// Per request, per node slot: the prediction; -1 while pending compute.
    std::vector<std::vector<std::int64_t>> preds;
    std::vector<std::int64_t> cache_hits;  ///< per request
    /// Unique nodes needing compute (the sampler's destination set).
    std::vector<NodeId> nodes;
    /// Scatter plan: preds[req][slot] = computed[node_index].
    struct Ref {
      std::uint32_t req, slot, node_index;
    };
    std::vector<Ref> refs;
    PreparedBatch prep;  ///< filled by a prep worker
  };

  void batcher_loop();
  void prep_loop(int worker_index);
  void device_loop();
  void complete(ComputeBatch&& cb, const std::int64_t* computed);
  /// Graceful degradation: resolve every request of a batch whose pipeline
  /// stage faulted with kFailed (clients retry) instead of wedging.
  void fail_batch(ComputeBatch&& cb);

  const Dataset& dataset_;
  std::shared_ptr<nn::GnnModel> model_;
  DeviceSim& device_;
  ServeConfig config_;
  std::shared_ptr<PinnedPool> pool_;
  /// The features in config_.feature_dtype, built at construction.
  std::shared_ptr<const WireStore> store_;
  ResultCache cache_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  BlockingQueue<ComputeBatch> prep_in_;
  BlockingQueue<ComputeBatch> device_in_;
  std::thread batcher_thread_;
  std::vector<std::thread> prep_threads_;
  std::thread device_thread_;
  std::atomic<bool> shut_down_{false};
  /// Serializes concurrent shutdown() calls; the threads/queues it covers
  /// are otherwise construction-immutable, so only the teardown sequence
  /// (join + close ordering) needs the capability.
  Mutex shutdown_mu_;
};

}  // namespace salient::serve
