#include "serve/server.h"

#include <deque>
#include <sstream>
#include <unordered_map>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/fast_sampler.h"
#include "tensor/ops.h"

namespace salient::serve {

namespace {

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

const std::vector<double>& latency_bounds_us() {
  static const std::vector<double> bounds{
      100,  200,  500,  1000, 2000, 5000, 1e4, 2e4,
      5e4,  1e5,  2e5,  5e5,  1e6,  2e6,  5e6, 1e7};
  return bounds;
}

struct ServeInstruments {
  obs::Counter& completed;
  obs::Counter& nodes_served;
  obs::Counter& nodes_computed;
  obs::Counter& slo_ok;
  obs::Counter& slo_miss;
  obs::Histogram& latency_us;
  obs::Histogram& queue_us;

  static ServeInstruments& get() {
    auto& reg = obs::Registry::global();
    static ServeInstruments inst{
        reg.counter("serve.completed"),
        reg.counter("serve.nodes_served"),
        reg.counter("serve.nodes_computed"),
        reg.counter("serve.slo.ok"),
        reg.counter("serve.slo.miss"),
        reg.histogram("serve.latency_us", latency_bounds_us()),
        reg.histogram("serve.queue_us", latency_bounds_us()),
    };
    return inst;
  }
};

}  // namespace

InferenceServer::InferenceServer(const Dataset& dataset,
                                 std::shared_ptr<nn::GnnModel> model,
                                 DeviceSim& device, ServeConfig config)
    : dataset_(dataset),
      model_(std::move(model)),
      device_(device),
      config_(std::move(config)),
      pool_(std::make_shared<PinnedPool>()),
      store_(make_wire_store(dataset.features, config_.feature_dtype)),
      cache_(config_.result_cache_capacity),
      queue_(config_.queue_capacity),
      batcher_(queue_, config_.batch),
      prep_in_(config_.stage_queue_capacity),
      device_in_(config_.stage_queue_capacity) {
  prep_in_.set_fault_site("serve_prep");
  device_in_.set_fault_site("serve_device");
  if (!config_.feature_cache && config_.cache_percentage > 0) {
    // Build the server's own cache; warmup sampling mirrors the serving
    // workload (test-split seeds, serve fanouts and batch cap).
    CachePolicyConfig policy;
    policy.kind = config_.cache_policy;
    policy.presample_epochs = config_.presample_epochs;
    policy.presample_workers = config_.num_prep_workers;
    policy.presample_seeds = PresampleSeeds::kTest;
    policy.fanouts = config_.fanouts;
    policy.batch_size =
        std::max<std::int64_t>(1, config_.batch.max_batch_nodes);
    policy.seed = config_.seed;
    const auto capacity = static_cast<std::int64_t>(
        config_.cache_percentage *
        static_cast<double>(dataset.graph.num_nodes()));
    config_.feature_cache =
        std::make_shared<const FeatureCache>(dataset, capacity, policy);
  }
  model_->train(false);
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  const int workers = std::max(1, config_.num_prep_workers);
  prep_threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    prep_threads_.emplace_back([this, w] { prep_loop(w); });
  }
  device_thread_ = std::thread([this] { device_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<Response> InferenceServer::submit(std::vector<NodeId> nodes) {
  // Validate before admission: an out-of-range node would read past the CSR
  // arrays deep inside a prep worker, poisoning a whole micro-batch. Reject
  // it at the front door instead — the cheapest possible failure.
  const auto num_nodes = dataset_.graph.num_nodes();
  for (const NodeId v : nodes) {
    if (v < 0 || v >= num_nodes) {
      static obs::Counter& m_invalid =
          obs::Registry::global().counter("serve.faults.invalid");
      m_invalid.add();
      SALIENT_TRACE_INSTANT("serve.fault.invalid");
      std::promise<Response> promise;
      Response resp;
      resp.status = RequestStatus::kInvalid;
      promise.set_value(std::move(resp));
      return promise.get_future();
    }
  }
  return queue_.submit(std::move(nodes));
}

Response InferenceServer::predict(std::vector<NodeId> nodes) {
  return submit(std::move(nodes)).get();
}

std::uint64_t InferenceServer::notify_model_updated() {
  model_->train(false);
  return cache_.invalidate();
}

void InferenceServer::shutdown() {
  LockGuard lock(shutdown_mu_);
  if (shut_down_.exchange(true, std::memory_order_acq_rel)) return;
  // Tear down front to back: each stage drains its input queue, exits, and
  // only then is the next stage's input closed — nothing in flight is lost.
  queue_.close();
  batcher_thread_.join();
  prep_in_.close();
  for (auto& t : prep_threads_) t.join();
  device_in_.close();
  device_thread_.join();
}

void InferenceServer::batcher_loop() {
  SALIENT_TRACE_THREAD_NAME("serve-batcher");
  while (auto maybe_mb = batcher_.next()) {
    // `serve.batcher.wedge` models a stalled batcher (e.g. a slow request
    // preprocessing step): the admission queue backs up and load shedding —
    // not unbounded buffering — absorbs the overload.
    SALIENT_FAILPOINT_WEDGE("serve.batcher.wedge");
    SALIENT_TRACE_SCOPE_ARG("serve.batch.close", maybe_mb->seq);
    MicroBatch mb = std::move(*maybe_mb);

    ComputeBatch cb;
    cb.seq = mb.seq;
    cb.closed_at = mb.closed_at;
    cb.generation = cache_.generation();
    cb.requests = std::move(mb.requests);
    cb.preds.resize(cb.requests.size());
    cb.cache_hits.assign(cb.requests.size(), 0);

    // Resolve each requested node against the result cache; dedup the rest
    // into the compute set (a node asked for by two requests — or twice by
    // one — is sampled and computed once).
    std::unordered_map<NodeId, std::uint32_t> node_index;
    for (std::size_t r = 0; r < cb.requests.size(); ++r) {
      const auto& nodes = cb.requests[r].nodes;
      cb.preds[r].assign(nodes.size(), -1);
      for (std::size_t s = 0; s < nodes.size(); ++s) {
        if (auto cached = cache_.lookup(nodes[s])) {
          cb.preds[r][s] = *cached;
          ++cb.cache_hits[r];
          continue;
        }
        auto [it, inserted] = node_index.try_emplace(
            nodes[s], static_cast<std::uint32_t>(cb.nodes.size()));
        if (inserted) cb.nodes.push_back(nodes[s]);
        cb.refs.push_back({static_cast<std::uint32_t>(r),
                           static_cast<std::uint32_t>(s), it->second});
      }
    }

    if (cb.nodes.empty()) {
      // Every node answered from the cache: respond without touching the
      // pipeline (the serving fast path).
      complete(std::move(cb), nullptr);
      continue;
    }
    SALIENT_TRACE_ASYNC_BEGIN("serve.batch", cb.seq);
    if (!prep_in_.push(std::move(cb))) break;  // server torn down
  }
}

void InferenceServer::prep_loop(int worker_index) {
  SALIENT_TRACE_THREAD_NAME("serve-prep-" + std::to_string(worker_index));
  FastSampler sampler(dataset_.graph, config_.fanouts);
  while (auto maybe_cb = prep_in_.pop()) {
    ComputeBatch cb = std::move(*maybe_cb);
    // `serve.prep.fail` simulates a batch-preparation fault (sampler error,
    // staging allocation failure). Degrade gracefully: resolve the batch's
    // requests with kFailed so clients can retry, and keep the worker alive
    // for the next batch — one poisoned micro-batch must not wedge the
    // pipeline or take the worker down.
    if (SALIENT_FAILPOINT("serve.prep.fail")) {
      fail_batch(std::move(cb));
      continue;
    }
    // The training loaders' batch prep: rows ship in config_.feature_dtype
    // from the server's wire store, and the labels are sliced too, although
    // serving needs none, so the device transfer path sees a uniform batch.
    cb.prep = prepare_batch(sampler, dataset_, *store_, cb.nodes,
                            config_.seed, cb.seq, *pool_,
                            config_.feature_cache.get());
    if (!device_in_.push(std::move(cb))) return;  // server torn down
  }
}

void InferenceServer::device_loop() {
  SALIENT_TRACE_THREAD_NAME("serve-device");
  static obs::Gauge& m_inflight =
      obs::Registry::global().gauge("serve.inflight");

  struct Inflight {
    ComputeBatch cb;
    std::shared_ptr<DeviceBatch> dev;
    std::shared_ptr<std::vector<std::int64_t>> preds;
    Event done;
  };
  std::deque<Inflight> inflight;

  auto retire_front = [&] {
    Inflight f = std::move(inflight.front());
    inflight.pop_front();
    {
      SALIENT_TRACE_SCOPE_ARG("serve.retire.wait", f.cb.seq);
      f.done.synchronize();
    }
    SALIENT_TRACE_ASYNC_END("serve.batch", f.cb.seq);
    release_batch_buffers(*pool_, std::move(f.cb.prep));
    complete(std::move(f.cb), f.preds->data());
    m_inflight.set(static_cast<double>(inflight.size()));
  };

  while (true) {
    std::optional<ComputeBatch> maybe_cb;
    if (inflight.empty()) {
      maybe_cb = device_in_.pop();
      if (!maybe_cb.has_value()) break;  // closed and drained
    } else {
      // Keep the pipeline fed when new work is already waiting, but never
      // hold a finished batch hostage to future traffic: with nothing
      // immediately available, retire the oldest in-flight batch (bounded by
      // its compute time) instead of blocking on the queue.
      maybe_cb = device_in_.try_pop_for(std::chrono::microseconds(0));
      if (!maybe_cb.has_value()) {
        retire_front();
        continue;
      }
    }
    ComputeBatch cb = std::move(*maybe_cb);
    Inflight item;
    Event ready;
    {
      SALIENT_TRACE_SCOPE_ARG("serve.issue", cb.seq);
      item.dev = std::make_shared<DeviceBatch>(
          cb.prep.cache_plan
              ? device_.transfer_batch_cached(cb.prep, *cb.prep.cache_plan,
                                              *config_.feature_cache,
                                              /*blocking=*/false, &ready)
              : device_.transfer_batch(cb.prep, /*blocking=*/false, &ready));
    }
    item.preds = std::make_shared<std::vector<std::int64_t>>();
    auto dev = item.dev;
    auto preds = item.preds;
    auto model = model_;
    // FIFO stream order puts this after the batch's f16->f32 conversion, so
    // the forward sees complete device-resident data (§4.3 semantics).
    device_.compute_stream().enqueue([dev, preds, model] {
      Variable logp = model->forward(Variable(dev->x_f32), dev->mfg);
      Tensor p = ops::argmax_rows(logp.data());
      const std::int64_t* pp = p.data<std::int64_t>();
      preds->assign(pp, pp + p.size(0));
    }, "serve.forward");
    item.done = device_.compute_stream().record();
    item.cb = std::move(cb);
    inflight.push_back(std::move(item));
    m_inflight.set(static_cast<double>(inflight.size()));
    while (static_cast<int>(inflight.size()) > config_.pipeline_depth) {
      retire_front();
    }
  }
  while (!inflight.empty()) retire_front();
}

void InferenceServer::fail_batch(ComputeBatch&& cb) {
  static obs::Counter& m_prep_faults =
      obs::Registry::global().counter("serve.faults.prep");
  SALIENT_TRACE_INSTANT("serve.fault.prep");
  SALIENT_TRACE_ASYNC_END("serve.batch", cb.seq);
  for (Request& req : cb.requests) {
    Response resp;
    resp.status = RequestStatus::kFailed;
    resp.model_generation = cb.generation;
    m_prep_faults.add();
    req.promise.set_value(std::move(resp));
  }
}

void InferenceServer::complete(ComputeBatch&& cb,
                               const std::int64_t* computed) {
  ServeInstruments& m = ServeInstruments::get();

  // Scatter computed predictions to their request slots and refresh the
  // result cache (once per unique node).
  if (computed != nullptr) {
    for (const ComputeBatch::Ref& ref : cb.refs) {
      cb.preds[ref.req][ref.slot] = computed[ref.node_index];
    }
    for (std::size_t i = 0; i < cb.nodes.size(); ++i) {
      cache_.insert(cb.nodes[i], computed[i], cb.generation);
    }
    m.nodes_computed.add(static_cast<std::int64_t>(cb.nodes.size()));
  }

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < cb.requests.size(); ++r) {
    Request& req = cb.requests[r];
    Response resp;
    resp.status = RequestStatus::kOk;
    resp.predictions = std::move(cb.preds[r]);
    resp.model_generation = cb.generation;
    resp.nodes_from_cache = cb.cache_hits[r];
    resp.queue_us = us_between(req.admitted_at, cb.closed_at);
    resp.total_us = us_between(req.admitted_at, now);
    m.completed.add();
    m.nodes_served.add(static_cast<std::int64_t>(resp.predictions.size()));
    m.latency_us.observe(resp.total_us);
    m.queue_us.observe(resp.queue_us);
    (resp.total_us <= config_.slo_us ? m.slo_ok : m.slo_miss).add();
    req.promise.set_value(std::move(resp));
  }
}

ServeStats InferenceServer::stats() const {
  ServeInstruments& m = ServeInstruments::get();
  auto& reg = obs::Registry::global();
  ServeStats s;
  s.admitted = static_cast<std::int64_t>(queue_.admitted());
  s.shed = static_cast<std::int64_t>(queue_.shed());
  s.completed = m.completed.value();
  s.batches = reg.counter("serve.batches").value();
  s.p50_us = m.latency_us.quantile(0.50);
  s.p95_us = m.latency_us.quantile(0.95);
  s.p99_us = m.latency_us.quantile(0.99);
  s.mean_us = m.latency_us.mean();
  s.slo_ok = m.slo_ok.value();
  s.slo_miss = m.slo_miss.value();
  s.result_cache_hits = reg.counter("serve.result_cache.hits").value();
  s.result_cache_misses = reg.counter("serve.result_cache.misses").value();
  s.invalid = reg.counter("serve.faults.invalid").value();
  s.prep_faults = reg.counter("serve.faults.prep").value();
  if (config_.feature_cache) {
    const auto hits = reg.counter("prep.cache.row_hits").value();
    const auto misses = reg.counter("prep.cache.row_misses").value();
    s.feature_cache_hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
  }
  return s;
}

std::string ServeStats::summary() const {
  std::ostringstream os;
  os << "admitted=" << admitted << " shed=" << shed
     << " completed=" << completed << " batches=" << batches
     << " p50=" << p50_us / 1000.0 << "ms p95=" << p95_us / 1000.0
     << "ms p99=" << p99_us / 1000.0 << "ms mean=" << mean_us / 1000.0
     << "ms slo_ok=" << slo_ok << " slo_miss=" << slo_miss;
  if (invalid > 0) os << " invalid=" << invalid;
  if (prep_faults > 0) os << " prep_faults=" << prep_faults;
  if (result_cache_hits + result_cache_misses > 0) {
    os << " result_cache_hit="
       << static_cast<double>(result_cache_hits) /
              static_cast<double>(result_cache_hits + result_cache_misses);
  }
  if (feature_cache_hit_rate > 0) {
    os << " feature_cache_hit=" << feature_cache_hit_rate;
  }
  return os.str();
}

}  // namespace salient::serve
