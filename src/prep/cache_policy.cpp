#include "prep/cache_policy.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prep/feature_cache.h"
#include "prep/frequency_table.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "util/thread_pool.h"

namespace salient {

namespace {

/// The vertex set a warmup/probe pass samples from (falls back to every
/// vertex when the requested split is empty).
std::vector<NodeId> resolve_seeds(const Dataset& ds, PresampleSeeds which) {
  std::vector<NodeId> out;
  switch (which) {
    case PresampleSeeds::kTrain:
      out = ds.train_idx;
      break;
    case PresampleSeeds::kTest:
      out = ds.test_idx;
      break;
    case PresampleSeeds::kAll:
      break;
  }
  if (out.empty()) {
    out.resize(static_cast<std::size_t>(ds.graph.num_nodes()));
    std::iota(out.begin(), out.end(), 0);
  }
  return out;
}

/// Whether the cache `config` describes may hold `v`: any vertex of a
/// single-node cache, only a vertex its node does not own for a partitioned
/// one (an owned row never crosses the interconnect).
bool is_candidate(const CachePolicyConfig& config, NodeId v) {
  return config.partition == nullptr ||
         config.partition->part_of(v) != config.node;
}

/// Top-`capacity` candidate vertices under `better` (a strict weak order
/// over node ids). The result is sorted by `better`, so slot order is
/// deterministic.
template <class Cmp>
std::vector<NodeId> top_nodes(const Dataset& dataset,
                              const CachePolicyConfig& config,
                              std::int64_t capacity, Cmp better) {
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(dataset.graph.num_nodes()));
  for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
    if (is_candidate(config, v)) order.push_back(v);
  }
  capacity = std::clamp<std::int64_t>(capacity, 0,
                                      static_cast<std::int64_t>(order.size()));
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(capacity),
                   order.end(), better);
  order.resize(static_cast<std::size_t>(capacity));
  std::sort(order.begin(), order.end(), better);
  return order;
}

/// Static degree-ordered pinning (GNS-style; the historical default).
/// Ties break toward the smaller id, so placement is fully deterministic.
class DegreePolicy final : public CachePolicy {
 public:
  explicit DegreePolicy(CachePolicyConfig config)
      : config_(std::move(config)) {}

  const char* name() const override { return "degree"; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    return top_nodes(dataset, config_, capacity, [&](NodeId a, NodeId b) {
      const auto da = dataset.graph.degree(a);
      const auto db = dataset.graph.degree(b);
      return da != db ? da > db : a < b;
    });
  }

 private:
  CachePolicyConfig config_;
};

/// Static presample-based pinning: K warmup sampling epochs through
/// FastSampler, vertex access counts in a FrequencyTable, top-x% pinned.
/// Zero-count ties fall back to degree order, so an interrupted warmup
/// (the `prep.cache.presample.abort` failpoint) degrades gracefully to the
/// degree policy instead of pinning arbitrary rows. A partitioned cache
/// samples its node's chunk of each batch under ClusterTrainer's epoch and
/// chunk seeds (the SALIENT++ scheme).
class PresamplePolicy final : public CachePolicy {
 public:
  explicit PresamplePolicy(CachePolicyConfig config)
      : config_(std::move(config)) {}

  const char* name() const override { return "presample"; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    if (capacity <= 0) return {};  // nothing to place: skip the warmup
    SALIENT_TRACE_SCOPE("prep.cache.presample");
    auto& reg = obs::Registry::global();
    static obs::Counter& m_batches = reg.counter("prep.presample.batches");
    static obs::Counter& m_aborts = reg.counter("prep.presample.aborts");
    static obs::Gauge& m_distinct = reg.gauge("prep.presample.distinct");

    const std::int64_t n = dataset.graph.num_nodes();
    FrequencyTable freq(n);
    const std::vector<NodeId> seeds =
        resolve_seeds(dataset, config_.presample_seeds);
    const std::int64_t batch = std::max<std::int64_t>(1, config_.batch_size);
    const auto total = static_cast<std::int64_t>(seeds.size());
    const std::int64_t num_batches = (total + batch - 1) / batch;
    // A single-node cache is node 0 of a 1-node cluster: its chunk is the
    // whole batch and its chunk seed the loader's per-batch seed.
    const int world = config_.partition ? config_.partition->num_parts : 1;
    const int node = config_.partition ? config_.node : 0;
    std::atomic<bool> aborted{false};
    std::atomic<std::int64_t> counted{0};

    for (int epoch = 0; epoch < config_.presample_epochs; ++epoch) {
      if (aborted.load(std::memory_order_relaxed)) break;
      SALIENT_TRACE_SCOPE("prep.cache.presample.epoch");
      const std::uint64_t epoch_seed =
          schedule_epoch_seed(config_.seed, epoch);
      // A fresh copy of the split each epoch, as training shuffles it, so
      // warmup epoch e counts the batches of training epoch e.
      std::vector<NodeId> order = seeds;
      schedule_shuffle(order, epoch_seed);

      auto count_range = [&](std::int64_t begin, std::int64_t end) {
        FastSampler sampler(dataset.graph, config_.fanouts);
        for (std::int64_t b = begin; b < end; ++b) {
          if (aborted.load(std::memory_order_relaxed)) return;
          if (SALIENT_FAILPOINT("prep.cache.presample.abort")) {
            // Interrupted warmup: stop counting, keep what we have. The
            // zero-count remainder of the ranking degrades to degree order.
            aborted.store(true, std::memory_order_relaxed);
            m_aborts.add();
            return;
          }
          const std::int64_t lo = b * batch;
          const ChunkRange chunk =
              chunk_range(std::min(total, lo + batch) - lo, world, node);
          if (chunk.empty()) continue;
          const Mfg mfg = sampler.sample(
              {order.data() + lo + chunk.begin,
               static_cast<std::size_t>(chunk.size())},
              schedule_mix_seed(epoch_seed, b * world + node));
          for (const NodeId v : mfg.n_ids) {
            if (is_candidate(config_, v)) freq.add(v);
          }
          counted.fetch_add(1, std::memory_order_relaxed);
        }
      };
      if (config_.presample_workers > 0) {
        ThreadPool pool(static_cast<std::size_t>(config_.presample_workers));
        pool.parallel_for(0, num_batches, count_range);
      } else {
        count_range(0, num_batches);
      }
    }
    m_batches.add(counted.load(std::memory_order_relaxed));
    m_distinct.set(static_cast<double>(freq.distinct()));

    // Scatter the flat table's counts to a dense ranking array and pin the
    // top-capacity by (frequency, degree, id) — a deterministic total order.
    std::vector<std::int64_t> counts(static_cast<std::size_t>(n), 0);
    for (const auto& [v, c] : freq.items()) {
      counts[static_cast<std::size_t>(v)] = c;
    }
    return top_nodes(dataset, config_, capacity, [&](NodeId a, NodeId b) {
      const auto ca = counts[static_cast<std::size_t>(a)];
      const auto cb = counts[static_cast<std::size_t>(b)];
      if (ca != cb) return ca > cb;
      const auto da = dataset.graph.degree(a);
      const auto db = dataset.graph.degree(b);
      return da != db ? da > db : a < b;
    });
  }

 private:
  CachePolicyConfig config_;
};

/// Dynamic least-recently-used admission/eviction over the cache's slots:
/// cold start, admit every candidate miss, evict the slot whose last touch
/// is oldest. Recency is an intrusive doubly-linked list over slot indices —
/// O(1) per hook. All hooks run under the FeatureCache lock.
class LruPolicy final : public CachePolicy {
 public:
  explicit LruPolicy(CachePolicyConfig config) : config_(std::move(config)) {}

  const char* name() const override { return "lru"; }
  bool dynamic() const override { return true; }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    (void)dataset;
    capacity_ = capacity;
    prev_.assign(static_cast<std::size_t>(capacity), -1);
    next_.assign(static_cast<std::size_t>(capacity), -1);
    head_ = tail_ = -1;
    used_ = 0;
    return {};  // cold cache
  }

  std::int64_t admit(NodeId v) override {
    if (capacity_ == 0 || !is_candidate(config_, v)) return -1;
    std::int64_t slot;
    if (used_ < capacity_) {
      slot = used_++;
    } else {
      slot = tail_;
      detach(slot);
    }
    push_front(slot);
    return slot;
  }

  void touch(std::int64_t slot) override {
    detach(slot);
    push_front(slot);
  }

 private:
  void detach(std::int64_t slot) {
    const auto s = static_cast<std::size_t>(slot);
    if (prev_[s] >= 0) {
      next_[static_cast<std::size_t>(prev_[s])] = next_[s];
    } else if (head_ == slot) {
      head_ = next_[s];
    }
    if (next_[s] >= 0) {
      prev_[static_cast<std::size_t>(next_[s])] = prev_[s];
    } else if (tail_ == slot) {
      tail_ = prev_[s];
    }
    prev_[s] = next_[s] = -1;
  }

  void push_front(std::int64_t slot) {
    const auto s = static_cast<std::size_t>(slot);
    prev_[s] = -1;
    next_[s] = head_;
    if (head_ >= 0) prev_[static_cast<std::size_t>(head_)] = slot;
    head_ = slot;
    if (tail_ < 0) tail_ = slot;
  }

  CachePolicyConfig config_;
  std::int64_t capacity_ = 0;
  std::int64_t used_ = 0;
  std::int64_t head_ = -1, tail_ = -1;
  std::vector<std::int64_t> prev_, next_;  // intrusive recency list
};

/// Auto-selection: build each concrete candidate, plan a fixed probe stream
/// of sampled batches against it, read the observed hit rate from the
/// `prep.cache.row_{hits,misses}` counters in the obs metrics registry, and
/// delegate every subsequent hook to the winner. Candidates are ranked
/// presample > degree > lru on ties (prefer static placement: it plans
/// lock-free and is the policy the distributed cache reuses).
class AutoPolicy final : public CachePolicy {
 public:
  explicit AutoPolicy(CachePolicyConfig config) : config_(std::move(config)) {}

  const char* name() const override {
    if (!delegate_) return "auto";
    switch (selected_) {
      case CachePolicyKind::kLru:
        return "auto(lru)";
      case CachePolicyKind::kDegree:
        return "auto(degree)";
      case CachePolicyKind::kPresample:
        return "auto(presample)";
      case CachePolicyKind::kAuto:
        break;
    }
    return "auto";
  }

  std::vector<NodeId> pin(const Dataset& dataset,
                          std::int64_t capacity) override {
    SALIENT_TRACE_SCOPE("prep.cache.auto_select");
    auto& reg = obs::Registry::global();
    obs::Counter& hits = reg.counter("prep.cache.row_hits");
    obs::Counter& misses = reg.counter("prep.cache.row_misses");

    // The fixed probe stream every candidate is measured against.
    std::vector<NodeId> seeds =
        resolve_seeds(dataset, config_.presample_seeds);
    schedule_shuffle(seeds, config_.seed ^ 0xa070c4c8e5ull);
    const std::int64_t batch = std::max<std::int64_t>(1, config_.batch_size);
    const int probes = std::max(1, config_.auto_probe_batches);

    constexpr CachePolicyKind kCandidates[] = {CachePolicyKind::kPresample,
                                               CachePolicyKind::kDegree,
                                               CachePolicyKind::kLru};
    double best_rate = -1.0;
    for (const CachePolicyKind kind : kCandidates) {
      CachePolicyConfig cand = config_;
      cand.kind = kind;
      const FeatureCache trial(dataset, capacity, make_cache_policy(cand));
      FastSampler sampler(dataset.graph, config_.fanouts);
      const std::int64_t h0 = hits.value(), m0 = misses.value();
      for (int b = 0; b < probes; ++b) {
        const std::size_t lo =
            (static_cast<std::size_t>(b) * static_cast<std::size_t>(batch)) %
            std::max<std::size_t>(seeds.size(), 1);
        const std::size_t hi =
            std::min(seeds.size(), lo + static_cast<std::size_t>(batch));
        const Mfg mfg =
            sampler.sample({seeds.data() + lo, hi - lo},
                           schedule_mix_seed(config_.seed ^ 0x5eedull, b));
        (void)plan_cached_batch(mfg, trial);
      }
      const auto dh = static_cast<double>(hits.value() - h0);
      const auto dm = static_cast<double>(misses.value() - m0);
      const double rate = dh + dm > 0 ? dh / (dh + dm) : 0.0;
      reg.gauge(std::string("prep.cache.auto.hit_rate.") +
                cache_policy_name(kind))
          .set(rate);
      if (rate > best_rate) {
        best_rate = rate;
        selected_ = kind;
      }
    }
    reg.gauge("prep.cache.auto.selected")
        .set(static_cast<double>(static_cast<int>(selected_)));

    CachePolicyConfig winner = config_;
    winner.kind = selected_;
    delegate_ = make_cache_policy(winner);
    return delegate_->pin(dataset, capacity);
  }

  bool dynamic() const override {
    return delegate_ ? delegate_->dynamic() : false;
  }
  std::int64_t admit(NodeId v) override { return delegate_->admit(v); }
  void touch(std::int64_t slot) override { delegate_->touch(slot); }

 private:
  CachePolicyConfig config_;
  CachePolicyKind selected_ = CachePolicyKind::kDegree;
  std::unique_ptr<CachePolicy> delegate_;
};

}  // namespace

CachePolicyKind parse_cache_policy(const std::string& name) {
  if (name == "lru") return CachePolicyKind::kLru;
  if (name == "degree") return CachePolicyKind::kDegree;
  if (name == "presample") return CachePolicyKind::kPresample;
  if (name == "auto") return CachePolicyKind::kAuto;
  throw std::invalid_argument("unknown cache policy: " + name);
}

const char* cache_policy_name(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kLru:
      return "lru";
    case CachePolicyKind::kDegree:
      return "degree";
    case CachePolicyKind::kPresample:
      return "presample";
    case CachePolicyKind::kAuto:
      return "auto";
  }
  return "unknown";
}

std::unique_ptr<CachePolicy> make_cache_policy(
    const CachePolicyConfig& config) {
  if (config.presample_epochs < 1) {
    throw std::invalid_argument("cache policy: presample_epochs must be >= 1");
  }
  if (config.batch_size < 1) {
    throw std::invalid_argument("cache policy: batch_size must be >= 1");
  }
  if (config.partition != nullptr &&
      (config.node < 0 || config.node >= config.partition->num_parts)) {
    throw std::invalid_argument("cache policy: node out of range");
  }
  switch (config.kind) {
    case CachePolicyKind::kLru:
      return std::make_unique<LruPolicy>(config);
    case CachePolicyKind::kDegree:
      return std::make_unique<DegreePolicy>(config);
    case CachePolicyKind::kPresample:
      return std::make_unique<PresamplePolicy>(config);
    case CachePolicyKind::kAuto:
      // The auto probe measures single-node row hit rate, the wrong
      // objective for a partitioned cache (remote traffic): place by
      // presample there.
      if (config.partition != nullptr) {
        return std::make_unique<PresamplePolicy>(config);
      }
      return std::make_unique<AutoPolicy>(config);
  }
  throw std::invalid_argument("unknown cache policy kind");
}

}  // namespace salient
