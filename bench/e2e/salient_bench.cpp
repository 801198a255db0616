// salient_bench — end-to-end benchmark of the SALIENT reproduction
// (bench/e2e/README.md holds the metric table and the reason for each
// workload).
//
// One process runs one workload through the library's public calls only
// (System/Trainer, InferenceServer::submit, ClusterTrainer::train_epoch):
//
//   salient_bench --workload=train|infer|serve|cluster [--seed=N]
//                 [--seconds=S] [--trace-dir=DIR] [--json=PATH] [--smoke]
//
//   --seed       derives the dataset, epoch and request-stream seeds  [1]
//   --seconds    measured time of the run; serve gives half of it to
//                its gated low rate and a quarter to each other rate  [10]
//   --trace-dir  traced run: write the program's own spans and metrics
//                (trace_out/metrics_out) to DIR/<workload>.trace.json and
//                DIR/<workload>.metrics.json, then replay the workload's
//                first batches through the layer calls, each inside a
//                span of this file, and report the per-layer metrics
//   --json       also write every metric, check and count to PATH
//   --smoke      tiny sizes: all four workloads finish in seconds
//
// Every metric prints as `workload metric value unit [n=samples]`.
// End-to-end metrics come only from untraced runs; a traced run reports the
// per-layer metrics. Modelled values (the DMA model, the cluster's virtual
// clock) carry the kind "modelled" and are never added to measured time.
// The exit code is 0 when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "dist/cluster/cluster_trainer.h"
#include "nn/loss.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prep/batch.h"
#include "prep/feature_cache.h"
#include "prep/pinned_pool.h"
#include "prep/slicing.h"
#include "sampling/fast_sampler.h"
#include "serve/server.h"
#include "train/inference.h"
#include "util/rng.h"
#include "util/timer.h"

namespace {

using namespace salient;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload shapes (README.md, "Workloads").
// ---------------------------------------------------------------------------

constexpr std::int64_t kBatch = 1024;
constexpr std::int64_t kHidden = 64;
constexpr double kCachePct = 0.10;
constexpr int kNodesPerRequest = 4;
constexpr double kRequestSkew = 1.0;  // serve_loadgen's u^(1+s) popularity
constexpr double kSloMs = 25.0;       // serve p99 limit
constexpr double kGoodputShare = 0.98;
constexpr int kClusterNodes = 4;
const std::vector<std::int64_t> kTrainFanouts{15, 10, 5};
const std::vector<std::int64_t> kInferFanouts{20, 20, 20};
const char* const kRateNames[3] = {"low", "mid", "high"};

struct Sizes {
  double arxiv_scale;     // train, serve, cluster
  double products_scale;  // infer
  std::int64_t infer_nodes;
  std::array<double, 3> serve_rates;  // req/s: low, mid, high
  int replay_batches;                 // traced run: batches replayed
};
constexpr Sizes kFullSizes{0.25, 1.0, 8192, {1000, 2000, 3000}, 6};
constexpr Sizes kSmokeSizes{0.02, 0.1, 512, {100, 200, 300}, 2};

// Independent seed streams derived from --seed.
enum SeedStream : std::uint64_t {
  kDatasetSeed = 1,
  kSystemSeed,
  kRequestSeed,
  kReplaySeed,
};

std::uint64_t derive_seed(std::uint64_t seed, SeedStream stream) {
  SplitMix64 sm(seed * 0x100000001b3ull + stream);
  return sm.next();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_dir;
  std::string json_path;
  bool smoke = false;

  bool traced() const { return !trace_dir.empty(); }
  const Sizes& sizes() const { return smoke ? kSmokeSizes : kFullSizes; }
};

// ---------------------------------------------------------------------------
// Statistics over raw samples (no bucketing).
// ---------------------------------------------------------------------------

/// Exact quantile with linear interpolation between closest ranks.
/// +inf samples (failed requests) rank above every finite one.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Report: metrics, correctness checks and attempted/failed counts.
// ---------------------------------------------------------------------------

enum class Kind { kMeasured, kComputed, kCount, kModelled };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kMeasured: return "measured";
    case Kind::kComputed: return "computed";
    case Kind::kCount: return "count";
    case Kind::kModelled: return "modelled";
  }
  return "?";
}

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Record and print one metric. `samples` > 0 states how many raw
  /// samples a median/percentile was taken over.
  void add(const std::string& name, double value, const std::string& unit,
           Kind kind, std::size_t samples = 0) {
    if (!std::isfinite(value)) {
      check(false, name + " is finite");
      value = std::numeric_limits<double>::max();
    }
    metrics_.push_back({name, value, unit, kind, samples});
    std::printf("%s %s %.9g %s", workload_.c_str(), name.c_str(), value,
                unit.c_str());
    if (samples > 0) std::printf(" n=%zu", samples);
    std::printf("\n");
  }

  /// A line of context (sample counts, collapses); never a metric.
  void note(const std::string& text) {
    std::printf("# %s %s\n", workload_.c_str(), text.c_str());
  }

  void check(bool ok, const std::string& what) {
    checks_.push_back({what, ok});
    if (!ok) std::printf("# %s CHECK FAILED: %s\n", workload_.c_str(),
                         what.c_str());
  }

  void count_ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void digest(const std::string& name, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    digests_.push_back({name, buf});
    std::printf("%s %s %s digest\n", workload_.c_str(), name.c_str(), buf);
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  bool correct() const {
    for (const auto& c : checks_) {
      if (!c.ok) return false;
    }
    return !checks_.empty();
  }

  bool write_json(const std::string& path, std::uint64_t seed) const {
    std::ofstream os(path);
    os << "{\"workload\": \"" << workload_ << "\", \"seed\": " << seed
       << ", \"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ",\n \"metrics\": [";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof buf, "%.17g", m.value);
      os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << m.name
         << "\", \"value\": " << buf << ", \"unit\": \"" << m.unit
         << "\", \"kind\": \"" << kind_name(m.kind)
         << "\", \"samples\": " << m.samples << "}";
    }
    os << "],\n \"digests\": {";
    for (std::size_t i = 0; i < digests_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << digests_[i].first << "\": \""
         << digests_[i].second << "\"";
    }
    os << "},\n \"checks\": [";
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::string what;  // may quote an exception message
      obs::chrome_trace::append_escaped(what, checks_[i].what);
      os << (i ? ",\n  " : "\n  ") << "{\"what\": \"" << what
         << "\", \"ok\": " << (checks_[i].ok ? "true" : "false") << "}";
    }
    os << "]}\n";
    return static_cast<bool>(os);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    Kind kind;
    std::size_t samples;
  };
  struct Check {
    std::string what;
    bool ok;
  };

  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> digests_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json). p50_ms
/// and p90_ms are taken over the durations of the workload's unit of work:
/// an epoch (train, cluster), a pass over the inferred nodes (infer) or a
/// request at the low rate (serve). p90 is the highest percentile that stays
/// steady run to run on a shared host (README.md, "Steadiness").
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> unit_ms;
  double accuracy = 0;
  double peak_rss_mb = 0;  // taken right after the gated measurement
};

std::vector<double> to_ms(std::vector<double> seconds) {
  for (double& s : seconds) s *= 1e3;
  return seconds;
}

void report_end_to_end(const EndToEnd& e, Report& r) {
  r.add("setup_s", median(e.setup_s), "s", Kind::kMeasured, e.setup_s.size());
  r.add("p50_ms", median(e.unit_ms), "ms", Kind::kMeasured, e.unit_ms.size());
  r.add("p90_ms", quantile(e.unit_ms, 0.9), "ms", Kind::kMeasured,
        e.unit_ms.size());
  r.add("accuracy", e.accuracy, "ratio", Kind::kMeasured);
  const double ok = r.attempted() > 0
                        ? 100.0 * static_cast<double>(r.attempted() -
                                                      r.failed()) /
                              static_cast<double>(r.attempted())
                        : 0.0;
  r.add("ok_pct", ok, "%", Kind::kComputed);
  r.add("peak_rss_mb", e.peak_rss_mb, "MB", Kind::kMeasured);
}

// ---------------------------------------------------------------------------
// Set-up: timed several times per run, the median is reported.
// ---------------------------------------------------------------------------

/// Time `build` at least three times and until about two seconds were spent
/// (at most 25 times), keeping only the last result; a traced run builds
/// once. The result type needs reset(), which frees a build before the next
/// one is timed.
template <class Build>
auto timed_setups(const Options& o, std::vector<double>& seconds,
                  Build&& build) {
  decltype(build()) kept;
  double total = 0;
  const int min_runs = o.traced() ? 1 : 3;
  const int max_runs = o.traced() ? 1 : 25;
  for (int i = 0; i < max_runs && (i < min_runs || total < 2.0); ++i) {
    kept.reset();
    const WallTimer t;
    kept = build();
    seconds.push_back(t.seconds());
    total += seconds.back();
  }
  return kept;
}

Dataset make_dataset(const std::string& preset, double scale,
                     std::uint64_t seed) {
  DatasetConfig dc = preset_config(preset, scale);
  dc.seed = derive_seed(seed, kDatasetSeed);
  return generate_dataset(dc);
}

/// The shared System shape. A traced run sets the existing trace_out and
/// metrics_out, so the System writes the program's own spans and metrics
/// when it is destroyed.
SystemConfig system_config(const Options& o) {
  SystemConfig c;
  if (o.traced()) {
    c.trace_out = o.trace_dir + "/" + o.workload + ".trace.json";
    c.metrics_out = o.trace_dir + "/" + o.workload + ".metrics.json";
  }
  c.dataset = "arxiv-sim";
  c.dataset_scale = o.sizes().arxiv_scale;
  c.hidden_channels = kHidden;
  c.num_layers = 3;
  c.train_fanouts = kTrainFanouts;
  c.infer_fanouts = kInferFanouts;
  c.batch_size = kBatch;
  c.num_workers = 2;
  c.feature_dtype = "f16";
  c.seed = derive_seed(o.seed, kSystemSeed);
  return c;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Durations in seconds of the measured units of work.
struct Timings {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;  // traced runs only
};

/// Run `unit(traced)`, which does one unit of work and returns its seconds,
/// until --seconds of measured time have passed and at least twice. A
/// traced run follows each untraced unit with a traced one, so the two are
/// neighbours in time.
template <class Unit>
Timings measure_units(const Options& o, Unit&& unit) {
  Timings t;
  auto& recorder = obs::TraceRecorder::global();
  double timed = 0;
  while (timed < o.seconds || t.untraced_s.size() < 2) {
    t.untraced_s.push_back(unit(false));
    timed += t.untraced_s.back();
    if (o.traced()) {
      recorder.enable(true);
      t.traced_s.push_back(unit(true));
      recorder.enable(false);
      timed += t.traced_s.back();
    }
  }
  return t;
}

/// Accuracy must beat guessing: twice the chance rate of a uniform guess.
void check_above_chance(double acc, const Dataset& ds, Report& r) {
  r.check(acc > 2.0 / static_cast<double>(ds.num_classes),
          "accuracy above chance");
}

// ---------------------------------------------------------------------------
// Traced run: replay batches through the layer calls, one span each.
// ---------------------------------------------------------------------------

/// Time one layer call inside a span recorded from this file.
template <class Call>
double layer_ms(const char* span, Call&& call) {
  SALIENT_TRACE_SCOPE(span);
  const WallTimer t;
  call();
  return t.seconds() * 1e3;
}

/// Per-batch means of the replayed layer calls.
struct LayerMeans {
  double sample_ms = 0, slice_ms = 0, transfer_ms = 0, forward_ms = 0,
         backward_ms = 0, step_ms = 0;
  double input_rows = 0, wire_mb = 0, cache_hit_rate = 0, dma_modelled_ms = 0,
         forward_gflops = 0;
  std::size_t batches = 0;

  double serial_ms() const {
    return sample_ms + slice_ms + transfer_ms + forward_ms + backward_ms +
           step_ms;
  }
};

/// What the DMA model (device/dma.h) charges for one batch: latency plus
/// bytes over bandwidth, per copy DeviceSim issues.
double dma_modelled_ms(const PreparedBatch& b, const DmaConfig& dma) {
  const double rate = dma.bandwidth_gb_per_s *
                      (b.x.pinned() ? 1.0 : dma.pageable_fraction) * 1e9;
  std::vector<std::size_t> copies;
  for (const auto& level : b.mfg.levels) {
    copies.push_back(level.indptr->size() * sizeof(std::int64_t));
    copies.push_back(level.indices->size() * sizeof(std::int64_t));
  }
  copies.push_back(b.y.nbytes());
  if (!b.cache_plan || b.x.numel() > 0) {
    copies.push_back(b.x.nbytes());
    if (b.x_scale.defined()) {
      copies.push_back(b.x_scale.nbytes());
      copies.push_back(b.x_zero.nbytes());
    }
  }
  double s = 0;
  for (const std::size_t bytes : copies) {
    s += dma.latency_us * 1e-6 + static_cast<double>(bytes) / rate;
  }
  return s * 1e3;
}

/// Forward FLOPs of a mean-aggregating GraphSAGE over `mfg`, from layer
/// shapes: per level, two GEMMs (2*dst*in*out each) plus one add per
/// sampled edge and input channel. Elementwise ops are not counted.
double sage_forward_flops(const Mfg& mfg,
                          const std::vector<std::int64_t>& channels) {
  double flops = 0;
  for (std::size_t i = 0; i < mfg.levels.size(); ++i) {
    const auto& level = mfg.levels[i];
    const auto dst = static_cast<double>(level.num_dst);
    const auto in = static_cast<double>(channels[i]);
    const auto out = static_cast<double>(channels[i + 1]);
    flops += 4.0 * dst * in * out +
             static_cast<double>(level.indices->size()) * in;
  }
  return flops;
}

/// Everything a replay needs: the data, the model and (for training
/// workloads) its optimizer, the device and the optional feature cache.
struct ReplaySetup {
  const Dataset* dataset = nullptr;
  nn::GnnModel* model = nullptr;
  optim::Adam* optimizer = nullptr;  // null: forward only
  DeviceSim* device = nullptr;
  const FeatureCache* cache = nullptr;
  DType wire = DType::kF16;
  std::vector<std::int64_t> fanouts;
  std::vector<std::int64_t> channels;  // in, hidden..., classes
};

/// Replay `batches` serially through sample -> slice -> transfer ->
/// forward (-> loss + backward -> optimizer step), one span per call.
LayerMeans replay_layers(const ReplaySetup& s,
                         const std::vector<std::vector<NodeId>>& batches,
                         std::uint64_t seed, Report& r) {
  LayerMeans m;
  FastSampler sampler(s.dataset->graph, s.fanouts);
  PinnedPool pool;
  double flops = 0;
  std::int64_t hits = 0, rows = 0;
  s.model->train(s.optimizer != nullptr);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    PreparedBatch pb;
    pb.index = static_cast<std::int64_t>(b);
    m.sample_ms += layer_ms("bench.sample", [&] {
      pb.mfg = sampler.sample(batches[b], seed + b);
    });
    m.slice_ms += layer_ms("bench.slice", [&] {
      if (s.cache != nullptr) {
        auto plan = std::make_shared<CachePlan>(
            plan_cached_batch(pb.mfg, *s.cache));
        stage_feature_rows(s.dataset->features, missing_node_ids(pb.mfg, *plan),
                           s.wire, pool, pb);
        pb.cache_plan = std::move(plan);
      } else {
        stage_feature_rows(s.dataset->features, pb.mfg.n_ids, s.wire, pool,
                           pb);
      }
      pb.y = pool.acquire({pb.mfg.batch_size}, DType::kI64);
      slice_labels(s.dataset->labels,
                   {pb.mfg.n_ids.data(),
                    static_cast<std::size_t>(pb.mfg.batch_size)},
                   pb.y);
    });
    DeviceBatch dev;
    m.transfer_ms += layer_ms("bench.transfer", [&] {
      dev = pb.cache_plan ? s.device->transfer_batch_cached(
                                pb, *pb.cache_plan, *s.cache,
                                /*blocking=*/true, nullptr)
                          : s.device->transfer_batch(pb, /*blocking=*/true,
                                                     nullptr);
    });
    Variable logp;
    m.forward_ms += layer_ms("bench.forward", [&] {
      logp = s.model->forward(Variable(dev.x_f32), dev.mfg);
    });
    if (s.optimizer != nullptr) {
      double loss = 0;
      m.backward_ms += layer_ms("bench.backward", [&] {
        Variable l = nn::nll_loss(logp, dev.y);
        s.model->zero_grad();
        l.backward();
        loss = static_cast<double>(l.data().data<float>()[0]);
      });
      m.step_ms += layer_ms("bench.step", [&] { s.optimizer->step(); });
      r.check(std::isfinite(loss), "replayed loss is finite");
    }
    r.check(logp.data().size(0) == pb.mfg.batch_size,
            "forward returns one row per batch node");
    m.input_rows += static_cast<double>(pb.mfg.num_input_nodes());
    m.wire_mb += static_cast<double>(pb.transfer_bytes()) / 1e6;
    m.dma_modelled_ms += dma_modelled_ms(pb, s.device->config().dma);
    if (pb.cache_plan) {
      rows += static_cast<std::int64_t>(pb.cache_plan->from_cache.size());
      hits += static_cast<std::int64_t>(pb.cache_plan->from_cache.size()) -
              pb.cache_plan->num_missing;
    }
    flops += sage_forward_flops(pb.mfg, s.channels);
    release_batch_buffers(pool, std::move(pb));
  }
  m.batches = batches.size();
  const auto n = static_cast<double>(std::max<std::size_t>(1, m.batches));
  for (double* v : {&m.sample_ms, &m.slice_ms, &m.transfer_ms, &m.forward_ms,
                    &m.backward_ms, &m.step_ms, &m.input_rows, &m.wire_mb,
                    &m.dma_modelled_ms}) {
    *v /= n;
  }
  m.cache_hit_rate =
      rows > 0 ? static_cast<double>(hits) / static_cast<double>(rows) : 0;
  m.forward_gflops = m.forward_ms > 0 ? flops / n / (m.forward_ms * 1e6) : 0;
  return m;
}

void report_layers(const LayerMeans& m, Report& r) {
  const std::size_t n = m.batches;
  r.add("sampling.sample_ms", m.sample_ms, "ms", Kind::kMeasured, n);
  r.add("prep.slice_ms", m.slice_ms, "ms", Kind::kMeasured, n);
  r.add("prep.cache_hit_rate", m.cache_hit_rate, "ratio", Kind::kCount, n);
  r.add("sampling.input_rows", m.input_rows, "rows", Kind::kCount, n);
  r.add("prep.wire_mb", m.wire_mb, "MB", Kind::kCount, n);
  r.add("device.transfer_ms", m.transfer_ms, "ms", Kind::kMeasured, n);
  r.add("device.dma_modelled_ms", m.dma_modelled_ms, "ms", Kind::kModelled, n);
  r.add("nn.forward_ms", m.forward_ms, "ms", Kind::kMeasured, n);
  r.add("nn.forward_gflops", m.forward_gflops, "GFLOP/s", Kind::kComputed, n);
  r.add("autograd.backward_ms", m.backward_ms, "ms", Kind::kMeasured, n);
  r.add("optim.step_ms", m.step_ms, "ms", Kind::kMeasured, n);
  r.add("train.serial_batch_ms", m.serial_ms(), "ms", Kind::kComputed, n);
}

/// obs.trace_overhead_pct: the traced unit time against the untraced.
void report_trace_overhead(const Timings& t, Report& r) {
  const double u = median(t.untraced_s);
  r.add("obs.trace_overhead_pct",
        u > 0 ? 100.0 * (median(t.traced_s) / u - 1) : 0, "%",
        Kind::kComputed, t.traced_s.size());
}

/// Split `nodes` into consecutive batches of `batch` nodes, at most `limit`.
std::vector<std::vector<NodeId>> first_batches(std::span<const NodeId> nodes,
                                               std::int64_t batch,
                                               int limit) {
  std::vector<std::vector<NodeId>> out;
  for (std::size_t i = 0;
       i < nodes.size() && static_cast<int>(out.size()) < limit;
       i += static_cast<std::size_t>(batch)) {
    const std::size_t end =
        std::min(nodes.size(), i + static_cast<std::size_t>(batch));
    out.emplace_back(nodes.begin() + static_cast<std::ptrdiff_t>(i),
                     nodes.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

/// The training split in a seeded shuffled order (the replay's epoch).
std::vector<NodeId> shuffled(std::vector<NodeId> nodes, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  for (std::size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[bounded_rand(rng, i)]);
  }
  return nodes;
}

// ---------------------------------------------------------------------------
// train: pipelined SALIENT training (the repository's default path).
// ---------------------------------------------------------------------------

std::unique_ptr<System> build_system(const SystemConfig& cfg,
                                     std::uint64_t seed) {
  auto sys = std::make_unique<System>(
      make_dataset(cfg.dataset, cfg.dataset_scale, seed), cfg);
  // System::build turned recording on for trace_out; the run decides which
  // stretches are traced.
  obs::TraceRecorder::global().enable(false);
  return sys;
}

void run_train(const Options& o, Report& r) {
  const SystemConfig cfg = system_config(o);
  EndToEnd e;
  auto sys = timed_setups(o, e.setup_s,
                          [&] { return build_system(cfg, o.seed); });
  const Dataset& ds = sys->dataset();
  const std::int64_t batches =
      ceil_div(static_cast<std::int64_t>(ds.train_idx.size()), kBatch);

  // Warm-up epoch; its loss is the run-to-run repeatability digest (the
  // timed epoch count follows --seconds, so a later epoch would not be
  // comparable across runs).
  const EpochStats warm = sys->train_epoch();
  r.digest("train.loss_digest", warm.mean_loss);

  std::vector<double> prep_ms, device_ms, train_ms, unattributed_pct;
  const Timings t = measure_units(o, [&](bool traced) {
    const EpochStats st = sys->train_epoch();
    r.count_ops(batches, batches - st.num_batches);
    r.check(st.num_batches == batches, "every batch of the epoch trained");
    r.check(std::isfinite(st.mean_loss), "epoch loss is finite");
    if (!traced) {
      const auto per_batch = [&](Phase p) {
        return st.blocking.total(p) * 1e3 / static_cast<double>(batches);
      };
      prep_ms.push_back(per_batch(Phase::kSample));
      device_ms.push_back(per_batch(Phase::kTransfer));
      train_ms.push_back(per_batch(Phase::kTrain));
      unattributed_pct.push_back(
          100.0 * (1.0 - st.blocking.grand_total() / st.epoch_seconds));
    }
    return st.epoch_seconds;
  });

  if (!o.traced()) {
    e.peak_rss_mb = process_peak_rss_mb();
    e.unit_ms = to_ms(t.untraced_s);
    e.accuracy = sys->val_accuracy();
    check_above_chance(e.accuracy, ds, r);
    r.add("epoch_s", median(t.untraced_s), "s", Kind::kMeasured,
          t.untraced_s.size());
    r.add("val_acc", e.accuracy, "ratio", Kind::kMeasured);
    report_end_to_end(e, r);
    return;
  }

  obs::TraceRecorder::global().enable(true);
  ReplaySetup rs;
  rs.dataset = &ds;
  rs.model = sys->model().get();
  rs.optimizer = &sys->trainer().optimizer();
  rs.device = &sys->device();
  rs.wire = parse_feature_dtype(cfg.feature_dtype);
  rs.fanouts = kTrainFanouts;
  rs.channels = {ds.feature_dim, kHidden, kHidden, ds.num_classes};
  const std::vector<NodeId> order =
      shuffled(ds.train_idx, derive_seed(o.seed, kReplaySeed));
  const LayerMeans m = replay_layers(
      rs, first_batches(order, kBatch, o.sizes().replay_batches),
      derive_seed(o.seed, kReplaySeed), r);
  report_layers(m, r);
  const double epoch_s = median(t.untraced_s);
  r.add("prep.blocked_ms", median(prep_ms), "ms", Kind::kMeasured,
        prep_ms.size());
  r.add("device.blocked_ms", median(device_ms), "ms", Kind::kMeasured,
        device_ms.size());
  r.add("train.blocked_ms", median(train_ms), "ms", Kind::kMeasured,
        train_ms.size());
  r.add("train.overlap_ratio",
        1.0 - epoch_s * 1e3 / (static_cast<double>(batches) * m.serial_ms()),
        "ratio", Kind::kComputed);
  r.add("train.unattributed_pct", median(unattributed_pct), "%",
        Kind::kComputed, unattributed_pct.size());
  report_trace_overhead(t, r);
}

// ---------------------------------------------------------------------------
// infer: offline sampled inference through Trainer::inference_epoch.
// ---------------------------------------------------------------------------

void run_infer(const Options& o, Report& r) {
  SystemConfig cfg = system_config(o);
  cfg.dataset = "products-sim";
  cfg.dataset_scale = o.sizes().products_scale;
  cfg.feature_dtype = "i8q";
  cfg.cache_policy = "degree";
  cfg.cache_percentage = kCachePct;
  EndToEnd e;
  auto sys = timed_setups(o, e.setup_s,
                          [&] { return build_system(cfg, o.seed); });
  const Dataset& ds = sys->dataset();
  sys->train_epoch();  // the model to infer with; timed nowhere

  const auto n = std::min<std::int64_t>(
      o.sizes().infer_nodes, static_cast<std::int64_t>(ds.test_idx.size()));
  const std::span<const NodeId> nodes(ds.test_idx.data(),
                                      static_cast<std::size_t>(n));
  const std::uint64_t pass_seed = derive_seed(o.seed, kReplaySeed);
  const std::int64_t batches = ceil_div(n, kBatch);
  auto pass = [&] {
    return sys->trainer().inference_epoch(nodes, kInferFanouts, pass_seed);
  };
  const double warm_acc = pass().accuracy;

  std::vector<double> accs;
  const Timings t = measure_units(o, [&](bool) {
    const Trainer::InferenceEpoch p = pass();
    r.count_ops(batches, batches - p.num_batches);
    r.check(p.num_batches == batches, "every inference batch retired");
    // Same seed, same model: every pass must predict alike.
    r.check(std::abs(p.accuracy - warm_acc) <= 1e-3, "inference passes agree");
    accs.push_back(p.accuracy);
    return p.seconds;
  });

  if (!o.traced()) {
    e.peak_rss_mb = process_peak_rss_mb();
    e.unit_ms = to_ms(t.untraced_s);
    e.accuracy = median(accs);
    check_above_chance(e.accuracy, ds, r);
    r.add("infer_nodes_per_s", static_cast<double>(n) / median(t.untraced_s),
          "1/s", Kind::kMeasured, t.untraced_s.size());
    r.add("infer_acc", e.accuracy, "ratio", Kind::kMeasured);
    report_end_to_end(e, r);
    return;
  }

  obs::TraceRecorder::global().enable(true);
  ReplaySetup rs;
  rs.dataset = &ds;
  rs.model = sys->model().get();
  rs.device = &sys->device();
  rs.cache = sys->trainer().feature_cache().get();
  rs.wire = parse_feature_dtype(cfg.feature_dtype);
  rs.fanouts = kInferFanouts;
  rs.channels = {ds.feature_dim, kHidden, kHidden, ds.num_classes};
  report_layers(replay_layers(rs,
                              first_batches(nodes, kBatch,
                                            o.sizes().replay_batches),
                              pass_seed, r),
                r);
  report_trace_overhead(t, r);
}

// ---------------------------------------------------------------------------
// serve: open-loop serving at three fixed offered rates.
// ---------------------------------------------------------------------------

/// Requests for one rate window: `count` requests of kNodesPerRequest test
/// nodes each, popularity-skewed toward low test indices (u^(1+s)).
std::vector<std::vector<NodeId>> draw_requests(const Dataset& ds,
                                               std::size_t count,
                                               std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto n = static_cast<double>(ds.test_idx.size());
  std::vector<std::vector<NodeId>> out(count);
  for (auto& nodes : out) {
    for (int k = 0; k < kNodesPerRequest; ++k) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      const auto idx = std::min(
          ds.test_idx.size() - 1,
          static_cast<std::size_t>(std::pow(u, 1.0 + kRequestSkew) * n));
      nodes.push_back(ds.test_idx[idx]);
    }
  }
  return out;
}

struct RateWindow {
  double offered_rps = 0;
  std::vector<double> latency_ms;  // from the due time; failures are +inf
  std::vector<double> queue_ms, service_ms;
  double achieved_rps = 0;
  double max_lag_ms = 0;
  std::int64_t ok = 0, failed = 0, correct_preds = 0;
  bool preds_valid = true;
  std::int64_t batches = 0;
  double cache_hit_rate = 0;
};

/// One open-loop window: a single thread submits each request at its due
/// time, late or not; latency counts from the due time, so a stall also
/// charges the requests queued behind it.
RateWindow serve_window(serve::InferenceServer& server, const Dataset& ds,
                        double rate, double seconds, std::uint64_t seed) {
  RateWindow w;
  w.offered_rps = rate;
  auto requests = draw_requests(
      ds, static_cast<std::size_t>(std::ceil(rate * seconds)), seed);
  auto& reg = obs::Registry::global();
  obs::Counter& row_hits = reg.counter("prep.cache.row_hits");
  obs::Counter& row_misses = reg.counter("prep.cache.row_misses");
  const std::int64_t hits0 = row_hits.value(), misses0 = row_misses.value();
  const std::int64_t batches0 = server.stats().batches;
  std::vector<std::future<serve::Response>> futures(requests.size());
  std::vector<Clock::time_point> sent(requests.size());
  std::vector<double> lag_ms(requests.size());
  const auto gap = std::chrono::duration<double>(1.0 / rate);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              gap * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    sent[i] = Clock::now();
    futures[i] = server.submit(requests[i]);
    lag_ms[i] = std::chrono::duration<double, std::milli>(sent[i] - due).count();
  }
  Clock::time_point last_done = t0;
  const std::int64_t* labels = ds.labels.data<std::int64_t>();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::Response resp = futures[i].get();
    w.max_lag_ms = std::max(w.max_lag_ms, lag_ms[i]);
    if (!resp.ok()) {
      ++w.failed;
      w.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++w.ok;
    w.latency_ms.push_back(lag_ms[i] + resp.total_us / 1e3);
    w.queue_ms.push_back(resp.queue_us / 1e3);
    w.service_ms.push_back((resp.total_us - resp.queue_us) / 1e3);
    last_done = std::max(
        last_done, sent[i] + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     resp.total_us)));
    if (resp.predictions.size() != requests[i].size()) {
      w.preds_valid = false;
      continue;
    }
    for (std::size_t k = 0; k < requests[i].size(); ++k) {
      const std::int64_t p = resp.predictions[k];
      w.preds_valid = w.preds_valid && p >= 0 && p < ds.num_classes;
      w.correct_preds += p == labels[requests[i][k]];
    }
  }
  const double span_s = std::chrono::duration<double>(last_done - t0).count();
  w.achieved_rps = span_s > 0 ? static_cast<double>(w.ok) / span_s : 0;
  w.batches = server.stats().batches - batches0;
  const auto hits = static_cast<double>(row_hits.value() - hits0);
  const auto misses = static_cast<double>(row_misses.value() - misses0);
  w.cache_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
  return w;
}

void run_serve(const Options& o, Report& r) {
  const SystemConfig cfg = system_config(o);
  serve::ServeConfig sc;
  sc.fanouts = kTrainFanouts;
  sc.num_prep_workers = 2;
  sc.cache_policy = CachePolicyKind::kDegree;
  sc.cache_percentage = kCachePct;
  sc.result_cache_capacity = 0;
  sc.slo_us = kSloMs * 1e3;
  sc.seed = derive_seed(o.seed, kRequestSeed);

  // The server serves the System's model on the System's device. Members
  // are destroyed in reverse order, so the server (which borrows the
  // dataset and device) goes first.
  struct Stack {
    std::unique_ptr<System> sys;
    std::unique_ptr<serve::InferenceServer> server;
    void reset() {
      server.reset();
      sys.reset();
    }
  };
  EndToEnd e;
  Stack stack = timed_setups(o, e.setup_s, [&] {
    Stack s;
    s.sys = build_system(cfg, o.seed);
    s.server = std::make_unique<serve::InferenceServer>(
        s.sys->dataset(), s.sys->model(), s.sys->device(), sc);
    return s;
  });
  System& sys = *stack.sys;
  serve::InferenceServer& server = *stack.server;
  const Dataset& ds = sys.dataset();
  sys.train_epoch();  // a trained model to serve; timed nowhere
  server.notify_model_updated();

  const auto& rates = o.sizes().serve_rates;
  // The gated low rate gets half the time, mid and high a quarter each.
  const std::array<double, 3> window_s{o.seconds / 2, o.seconds / 4,
                                       o.seconds / 4};
  const std::uint64_t req_seed = derive_seed(o.seed, kRequestSeed);
  // Warm the pipeline (pool buffers, thread wake-ups) before timing.
  serve_window(server, ds, rates[0], std::min(0.5, window_s[0] / 2), req_seed);

  std::array<RateWindow, 3> w;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    w[i] = serve_window(server, ds, rates[i], window_s[i], req_seed + i + 1);
    // The gated low rate runs first; the mid and high rates only probe the
    // knee, and their queue backlog would make the peak a coin toss.
    if (i == 0) e.peak_rss_mb = process_peak_rss_mb();
    const std::int64_t sent = w[i].ok + w[i].failed;
    r.count_ops(sent, w[i].failed);
    r.check(w[i].preds_valid, std::string("served predictions valid at ") +
                                  kRateNames[i]);
    const double p50 = quantile(w[i].latency_ms, 0.5);
    const double p99 = quantile(w[i].latency_ms, 0.99);
    std::ostringstream os;
    os << kRateNames[i] << ": offered " << rates[i] << " req/s, achieved "
       << w[i].achieved_rps << " req/s, " << sent << " requests, "
       << w[i].failed << " failed, p50 " << p50 << " ms, p99 " << p99
       << " ms, generator late by up to " << w[i].max_lag_ms << " ms";
    r.note(os.str());
    if (p50 > kSloMs || w[i].achieved_rps < kGoodputShare * rates[i]) {
      r.note(std::string("collapse at ") + kRateNames[i] +
             " (reported, not retried)");
    }
  }

  if (!o.traced()) {
    double goodput = 0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      const std::vector<double>& lat = w[i].latency_ms;
      const double p99 = quantile(lat, 0.99);
      if (p99 <= kSloMs && w[i].achieved_rps >= kGoodputShare * rates[i]) {
        goodput = rates[i];
      }
      const std::string rate = kRateNames[i];
      r.add("req_p50_ms." + rate, quantile(lat, 0.5), "ms", Kind::kMeasured,
            lat.size());
      r.add("req_p99_ms." + rate, p99, "ms", Kind::kMeasured, lat.size());
    }
    r.add("goodput_rps", goodput, "1/s", Kind::kMeasured);
    // The gated latencies are the low rate's: on a shared 4-core host the
    // mid and high rates' percentiles spread past any usable bound
    // (README.md, "Steadiness").
    e.unit_ms = w[0].latency_ms;
    std::int64_t served = 0, right = 0;
    for (const RateWindow& x : w) {
      served += x.ok * kNodesPerRequest;
      right += x.correct_preds;
    }
    e.accuracy = served > 0 ? static_cast<double>(right) /
                                  static_cast<double>(served)
                            : 0;
    check_above_chance(e.accuracy, ds, r);
    report_end_to_end(e, r);
    return;
  }

  // Traced: the gated rate again with the recorder on, then the replay.
  obs::TraceRecorder::global().enable(true);
  const RateWindow traced =
      serve_window(server, ds, rates[0], window_s[0], req_seed + 1);
  const RateWindow& gated = w[0];
  r.add("serve.queue_ms_p50", quantile(gated.queue_ms, 0.5), "ms",
        Kind::kMeasured, gated.queue_ms.size());
  r.add("serve.queue_ms_p99", quantile(gated.queue_ms, 0.99), "ms",
        Kind::kMeasured, gated.queue_ms.size());
  r.add("serve.service_ms_p50", quantile(gated.service_ms, 0.5), "ms",
        Kind::kMeasured, gated.service_ms.size());
  const double batch_nodes =
      gated.batches > 0 ? static_cast<double>((gated.ok + gated.failed) *
                                            kNodesPerRequest) /
                            static_cast<double>(gated.batches)
                      : 0;
  r.add("serve.batch_nodes", batch_nodes, "nodes", Kind::kCount);
  r.add("serve.feature_cache_hit_rate", gated.cache_hit_rate, "ratio",
        Kind::kCount);
  r.add("serve.gen_lag_ms_max", gated.max_lag_ms, "ms", Kind::kMeasured);
  // One traced window against the untraced one, by median request latency.
  report_trace_overhead(Timings{{quantile(gated.latency_ms, 0.5)},
                                {quantile(traced.latency_ms, 0.5)}},
                        r);

  // Replay micro-batches shaped like the gated rate's: the distinct nodes of
  // consecutive requests, about batch_nodes requested nodes each.
  const auto reqs_per_batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(batch_nodes / kNodesPerRequest));
  const auto stream = draw_requests(
      ds, reqs_per_batch * static_cast<std::size_t>(o.sizes().replay_batches),
      req_seed);
  std::vector<std::vector<NodeId>> batches;
  for (std::size_t i = 0; i < stream.size(); i += reqs_per_batch) {
    std::vector<NodeId> nodes;
    for (std::size_t j = i; j < std::min(stream.size(), i + reqs_per_batch);
         ++j) {
      nodes.insert(nodes.end(), stream[j].begin(), stream[j].end());
    }
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    batches.push_back(std::move(nodes));
  }
  ReplaySetup rs;
  rs.dataset = &ds;
  rs.model = sys.model().get();
  rs.device = &sys.device();
  rs.cache = server.config().feature_cache.get();
  rs.wire = sc.feature_dtype;
  rs.fanouts = kTrainFanouts;
  rs.channels = {ds.feature_dim, kHidden, kHidden, ds.num_classes};
  server.shutdown();  // the replay uses the device's streams alone
  report_layers(replay_layers(rs, batches, req_seed, r), r);
}

// ---------------------------------------------------------------------------
// cluster: a simulated 4-node ClusterTrainer.
// ---------------------------------------------------------------------------

void run_cluster(const Options& o, Report& r) {
  const SystemConfig sc = system_config(o);
  dist::ClusterConfig cc;
  cc.partition.num_nodes = kClusterNodes;
  cc.partition.strategy = dist::PartitionStrategy::kGreedy;
  cc.cache.policy = CachePolicyKind::kPresample;
  cc.cache.cache_percentage = kCachePct;
  cc.pipeline_depth = 2;
  cc.fanouts = kTrainFanouts;
  cc.batch_size = kBatch;
  cc.seed = sc.seed;
  cc.lr = sc.lr;
  cc.model.hidden_channels = kHidden;
  cc.model.num_layers = 3;
  cc.model.seed = sc.seed * 31 + 7;

  // The trainer borrows the dataset, so it is declared (and destroyed)
  // after it.
  struct Stack {
    std::unique_ptr<Dataset> ds;
    std::unique_ptr<dist::ClusterTrainer> trainer;
    void reset() {
      trainer.reset();
      ds.reset();
    }
  };
  EndToEnd e;
  Stack stack = timed_setups(o, e.setup_s, [&] {
    Stack s;
    s.ds = std::make_unique<Dataset>(
        make_dataset(sc.dataset, sc.dataset_scale, o.seed));
    cc.model.in_channels = s.ds->feature_dim;
    cc.model.out_channels = s.ds->num_classes;
    s.trainer = std::make_unique<dist::ClusterTrainer>(*s.ds, cc);
    return s;
  });
  const Dataset& data = *stack.ds;
  dist::ClusterTrainer& trainer = *stack.trainer;
  const std::int64_t steps =
      ceil_div(static_cast<std::int64_t>(data.train_idx.size()), kBatch);

  auto epoch = [&, next = 0]() mutable {
    const dist::ClusterEpochResult res = trainer.train_epoch(next++);
    r.check(res.num_steps == steps, "every global step trained");
    r.check(std::isfinite(res.mean_loss), "epoch loss is finite");
    r.check(trainer.replicas_in_sync(), "replicas in sync");
    return res;
  };
  epoch();  // warm-up

  std::vector<double> remote_mb, hit_rate, skew, sim_epoch, sim_stall,
      sim_saved;
  const Timings t = measure_units(o, [&](bool traced) {
    const dist::ClusterEpochResult res = epoch();
    r.count_ops(steps, steps - res.num_steps);
    if (!traced) {
      remote_mb.push_back(static_cast<double>(res.remote_feature_bytes) / 1e6);
      hit_rate.push_back(res.remote_hit_rate());
      skew.push_back(*std::max_element(res.node_seconds.begin(),
                                       res.node_seconds.end()) /
                     median(res.node_seconds));
      sim_epoch.push_back(res.sim_epoch_seconds);
      sim_stall.push_back(res.stall_seconds);
      sim_saved.push_back(res.overlap_saved_seconds);
    }
    return res.wall_seconds;
  });

  if (!o.traced()) {
    e.peak_rss_mb = process_peak_rss_mb();
    e.unit_ms = to_ms(t.untraced_s);
    e.accuracy = evaluate_sampled(*trainer.replica(0), data, data.val_idx,
                                  kInferFanouts, kBatch, sc.seed ^ 0x7a1)
                     .accuracy;
    check_above_chance(e.accuracy, data, r);
    r.add("epoch_s", median(t.untraced_s), "s", Kind::kMeasured,
          t.untraced_s.size());
    report_end_to_end(e, r);
    return;
  }

  const std::size_t n = t.untraced_s.size();
  r.add("dist.remote_mb", median(remote_mb), "MB", Kind::kCount, n);
  r.add("dist.remote_hit_rate", median(hit_rate), "ratio", Kind::kCount, n);
  r.add("dist.node_skew", median(skew), "ratio", Kind::kMeasured, n);
  r.add("dist.sim_epoch_s", median(sim_epoch), "s", Kind::kModelled, n);
  r.add("dist.sim_stall_s", median(sim_stall), "s", Kind::kModelled, n);
  r.add("dist.sim_overlap_saved_s", median(sim_saved), "s", Kind::kModelled,
        n);
  report_trace_overhead(t, r);

  // Replay one node's share of each global batch (batch / nodes seeds) on
  // a replica-shaped model of its own, so the cluster's replicas stay
  // untouched.
  obs::TraceRecorder::global().enable(true);
  auto model = nn::make_model(cc.arch, cc.model);
  optim::Adam adam(model->parameters(), cc.lr);
  DeviceSim device;
  ReplaySetup rs;
  rs.dataset = &data;
  rs.model = model.get();
  rs.optimizer = &adam;
  rs.device = &device;
  rs.fanouts = kTrainFanouts;
  rs.channels = {data.feature_dim, kHidden, kHidden, data.num_classes};
  const std::vector<NodeId> order =
      shuffled(data.train_idx, derive_seed(o.seed, kReplaySeed));
  report_layers(replay_layers(rs,
                              first_batches(order, kBatch / kClusterNodes,
                                            o.sizes().replay_batches),
                              derive_seed(o.seed, kReplaySeed), r),
                r);
  // The cluster has no System, so the run writes the files itself to the
  // paths system_config() names.
  r.check(obs::write_chrome_trace_file(sc.trace_out) &&
              obs::Registry::global().write_json_file(sc.metrics_out),
          "trace and metrics files written");
}

// ---------------------------------------------------------------------------

bool consume(const std::string& arg, const char* key, std::string& value) {
  const std::string prefix = std::string("--") + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "workload", v)) o.workload = v;
    else if (consume(arg, "seed", v)) o.seed = std::stoull(v);
    else if (consume(arg, "seconds", v)) o.seconds = std::stod(v);
    else if (consume(arg, "trace-dir", v)) o.trace_dir = v;
    else if (consume(arg, "json", v)) o.json_path = v;
    else if (arg == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown flag " + arg);
  }
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse_options(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "salient_bench: " << ex.what() << "\n";
    return 2;
  }
  void (*run)(const Options&, Report&) = nullptr;
  if (o.workload == "train") run = run_train;
  else if (o.workload == "infer") run = run_infer;
  else if (o.workload == "serve") run = run_serve;
  else if (o.workload == "cluster") run = run_cluster;
  if (run == nullptr) {
    std::cerr << "salient_bench: --workload must be train, infer, serve or "
                 "cluster\n";
    return 2;
  }

  Report report(o.workload);
  try {
    run(o, report);
  } catch (const std::exception& ex) {
    // An exception fails the whole workload: every attempted operation.
    report.check(false, std::string("no exception (") + ex.what() + ")");
    report.count_ops(0, report.attempted() - report.failed());
  }
  std::cout << std::flush;
  if (!o.json_path.empty() && !report.write_json(o.json_path, o.seed)) {
    std::cerr << "salient_bench: cannot write " << o.json_path << "\n";
    return 1;
  }
  return report.correct() ? 0 : 1;
}
