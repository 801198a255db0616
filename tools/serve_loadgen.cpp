// Load generator for the online inference server (docs/SERVING.md).
//
// Drives an InferenceServer in either of the two classic harness shapes:
//   * open loop  (--qps=N): requests arrive on a fixed-rate schedule
//     regardless of completions — models independent clients and exposes
//     queueing collapse at saturation (offered load is honest);
//   * closed loop (--qps=0 --concurrency=N): N workers issue back-to-back
//     requests — models a fixed client pool and measures peak throughput.
//
// One run prints a single result line; --sweep=q1,q2,... runs a fresh server
// per offered rate and prints the latency-vs-offered-throughput curve
// (docs/EXPERIMENTS.md). --check turns the run into a pass/fail gate for
// ctest: below the shed threshold the server must complete every admitted
// request with zero shed and non-degenerate p50<=p95<=p99.
//
//   ./serve_loadgen [flags]
//     --qps=<double>          open-loop offered rate (0 = closed loop)
//     --concurrency=<n>       closed-loop client count        [4]
//     --requests=<n>          total requests per run          [2000]
//     --nodes-per-request=<n> nodes predicted per request     [1]
//     --fanouts=a,b,...       per-layer inference fanouts     [10,10]
//     --max-batch=<nodes>     micro-batch size bound          [256]
//     --max-wait-us=<us>      micro-batch wait bound          [2000]
//     --queue-cap=<n>         admission queue capacity        [256]
//     --workers=<n>           prep workers                    [2]
//     --cache-mb=<mb>         device feature cache size, rows at wire bytes [0 = off]
//     --cache-pct=<frac>      feature cache capacity, fraction of |V| [0 = off]
//     --cache-policy=<name>   lru|degree|presample|auto       [degree]
//     --result-cache=<n>      result cache entries            [0 = off]
//     --slo-ms=<ms>           latency SLO                     [50]
//     --dataset=<preset>      arxiv-sim|products-sim|papers-sim [arxiv-sim]
//     --scale=<x>             dataset scale                   [0.05]
//     --skew=<zipf-s>         request popularity skew         [0 = uniform]
//     --sweep=q1,q2,...       latency-vs-throughput curve (open loop)
//     --sweep-cache=p1,p2,... cache-percentage sweep: one closed-loop run per
//                             (policy in {lru,degree,presample}) x fraction;
//                             prints machine-readable `cache-sweep ...` lines
//                             (hit rate, latency percentiles, throughput)
//     --check                 exit nonzero unless the run is clean
//     --check-cache           with --sweep-cache: exit nonzero unless the
//                             frequency-informed static policies (degree,
//                             presample) beat lru on hit rate at every point
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "tensor/quantize.h"

namespace {

using namespace salient;
using namespace salient::serve;
using Clock = std::chrono::steady_clock;

struct LoadgenOptions {
  double qps = 0;  // 0 => closed loop
  int concurrency = 4;
  int requests = 2000;
  int nodes_per_request = 1;
  std::vector<std::int64_t> fanouts{10, 10};
  std::int64_t max_batch = 256;
  std::int64_t max_wait_us = 2000;
  std::size_t queue_cap = 256;
  int workers = 2;
  double cache_mb = 0;
  double cache_pct = 0;
  std::string cache_policy = "degree";
  std::int64_t result_cache = 0;
  double slo_ms = 50;
  std::string dataset = "arxiv-sim";
  double scale = 0.05;
  double skew = 0;
  std::vector<double> sweep;
  std::vector<double> sweep_cache;
  bool check = false;
  bool check_cache = false;
};

std::vector<double> parse_doubles(const std::string& text) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(std::atof(text.substr(pos, end - pos).c_str()));
    pos = end + 1;
  }
  return out;
}

bool consume(const std::string& arg, const std::string& key,
             std::string& value) {
  const std::string prefix = "--" + key + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  value = arg.substr(prefix.size());
  return true;
}

LoadgenOptions parse_options(int argc, char** argv) {
  LoadgenOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "qps", v)) o.qps = std::atof(v.c_str());
    else if (consume(arg, "concurrency", v)) o.concurrency = std::atoi(v.c_str());
    else if (consume(arg, "requests", v)) o.requests = std::atoi(v.c_str());
    else if (consume(arg, "nodes-per-request", v)) o.nodes_per_request = std::atoi(v.c_str());
    else if (consume(arg, "fanouts", v)) o.fanouts = parse_fanouts(v);
    else if (consume(arg, "max-batch", v)) o.max_batch = std::atoll(v.c_str());
    else if (consume(arg, "max-wait-us", v)) o.max_wait_us = std::atoll(v.c_str());
    else if (consume(arg, "queue-cap", v)) o.queue_cap = static_cast<std::size_t>(std::atoll(v.c_str()));
    else if (consume(arg, "workers", v)) o.workers = std::atoi(v.c_str());
    else if (consume(arg, "cache-mb", v)) o.cache_mb = std::atof(v.c_str());
    else if (consume(arg, "cache-pct", v)) o.cache_pct = std::atof(v.c_str());
    else if (consume(arg, "cache-policy", v)) o.cache_policy = v;
    else if (consume(arg, "result-cache", v)) o.result_cache = std::atoll(v.c_str());
    else if (consume(arg, "slo-ms", v)) o.slo_ms = std::atof(v.c_str());
    else if (consume(arg, "dataset", v)) o.dataset = v;
    else if (consume(arg, "scale", v)) o.scale = std::atof(v.c_str());
    else if (consume(arg, "skew", v)) o.skew = std::atof(v.c_str());
    else if (consume(arg, "sweep", v)) {
      for (const auto f : parse_fanouts(v)) o.sweep.push_back(static_cast<double>(f));
    } else if (consume(arg, "sweep-cache", v)) {
      o.sweep_cache = parse_doubles(v);
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--check-cache") {
      o.check_cache = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      std::exit(2);
    }
  }
  return o;
}

/// Pre-draw each request's target nodes. Zipf-ish skew concentrates traffic
/// on low-index test nodes (what makes the result cache earn its keep).
std::vector<std::vector<NodeId>> draw_request_nodes(const Dataset& ds,
                                                    const LoadgenOptions& o) {
  std::mt19937_64 rng(42);
  const auto n = static_cast<double>(ds.test_idx.size());
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(o.requests));
  for (auto& nodes : out) {
    nodes.reserve(static_cast<std::size_t>(o.nodes_per_request));
    for (int k = 0; k < o.nodes_per_request; ++k) {
      const double u = uni(rng);
      // skew=0 -> uniform; larger skew biases toward index 0 (u^(1+s) decays
      // faster), a cheap stand-in for Zipf popularity.
      const double biased = o.skew > 0 ? std::pow(u, 1.0 + o.skew) : u;
      const auto idx = std::min(ds.test_idx.size() - 1,
                                static_cast<std::size_t>(biased * n));
      nodes.push_back(ds.test_idx[idx]);
    }
  }
  return out;
}

ServeConfig make_serve_config(const Dataset& ds, const LoadgenOptions& o) {
  ServeConfig sc;
  sc.fanouts = o.fanouts;
  sc.queue_capacity = o.queue_cap;
  sc.batch.max_batch_nodes = o.max_batch;
  sc.batch.max_wait = std::chrono::microseconds(o.max_wait_us);
  sc.num_prep_workers = o.workers;
  sc.result_cache_capacity = o.result_cache;
  sc.slo_us = o.slo_ms * 1000.0;
  if (o.cache_mb > 0) {
    // The cache holds rows in the server's wire dtype, so a megabyte holds
    // 1e6 / wire_row_bytes of them (2F bytes for f16, F + 8 for i8q).
    const auto nodes = static_cast<std::int64_t>(
        o.cache_mb * 1e6 /
        static_cast<double>(
            ops::wire_row_bytes(sc.feature_dtype, ds.feature_dim)));
    sc.feature_cache = std::make_shared<const FeatureCache>(
        ds, std::min<std::int64_t>(nodes, ds.graph.num_nodes()),
        CachePolicyConfig{},
        make_wire_store(ds.features, sc.feature_dtype)->rows);
  } else if (o.cache_pct > 0) {
    // Let the server build its own policy-driven cache (presample warmup
    // seeds from the test split, matching the request population).
    sc.cache_policy = parse_cache_policy(o.cache_policy);
    sc.cache_percentage = o.cache_pct;
  }
  return sc;
}

struct RunResult {
  double offered_qps = 0;   // requested arrival rate (0 = closed loop)
  double achieved_qps = 0;  // completed / wall time
  double wall_s = 0;
  ServeStats stats;
};

RunResult run_once(const Dataset& ds, const std::shared_ptr<nn::GnnModel>& model,
                   const LoadgenOptions& o, double qps) {
  obs::Registry::global().reset();  // fresh histograms per point
  DeviceSim device;
  InferenceServer server(ds, model, device, make_serve_config(ds, o));
  const auto request_nodes = draw_request_nodes(ds, o);

  std::vector<std::future<Response>> futures(request_nodes.size());
  const auto t0 = Clock::now();
  if (qps > 0) {
    // Open loop: fixed-rate arrival schedule, late or not.
    const auto gap = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / qps));
    for (std::size_t i = 0; i < request_nodes.size(); ++i) {
      std::this_thread::sleep_until(t0 + gap * static_cast<std::int64_t>(i));
      futures[i] = server.submit(request_nodes[i]);
    }
  } else {
    // Closed loop: `concurrency` clients, each back-to-back.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> clients;
    const int c = std::max(1, o.concurrency);
    clients.reserve(static_cast<std::size_t>(c));
    for (int w = 0; w < c; ++w) {
      clients.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < request_nodes.size();
             i = next.fetch_add(1)) {
          futures[i] = server.submit(request_nodes[i]);
          futures[i].wait();
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  for (auto& f : futures) f.wait();  // open loop: collect the tail
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  RunResult r;
  r.offered_qps = qps;
  r.wall_s = wall_s;
  r.stats = server.stats();
  r.achieved_qps = wall_s > 0 ? static_cast<double>(r.stats.completed) / wall_s
                              : 0;
  return r;
}

void print_result(const RunResult& r) {
  std::cout << std::fixed << std::setprecision(2);
  if (r.offered_qps > 0) {
    std::cout << "offered=" << r.offered_qps << "qps ";
  } else {
    std::cout << "closed-loop ";
  }
  std::cout << "achieved=" << r.achieved_qps << "qps wall=" << r.wall_s
            << "s " << r.stats.summary() << "\n";
}

/// --check: the clean-run contract the ctest registration enforces.
int check_result(const RunResult& r, int requests) {
  const ServeStats& s = r.stats;
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "CHECK FAILED: " << what << "\n";
      ++failures;
    }
  };
  expect(s.shed == 0, "zero requests shed below the admission bound");
  expect(s.admitted == requests, "every request admitted");
  expect(s.completed == requests, "every admitted request completed");
  expect(s.p50_us > 0, "p50 > 0");
  expect(s.p50_us <= s.p95_us, "p50 <= p95");
  expect(s.p95_us <= s.p99_us, "p95 <= p99");
  expect(s.batches > 0, "at least one micro-batch");
  return failures == 0 ? 0 : 1;
}

/// --sweep-cache: one closed-loop run per (policy, capacity fraction),
/// printing one machine-readable `cache-sweep ...` line each — the hit-rate
/// and latency curves of docs/CACHING.md and EXPERIMENTS.md. With
/// --check-cache it doubles as the ctest gate for the claim behind the
/// policy engine: on a skewed request stream over a power-law graph, static
/// frequency-informed placement (degree, presample) beats dynamic LRU.
int run_cache_sweep(const Dataset& ds,
                    const std::shared_ptr<nn::GnnModel>& model,
                    const LoadgenOptions& o) {
  static const char* kPolicies[] = {"lru", "degree", "presample"};
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "CACHE CHECK FAILED: " << what << "\n";
      ++failures;
    }
  };
  std::cout << "cache-percentage sweep (closed loop):\n";
  for (const double pct : o.sweep_cache) {
    double hit_rate[3] = {0, 0, 0};
    for (int p = 0; p < 3; ++p) {
      LoadgenOptions oc = o;
      oc.cache_mb = 0;
      oc.cache_pct = pct;
      oc.cache_policy = kPolicies[p];
      const RunResult r = run_once(ds, model, oc, /*qps=*/0.0);
      hit_rate[p] = r.stats.feature_cache_hit_rate;
      std::cout << std::fixed << std::setprecision(4)
                << "cache-sweep policy=" << kPolicies[p] << " pct=" << pct
                << " hit_rate=" << r.stats.feature_cache_hit_rate
                << std::setprecision(1) << " p50_us=" << r.stats.p50_us
                << " p95_us=" << r.stats.p95_us
                << " p99_us=" << r.stats.p99_us << std::setprecision(2)
                << " achieved_qps=" << r.achieved_qps
                << " wall_s=" << r.wall_s << "\n";
      if (o.check_cache) {
        expect(r.stats.completed == o.requests,
               std::string(kPolicies[p]) + ": every request completed");
      }
    }
    if (o.check_cache) {
      // Static frequency-informed placement must beat LRU by a real margin
      // (not a tie): the power-law access stream is near-stationary, so
      // recency learns nothing frequency doesn't already know while paying
      // eviction churn on every batch.
      const double margin = 0.02;
      const auto tag = [&](const char* name) {
        std::ostringstream os;
        os << name << " beats lru at pct=" << pct << " (lru=" << hit_rate[0]
           << ")";
        return os.str();
      };
      expect(hit_rate[1] >= hit_rate[0] + margin, tag("degree"));
      expect(hit_rate[2] >= hit_rate[0] + margin, tag("presample"));
      expect(hit_rate[2] > 0, "presample achieves a nonzero hit rate");
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const LoadgenOptions o = parse_options(argc, argv);

  DatasetConfig dc = preset_config(o.dataset, o.scale);
  const Dataset ds = generate_dataset(dc);
  nn::ModelConfig mc;
  mc.in_channels = ds.feature_dim;
  mc.hidden_channels = 32;
  mc.out_channels = ds.num_classes;
  mc.num_layers = static_cast<int>(o.fanouts.size());
  auto model = nn::make_model("sage", mc);  // weights don't matter for load

  std::cout << "serve_loadgen: " << ds.name << " (" << ds.graph.num_nodes()
            << " nodes), " << o.requests << " requests x "
            << o.nodes_per_request << " node(s), fanouts (";
  for (std::size_t i = 0; i < o.fanouts.size(); ++i) {
    std::cout << (i ? "," : "") << o.fanouts[i];
  }
  std::cout << ")\n";

  if (!o.sweep_cache.empty()) {
    return run_cache_sweep(ds, model, o);
  }
  if (!o.sweep.empty()) {
    std::cout << "latency vs offered throughput:\n";
    for (const double qps : o.sweep) {
      print_result(run_once(ds, model, o, qps));
    }
    return 0;
  }
  const RunResult r = run_once(ds, model, o, o.qps);
  print_result(r);
  return o.check ? check_result(r, o.requests) : 0;
}
