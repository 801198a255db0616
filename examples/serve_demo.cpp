// Online inference serving demo (docs/SERVING.md): train a GraphSAGE model,
// then stand up the InferenceServer and stream skewed open-loop traffic at
// it — the serving analogue of the quickstart. Shows admission control,
// micro-batching, the result/feature caches, and the p50/p95/p99 SLO report,
// then a mid-flight model update invalidating the result cache.
//
//   ./serve_demo [--qps=200] [--slo-ms=50] [--max-batch=256] [--cache-mb=2]
//                [--cache-pct=0.05] [--cache-policy=presample] [--seconds=3]
//                [--trace-out=<path>] [--metrics-out=<path>]
// --cache-pct + --cache-policy let the server build its own policy-driven
// feature cache (docs/CACHING.md) instead of the --cache-mb degree cache.
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "serve/server.h"

int main(int argc, char** argv) {
  using namespace salient;
  using Clock = std::chrono::steady_clock;

  double qps = 200, slo_ms = 50, cache_mb = 2, seconds = 3, cache_pct = 0;
  std::string cache_policy = "degree";
  std::int64_t max_batch = 256;
  SystemConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto num = [&](const char* key) -> const char* {
      const std::string prefix = std::string("--") + key + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (parse_obs_flag(arg, cfg)) continue;
    if (const char* v = num("qps")) qps = std::atof(v);
    else if (const char* v = num("slo-ms")) slo_ms = std::atof(v);
    else if (const char* v = num("max-batch")) max_batch = std::atoll(v);
    else if (const char* v = num("cache-mb")) cache_mb = std::atof(v);
    else if (const char* v = num("cache-pct")) cache_pct = std::atof(v);
    else if (const char* v = num("cache-policy")) cache_policy = v;
    else if (const char* v = num("seconds")) seconds = std::atof(v);
    else { std::cerr << "unknown flag: " << arg << "\n"; return 2; }
  }

  // A small trained model: predictions should mean something.
  cfg.dataset = "products-sim";
  cfg.dataset_scale = 0.05;
  cfg.hidden_channels = 32;
  cfg.num_layers = 2;
  cfg.train_fanouts = {15, 10};
  cfg.infer_fanouts = {20, 20};
  cfg.batch_size = 512;
  System sys(cfg);
  std::cout << "training on " << sys.dataset().name << " ("
            << sys.dataset().graph.num_nodes() << " nodes)...\n";
  sys.train(2);
  const Dataset& ds = sys.dataset();

  serve::ServeConfig sc;
  sc.fanouts = {10, 10};
  sc.batch.max_batch_nodes = max_batch;
  sc.slo_us = slo_ms * 1000.0;
  sc.result_cache_capacity = 4096;
  if (cache_pct > 0) {
    // Policy-driven cache built by the server itself (presample warmup
    // samples the test split, matching the traffic below).
    sc.cache_policy = parse_cache_policy(cache_policy);
    sc.cache_percentage = cache_pct;
  } else if (cache_mb > 0) {
    const auto cache_nodes = std::min<std::int64_t>(
        static_cast<std::int64_t>(cache_mb * 1e6 /
                                  (static_cast<double>(ds.feature_dim) * 4.0)),
        ds.graph.num_nodes());
    sc.feature_cache = std::make_shared<const FeatureCache>(ds, cache_nodes);
    std::cout << "feature cache: " << cache_nodes << " hottest nodes ("
              << cache_mb << " MB)\n";
  }
  serve::InferenceServer server(ds, sys.model(), sys.device(), sc);
  if (const auto& cache = server.config().feature_cache; cache && cache_pct > 0) {
    std::cout << "feature cache: " << cache->capacity() << " nodes, policy "
              << cache->policy_name() << "\n";
  }

  // Open-loop traffic with Zipf-ish popularity: a few nodes are requested
  // over and over (what the result cache exploits).
  const auto total = static_cast<std::size_t>(qps * seconds);
  std::cout << "offering " << qps << " qps for " << seconds << "s (" << total
            << " requests, SLO " << slo_ms << "ms)...\n";
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(total);
  const auto t0 = Clock::now();
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  for (std::size_t i = 0; i < total; ++i) {
    std::this_thread::sleep_until(t0 + gap * static_cast<std::int64_t>(i));
    const double u = std::pow(uni(rng), 3.0);  // skew toward index 0
    const auto idx = std::min(ds.test_idx.size() - 1,
                              static_cast<std::size_t>(
                                  u * static_cast<double>(ds.test_idx.size())));
    futures.push_back(server.submit({ds.test_idx[idx]}));
  }
  std::size_t ok = 0, shed = 0;
  for (auto& f : futures) {
    (f.get().status == serve::RequestStatus::kOk ? ok : shed)++;
  }
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  auto stats = server.stats();
  std::cout << std::fixed << std::setprecision(2)
            << "\nserved " << ok << " requests (" << shed << " shed) in "
            << wall << "s => " << static_cast<double>(ok) / wall << " qps\n"
            << stats.summary() << "\n"
            << "SLO attainment: "
            << 100.0 * static_cast<double>(stats.slo_ok) /
                   static_cast<double>(stats.slo_ok + stats.slo_miss)
            << "%\n";

  // A model update mid-flight: cached predictions are invalidated lazily;
  // the next request for a hot node recomputes under the new generation.
  std::cout << "\ntraining one more epoch, then invalidating the result "
               "cache...\n";
  sys.train(1);
  const auto gen = server.notify_model_updated();
  const auto r = server.predict({ds.test_idx[0]});
  std::cout << "post-update prediction for hottest node: class "
            << r.predictions[0] << " (model generation " << gen
            << ", served from " << (r.nodes_from_cache ? "cache" : "compute")
            << ")\n";
  return 0;
}
