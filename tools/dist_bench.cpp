// Cluster-communication benchmark (docs/DISTRIBUTED.md, EXPERIMENTS.md).
//
// Sweeps the simulated training cluster (src/dist/cluster/) over node counts
// x remote-cache capacities x placement policies x pipeline depths on a
// degree-skewed synthetic graph, and reports per configuration the modelled
// network time, the simulated epoch time, the remote feature bytes crossing
// the interconnect, and the replication-cache hit rate. This is the
// experiment behind the SALIENT++ claims the subsystem reproduces:
// cross-node feature traffic falls as the replication cache grows,
// frequency-informed placement (presample, degree) outperforms recency
// (LRU), and pipelining the remaining fetches behind training compute
// (overlap on, depth >= 1) cuts simulated epoch time below the empty
// prefetch window (overlap off, depth 0) without perturbing a single loss
// bit.
//
//   ./dist_bench [flags]
//     --preset=skewed|uniform  degree skew of the synthetic graph  [skewed]
//     --graph-nodes=<n>        synthetic vertex count              [4000]
//     --nodes=a,b,...          cluster node counts                 [2,4]
//     --cache-pct=p1,p2,...    per-node cache fractions of |V|
//                                                          [0,0.02,0.05,0.1]
//     --policies=a,b,...       lru|degree|presample  [degree,presample,lru]
//     --depths=a,b,...         pipeline depths; 0 = no prefetch     [0,2]
//     --epochs=<n>             training epochs per configuration   [1]
//     --emit=<path>            write machine-readable BENCH_dist.json
//     --check                  exit nonzero unless the gate holds (see below)
//     --smoke                  small sweep for ctest: 2000-vertex graph,
//                              2-node cluster, fractions 0,0.05
//
// The --check gate enforces, per (node count, policy, depth) curve over
// ascending capacities: (a) static placements (degree, presample) move
// monotonically non-increasing remote feature bytes as the cache grows;
// (b) at every nonzero swept capacity the frequency-informed placements
// match-or-beat LRU's remote hit rate; (c) a zero-capacity cache serves no
// hits; and losses are identical across policies and capacities at a fixed
// node count — replication is a pure communication optimization and must
// never change the training trajectory. Across depths at every (nodes,
// policy, capacity) point it additionally enforces (d) the overlap gate:
// identical losses and remote bytes bit for bit, pipelined simulated epoch
// time <= depth 0's, and strictly below it whenever there is remote traffic
// to hide.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "dist/cluster/cluster_trainer.h"
#include "graph/dataset.h"
#include "prep/cache_policy.h"

namespace {

using namespace salient;

struct DistBenchOptions {
  std::string preset = "skewed";
  std::int64_t graph_nodes = 4000;
  std::vector<std::int64_t> nodes{2, 4};
  std::vector<double> cache_pcts{0.0, 0.02, 0.05, 0.1};
  std::vector<std::string> policies{"degree", "presample", "lru"};
  std::vector<std::int64_t> depths{0, 2};  // overlap off, overlap on
  int epochs = 1;
  std::string emit_path;
  bool check = false;
  bool smoke = false;
};

struct DistResult {
  int nodes = 0;
  std::string policy;
  double cache_pct = 0;
  int pipeline_depth = 0;
  std::int64_t capacity_rows = 0;
  double mean_loss = 0;
  double wall_seconds = 0;
  double sim_net_seconds = 0;
  double sim_epoch_seconds = 0;
  double overlap_saved_seconds = 0;
  std::int64_t remote_rows_fetched = 0;
  std::size_t remote_feature_bytes = 0;
  std::size_t wire_bytes = 0;
  std::int64_t net_messages = 0;
  double remote_hit_rate = 0;
};

std::vector<std::string> parse_names(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
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

DistBenchOptions parse_options(int argc, char** argv) {
  DistBenchOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (consume(arg, "preset", v)) o.preset = v;
    else if (consume(arg, "graph-nodes", v)) o.graph_nodes = std::atoll(v.c_str());
    else if (consume(arg, "nodes", v)) o.nodes = parse_int_list(v);
    else if (consume(arg, "cache-pct", v)) o.cache_pcts = parse_double_list(v);
    else if (consume(arg, "policies", v)) o.policies = parse_names(v);
    else if (consume(arg, "depths", v)) o.depths = parse_nonneg_int_list(v);
    else if (consume(arg, "epochs", v)) o.epochs = std::atoi(v.c_str());
    else if (consume(arg, "emit", v)) o.emit_path = v;
    else if (arg == "--check") o.check = true;
    else if (arg == "--smoke") o.smoke = true;
    else {
      std::cerr << "dist_bench: unknown flag " << arg << "\n";
      std::exit(2);
    }
  }
  if (o.smoke) {
    o.graph_nodes = 2000;
    o.nodes = {2};
    o.cache_pcts = {0.0, 0.05};
  }
  // Ascending capacities so the monotone-traffic check reads each curve in
  // sweep order; ascending depths so depth 0 (the no-overlap baseline) is
  // the first row of every on/off pair.
  std::sort(o.cache_pcts.begin(), o.cache_pcts.end());
  std::sort(o.depths.begin(), o.depths.end());
  if (o.epochs < 1) {
    std::cerr << "dist_bench: --epochs must be >= 1\n";
    std::exit(2);
  }
  return o;
}

Dataset make_bench_dataset(const DistBenchOptions& o) {
  DatasetConfig c;
  c.name = "dist-bench-" + o.preset;
  c.num_nodes = o.graph_nodes;
  c.feature_dim = 16;
  c.num_classes = 5;
  c.avg_degree = 9;
  // The skewed preset concentrates degree mass on few vertices so that hot
  // remote features exist for the replication cache to capture; the uniform
  // preset flattens the degree distribution as a caching-hostile control.
  c.powerlaw_exponent = o.preset == "uniform" ? 3.5 : 1.9;
  c.p_in = 0.85;
  c.feature_signal = 0.4;
  c.feature_noise = 0.8;
  c.seed = 77;
  return generate_dataset(c);
}

dist::ClusterConfig make_cluster_config(const Dataset& ds, int nodes,
                                        const std::string& policy,
                                        double cache_pct, int depth) {
  dist::ClusterConfig cc;
  cc.partition.num_nodes = nodes;
  cc.partition.strategy = dist::PartitionStrategy::kGreedy;
  cc.partition.seed = 5;
  cc.cache.policy = parse_cache_policy(policy);
  cc.cache.cache_percentage = cache_pct;
  cc.cache.presample_epochs = 1;
  cc.pipeline_depth = depth;
  cc.model.in_channels = ds.feature_dim;
  cc.model.hidden_channels = 32;
  cc.model.out_channels = ds.num_classes;
  cc.model.num_layers = 2;
  cc.model.seed = 9;
  cc.fanouts = {6, 4};
  cc.batch_size = 256;
  cc.seed = 21;
  cc.lr = 5e-3;
  return cc;
}

DistResult run_config(const Dataset& ds, int nodes, const std::string& policy,
                      double cache_pct, int depth, int epochs) {
  dist::ClusterTrainer trainer(
      ds, make_cluster_config(ds, nodes, policy, cache_pct, depth));
  DistResult r;
  r.nodes = nodes;
  r.policy = policy;
  r.cache_pct = cache_pct;
  r.pipeline_depth = depth;
  r.capacity_rows = nodes > 0 ? trainer.remote_cache(0).cache().capacity() : 0;
  for (int e = 0; e < epochs; ++e) {
    // The last epoch is the steady-state one reported: static placements are
    // capacity-identical every epoch, while LRU gets its warmed best case.
    const dist::ClusterEpochResult epoch = trainer.train_epoch(e);
    r.mean_loss = epoch.mean_loss;
    r.wall_seconds = epoch.wall_seconds;
    r.sim_net_seconds = epoch.sim_net_seconds;
    r.sim_epoch_seconds = epoch.sim_epoch_seconds;
    r.overlap_saved_seconds = epoch.overlap_saved_seconds;
    r.remote_rows_fetched = epoch.remote_rows_fetched;
    r.remote_feature_bytes = epoch.remote_feature_bytes;
    r.wire_bytes = epoch.wire_bytes;
    r.net_messages = epoch.net_messages;
    r.remote_hit_rate = epoch.remote_hit_rate();
  }
  return r;
}

void print_result(const DistResult& r) {
  std::cout << "  nodes " << r.nodes << "  policy " << std::setw(9)
            << std::left << r.policy << std::right << "  cache "
            << std::fixed << std::setprecision(2) << r.cache_pct * 100
            << "% (" << r.capacity_rows << " rows)"
            << "  overlap " << (r.pipeline_depth > 0 ? "on " : "off")
            << " (d=" << r.pipeline_depth << ")"
            << "  remote " << r.remote_feature_bytes << " B"
            << "  hit " << std::setprecision(3) << r.remote_hit_rate
            << "  epoch " << std::setprecision(4) << r.sim_epoch_seconds
            << " s"
            << "  loss " << std::setprecision(6) << r.mean_loss << "\n";
  std::cout.unsetf(std::ios::fixed);
}

int emit(const std::vector<DistResult>& rs, const DistBenchOptions& o) {
  std::ofstream os(o.emit_path);
  if (!os) {
    std::cerr << "dist_bench: cannot write " << o.emit_path << "\n";
    return 1;
  }
  os << "{\n";
  os << "  \"schema\": \"salient-bench-dist-v2\",\n";
  os << "  \"preset\": \"" << o.preset << "\",\n";
  os << "  \"graph_nodes\": " << o.graph_nodes << ",\n";
  os << "  \"epochs\": " << o.epochs << ",\n";
  os << "  \"entries\": [\n";
  os << std::setprecision(6);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const DistResult& r = rs[i];
    os << "    {\"nodes\": " << r.nodes << ", \"policy\": \"" << r.policy
       << "\", \"cache_pct\": " << r.cache_pct
       << ", \"pipeline_depth\": " << r.pipeline_depth
       << ", \"capacity_rows\": " << r.capacity_rows
       << ", \"mean_loss\": " << r.mean_loss
       << ", \"sim_net_seconds\": " << r.sim_net_seconds
       << ", \"sim_epoch_seconds\": " << r.sim_epoch_seconds
       << ", \"overlap_saved_seconds\": " << r.overlap_saved_seconds
       << ", \"remote_rows_fetched\": " << r.remote_rows_fetched
       << ", \"remote_feature_bytes\": " << r.remote_feature_bytes
       << ", \"wire_bytes\": " << r.wire_bytes
       << ", \"net_messages\": " << r.net_messages
       << ", \"remote_hit_rate\": " << r.remote_hit_rate << "}"
       << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cout << "dist_bench: wrote " << o.emit_path << " (" << rs.size()
            << " entries)\n";
  return 0;
}

int check_gate(const std::vector<DistResult>& rs) {
  int failures = 0;
  const auto fail = [&failures](const std::string& what) {
    std::cerr << "dist_bench: CHECK FAILED — " << what << "\n";
    ++failures;
  };

  // Index results by (nodes, policy, depth) curve in sweep (ascending-pct)
  // order — the capacity checks hold at every depth.
  std::map<std::tuple<int, std::string, int>, std::vector<DistResult>> curves;
  for (const DistResult& r : rs) {
    curves[{r.nodes, r.policy, r.pipeline_depth}].push_back(r);
  }

  for (const auto& [key, curve] : curves) {
    const auto& [nodes, policy, depth] = key;
    if (nodes <= 1) continue;  // no remote traffic to optimize
    std::ostringstream tag;
    tag << nodes << "-node " << policy << " depth " << depth;
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const DistResult& r = curve[i];
      if (r.cache_pct == 0.0 && r.remote_hit_rate != 0.0) {
        fail(tag.str() + ": zero-capacity cache reported hits");
      }
      // (a) static placements: remote bytes never grow with capacity.
      if (policy != "lru" && i > 0 &&
          r.remote_feature_bytes > curve[i - 1].remote_feature_bytes) {
        std::ostringstream msg;
        msg << tag.str() << ": remote bytes rose " << std::setprecision(3)
            << curve[i - 1].remote_feature_bytes << " -> "
            << r.remote_feature_bytes << " as cache grew to "
            << r.cache_pct * 100 << "%";
        fail(msg.str());
      }
      // Replication must not change what is trained, only what is moved.
      if (r.mean_loss != curve[0].mean_loss) {
        fail(tag.str() + ": mean loss changed across cache capacities");
      }
    }
  }

  // (b) frequency-informed placement matches-or-beats LRU at every nonzero
  // swept capacity (the SALIENT++ comparison; docs/CACHING.md).
  for (const auto& [key, curve] : curves) {
    const auto& [nodes, policy, depth] = key;
    if (nodes <= 1 || policy == "lru") continue;
    const auto lru = curves.find({nodes, std::string("lru"), depth});
    if (lru == curves.end()) continue;
    for (const DistResult& r : curve) {
      if (r.cache_pct == 0.0) continue;
      for (const DistResult& l : lru->second) {
        if (l.cache_pct != r.cache_pct) continue;
        if (r.remote_hit_rate < l.remote_hit_rate) {
          std::ostringstream msg;
          msg << nodes << "-node " << policy << " hit rate "
              << std::setprecision(3) << r.remote_hit_rate
              << " below lru " << l.remote_hit_rate << " at cache "
              << r.cache_pct * 100 << "%";
          fail(msg.str());
        }
      }
    }
  }

  // (d) the overlap gate: at every (nodes, policy, capacity) point a
  // pipelined run reproduces the depth-0 losses and remote bytes bit for
  // bit, and its simulated epoch is never slower — strictly faster
  // whenever there is remote traffic to hide behind compute.
  std::map<std::tuple<int, std::string, double>, const DistResult*> depth0;
  for (const DistResult& r : rs) {
    if (r.pipeline_depth == 0) depth0[{r.nodes, r.policy, r.cache_pct}] = &r;
  }
  for (const DistResult& r : rs) {
    if (r.pipeline_depth == 0) continue;
    const auto it = depth0.find({r.nodes, r.policy, r.cache_pct});
    if (it == depth0.end()) continue;  // no depth-0 row swept to compare to
    const DistResult& b = *it->second;
    std::ostringstream tag;
    tag << r.nodes << "-node " << r.policy << " cache " << r.cache_pct * 100
        << "% depth " << r.pipeline_depth;
    if (r.mean_loss != b.mean_loss) {
      fail(tag.str() + ": pipelined loss diverged from depth 0");
    }
    if (r.remote_feature_bytes != b.remote_feature_bytes) {
      fail(tag.str() + ": pipelined remote bytes diverged from depth 0");
    }
    if (r.sim_epoch_seconds > b.sim_epoch_seconds) {
      std::ostringstream msg;
      msg << tag.str() << ": pipelined sim epoch "
          << std::setprecision(4) << r.sim_epoch_seconds
          << " s exceeds depth 0's " << b.sim_epoch_seconds << " s";
      fail(msg.str());
    }
    if (r.nodes > 1 && r.remote_feature_bytes > 0 &&
        r.sim_epoch_seconds >= b.sim_epoch_seconds) {
      std::ostringstream msg;
      msg << tag.str() << ": overlap hid nothing (pipelined "
          << std::setprecision(4) << r.sim_epoch_seconds << " s, depth 0 "
          << b.sim_epoch_seconds << " s)";
      fail(msg.str());
    }
  }

  if (failures > 0) {
    std::cerr << "dist_bench: " << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "dist_bench: OK — remote traffic monotone under growing "
               "replication; frequency-informed placement >= lru at every "
               "swept capacity; pipelined epochs <= depth 0 with "
               "bitwise-equal losses at every point\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const DistBenchOptions o = parse_options(argc, argv);
  const Dataset ds = make_bench_dataset(o);
  std::cout << "dist_bench: " << o.preset << " graph, |V|=" << ds.graph.num_nodes()
            << ", sweep " << o.nodes.size() << " node-counts x "
            << o.policies.size() << " policies x " << o.cache_pcts.size()
            << " capacities x " << o.depths.size() << " depths, "
            << o.epochs << " epoch(s) each\n";

  std::vector<DistResult> results;
  for (const std::int64_t n : o.nodes) {
    for (const std::string& policy : o.policies) {
      for (const double pct : o.cache_pcts) {
        // Depths innermost: each config's overlap off/on rows print as an
        // adjacent pair.
        for (const std::int64_t depth : o.depths) {
          results.push_back(run_config(ds, static_cast<int>(n), policy, pct,
                                       static_cast<int>(depth), o.epochs));
          print_result(results.back());
        }
      }
    }
  }

  int rc = 0;
  if (!o.emit_path.empty()) rc |= emit(results, o);
  if (o.check) rc |= check_gate(results);
  return rc;
}
