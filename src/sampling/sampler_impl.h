// The parameterized MFG sampling algorithm (paper §4.1).
//
// This is the single implementation behind the baseline sampler, the fast
// sampler, and the 96-variant design-space exploration of Figure 2. The
// template parameters are the design choices the paper identifies as most
// impactful:
//   IdMap   — global->local node ID mapping (std vs flat hash map);
//   SetPol  — sampling-without-replacement set structure;
//   Fused   — fuse sampling with MFG construction (relabel inline) vs the
//             PyG-style two-phase sample-then-relabel;
//   Reserve — pre-size containers from the fanout bound (capped by the
//             graph) vs grow organically;
//   Rng     — random generator type.
//
// Semantics follow PyG's NeighborSampler.sample_adj chain: the hop-h
// destination set is the *entire* hop-(h-1) source set, local IDs are global
// within the MFG (dedup across hops), and each level's destinations are a
// prefix of its sources.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"
#include "sampling/id_map.h"
#include "sampling/mfg.h"
#include "sampling/sample_set.h"

namespace salient {

/// Sample one hop: expand `locals[0..num_dst)` with `fanout` neighbors each,
/// relabeling through `map` / `locals`, producing a destination-major CSR
/// level. Exposed separately so the Figure 2 microbenchmark can time
/// individual hops of a fixed reference trace.
template <class IdMap, class SetPol, bool Fused, bool Reserve, class Rng>
MfgLevel sample_one_hop(const CsrGraph& g, IdMap& map,
                        std::vector<NodeId>& locals, std::int64_t num_dst,
                        std::int64_t fanout, Rng& rng) {
  auto indptr = std::make_shared<std::vector<std::int64_t>>();
  auto indices = std::make_shared<std::vector<std::int64_t>>();
  indptr->reserve(static_cast<std::size_t>(num_dst) + 1);
  indptr->push_back(0);

  if constexpr (Reserve) {
    // Bounded by the graph as well as by the fanout, which comes from the
    // command line: a hop picks at most |E| edges (num_dst * fanout is only
    // formed when it cannot exceed |E|, so it cannot overflow), and the
    // frontier holds at most |V| nodes.
    const std::int64_t edges = g.num_edges();
    const std::int64_t picks =
        fanout <= 0 ? 0 : (num_dst > edges / fanout ? edges : num_dst * fanout);
    const std::size_t frontier =
        std::min(static_cast<std::size_t>(g.num_nodes()),
                 locals.size() + static_cast<std::size_t>(picks));
    indices->reserve(static_cast<std::size_t>(picks));
    locals.reserve(frontier);
    map.reserve(frontier);
  }

  thread_local std::vector<NodeId> sampled;

  if constexpr (Fused) {
    // One pass: relabel each sampled neighbor as it is drawn.
    for (std::int64_t i = 0; i < num_dst; ++i) {
      const NodeId v = locals[static_cast<std::size_t>(i)];
      sampled.clear();
      SetPol::sample(g.neighbors(v), fanout, rng, sampled);
      for (const NodeId u : sampled) {
        indices->push_back(map.get_or_insert(u, locals));
      }
      indptr->push_back(static_cast<std::int64_t>(indices->size()));
    }
  } else {
    // Two phases, PyG style: collect global neighbor IDs for the whole hop,
    // then relabel in a second pass.
    thread_local std::vector<NodeId> hop_globals;
    hop_globals.clear();
    for (std::int64_t i = 0; i < num_dst; ++i) {
      const NodeId v = locals[static_cast<std::size_t>(i)];
      sampled.clear();
      SetPol::sample(g.neighbors(v), fanout, rng, sampled);
      hop_globals.insert(hop_globals.end(), sampled.begin(), sampled.end());
      indptr->push_back(static_cast<std::int64_t>(hop_globals.size()));
    }
    indices->reserve(hop_globals.size());
    for (const NodeId u : hop_globals) {
      indices->push_back(map.get_or_insert(u, locals));
    }
  }

  MfgLevel level;
  level.num_dst = num_dst;
  level.num_src = static_cast<std::int64_t>(locals.size());
  level.indptr = std::move(indptr);
  level.indices = std::move(indices);
  return level;
}

/// Sample a complete MFG for `batch` with per-hop `fanouts`.
template <class IdMap, class SetPol, bool Fused, bool Reserve, class Rng>
Mfg sample_mfg(const CsrGraph& g, std::span<const NodeId> batch,
               std::span<const std::int64_t> fanouts, Rng& rng) {
  IdMap map;
  std::vector<NodeId> locals;
  locals.reserve(batch.size());
  if constexpr (Reserve) {
    map.reserve(batch.size());
  }
  for (const NodeId b : batch) {
    map.get_or_insert(b, locals);
  }

  std::vector<MfgLevel> levels_rev;
  levels_rev.reserve(fanouts.size());
  for (const std::int64_t d : fanouts) {
    const auto num_dst = static_cast<std::int64_t>(locals.size());
    levels_rev.push_back(sample_one_hop<IdMap, SetPol, Fused, Reserve, Rng>(
        g, map, locals, num_dst, d, rng));
  }

  Mfg mfg;
  mfg.levels.assign(levels_rev.rbegin(), levels_rev.rend());
  mfg.n_ids = std::move(locals);
  mfg.batch_size = static_cast<std::int64_t>(batch.size());
  return mfg;
}

}  // namespace salient
