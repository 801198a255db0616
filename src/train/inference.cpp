#include "train/inference.h"

#include <cstring>
#include <stdexcept>

#include "prep/slicing.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace salient {

InferenceResult evaluate_sampled(nn::GnnModel& model, const Dataset& dataset,
                                 std::span<const NodeId> nodes,
                                 std::span<const std::int64_t> fanouts,
                                 std::int64_t batch_size, std::uint64_t seed) {
  // The store's dtype on the wire: the rows reach the model unrounded, and
  // the wire store is the features themselves.
  LoaderConfig loader;
  loader.batch_size = batch_size;
  loader.fanouts.assign(fanouts.begin(), fanouts.end());
  loader.seed = seed;
  loader.feature_dtype = dataset.features.dtype();
  DeviceSim device;
  return sampled_inference(
      model, dataset, nodes, std::move(loader), device, /*pool=*/nullptr,
      /*cache=*/nullptr,
      make_wire_store(dataset.features, dataset.features.dtype()),
      TrainConfig{}.pipeline_depth);
}

InferenceResult evaluate_layerwise(nn::GnnModel& model, const Dataset& dataset,
                                   std::span<const NodeId> nodes,
                                   std::int64_t chunk_size) {
  if (!model.supports_layerwise()) {
    throw std::invalid_argument(
        "evaluate_layerwise: model does not support layer-wise inference");
  }
  model.train(false);
  const CsrGraph& g = dataset.graph;
  const std::int64_t n = g.num_nodes();

  // h holds the current layer's representation for every node (host memory).
  Tensor h = dataset.features.to(DType::kF32);

  for (int layer = 0; layer < model.num_layers(); ++layer) {
    Tensor next;  // allocated after the first chunk reveals the output width
    for (std::int64_t begin = 0; begin < n; begin += chunk_size) {
      const std::int64_t end = std::min(n, begin + chunk_size);
      const std::int64_t dst_count = end - begin;
      // Build a full-neighborhood bipartite level for this chunk:
      // sources = [chunk nodes..., their neighbors...] (global IDs relabeled
      // chunk-locally; the prefix property holds by construction).
      std::vector<NodeId> src_ids;
      src_ids.reserve(static_cast<std::size_t>(dst_count) * 8);
      for (std::int64_t v = begin; v < end; ++v) src_ids.push_back(v);
      auto indptr = std::make_shared<std::vector<std::int64_t>>();
      auto indices = std::make_shared<std::vector<std::int64_t>>();
      indptr->reserve(static_cast<std::size_t>(dst_count) + 1);
      indptr->push_back(0);
      // Local relabeling: chunk nodes take [0, dst_count); neighbors append.
      // A per-chunk hash map would dedup across destinations; a simple
      // append suffices for correctness and keeps this path simple.
      for (std::int64_t v = begin; v < end; ++v) {
        for (const NodeId u : g.neighbors(v)) {
          if (u >= begin && u < end) {
            indices->push_back(u - begin);
          } else {
            indices->push_back(static_cast<std::int64_t>(src_ids.size()));
            src_ids.push_back(u);
          }
        }
        indptr->push_back(static_cast<std::int64_t>(indices->size()));
      }
      MfgLevel level;
      level.num_dst = dst_count;
      level.num_src = static_cast<std::int64_t>(src_ids.size());
      level.indptr = std::move(indptr);
      level.indices = std::move(indices);

      // Gather the source representations from the full h matrix.
      Tensor x_src({level.num_src, h.size(1)}, DType::kF32);
      slice_rows_serial(h, src_ids, x_src);
      Variable out = model.apply_layer(layer, Variable(x_src), level);
      if (!next.defined()) {
        next = Tensor({n, out.data().size(1)}, DType::kF32);
      }
      Tensor dst_view = next.narrow_rows(begin, dst_count);
      std::memcpy(dst_view.raw(), out.data().raw(), out.data().nbytes());
    }
    h = std::move(next);
  }

  InferenceResult result;
  result.predictions.reserve(nodes.size());
  std::int64_t hits = 0;
  const std::int64_t* labels = dataset.labels.data<std::int64_t>();
  // Finalize on the queried nodes only.
  std::vector<NodeId> ids(nodes.begin(), nodes.end());
  Tensor h_query({static_cast<std::int64_t>(ids.size()), h.size(1)},
                 DType::kF32);
  slice_rows_serial(h, ids, h_query);
  Variable logp = model.finalize(Variable(h_query));
  Tensor pred = ops::argmax_rows(logp.data());
  const std::int64_t* pp = pred.data<std::int64_t>();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    result.predictions.push_back(pp[i]);
    hits += (pp[i] == labels[ids[i]]);
  }
  result.accuracy =
      ids.empty() ? 0 : static_cast<double>(hits) / static_cast<double>(ids.size());
  return result;
}

std::size_t layerwise_memory_bytes(const nn::GnnModel& model,
                                   const Dataset& dataset,
                                   std::int64_t hidden_channels) {
  // One [N, hidden] f32 matrix per retained layer; models without dense
  // connections keep two (current + next), dense ones keep all L.
  const auto per_layer = static_cast<std::size_t>(dataset.graph.num_nodes()) *
                         static_cast<std::size_t>(hidden_channels) * 4;
  const auto layers = model.supports_layerwise()
                          ? 2u
                          : static_cast<unsigned>(model.num_layers()) + 1u;
  return per_layer * layers;
}

}  // namespace salient
