// Feature/label tensor slicing (paper §3.2, §4.2).
//
// Slicing extracts the feature rows of every node in the sampled MFG and the
// label entries of the mini-batch nodes. Two strategies are provided:
//   * slice_rows_parallel — the PyTorch-style path: one slice parallelized
//     across OpenMP-like threads (the shared pool). Used by the baseline
//     loader in the main process.
//   * slice_rows_serial — SALIENT's path: a serial copy, because each batch
//     preparation thread slices its own batch end-to-end ("By using a serial
//     tensor-slicing code ... SALIENT improves cache locality and avoids
//     contention between threads").
// Both write into a caller-provided destination so SALIENT can target pinned
// staging memory directly. They gather from the wire store (prep/batch.h),
// whose rows slice_rows_to_wire converted to the wire dtype once, at set-up.
#pragma once

#include <span>

#include "graph/csr.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace salient {

/// out[k,:] = src[ids[k],:]. `out` must be preallocated [ids.size(), F] with
/// src's dtype (or [ids.size()] for a 1-D src, such as the per-row sidecars
/// of the int8 wire). Works for any dtype (bytewise row copies).
void slice_rows_serial(const Tensor& src, std::span<const NodeId> ids,
                       Tensor& out);

/// Same, parallelized over `pool` (rows split into contiguous chunks).
void slice_rows_parallel(const Tensor& src, std::span<const NodeId> ids,
                         Tensor& out, ThreadPool& pool);

/// out[k] = labels[ids[k]] for 1-D i64 labels.
void slice_labels(const Tensor& labels, std::span<const NodeId> ids,
                  Tensor& out);

/// The feature path's one wire conversion: out[k,:] = src[ids[k],:] in
/// out's dtype. `src` is f16 or f32 and `out` [ids.size(), F] in
///   * src's dtype: a bytewise row copy;
///   * f16 or f32 across: the bulk converters (util/half.h);
///   * kInt8Q: per-row affine int8 (tensor/quantize.h), each row's scale and
///     zero-point written to `scale`/`zero` ([ids.size()] f32; unused for
///     the other dtypes).
/// Above the memory-bound grain the rows are split across the kernel pool;
/// each row is a pure function of its source row, so the bytes do not
/// depend on the split. Both the wire store's build (make_wire_store) and
/// stage_feature_rows run it.
void slice_rows_to_wire(const Tensor& src, std::span<const NodeId> ids,
                        Tensor& out, Tensor& scale, Tensor& zero);

}  // namespace salient
