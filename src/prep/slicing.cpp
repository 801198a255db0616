#include "prep/slicing.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/kernel_config.h"
#include "tensor/quantize.h"
#include "util/half.h"

namespace salient {

namespace {

/// Elements per row of a 1-D or 2-D tensor.
std::int64_t row_width(const Tensor& t) { return t.dim() == 2 ? t.size(1) : 1; }

void check_slice_args(const Tensor& src, std::span<const NodeId> ids,
                      const Tensor& out) {
  if ((src.dim() != 1 && src.dim() != 2) || out.dim() != src.dim() ||
      out.dtype() != src.dtype() || row_width(out) != row_width(src) ||
      out.size(0) != static_cast<std::int64_t>(ids.size())) {
    throw std::runtime_error("slice_rows: bad destination shape/dtype");
  }
}

/// Validate every id in one pass so the copy loops stay branch-free — the
/// per-iteration throw check used to sit on the pinned-slice hot path (§4.2).
void check_ids(std::span<const NodeId> ids, std::int64_t n, const char* op) {
  const auto lim = static_cast<std::uint64_t>(n);
  std::uint64_t bad = 0;
  for (const NodeId i : ids) {
    bad |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(i) >= lim);
  }
  if (bad) throw std::out_of_range(std::string(op) + ": node id");
}

/// Branch-free row gather; ids must be pre-validated.
void copy_row_range(const Tensor& src, std::span<const NodeId> ids,
                    Tensor& out, std::int64_t begin, std::int64_t end) {
  const std::size_t row_bytes =
      static_cast<std::size_t>(row_width(src)) * dtype_size(src.dtype());
  const char* ps = static_cast<const char*>(src.raw());
  char* pd = static_cast<char*>(out.raw());
  for (std::int64_t k = begin; k < end; ++k) {
    const NodeId i = ids[static_cast<std::size_t>(k)];
    std::memcpy(pd + static_cast<std::size_t>(k) * row_bytes,
                ps + static_cast<std::size_t>(i) * row_bytes, row_bytes);
  }
}

}  // namespace

void slice_rows_serial(const Tensor& src, std::span<const NodeId> ids,
                       Tensor& out) {
  check_slice_args(src, ids, out);
  check_ids(ids, src.size(0), "slice_rows");
  const auto n = static_cast<std::int64_t>(ids.size());
  copy_row_range(src, ids, out, 0, n);
  if (src.has_row_params() && out.has_row_params()) {
    Tensor scale = out.row_scale();
    Tensor zero = out.row_zero();
    copy_row_range(src.row_scale(), ids, scale, 0, n);
    copy_row_range(src.row_zero(), ids, zero, 0, n);
  }
}

void slice_rows_parallel(const Tensor& src, std::span<const NodeId> ids,
                         Tensor& out, ThreadPool& pool) {
  check_slice_args(src, ids, out);
  check_ids(ids, src.size(0), "slice_rows");
  pool.parallel_for(0, static_cast<std::int64_t>(ids.size()),
                    [&](std::int64_t b, std::int64_t e) {
                      copy_row_range(src, ids, out, b, e);
                    });
}

void slice_rows_to_wire(const Tensor& src, std::span<const NodeId> ids,
                        Tensor& out, Tensor& scale, Tensor& zero) {
  const DType from = src.dtype();
  const DType to = out.dtype();
  if (from == to) {
    slice_rows_serial(src, ids, out);  // no conversion: a plain gather
    return;
  }
  const auto n = static_cast<std::int64_t>(ids.size());
  if (src.dim() != 2 || out.dim() != 2 || out.size(1) != src.size(1) ||
      out.size(0) != n) {
    throw std::runtime_error("slice_rows_to_wire: bad destination shape");
  }
  if ((from != DType::kF16 && from != DType::kF32) ||
      (to != DType::kF16 && to != DType::kF32 && to != DType::kInt8Q)) {
    throw std::runtime_error(
        "slice_rows_to_wire: src must be f16/f32 and out f16/f32/i8q");
  }
  if (to == DType::kInt8Q &&
      (!scale.defined() || !zero.defined() || scale.numel() != n ||
       zero.numel() != n || scale.dtype() != DType::kF32 ||
       zero.dtype() != DType::kF32)) {
    throw std::runtime_error(
        "slice_rows_to_wire: i8q needs [n] f32 scale/zero");
  }
  const std::int64_t f = src.size(1);
  if (f == 0) return;
  check_ids(ids, src.size(0), "slice_rows_to_wire");
  const auto cols = static_cast<std::size_t>(f);
  const char* ps = static_cast<const char*>(src.raw());
  char* pd = static_cast<char*>(out.raw());
  const std::size_t src_row = cols * dtype_size(from);
  const std::size_t out_row = cols * dtype_size(to);
  float* pscale = to == DType::kInt8Q ? scale.data<float>() : nullptr;
  float* pzero = to == DType::kInt8Q ? zero.data<float>() : nullptr;
  ops::parallel_for_n(
      n, n * f,
      [&](std::int64_t begin, std::int64_t end) {
        std::vector<float> stage(from == DType::kF16 ? cols : 0);
        for (std::int64_t k = begin; k < end; ++k) {
          const char* row =
              ps + static_cast<std::size_t>(ids[static_cast<std::size_t>(k)]) *
                       src_row;
          char* dst = pd + static_cast<std::size_t>(k) * out_row;
          if (to == DType::kF32) {
            half_to_float_n(reinterpret_cast<const Half*>(row),
                            reinterpret_cast<float*>(dst), cols);
          } else if (to == DType::kF16) {
            float_to_half_n(reinterpret_cast<const float*>(row),
                            reinterpret_cast<Half*>(dst), cols);
          } else {
            const float* values = reinterpret_cast<const float*>(row);
            if (from == DType::kF16) {
              half_to_float_n(reinterpret_cast<const Half*>(row),
                              stage.data(), cols);
              values = stage.data();
            }
            ops::quantize_row(values, f, reinterpret_cast<std::int8_t*>(dst),
                              pscale + k, pzero + k);
          }
        }
      },
      ops::GrainClass::kMemoryBound);
}

void slice_labels(const Tensor& labels, std::span<const NodeId> ids,
                  Tensor& out) {
  if (labels.dim() != 1 || labels.dtype() != DType::kI64 || out.dim() != 1 ||
      out.dtype() != DType::kI64 ||
      out.size(0) != static_cast<std::int64_t>(ids.size())) {
    throw std::runtime_error("slice_labels: bad arguments");
  }
  check_ids(ids, labels.size(0), "slice_labels");
  const std::int64_t* ps = labels.data<std::int64_t>();
  std::int64_t* pd = out.data<std::int64_t>();
  const auto n = static_cast<std::int64_t>(ids.size());
  // Large batches gather in parallel; the shared kernel grain keeps typical
  // serve-path batches serial.
  ops::parallel_for_n(n, n, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t k = b; k < e; ++k) {
      pd[k] = ps[ids[static_cast<std::size_t>(k)]];
    }
  });
}

}  // namespace salient
