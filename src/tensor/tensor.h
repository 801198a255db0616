// A minimal dense tensor: contiguous, row-major, up to rank 2 in practice.
//
// This is the numeric substrate standing in for the ATen tensors that PyG
// manipulates. Design constraints kept deliberately tight:
//   * always contiguous (row-major); views are only taken over leading rows,
//     which preserves contiguity — exactly the pattern `x[:size]` used by the
//     paper's model code (Appendix A);
//   * storage is shared (copying a Tensor is O(1) and aliases memory);
//   * `clone()` deep-copies, `to(dtype)` converts;
//   * a kInt8Q tensor may carry its per-row scale and zero-point
//     (with_row_params), which makes it a self-contained feature matrix: the
//     compressed wire rows the model's first layer reads (tensor/quantize.h).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/storage.h"

namespace salient {

class Tensor {
 public:
  /// Empty (null) tensor.
  Tensor() = default;

  /// Allocate a zero-initialized tensor of the given shape and dtype.
  /// `pinned` requests page-locked-style staging memory (see Storage).
  explicit Tensor(std::vector<std::int64_t> shape, DType dtype = DType::kF32,
                  bool pinned = false);

  /// True when this tensor has no storage (default-constructed).
  bool defined() const { return storage_ != nullptr; }

  DType dtype() const { return dtype_; }
  /// Number of dimensions.
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  /// Extent of dimension `d` (supports negative indices).
  std::int64_t size(std::int64_t d) const;
  const std::vector<std::int64_t>& shape() const { return shape_; }
  /// Total number of elements.
  std::int64_t numel() const;
  /// Total bytes of the viewed region.
  std::size_t nbytes() const { return static_cast<std::size_t>(numel()) * dtype_size(dtype_); }
  /// Whether the backing storage is pinned staging memory.
  bool pinned() const { return storage_ && storage_->pinned(); }

  /// Typed pointer to the first viewed element. T must match dtype.
  template <typename T>
  T* data() {
    check_type(DTypeOf<T>::value);
    return static_cast<T*>(raw()) ;
  }
  template <typename T>
  const T* data() const {
    check_type(DTypeOf<T>::value);
    return static_cast<const T*>(raw());
  }

  /// Untyped pointer to the first viewed element.
  void* raw();
  const void* raw() const;

  /// Convenient typed span over all viewed elements.
  template <typename T>
  std::span<T> span() {
    return {data<T>(), static_cast<std::size_t>(numel())};
  }
  template <typename T>
  std::span<const T> span() const {
    return {data<T>(), static_cast<std::size_t>(numel())};
  }

  /// Element accessors for 1-D and 2-D tensors (bounds-checked).
  template <typename T>
  T& at(std::int64_t i) {
    return data<T>()[check_index1(i)];
  }
  template <typename T>
  T at(std::int64_t i) const {
    return data<T>()[check_index1(i)];
  }
  template <typename T>
  T& at(std::int64_t i, std::int64_t j) {
    return data<T>()[check_index2(i, j)];
  }
  template <typename T>
  T at(std::int64_t i, std::int64_t j) const {
    return data<T>()[check_index2(i, j)];
  }

  /// Deep copy (optionally into pinned memory).
  Tensor clone(bool pinned = false) const;

  /// Dtype conversion; returns *this unchanged if dtype already matches. A
  /// kInt8Q tensor converts only when it carries its row parameters: each
  /// row is dequantized as ops::dequantize_row does (then converted again
  /// for a target other than f32). Nothing converts to kInt8Q.
  Tensor to(DType dtype) const;

  /// A 2-D kInt8Q tensor's codes with their per-row dequantization
  /// parameters attached: `scale` and `zero` are [rows] f32
  /// (tensor/quantize.h), shared, not copied. narrow_rows() narrows them
  /// with the codes and clone() copies them.
  /// \throws std::invalid_argument when this is not a 2-D kInt8Q tensor or
  /// scale/zero are not [rows] f32.
  Tensor with_row_params(const Tensor& scale, const Tensor& zero) const;
  /// Whether this kInt8Q tensor carries its row parameters.
  bool has_row_params() const { return params_ != nullptr; }
  /// [rows] f32 views of the attached scales and zero-points; undefined
  /// without row parameters.
  Tensor row_scale() const;
  Tensor row_zero() const;

  /// Zero-copy view of rows [begin, begin+len) of a 1-D or 2-D tensor.
  Tensor narrow_rows(std::int64_t begin, std::int64_t len) const;

  /// Zero-copy reshape (product of dims must equal numel()). Row parameters
  /// are dropped.
  Tensor reshape(std::vector<std::int64_t> new_shape) const;

  /// Set every element to zero.
  void zero_();
  /// Set every element of a float tensor to `v` (f32/f64 only).
  void fill_(double v);

  // --- factories -----------------------------------------------------------

  static Tensor zeros(std::vector<std::int64_t> shape,
                      DType dtype = DType::kF32);
  static Tensor ones(std::vector<std::int64_t> shape,
                     DType dtype = DType::kF32);
  static Tensor full(std::vector<std::int64_t> shape, double v,
                     DType dtype = DType::kF32);
  /// i.i.d. N(0, std^2) entries (f32/f64).
  static Tensor randn(std::vector<std::int64_t> shape, std::uint64_t seed,
                      double std_dev = 1.0, DType dtype = DType::kF32);
  /// i.i.d. U[lo, hi) entries (f32/f64).
  static Tensor uniform(std::vector<std::int64_t> shape, std::uint64_t seed,
                        double lo = 0.0, double hi = 1.0,
                        DType dtype = DType::kF32);
  /// [0, 1, ..., n-1] as i64.
  static Tensor arange(std::int64_t n);
  /// Copy from a host vector; shape defaults to {v.size()}.
  template <typename T>
  static Tensor from_vector(const std::vector<T>& v,
                            std::vector<std::int64_t> shape = {});

  /// Wrap an existing storage buffer (must be at least as large as the
  /// requested shape) with fresh shape/dtype metadata. Used by the pinned
  /// staging-buffer pool to recycle allocations across mini-batches.
  static Tensor wrap_storage(StoragePtr storage,
                             std::vector<std::int64_t> shape, DType dtype);

  /// The backing storage (shared; for pooling/aliasing checks).
  const StoragePtr& storage() const { return storage_; }

  /// Debug string: dtype, shape, and the first few elements.
  std::string str() const;

 private:
  void check_type(DType expected) const;
  std::int64_t check_index1(std::int64_t i) const;
  std::int64_t check_index2(std::int64_t i, std::int64_t j) const;
  /// Elements per row (product of dims 1..rank).
  std::int64_t row_stride() const;

  /// The row parameters of a kInt8Q tensor (two [rows] f32 tensors).
  struct RowParams;

  StoragePtr storage_;
  DType dtype_ = DType::kF32;
  std::vector<std::int64_t> shape_;
  std::int64_t offset_ = 0;  // element offset into storage
  std::shared_ptr<const RowParams> params_;  // kInt8Q only; may be null
  std::int64_t params_row_ = 0;  // row of params_ that is this view's row 0
};

template <typename T>
Tensor Tensor::from_vector(const std::vector<T>& v,
                           std::vector<std::int64_t> shape) {
  if (shape.empty()) shape = {static_cast<std::int64_t>(v.size())};
  Tensor t(shape, DTypeOf<T>::value);
  std::copy(v.begin(), v.end(), t.data<T>());
  return t;
}

/// True when a and b have identical shape/dtype and elementwise
/// |a-b| <= atol + rtol*|b| (float types) or exact equality (i64).
bool allclose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-8);

}  // namespace salient
