#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>

#include "tensor/quantize.h"
#include "util/rng.h"

namespace salient {

struct Tensor::RowParams {
  Tensor scale;
  Tensor zero;
};

namespace {

std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t n = 1;
  for (auto d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension in shape");
    n *= d;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<std::int64_t> shape, DType dtype, bool pinned)
    : dtype_(dtype), shape_(std::move(shape)) {
  const std::int64_t n = shape_numel(shape_);
  storage_ = std::make_shared<Storage>(
      static_cast<std::size_t>(n) * dtype_size(dtype_), pinned);
}

std::int64_t Tensor::size(std::int64_t d) const {
  const auto rank = dim();
  if (d < 0) d += rank;
  if (d < 0 || d >= rank) throw std::out_of_range("Tensor::size: bad dim");
  return shape_[static_cast<std::size_t>(d)];
}

std::int64_t Tensor::numel() const { return shape_numel(shape_); }

void* Tensor::raw() {
  return static_cast<char*>(storage_->data()) +
         static_cast<std::size_t>(offset_) * dtype_size(dtype_);
}

const void* Tensor::raw() const {
  return static_cast<const char*>(storage_->data()) +
         static_cast<std::size_t>(offset_) * dtype_size(dtype_);
}

void Tensor::check_type(DType expected) const {
  if (!defined()) throw std::runtime_error("Tensor: accessing null tensor");
  if (dtype_ != expected) {
    throw std::runtime_error(std::string("Tensor dtype mismatch: have ") +
                             dtype_name(dtype_) + ", want " +
                             dtype_name(expected));
  }
}

std::int64_t Tensor::check_index1(std::int64_t i) const {
  if (dim() != 1) throw std::runtime_error("at(i): tensor is not 1-D");
  if (i < 0 || i >= shape_[0]) throw std::out_of_range("at(i): out of range");
  return i;
}

std::int64_t Tensor::check_index2(std::int64_t i, std::int64_t j) const {
  if (dim() != 2) throw std::runtime_error("at(i,j): tensor is not 2-D");
  if (i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1]) {
    throw std::out_of_range("at(i,j): out of range");
  }
  return i * shape_[1] + j;
}

std::int64_t Tensor::row_stride() const {
  std::int64_t s = 1;
  for (std::size_t d = 1; d < shape_.size(); ++d) s *= shape_[d];
  return s;
}

Tensor Tensor::clone(bool pinned) const {
  Tensor out(shape_, dtype_, pinned);
  std::memcpy(out.raw(), raw(), nbytes());
  if (has_row_params()) {
    return out.with_row_params(row_scale().clone(pinned),
                               row_zero().clone(pinned));
  }
  return out;
}

Tensor Tensor::with_row_params(const Tensor& scale, const Tensor& zero) const {
  if (dtype_ != DType::kInt8Q || dim() != 2) {
    throw std::invalid_argument("with_row_params: 2-D i8q tensor required");
  }
  for (const Tensor* p : {&scale, &zero}) {
    if (!p->defined() || p->dtype() != DType::kF32 || p->dim() != 1 ||
        p->size(0) != shape_[0]) {
      throw std::invalid_argument(
          "with_row_params: scale/zero must be [rows] f32");
    }
  }
  Tensor out = *this;
  out.params_ = std::make_shared<const RowParams>(RowParams{scale, zero});
  out.params_row_ = 0;
  return out;
}

Tensor Tensor::row_scale() const {
  return params_ ? params_->scale.narrow_rows(params_row_, shape_[0])
                 : Tensor();
}

Tensor Tensor::row_zero() const {
  return params_ ? params_->zero.narrow_rows(params_row_, shape_[0])
                 : Tensor();
}

Tensor Tensor::to(DType dtype) const {
  if (dtype == dtype_) return *this;
  if (dtype_ == DType::kInt8Q) {
    if (!has_row_params() || dim() != 2) {
      throw std::runtime_error(
          "to(): i8q needs its row scale/zero (with_row_params)");
    }
    const Tensor out = ops::dequantize_rows(*this, row_scale(), row_zero());
    return out.to(dtype);
  }
  Tensor out(shape_, dtype);
  const std::int64_t n = numel();
  if (dtype_ == DType::kF16 && dtype == DType::kF32) {
    // The bulk converter: bitwise the scalar loop below, vectorized.
    half_to_float_n(data<Half>(), out.data<float>(),
                    static_cast<std::size_t>(n));
    return out;
  }
  auto convert = [&](auto read) {
    switch (dtype) {
      case DType::kF16: {
        Half* d = out.data<Half>();
        for (std::int64_t i = 0; i < n; ++i)
          d[i] = float_to_half(static_cast<float>(read(i)));
        break;
      }
      case DType::kF32: {
        float* d = out.data<float>();
        for (std::int64_t i = 0; i < n; ++i)
          d[i] = static_cast<float>(read(i));
        break;
      }
      case DType::kF64: {
        double* d = out.data<double>();
        for (std::int64_t i = 0; i < n; ++i)
          d[i] = static_cast<double>(read(i));
        break;
      }
      case DType::kI64: {
        std::int64_t* d = out.data<std::int64_t>();
        for (std::int64_t i = 0; i < n; ++i)
          d[i] = static_cast<std::int64_t>(read(i));
        break;
      }
      case DType::kInt8Q:
        throw std::runtime_error(
            "to(): i8q requires per-row scale/zero; use ops::quantize_rows");
    }
  };
  switch (dtype_) {
    case DType::kF16: {
      const Half* s = data<Half>();
      convert([s](std::int64_t i) { return half_to_float(s[i]); });
      break;
    }
    case DType::kF32: {
      const float* s = data<float>();
      convert([s](std::int64_t i) { return s[i]; });
      break;
    }
    case DType::kF64: {
      const double* s = data<double>();
      convert([s](std::int64_t i) { return s[i]; });
      break;
    }
    case DType::kI64: {
      const std::int64_t* s = data<std::int64_t>();
      convert([s](std::int64_t i) { return s[i]; });
      break;
    }
    case DType::kInt8Q:
      break;  // converted above
  }
  return out;
}

Tensor Tensor::narrow_rows(std::int64_t begin, std::int64_t len) const {
  if (dim() < 1) throw std::runtime_error("narrow_rows: rank-0 tensor");
  if (begin < 0 || len < 0 || begin + len > shape_[0]) {
    throw std::out_of_range("narrow_rows: range out of bounds");
  }
  Tensor out = *this;
  out.shape_[0] = len;
  out.offset_ = offset_ + begin * row_stride();
  out.params_row_ = params_row_ + begin;
  return out;
}

Tensor Tensor::reshape(std::vector<std::int64_t> new_shape) const {
  if (shape_numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: element count mismatch");
  }
  Tensor out = *this;
  out.shape_ = std::move(new_shape);
  out.params_ = nullptr;
  out.params_row_ = 0;
  return out;
}

void Tensor::zero_() { std::memset(raw(), 0, nbytes()); }

void Tensor::fill_(double v) {
  const std::int64_t n = numel();
  switch (dtype_) {
    case DType::kF32: {
      float* d = data<float>();
      std::fill(d, d + n, static_cast<float>(v));
      break;
    }
    case DType::kF64: {
      double* d = data<double>();
      std::fill(d, d + n, v);
      break;
    }
    case DType::kI64: {
      std::int64_t* d = data<std::int64_t>();
      std::fill(d, d + n, static_cast<std::int64_t>(v));
      break;
    }
    default:
      throw std::runtime_error("fill_: unsupported dtype");
  }
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape, DType dtype) {
  return Tensor(std::move(shape), dtype);
}

Tensor Tensor::ones(std::vector<std::int64_t> shape, DType dtype) {
  return full(std::move(shape), 1.0, dtype);
}

Tensor Tensor::full(std::vector<std::int64_t> shape, double v, DType dtype) {
  Tensor t(std::move(shape), dtype);
  t.fill_(v);
  return t;
}

Tensor Tensor::randn(std::vector<std::int64_t> shape, std::uint64_t seed,
                     double std_dev, DType dtype) {
  Tensor t(std::move(shape), dtype);
  Xoshiro256ss rng(seed);
  std::normal_distribution<double> dist(0.0, std_dev);
  const std::int64_t n = t.numel();
  if (dtype == DType::kF32) {
    float* d = t.data<float>();
    for (std::int64_t i = 0; i < n; ++i) d[i] = static_cast<float>(dist(rng));
  } else if (dtype == DType::kF64) {
    double* d = t.data<double>();
    for (std::int64_t i = 0; i < n; ++i) d[i] = dist(rng);
  } else {
    throw std::runtime_error("randn: dtype must be f32/f64");
  }
  return t;
}

Tensor Tensor::uniform(std::vector<std::int64_t> shape, std::uint64_t seed,
                       double lo, double hi, DType dtype) {
  Tensor t(std::move(shape), dtype);
  Xoshiro256ss rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  const std::int64_t n = t.numel();
  if (dtype == DType::kF32) {
    float* d = t.data<float>();
    for (std::int64_t i = 0; i < n; ++i) d[i] = static_cast<float>(dist(rng));
  } else if (dtype == DType::kF64) {
    double* d = t.data<double>();
    for (std::int64_t i = 0; i < n; ++i) d[i] = dist(rng);
  } else {
    throw std::runtime_error("uniform: dtype must be f32/f64");
  }
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t({n}, DType::kI64);
  std::int64_t* d = t.data<std::int64_t>();
  std::iota(d, d + n, 0);
  return t;
}

Tensor Tensor::wrap_storage(StoragePtr storage,
                            std::vector<std::int64_t> shape, DType dtype) {
  const std::int64_t n = shape_numel(shape);
  if (!storage ||
      storage->nbytes() < static_cast<std::size_t>(n) * dtype_size(dtype)) {
    throw std::invalid_argument("wrap_storage: storage too small");
  }
  Tensor t;
  t.storage_ = std::move(storage);
  t.dtype_ = dtype;
  t.shape_ = std::move(shape);
  t.offset_ = 0;
  return t;
}

std::string Tensor::str() const {
  std::ostringstream os;
  os << "Tensor<" << dtype_name(dtype_) << ">[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << 'x';
    os << shape_[i];
  }
  os << "]{";
  const std::int64_t n = std::min<std::int64_t>(numel(), 8);
  for (std::int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    switch (dtype_) {
      case DType::kF16:
        os << half_to_float(data<Half>()[i]);
        break;
      case DType::kF32:
        os << data<float>()[i];
        break;
      case DType::kF64:
        os << data<double>()[i];
        break;
      case DType::kI64:
        os << data<std::int64_t>()[i];
        break;
      case DType::kInt8Q:
        os << static_cast<int>(data<std::int8_t>()[i]);
        break;
    }
  }
  if (numel() > n) os << ", ...";
  os << '}';
  return os.str();
}

bool allclose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (!a.defined() || !b.defined()) return a.defined() == b.defined();
  if (a.dtype() != b.dtype() || a.shape() != b.shape()) return false;
  const std::int64_t n = a.numel();
  switch (a.dtype()) {
    case DType::kI64: {
      const auto* pa = a.data<std::int64_t>();
      const auto* pb = b.data<std::int64_t>();
      return std::equal(pa, pa + n, pb);
    }
    case DType::kInt8Q: {
      const auto* pa = a.data<std::int8_t>();
      const auto* pb = b.data<std::int8_t>();
      return std::equal(pa, pa + n, pb);
    }
    case DType::kF32: {
      const float* pa = a.data<float>();
      const float* pb = b.data<float>();
      for (std::int64_t i = 0; i < n; ++i) {
        if (std::abs(double(pa[i]) - double(pb[i])) >
            atol + rtol * std::abs(double(pb[i]))) {
          return false;
        }
      }
      return true;
    }
    case DType::kF64: {
      const double* pa = a.data<double>();
      const double* pb = b.data<double>();
      for (std::int64_t i = 0; i < n; ++i) {
        if (std::abs(pa[i] - pb[i]) > atol + rtol * std::abs(pb[i])) {
          return false;
        }
      }
      return true;
    }
    case DType::kF16: {
      const Half* pa = a.data<Half>();
      const Half* pb = b.data<Half>();
      for (std::int64_t i = 0; i < n; ++i) {
        const double va = half_to_float(pa[i]);
        const double vb = half_to_float(pb[i]);
        if (std::abs(va - vb) > atol + rtol * std::abs(vb)) return false;
      }
      return true;
    }
  }
  return false;
}

}  // namespace salient
