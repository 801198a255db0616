// Reference-counted, 64-byte-aligned raw buffers backing tensors.
//
// A Storage may be marked "pinned": in the real system pinned (page-locked)
// host memory enables asynchronous DMA to the GPU. Our device simulator gives
// pinned buffers the full modelled DMA bandwidth and penalizes pageable ones,
// mirroring the paper's use of pinned memory for batch staging.
#pragma once

#include <cstddef>
#include <memory>

namespace salient {

class Storage {
 public:
  /// Allocate `nbytes` of 64-byte aligned memory, zero-initialized unless
  /// `zero_fill` is false: the pooled buffers of BufferPool skip the fill,
  /// because every user overwrites what it acquires.
  explicit Storage(std::size_t nbytes, bool pinned = false,
                   bool zero_fill = true);
  ~Storage();

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  void* data() { return data_; }
  const void* data() const { return data_; }
  std::size_t nbytes() const { return nbytes_; }
  bool pinned() const { return pinned_; }

 private:
  void* data_ = nullptr;
  std::size_t nbytes_ = 0;
  bool pinned_ = false;
};

using StoragePtr = std::shared_ptr<Storage>;

}  // namespace salient
