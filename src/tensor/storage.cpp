#include "tensor/storage.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace salient {

Storage::Storage(std::size_t nbytes, bool pinned, bool zero_fill)
    : nbytes_(nbytes), pinned_(pinned) {
  // Round the allocation up to a multiple of the alignment as required by
  // std::aligned_alloc, and always allocate at least one cache line so that
  // zero-sized tensors still have a valid non-null pointer.
  const std::size_t alloc = ((nbytes + 63) / 64) * 64;
  data_ = std::aligned_alloc(64, alloc ? alloc : 64);
  if (data_ == nullptr) throw std::bad_alloc();
  if (zero_fill) std::memset(data_, 0, alloc ? alloc : 64);
}

Storage::~Storage() { std::free(data_); }

}  // namespace salient
