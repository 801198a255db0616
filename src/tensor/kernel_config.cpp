#include "tensor/kernel_config.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace salient::ops {

namespace {

KernelKind kind_from_env() {
  if (const char* env = std::getenv("SALIENT_KERNEL")) {
    if (std::strcmp(env, "ref") == 0) return KernelKind::kRef;
  }
  return KernelKind::kOpt;
}

std::atomic<int> g_kind{-1};  // -1 = not yet read from the environment
std::atomic<ThreadPool*> g_pool{nullptr};

}  // namespace

KernelKind kernel_kind() {
  int k = g_kind.load(std::memory_order_relaxed);
  if (k < 0) {
    k = static_cast<int>(kind_from_env());
    g_kind.store(k, std::memory_order_relaxed);
  }
  return static_cast<KernelKind>(k);
}

void set_kernel_kind(KernelKind kind) {
  g_kind.store(static_cast<int>(kind), std::memory_order_relaxed);
}

ThreadPool& kernel_pool() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  return p ? *p : ThreadPool::global();
}

void set_kernel_pool(ThreadPool* pool) {
  g_pool.store(pool, std::memory_order_release);
}

bool use_parallel(std::int64_t work) {
  return work >= kParallelGrain && kernel_pool().size() > 1;
}

bool use_parallel(std::int64_t work, GrainClass cls) {
  const std::int64_t grain = cls == GrainClass::kMemoryBound ? kMemoryBoundGrain
                             : cls == GrainClass::kGemm      ? kGemmGrain
                                                             : kParallelGrain;
  return work >= grain && kernel_pool().size() > 1;
}

}  // namespace salient::ops
