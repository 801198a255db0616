// Model-checkable drop-in concurrency primitives (docs/STATIC_ANALYSIS.md,
// "Model checking").
//
// Production concurrent code declares its primitives through these shims:
//
//   check::atomic<T>   instead of  std::atomic<T>
//   check::Mutex       instead of  salient::Mutex
//   check::LockGuard / check::UniqueLock / check::CondVar    likewise
//   check::thread      instead of  std::thread
//
// With SALIENT_MODEL_CHECK=OFF (the default) every shim is a using-alias of
// the plain primitive — the same type, zero cost, byte-identical codegen;
// the bench-gate CI job holds the committed BENCH_kernels.json ratios
// against this build to keep that claim honest. With SALIENT_MODEL_CHECK=ON
// each operation first consults check::Controller::current(): governed
// threads (virtual threads of a model-check execution, see check/sched.h)
// yield to the schedule explorer before the operation; unregistered threads
// fall through to the real primitive, so ordinary tests still run correctly
// in an instrumented build.
//
// Adoption rules (who must use the shims): any component whose interleaving
// a model-check scenario explores — currently FrequencyTable, MpmcQueue,
// BlockingQueue, the ThreadPool broadcast channel, BufferPool (PinnedPool
// and the device pool), ResultCache.
// Components outside scenario scope (obs/ metrics internals, fault/) keep
// the plain primitives; from a governed thread their operations are
// invisible non-yield points, which is sound (they are not the structures
// under test) and keeps the schedule space small.
//
// The instrumented Mutex/LockGuard/UniqueLock carry the same clang
// capability annotations as the salient wrappers, so -Wthread-safety proves
// the same locking contracts in both configurations.
#pragma once

#include <atomic>
#include <thread>

#include "util/thread_annotations.h"

#if defined(SALIENT_MODEL_CHECK_ENABLED)
#include <chrono>
#include <condition_variable>
#include <utility>

#include "check/sched.h"
#endif

namespace salient::check {

#if !defined(SALIENT_MODEL_CHECK_ENABLED)

/// Model checking compiled out: the shims ARE the plain primitives.
template <typename T>
using atomic = std::atomic<T>;
using Mutex = salient::Mutex;
using LockGuard = salient::LockGuard;
using UniqueLock = salient::UniqueLock;
using CondVar = salient::CondVar;
using thread = std::thread;

/// True when the calling thread runs under a model-check controller.
constexpr bool governed() { return false; }

#else  // SALIENT_MODEL_CHECK_ENABLED

/// True when the calling thread is a virtual thread of a live execution.
inline bool governed() { return Controller::current() != nullptr; }

/// std::atomic<T> whose every operation is a schedule yield point under a
/// model-check controller. The std::memory_order arguments are passed
/// through to the real atomic; the explored interleavings themselves are
/// sequentially consistent (see check/sched.h).
template <typename T>
class atomic {
 public:
  constexpr atomic() noexcept : v_() {}
  constexpr atomic(T v) noexcept : v_(v) {}  // NOLINT(runtime/explicit)
  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    yield_point("atomic.load");
    return v_.load(mo);
  }
  void store(T x, std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.store");
    v_.store(x, mo);
  }
  T exchange(T x, std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.exchange");
    return v_.exchange(x, mo);
  }
  T fetch_add(T x, std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.fetch_add");
    return v_.fetch_add(x, mo);
  }
  T fetch_sub(T x, std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.fetch_sub");
    return v_.fetch_sub(x, mo);
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.cas_weak");
    return v_.compare_exchange_weak(expected, desired, mo);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order ok,
                             std::memory_order fail) {
    yield_point("atomic.cas_weak");
    return v_.compare_exchange_weak(expected, desired, ok, fail);
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    yield_point("atomic.cas_strong");
    return v_.compare_exchange_strong(expected, desired, mo);
  }
  bool compare_exchange_strong(T& expected, T desired, std::memory_order ok,
                               std::memory_order fail) {
    yield_point("atomic.cas_strong");
    return v_.compare_exchange_strong(expected, desired, ok, fail);
  }

 private:
  static void yield_point(const char* label) {
    if (Controller* c = Controller::current()) c->op_yield(label);
  }
  std::atomic<T> v_;
};

/// Mutex shim: virtual lock protocol under a controller, the real
/// std::mutex otherwise. Carries the capability annotations so
/// -Wthread-safety proves the same contracts as with salient::Mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    if (Controller* c = Controller::current()) {
      c->mutex_lock(st_);
    } else {
      real_.lock();
    }
  }
  void unlock() RELEASE() {
    if (Controller* c = Controller::current()) {
      c->mutex_unlock(st_);
    } else {
      real_.unlock();
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (Controller* c = Controller::current()) return c->mutex_try_lock(st_);
    return real_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex real_;
  MutexState st_;
};

/// Scoped lock over the Mutex shim (std::lock_guard analogue).
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Lock held for the full scope, handed to CondVar waits (std::unique_lock
/// analogue; same always-locked discipline as salient::UniqueLock).
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() RELEASE() { mu_.unlock(); }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

/// Condition variable over the Mutex shim. Under a controller, waits and
/// notifies are virtualized (notify_one wakes the longest waiter; timed
/// waits time out under virtual time — only when nothing else can run).
/// Natively it is a std::condition_variable_any over the Mutex shim.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() {
    if (Controller* c = Controller::current()) c->cv_notify_one(st_);
    cv_.notify_one();
  }
  void notify_all() {
    if (Controller* c = Controller::current()) c->cv_notify_all(st_);
    cv_.notify_all();
  }

  void wait(UniqueLock& lk) {
    if (Controller* c = Controller::current()) {
      c->cv_wait(st_, lk.mu_.st_);
      return;
    }
    cv_.wait(lk.mu_);
  }

  template <class Rep, class Period>
  std::cv_status wait_for(UniqueLock& lk,
                          const std::chrono::duration<Rep, Period>& d) {
    if (Controller* c = Controller::current()) {
      return c->cv_wait_timed(st_, lk.mu_.st_) ? std::cv_status::timeout
                                               : std::cv_status::no_timeout;
    }
    return cv_.wait_for(lk.mu_, d);
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& tp) {
    if (Controller* c = Controller::current()) {
      return c->cv_wait_timed(st_, lk.mu_.st_) ? std::cv_status::timeout
                                               : std::cv_status::no_timeout;
    }
    return cv_.wait_until(lk.mu_, tp);
  }

 private:
  CvState st_;
  std::condition_variable_any cv_;
};

/// std::thread shim: spawned from a governed thread it becomes a virtual
/// thread of the same execution (join is a virtualized yield point);
/// otherwise it is a plain std::thread.
class thread {
 public:
  thread() = default;

  template <class Fn>
  explicit thread(Fn fn) {
    if (Controller* c = Controller::current()) {
      ctl_ = c;
      vid_ = c->thread_prepare();
      t_ = std::thread([c, vid = vid_, f = std::move(fn)]() mutable {
        c->thread_run(vid, std::move(f));
      });
    } else {
      t_ = std::thread(std::move(fn));
    }
  }

  thread(thread&&) = default;
  thread& operator=(thread&& other) {
    if (t_.joinable()) join();  // mirror std::thread's no-overwrite contract
    t_ = std::move(other.t_);
    ctl_ = other.ctl_;
    vid_ = other.vid_;
    other.ctl_ = nullptr;
    other.vid_ = -1;
    return *this;
  }
  thread(const thread&) = delete;
  thread& operator=(const thread&) = delete;

  ~thread() {
    // Unlike std::thread (which terminates), drain-unwind paths may destroy
    // a joinable wrapper; joining is the safe teardown either way.
    if (t_.joinable()) join();
  }

  bool joinable() const { return t_.joinable(); }

  void join() {
    if (ctl_ != nullptr && vid_ >= 0 && Controller::current() == ctl_) {
      ctl_->thread_join(vid_);  // virtual join: yields until the vthread
                                // retired; the native join below is then
                                // immediate
    }
    t_.join();
  }

 private:
  std::thread t_;
  Controller* ctl_ = nullptr;
  int vid_ = -1;
};

#endif  // SALIENT_MODEL_CHECK_ENABLED

}  // namespace salient::check
