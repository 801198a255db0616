#include "device/stream.h"

#include <exception>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace salient {

Event::Event() : state_(std::make_shared<State>()) {}

bool Event::query() const {
  LockGuard lock(state_->mu);
  return state_->done;
}

void Event::synchronize() const {
  UniqueLock lock(state_->mu);
  while (!state_->done) state_->cv.wait(lock);
}

void Event::signal() const {
  {
    LockGuard lock(state_->mu);
    state_->done = true;
  }
  state_->cv.notify_all();
}

Stream::Stream(std::string name)
    : name_(std::move(name)), thread_([this] { loop(); }) {}

Stream::~Stream() {
  {
    LockGuard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Stream::enqueue(std::function<void()> fn, const char* label) {
  {
    LockGuard lock(mu_);
    work_.push_back({std::move(fn), label});
    ++enqueued_;
  }
  cv_.notify_all();
}

Event Stream::record() {
  Event e;
  enqueue([e] { e.signal(); });
  return e;
}

void Stream::wait(Event e) {
  enqueue([e] { e.synchronize(); });
}

void Stream::synchronize() {
  // One critical section end to end (the annotation sweep flagged the old
  // shape, which dropped and re-took mu_ between reading enqueued_ and
  // waiting — correct but needlessly racy-looking and twice the lock work).
  UniqueLock lock(mu_);
  const std::uint64_t target = enqueued_;
  while (completed_ < target) cv_.wait(lock);
}

double Stream::busy_seconds() const {
  LockGuard lock(mu_);
  return busy_seconds_;
}

void Stream::loop() {
  // Name this thread's trace track after the stream ("stream:copy0", ...):
  // transfers and kernels then render as separate lanes, like Figure 1.
  SALIENT_TRACE_THREAD_NAME("stream:" + name_);
  for (;;) {
    WorkItem item;
    {
      UniqueLock lock(mu_);
      while (!stop_ && work_.empty()) cv_.wait(lock);
      if (work_.empty()) return;  // stop requested and queue drained
      item = std::move(work_.front());
      work_.pop_front();
    }
    WallTimer t;
    // `stream.wedge` injects a scripted stall before the item runs (a slow
    // kernel / a saturated copy engine); downstream code must tolerate the
    // delay through its bounded queues, never by losing work.
    SALIENT_FAILPOINT_WEDGE("stream.wedge");
    {
      obs::TraceSpan span(item.label);  // inactive when label is null
      // A throwing work item (e.g. DmaError after exhausted retries) must
      // not tear down the stream thread — the stream marks the error and
      // keeps executing, so events recorded after the faulty item still
      // fire and the pipeline drains instead of deadlocking. CUDA behaves
      // the same way: a failed kernel poisons results, not the stream.
      try {
        item.fn();
      } catch (const std::exception& e) {
        static obs::Counter& m_errors =
            obs::Registry::global().counter("stream.work_errors");
        m_errors.add();
        SALIENT_TRACE_INSTANT("stream.work_error");
        (void)e;
      }
    }
    // Drop the item's captures (pooled device and staging buffers among
    // them) before it counts as completed, so a synchronize() that returns
    // finds them back in their pools.
    item.fn = nullptr;
    {
      LockGuard lock(mu_);
      busy_seconds_ += t.seconds();
      ++completed_;
    }
    cv_.notify_all();
  }
}

}  // namespace salient
