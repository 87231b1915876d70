#include "http/admission.h"

#include <algorithm>
#include <vector>

#include "common/fault.h"

namespace extract {

AdmissionController::AdmissionController(const AdmissionOptions& options)
    : options_(options) {
  options_.max_concurrent = std::max<size_t>(1, options_.max_concurrent);
}

void AdmissionController::Ticket::Reset() {
  if (controller_ != nullptr) {
    std::exchange(controller_, nullptr)->Release();
  }
}

Result<AdmissionController::Ticket> AdmissionController::Acquire(
    std::chrono::steady_clock::time_point deadline) {
  // An injected shed surfaces exactly like a real one: no slot consumed,
  // no waiter enqueued, the caller maps the Status to 503/413/etc.
  EXTRACT_INJECT_FAULT("admission.acquire");
  const auto now = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) {
    ++stats_.shed_queue_full;
    return Status::Unavailable("server shutting down");
  }
  // Slots free implies no waiters (Release hands slots to waiters directly),
  // so a free slot can be taken without queue-jumping anyone.
  if (stats_.active < options_.max_concurrent) {
    ++stats_.active;
    ++stats_.admitted;
    stats_.peak_active = std::max(stats_.peak_active, stats_.active);
    return Ticket(this);
  }
  if (deadline <= now) {
    ++stats_.shed_deadline;
    return Status::DeadlineExceeded(
        "deadline expired before admission (server at capacity)");
  }
  if (waiters_.size() >= options_.max_queue) {
    ++stats_.shed_queue_full;
    return Status::Unavailable("admission queue full (server overloaded)");
  }

  const WaiterKey key{deadline, next_seq_++};
  auto waiter = std::make_shared<Waiter>();
  waiters_.emplace(key, waiter);
  stats_.peak_queued = std::max(stats_.peak_queued, waiters_.size());
  stats_.queued = waiters_.size();

  const auto settled = [&] { return waiter->admitted || waiter->aborted; };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    waiter->cv.wait(lock, settled);
  } else {
    waiter->cv.wait_until(lock, deadline, settled);
  }
  if (waiter->aborted) {
    ++stats_.shed_queue_full;
    return Status::Unavailable("server shutting down");
  }
  if (!waiter->admitted) {
    waiters_.erase(key);
    stats_.queued = waiters_.size();
    ++stats_.shed_deadline;
    return Status::DeadlineExceeded("deadline expired while queued for admission");
  }
  // Release() already transferred the slot (active stays counted) and
  // removed us from the queue; only the bookkeeping is left.
  const uint64_t waited_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - now)
          .count());
  ++stats_.admitted;
  ++stats_.admitted_after_wait;
  stats_.total_wait_ns += waited_ns;
  stats_.max_wait_ns = std::max(stats_.max_wait_ns, waited_ns);
  return Ticket(this);
}

void AdmissionController::Release() {
  std::shared_ptr<Waiter> next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (waiters_.empty()) {
      --stats_.active;
      return;
    }
    // Hand the slot to the earliest-deadline waiter directly: `active`
    // never dips, so a racing Acquire cannot steal the slot from someone
    // who has been waiting.
    auto it = waiters_.begin();
    next = it->second;
    next->admitted = true;
    waiters_.erase(it);
    stats_.queued = waiters_.size();
  }
  next->cv.notify_one();
}

void AdmissionController::Shutdown() {
  std::vector<std::shared_ptr<Waiter>> aborted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    aborted.reserve(waiters_.size());
    for (auto& [key, waiter] : waiters_) {
      waiter->aborted = true;
      aborted.push_back(waiter);
    }
    waiters_.clear();
    stats_.queued = 0;
  }
  for (const auto& waiter : aborted) waiter->cv.notify_one();
}

AdmissionStats AdmissionController::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace extract
