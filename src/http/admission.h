// Admission control for serving sessions: a bounded concurrent-session
// limit with a deadline-aware wait queue and explicit load shedding.
//
// The streaming core (snippet/snippet_stream.h) makes one request cheap to
// cancel but does nothing to stop N requests from computing at once on N
// connection threads, sharing the cores and all timing out together. This
// module is the front door that keeps overload outside: at most
// `max_concurrent` sessions hold a slot — and so compute — at once; up to
// `max_queue` more wait, woken earliest-deadline-first (the waiter with
// the least slack is the one a FIFO would kill); everyone else is shed
// immediately with kUnavailable — a fast 503 instead of a slow stall that
// would poison every in-flight request.
//
// A waiter whose deadline passes while queued leaves with
// kDeadlineExceeded; a waiter admitted holds an RAII Ticket whose
// destruction hands the slot to the best remaining waiter. All methods are
// thread-safe; waiting happens on the connection's own thread, so a
// parked client holds no slot and takes no compute from admitted ones.

#ifndef EXTRACT_HTTP_ADMISSION_H_
#define EXTRACT_HTTP_ADMISSION_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/result.h"

namespace extract {

struct AdmissionOptions {
  /// Sessions that may hold a slot concurrently (>= 1 enforced).
  size_t max_concurrent = 8;
  /// Waiters allowed to queue when all slots are held; arrivals beyond
  /// this are shed immediately (kUnavailable). 0 = never queue.
  size_t max_queue = 32;
};

/// Point-in-time counters; `active`/`queued` are instantaneous, the rest
/// are cumulative since construction.
struct AdmissionStats {
  size_t admitted = 0;             ///< total tickets granted
  size_t admitted_after_wait = 0;  ///< subset that waited in the queue
  size_t shed_queue_full = 0;      ///< arrivals rejected with kUnavailable
  size_t shed_deadline = 0;        ///< waits ended by deadline expiry
  size_t active = 0;
  size_t queued = 0;
  size_t peak_active = 0;
  size_t peak_queued = 0;
  uint64_t total_wait_ns = 0;  ///< summed over admitted-after-wait tickets
  uint64_t max_wait_ns = 0;
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& options);
  AdmissionController() : AdmissionController(AdmissionOptions{}) {}

  /// \brief RAII slot. Move-only; destruction releases the slot, admitting
  /// the earliest-deadline waiter if one is queued.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : controller_(std::exchange(other.controller_, nullptr)) {}
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Reset();
        controller_ = std::exchange(other.controller_, nullptr);
      }
      return *this;
    }
    ~Ticket() { Reset(); }

    bool valid() const { return controller_ != nullptr; }
    /// Early release (destruction does the same).
    void Reset();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}
    AdmissionController* controller_ = nullptr;
  };

  /// \brief Acquires a slot, waiting until `deadline` if all are held.
  ///
  /// time_point::max() means "no deadline" (such waiters queue FIFO after
  /// every deadline-bearing waiter). Returns kUnavailable when the wait
  /// queue is full (immediate shed), kDeadlineExceeded when the deadline
  /// passes first — including a deadline already in the past on entry.
  Result<Ticket> Acquire(std::chrono::steady_clock::time_point deadline);
  /// Acquire with no deadline.
  Result<Ticket> Acquire() {
    return Acquire(std::chrono::steady_clock::time_point::max());
  }

  /// \brief Aborts every queued waiter with kUnavailable and makes future
  /// Acquire calls fail the same way — the server's shutdown hook, so Stop
  /// never blocks behind parked connections. Held tickets stay valid and
  /// release normally.
  void Shutdown();

  AdmissionStats Stats() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  struct Waiter {
    std::condition_variable cv;
    bool admitted = false;
    bool aborted = false;
  };
  /// EDF order: (deadline, arrival sequence) — FIFO among equal deadlines.
  using WaiterKey = std::pair<std::chrono::steady_clock::time_point, uint64_t>;

  void Release();

  AdmissionOptions options_;
  mutable std::mutex mu_;
  std::map<WaiterKey, std::shared_ptr<Waiter>> waiters_;
  uint64_t next_seq_ = 0;
  bool shutdown_ = false;
  AdmissionStats stats_;
};

}  // namespace extract

#endif  // EXTRACT_HTTP_ADMISSION_H_
