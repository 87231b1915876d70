// Deterministic fault injection for chaos testing the serving stack.
//
// The library is instrumented with named fault points — one macro call at
// each place a real failure could originate (parse, index build, search,
// snippet stage, cache access, epoch publish, admission, socket I/O). A test arms the process-wide FaultInjector with a schedule
// ("fail the 3rd hit of point P with status S", or "fail each hit of P
// with probability p under seed s"), drives traffic, and asserts that the
// injected failures surface as precise Statuses / HTTP codes with every
// invariant intact (streams drain, counters return to zero, a disarmed
// replay is byte-identical).
//
// Cost model: when EXTRACT_FAULT_INJECTION is defined to 0 the macros
// expand to nothing — production builds carry no trace of the framework.
// When compiled in but DISARMED (the default at process start) each point
// is a single relaxed atomic load of a global flag; arming is strictly a
// test-time operation. BENCH_fault.json pins the disarmed overhead at
// <= 2% of serving p50 against a compiled-out twin binary.
//
// Thread-safety: Arm/Disarm swap an immutable schedule snapshot under a
// mutex; Check() hits take the mutex only while armed (tests tolerate
// that cost). Hit counting is per-rule and process-wide, which is what
// makes "the Nth hit" deterministic on a single-threaded driver and
// merely seed-stable on concurrent ones.

#ifndef EXTRACT_COMMON_FAULT_H_
#define EXTRACT_COMMON_FAULT_H_

#ifndef EXTRACT_FAULT_INJECTION
#define EXTRACT_FAULT_INJECTION 0
#endif

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace extract {

/// One armed fault: "hits of `point` fail with `code`/`message`" qualified
/// by either a deterministic Nth-hit trigger or a seeded probability.
struct FaultRule {
  /// The instrumented point this rule targets (e.g. "epoch.publish").
  std::string point;
  /// Deterministic trigger: fire on exactly the nth_hit-th hit (1-based)
  /// of the point. 0 selects the probabilistic mode instead.
  uint64_t nth_hit = 0;
  /// Probabilistic trigger (nth_hit == 0): each hit fires independently
  /// with this probability, driven by a per-rule xorshift PRNG seeded from
  /// `seed` — the same seed replays the same fire pattern exactly.
  double probability = 0.0;
  uint64_t seed = 1;
  /// Cap on total fires of this rule; 0 = unlimited. An nth-hit rule with
  /// max_fires == 1 (the default schedule shape) fires exactly once.
  uint64_t max_fires = 1;
  /// The Status an injected failure carries. Points that cannot return a
  /// Status (socket I/O) ignore it and simulate their native failure mode
  /// instead.
  StatusCode code = StatusCode::kUnavailable;
  std::string message = "injected fault";
};

namespace fault_internal {
/// Single relaxed load on the disarmed fast path; everything heavier
/// lives behind it.
extern std::atomic<bool> g_armed;
}  // namespace fault_internal

/// \brief Process-wide registry of armed fault rules. Access it through
/// FaultInjector::Instance() and the EXTRACT_INJECT_FAULT /
/// EXTRACT_FAULT_FIRED macros; tests prefer the ScopedFaultInjection RAII
/// guard so a failing assertion can never leave the process armed.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// Replaces the armed schedule (resetting all hit/fire counters) and
  /// raises the global armed flag. An empty schedule is equivalent to
  /// Disarm().
  void Arm(std::vector<FaultRule> rules);

  /// Lowers the armed flag and clears the schedule. Counters survive until
  /// the next Arm so a test can still read them after the episode.
  void Disarm();

  bool armed() const {
    return fault_internal::g_armed.load(std::memory_order_relaxed);
  }

  /// The slow path behind EXTRACT_INJECT_FAULT: counts the hit and returns
  /// the first matching rule's Status, or OK.
  Status Check(std::string_view point);

  /// The slow path behind EXTRACT_FAULT_FIRED: like Check but collapsed to
  /// "did anything fire" for points that cannot propagate a Status.
  bool CheckFired(std::string_view point);

  /// Total hits of `point` since the last Arm (fired or not). 0 when the
  /// point was never reached — the chaos suite uses this to prove a
  /// schedule actually exercised its target.
  uint64_t Hits(std::string_view point) const;

  /// Total fires across all rules since the last Arm.
  uint64_t TotalFires() const;

 private:
  FaultInjector() = default;

  struct ArmedRule {
    FaultRule rule;
    uint64_t hits = 0;
    uint64_t fires = 0;
    uint64_t prng = 1;  ///< xorshift64 state, seeded from rule.seed
  };

  mutable std::mutex mu_;
  std::vector<ArmedRule> rules_;
};

/// Arms on construction, disarms on destruction — the way tests inject.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(std::vector<FaultRule> rules) {
    FaultInjector::Instance().Arm(std::move(rules));
  }
  ~ScopedFaultInjection() { FaultInjector::Instance().Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace extract

#if EXTRACT_FAULT_INJECTION

/// Status-returning fault point: when an armed rule fires, the enclosing
/// function returns the rule's Status (works for Result<T> returns too —
/// both construct from Status).
#define EXTRACT_INJECT_FAULT(point)                                        \
  do {                                                                     \
    if (::extract::fault_internal::g_armed.load(                           \
            std::memory_order_relaxed)) {                                  \
      ::extract::Status _extract_fault =                                   \
          ::extract::FaultInjector::Instance().Check(point);               \
      if (!_extract_fault.ok()) return _extract_fault;                     \
    }                                                                      \
  } while (false)

/// Boolean fault point for code that cannot return a Status (socket I/O,
/// task submission): true when an armed rule fired, so the caller can
/// simulate its native failure mode (EPIPE, dropped task, ...).
#define EXTRACT_FAULT_FIRED(point)                                \
  (::extract::fault_internal::g_armed.load(                       \
       std::memory_order_relaxed) &&                              \
   ::extract::FaultInjector::Instance().CheckFired(point))

/// Assigning fault point for code that routes errors through a local
/// Status instead of returning directly (e.g. a stage loop that decorates
/// failures before propagating them). `status_lvalue` is overwritten with
/// the fired rule's Status; untouched when nothing fires.
#define EXTRACT_FAULT_CHECK_INTO(status_lvalue, point)                     \
  do {                                                                     \
    if (::extract::fault_internal::g_armed.load(                           \
            std::memory_order_relaxed)) {                                  \
      ::extract::Status _extract_fault =                                   \
          ::extract::FaultInjector::Instance().Check(point);               \
      if (!_extract_fault.ok()) (status_lvalue) = _extract_fault;          \
    }                                                                      \
  } while (false)

#else  // !EXTRACT_FAULT_INJECTION

#define EXTRACT_INJECT_FAULT(point) \
  do {                              \
  } while (false)
#define EXTRACT_FAULT_FIRED(point) (false)
#define EXTRACT_FAULT_CHECK_INTO(status_lvalue, point) \
  do {                                                 \
  } while (false)

#endif  // EXTRACT_FAULT_INJECTION

#endif  // EXTRACT_COMMON_FAULT_H_
