//===- Budget.h - Cooperative resource budgets -----------------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ResourceBudget generalizes the wall-clock Deadline into a cooperative
/// multi-dimension budget: wall-clock seconds, a symbolic-node-count cap,
/// and a solver-call cap.  Long-running loops call checkpoint() and
/// unwind when it returns false.  Once any dimension is exhausted the
/// budget latches — it never un-expires — so every layer above observes
/// one consistent abort reason.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SUPPORT_BUDGET_H
#define STENSO_SUPPORT_BUDGET_H

#include "support/Result.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace stenso {

/// Cooperative wall-clock + node-count + solver-call budget.  A limit of
/// zero (or less) means "unlimited" in every dimension, matching the
/// Deadline convention.
///
/// Safe to charge/checkpoint from multiple threads concurrently: the
/// counters are relaxed atomics (only the totals matter) and the latch
/// is one compare-exchanged word carrying the winning reason, so a
/// thread that sees "latched" always sees the same reason every other
/// thread does.  The atomics make the class non-copyable by design — a
/// budget is an identity, not a value.
class ResourceBudget {
public:
  struct Limits {
    /// Wall-clock budget in seconds; <= 0 means unlimited.
    double WallSeconds = 0;
    /// Cap on charged symbolic nodes; <= 0 means unlimited.
    int64_t MaxSymbolicNodes = 0;
    /// Cap on charged solver calls; <= 0 means unlimited.
    int64_t MaxSolverCalls = 0;
  };

  ResourceBudget() = default;
  explicit ResourceBudget(Limits L) : L(L) {}
  /// Deadline-compatible constructor: wall clock only.
  explicit ResourceBudget(double WallSeconds) { L.WallSeconds = WallSeconds; }

  /// Cheap cooperative check; returns true while the budget holds.
  ///
  /// The clock is *not* read on every call: hot interning loops issue
  /// millions of checkpoints per second, and although one steady-clock
  /// read is only a ~20ns vDSO call, the reads were the single largest
  /// telemetry-visible cost inside those loops.  Instead each thread
  /// keeps an adaptive skip counter: the clock is read on the first call
  /// (so an already-expired budget is latched decisively), then every
  /// Nth, where N is retuned after every read so that reads land roughly
  /// every TargetReadWindow seconds of wall time (and at least ~8 times
  /// before the deadline).  A fixed N would let a coarse loop whose
  /// iterations are individually slow overshoot the deadline by N
  /// iterations; the adaptive N collapses to 1 at low call rates, which
  /// bounds the overshoot to about max(MaxSkipInterval x one iteration,
  /// TargetReadWindow) instead.  The skip state is thread-local, so the
  /// fast path performs no shared-cacheline write at all.  Unlimited
  /// budgets never touch the clock.
  bool checkpoint() {
    TLState &T = tlState();
    if (T.Owner != this || T.OwnerId != Id) {
      // First checkpoint of this budget on this thread (or the slot was
      // owned by another budget).
      T.Owner = this;
      T.OwnerId = Id;
      T.SkipsLeft = 0;
      T.LastInterval = 0;
      T.LastElapsed = 0;
    }
    if (latched())
      return false;
    if (--T.SkipsLeft > 0)
      return true;
    return checkpointSlow(T);
  }

  /// Accounts \p N freshly created symbolic nodes.
  void chargeSymbolicNodes(int64_t N = 1) {
    int64_t Total =
        SymbolicNodes.fetch_add(N, std::memory_order_relaxed) + N;
    if (L.MaxSymbolicNodes > 0 && Total > L.MaxSymbolicNodes)
      latch(ErrC::BudgetExhausted);
  }

  /// Accounts one hole-solver invocation.
  void chargeSolverCall() {
    int64_t Total = SolverCalls.fetch_add(1, std::memory_order_relaxed) + 1;
    if (L.MaxSolverCalls > 0 && Total > L.MaxSolverCalls)
      latch(ErrC::BudgetExhausted);
  }

  /// True when any dimension has been exhausted (forces a clock read for
  /// an up-to-date answer).
  bool exhausted() {
    if (latched())
      return true;
    return wallExpired();
  }

  /// True when a previous checkpoint/charge already latched exhaustion
  /// (no clock read; usable without mutation).
  bool latched() const {
    return LatchedReason.load(std::memory_order_relaxed) >= 0;
  }

  /// Which dimension tripped: Timeout (wall clock) or BudgetExhausted
  /// (node/solver caps).  Defaults to Timeout when nothing latched.
  ErrC exhaustedReason() const {
    int R = LatchedReason.load(std::memory_order_relaxed);
    return R >= 0 ? static_cast<ErrC>(R) : ErrC::Timeout;
  }

  /// The latched condition as an error, for propagation through
  /// Expected-returning layers.
  StensoError toError() const {
    if (exhaustedReason() == ErrC::Timeout)
      return StensoError(ErrC::Timeout, "wall-clock budget exhausted");
    return StensoError(ErrC::BudgetExhausted,
                       "resource cap exhausted (nodes or solver calls)");
  }

  double remainingSeconds() const {
    if (L.WallSeconds <= 0)
      return 1e30;
    double Left = L.WallSeconds - Timer.elapsedSeconds();
    return Left > 0 ? Left : 0;
  }

  int64_t getSymbolicNodes() const {
    return SymbolicNodes.load(std::memory_order_relaxed);
  }
  int64_t getSolverCalls() const {
    return SolverCalls.load(std::memory_order_relaxed);
  }
  /// Steady-clock reads performed by checkpoint()/exhausted(); the
  /// decimation exists to keep this far below the number of
  /// checkpoint() calls.
  int64_t getClockReads() const {
    return ClockReads.load(std::memory_order_relaxed);
  }
  const Limits &getLimits() const { return L; }

  /// Upper bound on consecutive checkpoints that skip the clock.
  static constexpr int64_t MaxSkipInterval = 64;
  /// Aim to read the clock roughly this often (seconds of wall time).
  static constexpr double TargetReadWindow = 0.005;

private:
  /// Per-thread decimation state.  Keyed by (pointer, id): the id is
  /// unique per budget instance, so a new budget allocated at a dead
  /// budget's address never inherits stale skips — that could delay its
  /// first clock read past an already-expired deadline.
  struct TLState {
    const ResourceBudget *Owner = nullptr;
    uint64_t OwnerId = 0;
    int64_t SkipsLeft = 0;
    int64_t LastInterval = 0;
    double LastElapsed = 0;
  };
  static TLState &tlState() {
    static thread_local TLState S;
    return S;
  }
  static uint64_t nextBudgetId() {
    static std::atomic<uint64_t> Next{1};
    return Next.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reads the clock (wall-limited budgets only) and retunes the
  /// thread's skip interval.
  bool checkpointSlow(TLState &T) {
    if (L.WallSeconds <= 0) {
      // No deadline to miss: skip the clock for as long as allowed.
      T.SkipsLeft = T.LastInterval = MaxSkipInterval;
      return true;
    }
    ClockReads.fetch_add(1, std::memory_order_relaxed);
    double Elapsed = Timer.elapsedSeconds();
    if (Elapsed >= L.WallSeconds) {
      latch(ErrC::Timeout);
      return false;
    }
    // Estimate this thread's checkpoint rate from the interval that just
    // elapsed and pick the skip count that lands the next read about
    // min(TargetReadWindow, remaining/8) seconds from now.  A slow loop
    // yields a low rate and an interval near 1 (per-call reads, no
    // overshoot); a hot loop earns a long interval.
    double Delta = Elapsed - T.LastElapsed;
    T.LastElapsed = Elapsed;
    double Window =
        std::min(TargetReadWindow, (L.WallSeconds - Elapsed) / 8);
    double Rate = T.LastInterval > 0 && Delta > 1e-9
                      ? static_cast<double>(T.LastInterval) / Delta
                      : 0; // first read on this thread: stay conservative
    int64_t Next = static_cast<int64_t>(Rate * Window);
    T.SkipsLeft = T.LastInterval =
        std::clamp<int64_t>(Next, 1, MaxSkipInterval);
    return true;
  }

  bool wallExpired() {
    if (L.WallSeconds > 0) {
      ClockReads.fetch_add(1, std::memory_order_relaxed);
      if (Timer.elapsedSeconds() >= L.WallSeconds) {
        latch(ErrC::Timeout);
        return true;
      }
    }
    return false;
  }

  void latch(ErrC R) {
    // First latcher wins; later attempts (even with a different reason)
    // leave the stored reason untouched, so the reported reason is the
    // dimension that actually tripped first.
    int Expected = -1;
    LatchedReason.compare_exchange_strong(Expected, static_cast<int>(R),
                                          std::memory_order_relaxed);
  }

  WallTimer Timer;
  Limits L;
  uint64_t Id = nextBudgetId();
  std::atomic<int64_t> SymbolicNodes{0};
  std::atomic<int64_t> SolverCalls{0};
  std::atomic<int64_t> ClockReads{0};
  /// -1 while the budget holds; otherwise the ErrC of the dimension that
  /// latched first.  One word instead of flag+reason: no ordering hazard.
  std::atomic<int> LatchedReason{-1};
};

} // namespace stenso

#endif // STENSO_SUPPORT_BUDGET_H
