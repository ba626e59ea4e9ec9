//===- HoleSolver.h - Symbolic solving of sketch holes ---------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SOLVE (paper Section V-A): given a sketch and a target specification
/// Phi, determine the symbolic expression each hole element must take for
/// the sketch to be semantically equivalent to Phi — i.e. find expr such
/// that sketch(expr, args...) == Phi.
///
/// The solver works on the sketch's pre-executed symbolic template, which
/// is a function of fresh hole symbols:
///
///   * elements linear in the hole symbols are solved by linear
///     decomposition: single-unknown equations divide the residual by the
///     coefficient; multi-unknown equations (contractions, reductions)
///     assign each target term to the unique unknown whose coefficient
///     monomial-divides it;
///   * elements of the form c * h^k, exp(h), log(h) invert analytically
///     (positivity assumption);
///   * unconstrained hole elements default to zero.
///
/// Every solution is verified by re-executing the sketch with the solved
/// hole bound and comparing specs — the solver cannot return an unsound
/// decomposition.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SYNTH_HOLESOLVER_H
#define STENSO_SYNTH_HOLESOLVER_H

#include "support/Budget.h"
#include "support/Result.h"
#include "synth/SketchLibrary.h"

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

namespace stenso {

namespace persist {
class StensoStore;
}

namespace synth {

/// Solves sketch holes against target specs, with memoization.
///
/// Thread-safe: the memo is sharded under per-shard mutexes and the
/// counters are atomics, so parallel sketch workers share one solver.
/// Solving itself runs outside any lock — two workers racing on the same
/// key both compute the same canonical answer (pure function of interned
/// inputs) and the first memoize wins.
class HoleSolver {
public:
  HoleSolver(sym::ExprContext &Ctx, const symexec::SymBinding &Bindings)
      : Ctx(Ctx), Bindings(Bindings) {}

  /// Attaches a cooperative budget: every solve charges one solver call
  /// and observes exhaustion before doing work.  Pass nullptr to detach.
  void setBudget(ResourceBudget *B) { Budget = B; }

  /// Attaches the persistent cross-run cache (persist/StensoStore.h).
  /// Probed after an in-memory miss, written behind on computed results.
  /// Safety: store keys embed the full canonical sketch + spec content
  /// (compared byte-for-byte by the store), persisted no-solutions are
  /// pure functions of that key, and every persisted *solution* is
  /// re-verified against the live sketch before use — a corrupt or
  /// foreign record degrades to a miss, never a wrong answer.  Budget
  /// charging happens before the probe, so warm and cold runs charge
  /// identically.  Pass nullptr to detach.
  void setStore(persist::StensoStore *St) { Store = St; }

  /// Returns the hole specification making \p Sk equivalent to \p Phi.
  /// ErrC::NoSolution is the benign "no representable solution" outcome;
  /// any other error (arithmetic overflow while decomposing, injected
  /// fault, exhausted budget) marks a genuinely failed solve.
  Expected<symexec::SymTensor> solve(const Sketch &Sk,
                                     const symexec::SymTensor &Phi);

  int64_t getNumCalls() const {
    return Calls.load(std::memory_order_relaxed);
  }
  /// Solves that missed the memo and found a hole spec (computed, or
  /// served by the store): the distinct solutions of this solver.
  int64_t getNumSolved() const {
    return Solved.load(std::memory_order_relaxed);
  }

  /// Memo-cache telemetry, summed across the 16 shards.  Hits + misses =
  /// probes; evictions counts entries discarded by the flush-on-full
  /// bound.  Per-shard breakdowns via the ByShard variants (diagnosing a
  /// skewed key distribution is exactly what they exist for).
  int64_t getCacheHits() const;
  int64_t getCacheMisses() const;
  int64_t getCacheEvictions() const;
  std::array<int64_t, 16> getCacheHitsByShard() const;
  std::array<int64_t, 16> getCacheMissesByShard() const;

  /// Persistent-store telemetry: hits are verified store answers (each
  /// one a full solve avoided), rejections are records that failed
  /// decoding or re-verification (degraded to misses), puts are results
  /// written behind.
  int64_t getStoreHits() const {
    return StoreHits.load(std::memory_order_relaxed);
  }
  int64_t getStoreRejected() const {
    return StoreRejected.load(std::memory_order_relaxed);
  }
  int64_t getStorePuts() const {
    return StorePuts.load(std::memory_order_relaxed);
  }

  /// Cache bound: when a shard reaches this many memoized entries the
  /// whole shard is flushed (counted in evictions).  The memo caches a
  /// pure function, so eviction can only cost recomputation, never change
  /// a result.
  static constexpr size_t MaxEntriesPerShard = 1 << 14;

private:
  Expected<symexec::SymTensor> solveUncached(const Sketch &Sk,
                                             const symexec::SymTensor &Phi);
  std::optional<symexec::SymTensor> solveImpl(const Sketch &Sk,
                                              const symexec::SymTensor &Phi);

  /// Full content-addressed store key for (\p Sk, \p Phi): version salt,
  /// printed sketch, hole identity, sorted input declarations, serialized
  /// template/hole-symbol/target tensors.  The per-sketch prefix is
  /// cached by library index.
  std::vector<uint8_t> storeKeyFor(const Sketch &Sk,
                                   const symexec::SymTensor &Phi);
  /// Decodes + re-verifies a persisted record; nullopt when the record
  /// is unusable (treated as a store miss).
  std::optional<Expected<symexec::SymTensor>>
  decodeStoreHit(const Sketch &Sk, const symexec::SymTensor &Phi,
                 const std::vector<uint8_t> &Bytes);

  sym::ExprContext &Ctx;
  const symexec::SymBinding &Bindings;
  ResourceBudget *Budget = nullptr;
  persist::StensoStore *Store = nullptr;

  /// Keyed by the sketch's canonical library index, not its Root
  /// pointer: the index is structural (position in the (cost,
  /// enumeration) order), so the key — and with it every cache hit — is
  /// identical across runs and across thread schedules.
  struct CacheKey {
    uint32_t SketchIndex;
    SpecKey Phi;
    bool operator==(const CacheKey &RHS) const {
      return SketchIndex == RHS.SketchIndex && Phi == RHS.Phi;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey &K) const;
  };
  static constexpr size_t NumCacheShards = 16;
  struct CacheShard {
    mutable std::mutex M;
    std::unordered_map<CacheKey, Expected<symexec::SymTensor>, CacheKeyHash>
        Map;
    /// Telemetry, guarded by M (the probe holds it anyway).
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Evictions = 0;
  };
  std::array<CacheShard, NumCacheShards> Shards;
  std::atomic<int64_t> Calls{0};
  std::atomic<int64_t> Solved{0};

  /// Per-sketch store-key prefixes, built once per library index.
  std::mutex PrefixMutex;
  std::unordered_map<uint32_t, std::vector<uint8_t>> KeyPrefixes;
  std::atomic<int64_t> StoreHits{0};
  std::atomic<int64_t> StoreRejected{0};
  std::atomic<int64_t> StorePuts{0};
};

} // namespace synth
} // namespace stenso

#endif // STENSO_SYNTH_HOLESOLVER_H
