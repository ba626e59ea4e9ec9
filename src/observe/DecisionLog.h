//===- DecisionLog.h - Search-decision JSONL stream ------------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An opt-in log of every branch decision the cost-guided DFS makes: for
/// each (sketch, depth) visit, the cost bound at entry and the outcome —
/// pruned by cost, pruned by the monotone-simplification objective,
/// pruned by a recoverable error, solver miss, budget stop, explored, or
/// accepted (with the accepted cost).  Serialized as JSONL (one decision
/// per line) so a synthesis run can be replayed and analyzed offline.
///
/// Observation-only by construction: the log records what the search
/// decided, it never feeds anything back, so an attached log cannot
/// perturb the jobs=N determinism contract (DESIGN.md §8).  Records from
/// concurrent workers interleave in arrival order; the per-branch content
/// is deterministic, the inter-branch order is not — offline analysis
/// should group by (tag, sketch, depth), not by line number.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_OBSERVE_DECISIONLOG_H
#define STENSO_OBSERVE_DECISIONLOG_H

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace stenso {
namespace observe {

/// Thread-safe accumulating decision log.
class DecisionLog {
public:
  /// What the search did with one branch.
  enum class Outcome : uint8_t {
    /// The spec matched a library stub directly (Algorithm 2 base case).
    StubMatch,
    /// Branch-and-bound cut: concrete cost already at/above the bound.
    PrunedCost,
    /// The hole spec did not strictly simplify (Section V-A objective).
    PrunedSimplification,
    /// Candidate evaluation raised a recoverable error (overflow,
    /// injected fault).
    PrunedError,
    /// The hole solver found no representable solution (benign miss).
    NoSolution,
    /// The static analysis oracle proved the (sketch, spec) pair
    /// infeasible before the solver ran (sign/degree disjointness; see
    /// analysis/PruningOracle.h).
    PrunedAnalysis,
    /// The resource budget latched; the enclosing loop unwound here.
    BudgetStop,
    /// The branch was recursed into but produced no improvement.
    Explored,
    /// The branch completed a program that became the incumbent.
    Accepted,
    /// The attached persistent store latched into degraded in-memory
    /// mode during this run (repeated write failures); recorded once at
    /// run end with the search outcome untouched.
    StoreDegraded,
    /// Library sketch dropped before the search by the admissible
    /// static cost bound (analysis/CostBound.h): no well-typed
    /// completion of it can beat the original program.  Recorded at
    /// depth 0 with the original cost as the bound.  Appended after
    /// StoreDegraded to keep earlier numeric values stable.
    PrunedCostBound,
  };
  static const char *toString(Outcome O);

  /// Records one decision.  \p Sketch is the sketch's canonical library
  /// index (-1 for the stub-match pseudo-branch), \p CostBound the
  /// branch-and-bound bound observed at entry, \p Cost the accepted or
  /// matched cost (0 when not applicable).  \p Tag labels the run (suite
  /// mode stamps the benchmark name; empty otherwise).
  void record(int32_t Sketch, int32_t Depth, double CostBound, Outcome O,
              double Cost, const std::string &Tag);

  size_t size() const;

  /// One JSON object per line:
  /// {"seq":0,"sketch":3,"depth":1,"bound":42.0,"outcome":"explored",
  ///  "cost":0,"tag":"diag_dot"}
  void writeJsonl(std::ostream &OS) const;

  /// One decision with the tag resolved, for in-process consumers (the
  /// fuzzer's coverage map folds these into branch-coverage keys).
  struct Decision {
    int32_t Sketch;
    int32_t Depth;
    double CostBound;
    double Cost;
    Outcome O;
    std::string Tag;
  };

  /// A copy of every record in arrival order.  Remember that inter-branch
  /// order is scheduling-dependent under --jobs > 1; consumers must treat
  /// the result as a multiset (see the file comment).
  std::vector<Decision> snapshot() const;

  void clear();

private:
  struct Record {
    int32_t Sketch;
    int32_t Depth;
    double CostBound;
    double Cost;
    Outcome O;
    /// Index into Tags; tags are interned so records stay small.
    uint32_t Tag;
  };

  mutable std::mutex M;
  std::vector<Record> Records;
  std::vector<std::string> Tags;
  std::unordered_map<std::string, uint32_t> TagIndex;
};

} // namespace observe
} // namespace stenso

#endif // STENSO_OBSERVE_DECISIONLOG_H
