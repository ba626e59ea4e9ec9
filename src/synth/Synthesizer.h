//===- Synthesizer.h - Cost-guided sketch-based synthesis ------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core of STENSO (paper Algorithms 1 and 2): top-down recursive
/// sketch-based synthesis with a monotone-simplification objective and
/// cost-guided branch-and-bound pruning.
///
/// The search starts from the symbolic spec Phi of the input program,
/// repeatedly peels operations off by solving library sketches against
/// the current spec (each step must strictly reduce the specification
/// complexity |var(Phi)| * density(Phi)), and bottoms out when a library
/// stub's spec matches exactly.  Branches whose accumulated estimated
/// cost reaches the best complete program found so far are pruned.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SYNTH_SYNTHESIZER_H
#define STENSO_SYNTH_SYNTHESIZER_H

#include "analysis/CostBound.h"
#include "synth/HoleSolver.h"
#include "synth/SketchLibrary.h"

#include <iosfwd>
#include <memory>
#include <string>

namespace stenso {

namespace observe {
class DecisionLog;
class ProgressMonitor;
}

namespace synth {

/// Tuning knobs of one synthesis run.
struct SynthesisConfig {
  /// "flops" or "measured" (paper Section VI-C uses measured).
  std::string CostModelName = "flops";
  /// Disable for the simplification-only ablation of Fig. 5.  Gates
  /// both the incumbent prune during the search (Algorithm 2, line 16)
  /// and the library-build drop of sketches whose admissible cost floor
  /// cannot beat the original program (analysis/CostBound.h; DESIGN.md
  /// §14).
  bool UseBranchAndBound = true;
  /// The static analysis oracle (analysis/PruningOracle.h): shape
  /// reachability at library build plus sign/degree disjointness before
  /// each solver call.  Sound — the oracle only rejects (sketch, spec)
  /// pairs the solver would fail on anyway, so the synthesized program,
  /// cost, and AbortReason are identical with it on or off (DESIGN.md
  /// §10 for the argument and the budget-boundary caveats).  Escape
  /// hatch: stenso-opt --no-analysis-pruning.
  bool UseAnalysisPruning = true;
  /// Wall-clock budget; <= 0 means unlimited.  The paper's evaluation
  /// uses 600 s.
  double TimeoutSeconds = 600;
  /// Cap on symbolic nodes interned during the run; <= 0 unlimited.
  int64_t MaxSymbolicNodes = 0;
  /// Cap on hole-solver invocations; <= 0 unlimited.
  int64_t MaxSolverCalls = 0;
  /// Safety cap on sketch-nesting depth.
  int MaxRecursionDepth = 10;
  /// Worker threads for sketch-level parallel exploration.  1 = the
  /// sequential engine; > 1 explores top-level sketch branches
  /// concurrently; <= 0 = one per hardware thread.  Any value returns
  /// the same program, cost, and AbortReason as the sequential engine
  /// (see DESIGN.md "Parallel search architecture" for the contract and
  /// its budget-boundary caveat).
  int Jobs = 1;
  /// When set, this run charges the caller's budget instead of creating
  /// its own from the Timeout/Max* fields — the harness runs a whole
  /// suite under one global budget this way.  Must outlive the run.
  ResourceBudget *SharedBudget = nullptr;
  /// Opt-in search-decision log (see observe/DecisionLog.h).  Strictly
  /// observation-only: attaching one never changes the search.  Must
  /// outlive the run.
  observe::DecisionLog *Decisions = nullptr;
  /// Opt-in persistent synthesis store (persist/StensoStore.h).  Warm
  /// records let the run skip already-solved holes, and the run writes
  /// its own solver results behind.  Because the solver cache memoizes a
  /// pure function and every persisted answer is content-keyed (and
  /// re-verified when positive), attaching a store — warm, cold, torn,
  /// or corrupt — never changes the synthesized program, cost, or
  /// AbortReason of an unbudgeted run; a killed search resumes by
  /// rerunning warm.  Must outlive the run.
  persist::StensoStore *Store = nullptr;
  /// Tag stamped on every decision record (the harness uses the
  /// benchmark name; empty for standalone runs).
  std::string DecisionsTag;
  /// Opt-in live heartbeat (observe/Progress.h).  The run installs a
  /// sampler over its atomic counters (budget consumption, solver-cache
  /// traffic, the shared best-cost bound) for its duration, then
  /// freezes a final snapshot so the monitor's closing record reflects
  /// the finished run.  Observation-only: the sampler only *reads*
  /// atomics, so attaching a monitor never changes the search.  The
  /// caller owns start()/stop() (a monitor may span a whole suite).
  /// Must outlive the run.
  observe::ProgressMonitor *Progress = nullptr;
  SketchLibrary::Config Library;
};

/// Search counters for the evaluation harness.  Every loop over the
/// counters (the parallel engine's merge, the metrics publication, the
/// `--stats-json` writer) goes through StatsFields below, so a new
/// counter is added here and there, nowhere else.
struct SynthesisStats {
  int64_t NumStubs = 0;
  int64_t NumSketches = 0;
  int64_t DfsCalls = 0;
  int64_t SketchesExplored = 0;
  int64_t PrunedByCost = 0;
  /// Library sketches dropped at build time by the admissible static
  /// cost bound (analysis/CostBound.h; DESIGN.md §14).
  int64_t PrunedByCostBound = 0;
  int64_t PrunedBySimplification = 0;
  /// Candidate branches abandoned because evaluation raised a
  /// recoverable error (overflow, injected fault, ...).
  int64_t PrunedByError = 0;
  /// Candidates rejected by the static analysis oracle before any
  /// solver/symexec work (sum of the per-domain counters below).
  int64_t PrunedByAnalysis = 0;
  int64_t AnalysisPrunedSign = 0;
  int64_t AnalysisPrunedDegree = 0;
  int64_t AnalysisPrunedShape = 0;
  /// Variable-support prunes (bottom-up engine only; the DFS engine's
  /// support filter predates the oracle and is counted separately).
  int64_t AnalysisPrunedSupport = 0;
  /// Hole-solver invocations by the search, and those that returned a
  /// hole spec (each then either simplification-pruned or explored).
  int64_t SolverCalls = 0;
  int64_t SolverSuccesses = 0;
  /// Hole-solver memo-cache telemetry (hits + misses = probes).
  int64_t SolverCacheHits = 0;
  int64_t SolverCacheMisses = 0;
  int64_t SolverCacheEvictions = 0;
  /// ExprContext interning telemetry: distinct nodes, total intern
  /// probes, and probes that reused an existing node.
  int64_t InternedNodes = 0;
  int64_t InternLookups = 0;
  int64_t InternHits = 0;
  /// Persistent-store traffic (zero when no store is attached): verified
  /// warm answers served (full solves avoided), records rejected by
  /// decode/re-verification, and results written behind.
  int64_t StoreHits = 0;
  int64_t StoreRejected = 0;
  int64_t StorePuts = 0;
};

/// One SynthesisStats counter: its member, its `--stats-json` key and
/// its metrics-registry name (null when the counter is not written
/// there).
struct StatsField {
  int64_t SynthesisStats::*Member;
  const char *JsonKey;
  const char *MetricName;
};

/// Every SynthesisStats counter, in `--stats-json` key order.
inline constexpr StatsField StatsFields[] = {
    {&SynthesisStats::NumStubs, "num_stubs", nullptr},
    {&SynthesisStats::NumSketches, "num_sketches", nullptr},
    {&SynthesisStats::DfsCalls, "dfs_calls", "synth.dfs_calls"},
    {&SynthesisStats::SketchesExplored, "sketches_explored",
     "synth.sketches_explored"},
    {&SynthesisStats::PrunedByCost, "pruned_cost", "synth.prune.cost"},
    {&SynthesisStats::PrunedByCostBound, "pruned_costbound",
     "synth.prune.costbound"},
    {&SynthesisStats::PrunedBySimplification, "pruned_simplification",
     "synth.prune.simplify"},
    {&SynthesisStats::PrunedByError, "pruned_error", "synth.prune.error"},
    {&SynthesisStats::PrunedByAnalysis, "pruned_analysis",
     "synth.prune.analysis"},
    {&SynthesisStats::AnalysisPrunedSign, "analysis_pruned_sign",
     "synth.prune.analysis.sign"},
    {&SynthesisStats::AnalysisPrunedDegree, "analysis_pruned_degree",
     "synth.prune.analysis.degree"},
    {&SynthesisStats::AnalysisPrunedShape, "analysis_pruned_shape",
     "synth.prune.analysis.shape"},
    {&SynthesisStats::AnalysisPrunedSupport, nullptr, nullptr},
    {&SynthesisStats::SolverCalls, "solver_calls", "holesolver.calls"},
    {&SynthesisStats::SolverSuccesses, "solver_successes", nullptr},
    {&SynthesisStats::SolverCacheHits, "solver_cache_hits",
     "holesolver.cache.hit"},
    {&SynthesisStats::SolverCacheMisses, "solver_cache_misses",
     "holesolver.cache.miss"},
    {&SynthesisStats::SolverCacheEvictions, "solver_cache_evictions",
     "holesolver.cache.evict"},
    {&SynthesisStats::InternedNodes, "interned_nodes",
     "exprctx.interned_nodes"},
    {&SynthesisStats::InternLookups, "intern_lookups",
     "exprctx.intern_lookups"},
    {&SynthesisStats::InternHits, "intern_hits", "exprctx.intern_hits"},
    {&SynthesisStats::StoreHits, "store_hits", "synth.store.hits"},
    {&SynthesisStats::StoreRejected, "store_rejected",
     "synth.store.rejected"},
    {&SynthesisStats::StorePuts, "store_puts", "synth.store.puts"},
};

/// Why a synthesis run stopped short of an exhaustive search.  Ordered by
/// reporting precedence: Timeout > BudgetExceeded > InternalError > None.
enum class AbortReason {
  /// The search ran to completion.
  None,
  /// The wall-clock budget expired.
  Timeout,
  /// A resource cap (symbolic nodes, solver calls) was hit.
  BudgetExceeded,
  /// Recoverable errors degraded the run (setup failed, or every path to
  /// an improvement was error-pruned).
  InternalError,
};

const char *toString(AbortReason R);

/// Outcome of a synthesis run.  Always well-formed: OptimizedSource holds
/// the original program whenever no improvement was accepted, whatever
/// the abort reason.
struct SynthesisResult {
  /// True when a strictly cheaper equivalent program was found.
  bool Improved = false;
  /// Legacy alias of Abort == AbortReason::Timeout.
  bool TimedOut = false;
  AbortReason Abort = AbortReason::None;
  /// NumPy source of the result (the original program when !Improved).
  std::string OptimizedSource;
  double OriginalCost = 0;
  double OptimizedCost = 0;
  double SynthesisSeconds = 0;
  SynthesisStats Stats;
  /// The optimized program at the search shapes (null when !Improved).
  std::unique_ptr<dsl::Program> Optimized;
};

/// One-shot synthesizer (Algorithm 1).  Construct per run.
class Synthesizer {
public:
  explicit Synthesizer(SynthesisConfig Config = SynthesisConfig());

  /// Superoptimizes \p Clamped, a (possibly shape-reduced) program.
  /// \p Scaler maps reduced extents back to the workload's original ones
  /// for cost estimation; pass a default ShapeScaler when \p Clamped is
  /// already at its real shapes.
  SynthesisResult run(const dsl::Program &Clamped, const ShapeScaler &Scaler);

  /// Convenience overload at identity scaling.
  SynthesisResult run(const dsl::Program &Program) {
    return run(Program, ShapeScaler());
  }

private:
  SynthesisConfig Config;
};

/// The specification-complexity metric |var(Phi)| * density(Phi)
/// (Section V-A): distinct symbols times non-zero density.
double specComplexity(const symexec::SymTensor &Spec);

/// Builds and seals the admissible cost-bound analysis for \p Library:
/// stubs become leaf completions and sketches become fixpoint edges.
/// Exposed so tests and benches exercise exactly the production
/// construction.  The model, scaler and bindings are unused; perfbench's
/// layer probe still calls this signature (ROADMAP item 10).
analysis::CostBoundAnalysis
buildCostBound(const SketchLibrary &Library, const CostModel &,
               const ShapeScaler &, const symexec::SymBinding &,
               int MaxRecursionDepth);

/// The determinism contract's equality: two runs agree when they found
/// the same improvement (source text), at the same cost, with the same
/// abort classification.  Exact double comparison is intentional — the
/// contract promises identical results, not close ones.  Search
/// *statistics* are excluded (DESIGN.md §8: pruning-discipline counters
/// legitimately differ across engines).  This is the comparison every
/// differential harness (fuzz oracle, parallel/pruning benches) uses;
/// remember it is only meaningful when both runs completed
/// (Abort == None) — budget-truncated searches stop at
/// scheduling-dependent points.
bool sameSearchOutcome(const SynthesisResult &A, const SynthesisResult &B);

/// Human-readable diff of the contract fields for mismatch reports;
/// empty when sameSearchOutcome(A, B).
std::string describeOutcomeDiff(const SynthesisResult &A,
                                const SynthesisResult &B);

/// Serializes a run's outcome + stats as the canonical `--stats-json`
/// document (the format stenso-report ingests and cross-checks against
/// the decision log).  One writer, shared by stenso-opt, the harness,
/// and the benches, so the schema cannot fork.
void writeStatsJson(const SynthesisResult &Result, std::ostream &OS);

} // namespace synth
} // namespace stenso

#endif // STENSO_SYNTH_SYNTHESIZER_H
