//===- Synthesizer.cpp - Cost-guided sketch-based synthesis ---------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "synth/Synthesizer.h"

#include "analysis/PruningOracle.h"
#include "dsl/Printer.h"
#include "observe/DecisionLog.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Progress.h"
#include "observe/Trace.h"
#include "persist/StensoStore.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <atomic>
#include <unordered_set>

using namespace stenso;
using namespace stenso::synth;
using namespace stenso::dsl;
using symexec::SymTensor;

const char *synth::toString(AbortReason R) {
  switch (R) {
  case AbortReason::None:
    return "None";
  case AbortReason::Timeout:
    return "Timeout";
  case AbortReason::BudgetExceeded:
    return "BudgetExceeded";
  case AbortReason::InternalError:
    return "InternalError";
  }
  return "None";
}

double synth::specComplexity(const SymTensor &Spec) {
  // |var(Phi)| * density(Phi).  We instantiate |var| as the total number
  // of input-symbol occurrences across the expanded spec: unlike a
  // distinct-symbol count, occurrences decrease *strictly* whenever a
  // sketch peels arithmetic off the spec, which is what makes the
  // monotone-simplification objective guarantee progress (Section V-A).
  int64_t Occurrences = 0;
  for (const sym::Expr *E : Spec.getElements())
    Occurrences += sym::countSymbolOccurrences(E);
  return static_cast<double>(Occurrences) * Spec.density();
}

analysis::CostBoundAnalysis
synth::buildCostBound(const SketchLibrary &Library, const CostModel &Model,
                      const ShapeScaler &Scaler,
                      const symexec::SymBinding &Bindings,
                      int MaxRecursionDepth) {
  // Floors are queried at search (clamped) shapes; map them to the
  // workload's real extents exactly as costOfOp does, so the bound and
  // the costs it is compared against share one unit system.
  analysis::CostBoundAnalysis::OpFloorFn Floors =
      [&Model, &Scaler](dsl::OpKind K, const dsl::TensorType &T) {
        return Model.opCostFloor(
            K, dsl::TensorType{T.Dtype, Scaler.scaleUp(T.TShape)});
      };
  analysis::CostBoundAnalysis CB(std::move(Floors), Library.getOps());
  for (const Stub &S : Library.getStubs())
    CB.addLeafCompletion(S.Root->getType(), S.Cost);
  for (const Sketch &Sk : Library.getSketches())
    CB.addSketchEdge(
        dsl::TensorType{Sk.Template.getDType(), Sk.Template.getShape()},
        Sk.HoleType, Sk.ConcreteCost);
  for (const auto &[Name, Spec] : Bindings) {
    (void)Name;
    CB.addInputSpec(Spec);
  }
  CB.seal(MaxRecursionDepth);
  return CB;
}

bool synth::sameSearchOutcome(const SynthesisResult &A,
                              const SynthesisResult &B) {
  return A.Improved == B.Improved && A.Abort == B.Abort &&
         A.OptimizedCost == B.OptimizedCost &&
         A.OptimizedSource == B.OptimizedSource;
}

std::string synth::describeOutcomeDiff(const SynthesisResult &A,
                                       const SynthesisResult &B) {
  std::string Out;
  auto Add = [&Out](const std::string &Piece) {
    if (!Out.empty())
      Out += "; ";
    Out += Piece;
  };
  if (A.Improved != B.Improved)
    Add(std::string("improved ") + (A.Improved ? "true" : "false") + " vs " +
        (B.Improved ? "true" : "false"));
  if (A.Abort != B.Abort)
    Add(std::string("abort ") + toString(A.Abort) + " vs " +
        toString(B.Abort));
  if (A.OptimizedCost != B.OptimizedCost)
    Add("cost " + std::to_string(A.OptimizedCost) + " vs " +
        std::to_string(B.OptimizedCost));
  if (A.OptimizedSource != B.OptimizedSource)
    Add("source '" + A.OptimizedSource + "' vs '" + B.OptimizedSource + "'");
  return Out;
}

namespace {

/// Distinct input-tensor names mentioned by a spec.
std::unordered_set<std::string> tensorNamesOf(const SymTensor &Spec) {
  std::unordered_set<std::string> Names;
  for (const sym::Expr *E : Spec.getElements())
    for (const sym::SymbolExpr *S : sym::collectSymbols(E))
      Names.insert(S->getTensorName().empty() ? S->getName()
                                              : S->getTensorName());
  return Names;
}

/// Rebuilds \p Tree with the (unique) node \p From replaced by \p To.
const Node *substituteNode(Program &Arena, const Node *Tree, const Node *From,
                           const Node *To) {
  if (Tree == From)
    return To;
  if (Tree->getNumOperands() == 0)
    return Tree;
  std::vector<const Node *> Operands;
  Operands.reserve(Tree->getNumOperands());
  bool Changed = false;
  for (const Node *Op : Tree->getOperands()) {
    const Node *NewOp = substituteNode(Arena, Op, From, To);
    Changed |= NewOp != Op;
    Operands.push_back(NewOp);
  }
  if (!Changed)
    return Tree;
  const Node *Result =
      Arena.tryMake(Tree->getKind(), std::move(Operands), Tree->getAttrs());
  assert(Result && "substitution broke a well-typed tree");
  return Result;
}

/// Lowers \p Bound to \p Value if smaller (monotone; relaxed ordering is
/// sound — a stale read only weakens pruning, never soundness).
void atomicMinDouble(std::atomic<double> &Bound, double Value) {
  double Current = Bound.load(std::memory_order_relaxed);
  while (Value < Current &&
         !Bound.compare_exchange_weak(Current, Value,
                                      std::memory_order_relaxed)) {
  }
}

/// The recursive search state of one run (in the parallel engine: of one
/// top-level branch, with its own stats and result arena).
class SearchDriver {
public:
  /// \p Arena receives the substituted result trees — the shared library
  /// arena in the sequential engine, a per-branch arena in the parallel
  /// one (workers must not allocate into a shared arena).  \p SharedBound
  /// non-null selects the parallel pruning discipline (see prunes()).
  /// \p Progress, when attached, mirrors every tightened incumbent cost
  /// for the heartbeat.  Observation-only: the search never reads it.
  /// \p CostBound, when attached, enables the admissible static
  /// cost-bound prune (the caller only passes one when both
  /// UseBranchAndBound and UseCostBoundPruning are set).
  SearchDriver(const SynthesisConfig &Config, SketchLibrary &Library,
               HoleSolver &Solver, SynthesisStats &Stats,
               ResourceBudget &Budget, Program &Arena,
               std::atomic<double> *SharedBound = nullptr,
               std::atomic<double> *Progress = nullptr,
               const analysis::CostBoundAnalysis *CostBound = nullptr)
      : Config(Config), Library(Library), Solver(Solver), Stats(Stats),
        Budget(Budget), Arena(Arena), SharedBound(SharedBound),
        Progress(Progress), CostBound(CostBound) {}

  struct Candidate {
    const Node *Tree = nullptr;
    double Cost = 0;
  };

  /// What every branch of one dfs level shares: the spec, the level, the
  /// concrete cost accumulated by enclosing sketches, and the spec-side
  /// data the per-sketch filters read.  Read-only once built, so the
  /// parallel engine's workers share the root frame.
  struct Frame {
    Frame(const SymTensor &Phi, int Level, double CostSoFar)
        : Phi(Phi), Level(Level), CostSoFar(CostSoFar),
          Complexity(specComplexity(Phi)), Tensors(tensorNamesOf(Phi)) {}
    const SymTensor &Phi;
    int Level;
    double CostSoFar;
    double Complexity;
    std::unordered_set<std::string> Tensors;
  };

  /// Algorithm 2.  \p CostSoFar is the concrete cost accumulated by
  /// enclosing sketches; \p CostMin is the branch-and-bound incumbent
  /// (pass-by-reference as in the paper).
  std::optional<Candidate> dfs(const SymTensor &Phi, int Level,
                               double CostSoFar, double &CostMin) {
    STENSO_TRACE_NAMED_SPAN(DfsSpan, "synth", "dfs");
    DfsSpan.arg("depth", Level);
    std::optional<Candidate> Best;
    if (!enterLevel(Phi, Level, CostSoFar, CostMin, Best))
      return Best;
    Frame F(Phi, Level, CostSoFar);
    std::optional<analysis::TensorAbstract> PhiSig;
    for (const Sketch *Sk :
         Library.getSketchesFor(Phi.getShape(), Phi.getDType()))
      if (!branch(*Sk, F, CostMin, PhiSig, Best))
        break;
    return Best;
  }

  /// Algorithm 2's level prologue: the budget checkpoint, the cost-bound
  /// entry check, and the stub match (lines 2-8), which seeds \p Best.
  /// Returns whether the level's sketches are to be explored.
  bool enterLevel(const SymTensor &Phi, int Level, double CostSoFar,
                  double &CostMin, std::optional<Candidate> &Best) {
    ++Stats.DfsCalls;
    if (!Budget.checkpoint()) {
      decide(-1, Level, bound(CostMin), Decision::BudgetStop);
      return false;
    }

    // True branch-and-bound (DESIGN.md §14): a static lower bound on the
    // cost of *every* well-typed completion of Phi.  When even that floor
    // cannot beat the incumbent, nothing below this level can — not even
    // the stub match, whose cost the floor under-approximates (so the
    // tighten it would have applied is a no-op anyway).
    if (CostBound &&
        prunes(CostSoFar + CostBound->specLowerBound(Phi), CostMin)) {
      ++Stats.PrunedByCostBound;
      decide(-1, Level, bound(CostMin), Decision::PrunedCostBound);
      return false;
    }

    // Base case (lines 2-8): a direct stub match.  The library keeps the
    // cheapest stub per spec, so this is the argmin over matches.  Unlike
    // the paper's pseudo-code we do not return early: the target spec can
    // match a stub that *is* the original program (the original is
    // re-derivable within the stub depth), while a cheaper decomposition
    // through sketches still exists — diag(dot(A,B)) is the canonical
    // case.  The match instead becomes the incumbent that sketch
    // exploration must beat, which also tightens the global bound.
    if (const Stub *Match = Library.findMatchingStub(Phi)) {
      // A stub match is the degenerate solver query (an all-concrete
      // sketch with no hole), so it shares the hole-solver fault site:
      // under STENSO_FAULT=holesolver:... no candidate path survives.
      RecoverableErrorScope FaultScope;
      if (maybeInjectFault(FaultSite::HoleSolve)) {
        (void)FaultScope.takeError();
        ++Stats.PrunedByError;
        decide(-1, Level, bound(CostMin), Decision::PrunedError);
      } else {
        Best = Candidate{Match->Root, Match->Cost};
        decide(-1, Level, bound(CostMin), Decision::StubMatch, Match->Cost);
        tighten(CostMin, CostSoFar + Match->Cost);
      }
    }
    return Level < Config.MaxRecursionDepth;
  }

  /// One branch of Algorithm 2 (lines 10-22): sketch \p Sk against the
  /// level \p F.  Runs the cost, cost-bound and oracle prunes, solves the
  /// hole, applies the simplification prune, recurses into the hole's
  /// spec, and substitutes the result into \p Best when it is cheaper;
  /// every outcome is booked in the stats and the decision log.
  /// \p PhiSig is the caller's oracle-signature cache for F.Phi (see
  /// oracleRejects).  Returns false when the budget stopped the level.
  bool branch(const Sketch &Sk, const Frame &F, double &CostMin,
              std::optional<analysis::TensorAbstract> &PhiSig,
              std::optional<Candidate> &Best) {
    int32_t SkIdx = static_cast<int32_t>(Sk.Index);
    auto Decide = [&](Decision O, double Cost = 0) {
      decide(SkIdx, F.Level, bound(CostMin), O, Cost);
    };
    if (!Budget.checkpoint()) {
      Decide(Decision::BudgetStop);
      return false;
    }
    // A sketch whose concrete part mentions tensors absent from Phi
    // could only match through cancellation; skip it.
    if (!sketchTensorsSubset(Sk, F.Tensors))
      return true;

    // Branch-and-bound (line 16): the concrete part alone already
    // forces the final program at or above the incumbent.
    double CostWithSketch = F.CostSoFar + Sk.ConcreteCost;
    if (Config.UseBranchAndBound && prunes(CostWithSketch, CostMin)) {
      ++Stats.PrunedByCost;
      Decide(Decision::PrunedCost);
      return true;
    }

    // Cost-bound refinement of the check above: the hole still has to
    // be completed.  Two admissible floors apply — the fixpoint floor
    // over typed completions reachable at the remaining depth, and the
    // obligation floor forcing the completion to supply every spec
    // tensor the concrete part misses (DESIGN.md §14).
    if (CostBound &&
        prunes(CostWithSketch +
                   std::max(CostBound->holeCompletionBound(
                                Sk.HoleType,
                                Config.MaxRecursionDepth - F.Level - 1),
                            CostBound->holeObligationFloor(
                                Sk.HoleType, F.Tensors, Sk.ConcreteTensors)),
               CostMin)) {
      ++Stats.PrunedByCostBound;
      Decide(Decision::PrunedCostBound);
      return true;
    }

    // Static oracle: provably-infeasible pairs skip the solver.
    if (analysis::PruneDomain D = oracleRejects(Sk, F.Phi, PhiSig);
        D != analysis::PruneDomain::None) {
      countAnalysisPrune(D);
      Decide(Decision::PrunedAnalysis);
      return true;
    }

    ++Stats.SolverCalls;
    Expected<SymTensor> HoleSpec = Solver.solve(Sk, F.Phi);
    if (!HoleSpec) {
      ErrC Code = HoleSpec.error().code();
      if (Code == ErrC::Timeout || Code == ErrC::BudgetExhausted) {
        Decide(Decision::BudgetStop);
        return false; // the budget latched; no point in trying more sketches
      }
      // NoSolution is the expected miss; anything else is a failed
      // candidate evaluation — prune the branch, keep searching.
      if (Code != ErrC::NoSolution) {
        ++Stats.PrunedByError;
        Decide(Decision::PrunedError);
      } else {
        Decide(Decision::NoSolution);
      }
      return true;
    }
    ++Stats.SolverSuccesses;

    // PRUNE (line 12): only monotonically simplifying decompositions.
    if (specComplexity(*HoleSpec) >= F.Complexity) {
      ++Stats.PrunedBySimplification;
      Decide(Decision::PrunedSimplification);
      return true;
    }

    ++Stats.SketchesExplored;
    std::optional<Candidate> Sub =
        dfs(*HoleSpec, F.Level + 1, CostWithSketch, CostMin);
    double SubtreeCost = Sub ? Sk.ConcreteCost + Sub->Cost : 0;
    if (!Sub || (Best && Best->Cost <= SubtreeCost)) {
      Decide(Decision::Explored);
      return true;
    }
    const Node *Filled = substituteNode(Arena, Sk.Root, Sk.Hole, Sub->Tree);
    Best = Candidate{Filled, SubtreeCost};
    Decide(Decision::Accepted, SubtreeCost);

    // Completing this hole completes a whole program of cost
    // CostSoFar + SubtreeCost (sketches have a single hole, so the
    // recursion is a chain); tighten the incumbent.
    tighten(CostMin, F.CostSoFar + SubtreeCost);
    return true;
  }

private:
  /// Branch-and-bound incumbent visible to this driver: the local chain
  /// minimum, tightened by the cross-worker bound when one is attached.
  double bound(double LocalMin) const {
    if (!SharedBound)
      return LocalMin;
    return std::min(LocalMin,
                    SharedBound->load(std::memory_order_relaxed));
  }

  /// Pruning discipline.  Sequential: `>=` — an equal-cost later branch
  /// cannot beat the incumbent, so cutting it keeps the DFS-first
  /// candidate.  Parallel: strict `>` — the shared bound may already
  /// carry an equal cost set by a *later* branch that merely finished
  /// first, and `>=` would then prune the branch owning the canonical
  /// (smallest-ordering-key) candidate.  With `>`, any candidate of cost
  /// <= the global minimum is never pruned (the bound is always >= that
  /// minimum), so the deterministic merge sees every tying branch.
  bool prunes(double Cost, double LocalMin) const {
    double B = bound(LocalMin);
    return SharedBound ? Cost > B : Cost >= B;
  }

  /// Tightens the local and (if attached) shared incumbent to a complete
  /// program of cost \p Cost.  Without branch-and-bound there is no bound
  /// to tighten, but the heartbeat cell still tracks the incumbent.
  void tighten(double &LocalMin, double Cost) {
    if (Config.UseBranchAndBound) {
      LocalMin = std::min(LocalMin, Cost);
      if (SharedBound)
        atomicMinDouble(*SharedBound, Cost);
    }
    if (Progress)
      atomicMinDouble(*Progress, Cost);
  }

  using Decision = observe::DecisionLog::Outcome;

  /// Appends one record to the attached decision log (no-op without one).
  /// Observation-only: the log never feeds back into the search.
  void decide(int32_t SketchIdx, int Level, double BoundAtEntry, Decision O,
              double Cost = 0) const {
    if (Config.Decisions)
      Config.Decisions->record(SketchIdx, Level, BoundAtEntry, O, Cost,
                               Config.DecisionsTag);
  }

  /// The static oracle's per-pair check (analysis/PruningOracle.h): can
  /// the sketch's template ever produce \p Phi?  Returns the domain that
  /// proves it cannot, or None.  \p PhiSig is the caller's per-level
  /// cache of the spec-side signature, filled on the first sketch that
  /// needs it (one dfs level queries many sketches against one Phi; a
  /// pointer-keyed cache would be wrong — spec temporaries of successive
  /// loop iterations can reuse a stack address).
  analysis::PruneDomain
  oracleRejects(const Sketch &Sk, const SymTensor &Phi,
                std::optional<analysis::TensorAbstract> &PhiSig) {
    if (!Config.UseAnalysisPruning || Sk.Signature.AllTop)
      return analysis::PruneDomain::None;
    if (!PhiSig)
      PhiSig = analysis::computeTensorAbstract(Phi, SpecAnalyzer);
    return analysis::oracleRejects(Sk.Signature, *PhiSig);
  }

  /// Books one oracle rejection into the per-domain counters.
  void countAnalysisPrune(analysis::PruneDomain D) {
    ++Stats.PrunedByAnalysis;
    if (D == analysis::PruneDomain::Sign)
      ++Stats.AnalysisPrunedSign;
    else if (D == analysis::PruneDomain::Degree)
      ++Stats.AnalysisPrunedDegree;
  }

  /// The concrete part's tensor-name filter over the precomputed sorted
  /// list (read-only; shared across workers).
  static bool
  sketchTensorsSubset(const Sketch &Sk,
                      const std::unordered_set<std::string> &PhiTensors) {
    for (const std::string &Name : Sk.ConcreteTensors)
      if (!PhiTensors.count(Name))
        return false;
    return true;
  }

  const SynthesisConfig &Config;
  SketchLibrary &Library;
  HoleSolver &Solver;
  SynthesisStats &Stats;
  ResourceBudget &Budget;
  Program &Arena;
  std::atomic<double> *SharedBound;
  std::atomic<double> *Progress;
  const analysis::CostBoundAnalysis *CostBound;
  /// Spec-side analyzer (no top symbols: query-spec symbols are the
  /// strictly positive inputs).  Memoizes per interned sym::Expr node,
  /// which is safe across specs — expressions are immutable and live in
  /// the run's shared ExprContext for the whole search.
  analysis::ExprAnalyzer SpecAnalyzer;
};

/// The sketch-level parallel engine: each top-level sketch branch is one
/// work-stealing task running SearchDriver::branch at level 0 and
/// exploring its subtree sequentially (chains are short; the fan-out is
/// at the root).  A shared atomic bound propagates branch-and-bound cuts
/// across workers; the final merge is deterministic — min cost, ties to
/// the stub match, then to the lowest branch index — which, together
/// with the strict-`>` pruning discipline (see SearchDriver::prunes),
/// reproduces the sequential engine's DFS-first winner exactly.
struct ParallelSearch {
  /// Per-branch arenas; must stay alive until the winner is cloned out.
  std::vector<std::unique_ptr<Program>> Arenas;

  std::optional<SearchDriver::Candidate>
  run(const SynthesisConfig &Config, SketchLibrary &Library,
      HoleSolver &Solver, SynthesisStats &Stats, ResourceBudget &Budget,
      const SymTensor &Phi, double OriginalCost,
      const analysis::CostBoundAnalysis *CostBound = nullptr,
      std::atomic<double> *Progress = nullptr,
      observe::ProgressMonitor *Monitor = nullptr) {
    // The level-0 prologue runs on the calling thread, before any worker
    // exists, through a SearchDriver with no shared bound: the sequential
    // `>=` discipline is exact here, and the stub match's fault-site draw
    // keeps the same global position as sequentially.  The shared bound
    // then starts from the incumbent it leaves.
    double CostMin = OriginalCost;
    std::optional<SearchDriver::Candidate> Best;
    SearchDriver Root(Config, Library, Solver, Stats, Budget,
                      Library.getArena(), nullptr, Progress, CostBound);
    if (!Root.enterLevel(Phi, 0, 0, CostMin, Best))
      return Best;
    std::atomic<double> Bound{CostMin};
    const SearchDriver::Frame Level0(Phi, 0, 0);
    const std::vector<const Sketch *> &Branches =
        Library.getSketchesFor(Phi.getShape(), Phi.getDType());

    struct BranchResult {
      std::optional<SearchDriver::Candidate> Cand;
      SynthesisStats Stats;
      std::unique_ptr<Program> Arena = std::make_unique<Program>();
    };
    std::vector<BranchResult> Results(Branches.size());

    size_t Jobs = Config.Jobs <= 0 ? ThreadPool::hardwareConcurrency()
                                   : static_cast<size_t>(Config.Jobs);
    ThreadPool Pool(Jobs);
    // Write-behind flushes ride the search pool so durability never
    // blocks a worker's solve loop.  Detached before the pool dies; the
    // draining destructor then finishes any in-flight flush task.
    if (Config.Store)
      Config.Store->setAsyncExecutor(
          [&Pool](std::function<void()> F) { Pool.submit(std::move(F)); });
    // Queue-depth probe for the heartbeat, for exactly the pool's
    // lifetime: the clearing call below swaps under the monitor's
    // sample mutex, so it blocks until any in-flight sample finishes
    // and no heartbeat can touch a dead pool.
    if (Monitor)
      Monitor->setQueueProbe(
          [&Pool]() -> int64_t { return Pool.getQueueDepth(); });
    Pool.parallelFor(0, Branches.size(), [&](size_t I) {
      const Sketch &Sk = *Branches[I];
      BranchResult &Out = Results[I];
      STENSO_TRACE_NAMED_SPAN(BranchSpan, "synth", "branch");
      BranchSpan.arg("sketch", static_cast<int32_t>(Sk.Index));
      SearchDriver Driver(Config, Library, Solver, Out.Stats, Budget,
                          *Out.Arena, &Bound, Progress, CostBound);
      double LocalMin = CostMin;
      std::optional<analysis::TensorAbstract> PhiSig;
      // The task's candidate slot starts empty, so the branch's own
      // winner is always recorded for the merge below.
      Driver.branch(Sk, Level0, LocalMin, PhiSig, Out.Cand);
    });
    if (Monitor)
      Monitor->setQueueProbe(nullptr);
    if (Config.Store)
      Config.Store->setAsyncExecutor(nullptr);

    // Deterministic merge: strict `<` keeps the stub match on ties and,
    // among branches, the lowest library index — the sequential DFS-first
    // winner.
    for (BranchResult &Out : Results) {
      for (const StatsField &F : StatsFields)
        Stats.*F.Member += Out.Stats.*F.Member;
      if (Out.Cand && (!Best || Out.Cand->Cost < Best->Cost))
        Best = Out.Cand;
      Arenas.push_back(std::move(Out.Arena));
    }
    return Best;
  }
};

} // namespace

namespace {

/// Publishes a run's counters into the global registry — the flush
/// point for everything the hot paths kept in local SynthesisStats.
/// Called on *every* exit path of Synthesizer::run, including budget
/// aborts and setup failures, so an aborted search never loses its
/// telemetry tail.  \p Solver adds the per-shard cache breakdown when
/// the run got far enough to have one.
void publishRunMetrics(const SynthesisResult &Result,
                       const HoleSolver *Solver) {
  observe::MetricsRegistry &M = observe::MetricsRegistry::global();
  const SynthesisStats &S = Result.Stats;
  M.counter("synth.runs").add(1);
  M.counter("synth.improved").add(Result.Improved ? 1 : 0);
  M.counter("synth.aborted")
      .add(Result.Abort == AbortReason::None ? 0 : 1);
  for (const StatsField &F : StatsFields)
    if (F.MetricName)
      M.counter(F.MetricName).add(S.*F.Member);
  M.histogram("synth.run_seconds", {0.001, 0.01, 0.1, 1, 10, 60, 300, 600})
      .record(Result.SynthesisSeconds);
  if (Solver) {
    std::array<int64_t, 16> Hits = Solver->getCacheHitsByShard();
    std::array<int64_t, 16> Misses = Solver->getCacheMissesByShard();
    for (size_t I = 0; I < Hits.size(); ++I) {
      if (Hits[I] == 0 && Misses[I] == 0)
        continue;
      std::string Prefix =
          "holesolver.cache.shard." + std::to_string(I);
      M.counter(Prefix + ".hit").add(Hits[I]);
      M.counter(Prefix + ".miss").add(Misses[I]);
    }
  }
}

} // namespace

Synthesizer::Synthesizer(SynthesisConfig Config) : Config(std::move(Config)) {}

SynthesisResult Synthesizer::run(const Program &Clamped,
                                 const ShapeScaler &Scaler) {
  assert(Clamped.getRoot() && "program has no root");
  WallTimer Timer;
  STENSO_TRACE_NAMED_SPAN(RunSpan, "synth", "run");
  RunSpan.arg("jobs", Config.Jobs);
  // A caller-provided budget (the harness's suite-global one) replaces
  // the per-run limits; it may already be partially consumed.  Snapshot
  // its counters so a shared budget reports per-run deltas in the stats.
  ResourceBudget LocalBudget(ResourceBudget::Limits{
      Config.TimeoutSeconds, Config.MaxSymbolicNodes, Config.MaxSolverCalls});
  ResourceBudget &Budget =
      Config.SharedBudget ? *Config.SharedBudget : LocalBudget;
  int64_t CheckpointCalls0 = Budget.getCheckpointCalls();
  int64_t ClockReads0 = Budget.getClockReads();
  SynthesisResult Result;
  Result.OptimizedSource = printProgram(Clamped);

  std::unique_ptr<CostModel> Model = makeCostModel(Config.CostModelName);

  // Algorithm 1, lines 2-5: cost of the original program, its spec, the
  // sketch library, and the initial bound.
  Result.OriginalCost = Model->costOfTree(Clamped.getRoot(), Scaler);
  Result.OptimizedCost = Result.OriginalCost;

  sym::ExprContext Ctx;
  Ctx.setBudget(&Budget);

  // Specification of the input program.  If this fails (overflow,
  // injected fault) there is nothing to search against: degrade to the
  // original program instead of aborting.
  symexec::SymBinding Bindings;
  std::optional<SymTensor> Phi;
  {
    STENSO_TRACE_SPAN("synth", "spec");
    RecoverableErrorScope SetupScope;
    Bindings = symexec::makeInputBindings(Clamped, Ctx);
    SymTensor Spec = symexec::symbolicExecute(Clamped.getRoot(), Ctx, Bindings);
    if (!SetupScope.hasError())
      Phi = std::move(Spec);
  }
  if (!Phi) {
    ++Result.Stats.PrunedByError;
    Result.Abort = AbortReason::InternalError;
    Result.SynthesisSeconds = Timer.elapsedSeconds();
    // A failed-setup run still reports itself: flush the counters it
    // accumulated (and the failure record) so telemetry never loses a
    // degraded run's tail.
    publishRunMetrics(Result, /*Solver=*/nullptr);
    if (Config.Decisions)
      Config.Decisions->record(-1, 0, Result.OriginalCost,
                               observe::DecisionLog::Outcome::PrunedError, 0,
                               Config.DecisionsTag);
    return Result;
  }

  std::optional<SketchLibrary> LibraryStorage;
  {
    STENSO_TRACE_NAMED_SPAN(LibSpan, "synth", "library");
    SketchLibrary::Config LibCfg = Config.Library;
    LibCfg.AnalysisPruning = Config.UseAnalysisPruning;
    LibraryStorage.emplace(Clamped, Ctx, Bindings, *Model, Scaler, LibCfg,
                           &Budget);
    LibSpan.arg("stubs", LibraryStorage->getStubs().size());
    LibSpan.arg("sketches", LibraryStorage->getSketches().size());
  }
  SketchLibrary &Library = *LibraryStorage;
  Result.Stats.NumStubs = Library.getStubs().size();
  Result.Stats.NumSketches = Library.getSketches().size();
  Result.Stats.PrunedByError += Library.getNumCandidatesFailed();
  Result.Stats.AnalysisPrunedShape = Library.getNumShapePruned();
  Result.Stats.PrunedByAnalysis += Result.Stats.AnalysisPrunedShape;

  // Admissible static cost-bound analysis (analysis/CostBound.h;
  // DESIGN.md §14): built over the full library, then used twice —
  // here, to drop sketches no completion of which can beat the original
  // program (at any level: the floor at the full remaining depth is the
  // smallest, hence valid everywhere), and during the search, to bound
  // partial chains against the shared incumbent.  NumSketches keeps the
  // enumerated count; the drops are booked as cost-bound prunes.
  std::optional<analysis::CostBoundAnalysis> CostBound;
  if (Config.UseBranchAndBound && Config.UseCostBoundPruning) {
    STENSO_TRACE_NAMED_SPAN(CbSpan, "synth", "costbound");
    CostBound.emplace(buildCostBound(Library, *Model, Scaler, Bindings,
                                     Config.MaxRecursionDepth));
    double Original = Result.OriginalCost;
    size_t Dropped = Library.removeSketchesIf([&](const Sketch &Sk) {
      double Floor = CostBound->holeCompletionBound(Sk.HoleType,
                                                    Config.MaxRecursionDepth);
      if (Sk.ConcreteCost + Floor < Original)
        return false;
      ++Result.Stats.PrunedByCostBound;
      if (Config.Decisions)
        Config.Decisions->record(
            static_cast<int32_t>(Sk.Index), 0, Original,
            observe::DecisionLog::Outcome::PrunedCostBound, 0,
            Config.DecisionsTag);
      return true;
    });
    CbSpan.arg("dropped", Dropped);
  }

  HoleSolver Solver(Ctx, Bindings);
  Solver.setBudget(&Budget);

  // Persistent store attachment: warm records serve solved holes, and
  // computed results are written behind.
  persist::StensoStore *Store = Config.Store;
  if (Store)
    Solver.setStore(Store);
  std::atomic<double> ProgressCost{Result.OriginalCost};

  // Live heartbeat attachment: the sampler reads nothing but atomics
  // (budget consumption, solver counters, the shared best-cost cell),
  // so the monitor's thread can fire mid-search without perturbing it.
  // The monitor's lifecycle (start/stop) belongs to the caller; this
  // run only lends it a view of the search for the duration.
  observe::ProgressMonitor *Monitor = Config.Progress;
  int ResolvedJobs = Config.Jobs <= 0
                         ? static_cast<int>(ThreadPool::hardwareConcurrency())
                         : Config.Jobs;
  auto SampleNow = [&Budget, &Solver, &ProgressCost, ResolvedJobs,
                    Limits = Budget.getLimits()] {
    observe::ProgressSample S;
    // "Candidates" is hole-solver invocations: the unit of search work
    // whose rate the heartbeat tracks (DESIGN.md §13).
    S.Candidates = Solver.getNumCalls();
    S.Nodes = Budget.getSymbolicNodes();
    S.NodeCap = Limits.MaxSymbolicNodes;
    S.SolverCalls = Solver.getNumCalls();
    S.SolverCap = Limits.MaxSolverCalls;
    S.WallLimitSeconds = Limits.WallSeconds;
    S.BestCost = ProgressCost.load(std::memory_order_relaxed);
    S.HasBest = true;
    S.CacheHits = Solver.getCacheHits();
    S.CacheMisses = Solver.getCacheMisses();
    S.Jobs = ResolvedJobs;
    return S;
  };
  if (Monitor)
    Monitor->setSampler(SampleNow);

  // Engine selection: Jobs == 1 is the sequential reference engine; any
  // other value fans top-level sketch branches out over a work-stealing
  // pool and must return the identical program/cost/AbortReason.
  std::optional<SearchDriver::Candidate> Best;
  ParallelSearch Parallel; // owns branch arenas until the clone below
  {
    STENSO_TRACE_NAMED_SPAN(SearchSpan, "synth", "search");
    if (Config.Jobs == 1) {
      SearchDriver Driver(Config, Library, Solver, Result.Stats, Budget,
                          Library.getArena(), nullptr,
                          Monitor ? &ProgressCost : nullptr,
                          CostBound ? &*CostBound : nullptr);
      double CostMin = Result.OriginalCost;
      Best = Driver.dfs(*Phi, 0, 0, CostMin);
    } else {
      Best = Parallel.run(Config, Library, Solver, Result.Stats, Budget, *Phi,
                          Result.OriginalCost,
                          CostBound ? &*CostBound : nullptr,
                          Monitor ? &ProgressCost : nullptr,
                          Monitor);
    }
    SearchSpan.arg("found", Best.has_value());
  }

  Result.Stats.SolverCacheHits = Solver.getCacheHits();
  Result.Stats.SolverCacheMisses = Solver.getCacheMisses();
  Result.Stats.SolverCacheEvictions = Solver.getCacheEvictions();
  Result.Stats.InternedNodes =
      static_cast<int64_t>(Ctx.getNumInternedNodes());
  Result.Stats.InternLookups = Ctx.getInternLookups();
  Result.Stats.InternHits = Ctx.getInternHits();
  Result.Stats.CheckpointCalls = Budget.getCheckpointCalls() - CheckpointCalls0;
  Result.Stats.CheckpointClockReads = Budget.getClockReads() - ClockReads0;
  Result.SynthesisSeconds = Timer.elapsedSeconds();

  // Algorithm 1, lines 7-10: accept only strict improvements.
  if (Best && Best->Cost < Result.OriginalCost) {
    Result.Improved = true;
    Result.OptimizedCost = Best->Cost;
    auto Optimized = std::make_unique<Program>();
    Optimized->setRoot(Program::cloneInto(*Optimized, Best->Tree));
    Result.OptimizedSource = printProgram(*Optimized);
    Result.Optimized = std::move(Optimized);
  }

  // Abort classification (precedence: Timeout > BudgetExceeded >
  // InternalError > None).  Error-pruned branches only count as a
  // degraded run when they may have cost us the improvement.
  if (Budget.latched())
    Result.Abort = Budget.exhaustedReason() == ErrC::Timeout
                       ? AbortReason::Timeout
                       : AbortReason::BudgetExceeded;
  else if (!Result.Improved && Result.Stats.PrunedByError > 0)
    Result.Abort = AbortReason::InternalError;
  Result.TimedOut = Result.Abort == AbortReason::Timeout;

  // Store finalization: flush synchronously — the search is over,
  // durability is no longer on anyone's hot path.
  if (Store) {
    Store->flush();
    Solver.setStore(nullptr);
    Result.Stats.StoreHits = Solver.getStoreHits();
    Result.Stats.StoreRejected = Solver.getStoreRejected();
    Result.Stats.StorePuts = Solver.getStorePuts();
    if (Store->degraded() && Config.Decisions)
      Config.Decisions->record(-1, 0, Result.OptimizedCost,
                               observe::DecisionLog::Outcome::StoreDegraded,
                               0, Config.DecisionsTag);
  }

  // Publish the run's telemetry into the global registry in one batch —
  // the flush point for every counter the hot paths kept local.  The
  // same helper runs on the setup-failure path above, so aborted runs
  // flush too.
  publishRunMetrics(Result, &Solver);

  // Freeze the heartbeat's view: the sampled objects (budget, solver,
  // the progress cell) die with this frame, so swap in a by-value
  // snapshot of the finished run.  The monitor's stop() then emits its
  // final record from this snapshot, whenever the caller gets there.
  if (Monitor) {
    observe::ProgressSample Final = SampleNow();
    Final.BestCost = Result.OptimizedCost;
    Monitor->setSampler([Final] { return Final; });
    Monitor->setQueueProbe(nullptr);
  }
  RunSpan.arg("improved", Result.Improved);
  return Result;
}

void synth::writeStatsJson(const SynthesisResult &Result, std::ostream &OS) {
  const SynthesisStats &S = Result.Stats;
  std::string J;
  J += "{\n  \"improved\": ";
  J += Result.Improved ? "true" : "false";
  J += ",\n  \"abort\": ";
  J += observe::jsonQuote(toString(Result.Abort));
  J += ",\n  \"timed_out\": ";
  J += Result.TimedOut ? "true" : "false";
  J += ",\n  \"original_cost\": " + observe::jsonNumber(Result.OriginalCost);
  J += ",\n  \"optimized_cost\": " + observe::jsonNumber(Result.OptimizedCost);
  J += ",\n  \"synthesis_seconds\": " +
       observe::jsonNumber(Result.SynthesisSeconds);
  J += ",\n  \"stats\": {";
  const char *Sep = "";
  for (const StatsField &F : StatsFields) {
    if (!F.JsonKey)
      continue;
    J += Sep;
    J += "\n    ";
    J += observe::jsonQuote(F.JsonKey);
    J += ": " + std::to_string(S.*F.Member);
    Sep = ",";
  }
  J += "\n  }\n}\n";
  OS << J;
}
