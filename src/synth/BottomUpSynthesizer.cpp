//===- BottomUpSynthesizer.cpp - TASO-like enumerative baseline -----------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "synth/BottomUpSynthesizer.h"

#include "analysis/AbstractInterpreter.h"
#include "analysis/ExprSign.h"
#include "dsl/Printer.h"
#include "observe/Metrics.h"
#include "observe/Progress.h"
#include "observe/Trace.h"
#include "support/Budget.h"
#include "support/Timer.h"

#include <atomic>
#include <set>

using namespace stenso;
using namespace stenso::synth;
using namespace stenso::dsl;
using symexec::SymTensor;

BottomUpSynthesizer::BottomUpSynthesizer(BottomUpConfig Config)
    : Config(std::move(Config)) {}

namespace {

/// One enumerated program with its spec and cost.
struct Entry {
  const Node *Root;
  SymTensor Spec;
  double Cost;
};

/// Aggregate run counters into the global registry.  Called on every
/// exit path (including setup failure) so a budget-aborted or degraded
/// baseline run still leaves its telemetry behind.
void publishBottomUpMetrics(const SynthesisResult &Result) {
  observe::MetricsRegistry &M = observe::MetricsRegistry::global();
  M.counter("bottomup.runs").add(1);
  M.counter("bottomup.improved").add(Result.Improved ? 1 : 0);
  M.counter("bottomup.aborted")
      .add(Result.Abort == AbortReason::None ? 0 : 1);
  M.counter("bottomup.enumerated").add(Result.Stats.DfsCalls);
  M.counter("bottomup.retained").add(static_cast<int64_t>(
      Result.Stats.NumStubs));
  M.counter("bottomup.pruned.error").add(Result.Stats.PrunedByError);
  M.counter("bottomup.pruned.analysis").add(Result.Stats.PrunedByAnalysis);
  M.counter("bottomup.pruned.cost").add(Result.Stats.PrunedByCost);
}

/// Collects the distinct constants appearing in a program tree.
void collectConstants(const Node *N, std::vector<Rational> &Out) {
  if (N->isConstant()) {
    if (std::find(Out.begin(), Out.end(), N->getValue()) == Out.end())
      Out.push_back(N->getValue());
    return;
  }
  for (const Node *Op : N->getOperands())
    collectConstants(Op, Out);
}

} // namespace

SynthesisResult BottomUpSynthesizer::run(const Program &Clamped,
                                         const ShapeScaler &Scaler) {
  assert(Clamped.getRoot() && "program has no root");
  WallTimer Timer;
  STENSO_TRACE_SPAN("synth", "bottomup_run");
  ResourceBudget Budget(Config.TimeoutSeconds);
  std::vector<OpKind> Ops =
      Config.Ops.empty() ? SketchLibrary::defaultOps() : Config.Ops;

  SynthesisResult Result;
  Result.OptimizedSource = printProgram(Clamped);

  std::unique_ptr<CostModel> Model = makeCostModel(Config.CostModelName);
  Result.OriginalCost = Model->costOfTree(Clamped.getRoot(), Scaler);
  Result.OptimizedCost = Result.OriginalCost;

  // Heartbeat cells: the monitor thread samples these while the
  // (sequential) enumeration updates them with relaxed stores.
  std::atomic<int64_t> EnumeratedCell{0};
  std::atomic<double> BestCostCell{Result.OriginalCost};
  observe::ProgressMonitor *Monitor = Config.Progress;
  auto SampleNow = [&Budget, &EnumeratedCell, &BestCostCell,
                    Limits = Budget.getLimits()] {
    observe::ProgressSample S;
    S.Candidates = EnumeratedCell.load(std::memory_order_relaxed);
    S.Nodes = Budget.getSymbolicNodes();
    S.NodeCap = Limits.MaxSymbolicNodes;
    S.WallLimitSeconds = Limits.WallSeconds;
    S.BestCost = BestCostCell.load(std::memory_order_relaxed);
    S.HasBest = true;
    S.Jobs = 1;
    return S;
  };
  if (Monitor)
    Monitor->setSampler(SampleNow);
  // Freeze-and-publish shared by every exit path, so telemetry survives
  // setup failures and budget aborts alike.
  auto FinishTelemetry = [&] {
    publishBottomUpMetrics(Result);
    if (Monitor) {
      observe::ProgressSample Final = SampleNow();
      Final.BestCost = Result.OptimizedCost;
      Monitor->setSampler([Final] { return Final; });
    }
  };

  sym::ExprContext Ctx;
  Ctx.setBudget(&Budget);
  symexec::SymBinding Bindings;
  std::optional<SymTensor> MaybePhi;
  {
    RecoverableErrorScope SetupScope;
    Bindings = symexec::makeInputBindings(Clamped, Ctx);
    SymTensor Spec = symexec::symbolicExecute(Clamped.getRoot(), Ctx, Bindings);
    if (!SetupScope.hasError())
      MaybePhi = std::move(Spec);
  }
  if (!MaybePhi) {
    ++Result.Stats.PrunedByError;
    Result.Abort = AbortReason::InternalError;
    Result.SynthesisSeconds = Timer.elapsedSeconds();
    FinishTelemetry();
    return Result;
  }
  SymTensor Phi = std::move(*MaybePhi);
  SpecKey PhiKey{Phi.getShape(), Phi.getDType(), Phi.getElements()};

  // Phi-side facts for the final-depth static prunes: the exact input
  // support of the spec (from its symbols) and per-element sign sets.
  std::set<std::string> PhiSupport;
  std::vector<analysis::SignSet> PhiSigns;
  if (Config.UseAnalysisPruning) {
    analysis::ExprAnalyzer PhiAnalyzer;
    for (const sym::Expr *E : Phi.getElements()) {
      for (const sym::SymbolExpr *S : sym::collectSymbols(E))
        PhiSupport.insert(S->getTensorName().empty() ? S->getName()
                                                     : S->getTensorName());
      PhiSigns.push_back(PhiAnalyzer.analyze(E).Sign);
    }
  }

  Program Arena;
  analysis::AbstractInterpreter AbsInterp(Arena);
  std::vector<Entry> Entries;
  std::unordered_map<SpecKey, size_t, SpecKeyHash> BySpec;

  const Node *BestTree = nullptr;
  double BestCost = Result.OriginalCost;

  int CurDepth = 0;
  auto AddCandidate = [&](const Node *Root) {
    if (!Root)
      return;
    // Final-depth candidates can no longer feed deeper programs, so a
    // static proof that their spec differs from Phi makes both the
    // symbolic execution and the table insertion pointless.  Sound for
    // the search result — such candidates could only ever lose the
    // Key == PhiKey test below; only the enumerated-program count and
    // the MaxPrograms consumption change (DESIGN.md §10).
    if (Config.UseAnalysisPruning && CurDepth >= Config.MaxDepth) {
      if (!(Root->getType().TShape == Phi.getShape()) ||
          Root->getType().Dtype != Phi.getDType()) {
        ++Result.Stats.AnalysisPrunedShape;
        ++Result.Stats.PrunedByAnalysis;
        return;
      }
      const analysis::AbstractValue &V = AbsInterp.analyze(Root);
      // Phi mentions an input the candidate provably never reads.
      if (!std::includes(V.Support.begin(), V.Support.end(),
                         PhiSupport.begin(), PhiSupport.end())) {
        ++Result.Stats.AnalysisPrunedSupport;
        ++Result.Stats.PrunedByAnalysis;
        return;
      }
      // Some Phi element's sign set is disjoint from the candidate's
      // (both sides total: non-top sets only — ExprSign.h contract).
      if (!V.Suspect && !V.Sign.isTop()) {
        for (analysis::SignSet S : PhiSigns) {
          if (!S.isTop() && analysis::SignSet::disjoint(V.Sign, S)) {
            ++Result.Stats.AnalysisPrunedSign;
            ++Result.Stats.PrunedByAnalysis;
            return;
          }
        }
      }
    }
    ++Result.Stats.DfsCalls; // reused as "programs enumerated"
    EnumeratedCell.store(Result.Stats.DfsCalls, std::memory_order_relaxed);
    // Candidates whose spec fails to compute are pruned, not fatal.
    RecoverableErrorScope Scope;
    SymTensor Spec = symexec::symbolicExecute(Root, Ctx, Bindings);
    if (Scope.hasError()) {
      ++Result.Stats.PrunedByError;
      return;
    }
    double Cost = Model->costOfTree(Root, Scaler);
    // Incumbent prune: costs are additive and nonnegative, so any
    // program containing this candidate as a subtree costs at least
    // Cost; at or above the incumbent it can neither win the
    // Key == PhiKey test below (strict <) nor seed an improving deeper
    // program.  BestCost only ever decreases and ties keep the first
    // find, so the search outcome is unchanged; only the table contents
    // and the enumeration's truncation point shift.
    if (Cost >= BestCost) {
      ++Result.Stats.PrunedByCost;
      return;
    }
    SpecKey Key{Spec.getShape(), Spec.getDType(), Spec.getElements()};
    if (Key == PhiKey && Cost < BestCost) {
      BestTree = Root;
      BestCost = Cost;
      BestCostCell.store(Cost, std::memory_order_relaxed);
    }
    auto It = BySpec.find(Key);
    if (It != BySpec.end()) {
      Entry &Existing = Entries[It->second];
      if (Cost < Existing.Cost) {
        Existing.Root = Root;
        Existing.Cost = Cost;
      }
      return;
    }
    BySpec.emplace(std::move(Key), Entries.size());
    Entries.push_back(Entry{Root, std::move(Spec), Cost});
  };

  // Terminals.
  for (const Node *Input : Clamped.getInputs())
    AddCandidate(Arena.input(Input->getName(), Input->getType()));
  std::vector<Rational> Constants;
  collectConstants(Clamped.getRoot(), Constants);
  for (const Rational &Value : Constants)
    AddCandidate(Arena.constant(Value));

  size_t LevelBegin = 0;
  bool Exhausted = false;
  for (int Depth = 1; Depth <= Config.MaxDepth && !Exhausted; ++Depth) {
    CurDepth = Depth;
    size_t LevelEnd = Entries.size();
    auto Expired = [&] {
      if (!Budget.checkpoint() || Entries.size() >= Config.MaxPrograms) {
        Exhausted = true;
        return true;
      }
      return false;
    };

    // Full cross product: at least one operand from the newest level so
    // every program is enumerated exactly once per depth.
    for (OpKind Op : Ops) {
      if (Expired())
        break;
      bool Unary = isElementwiseUnary(Op) || Op == OpKind::Diag ||
                   Op == OpKind::Trace || Op == OpKind::Transpose ||
                   Op == OpKind::SumAll || Op == OpKind::MaxAll ||
                   Op == OpKind::Triu || Op == OpKind::Tril;
      if (Unary) {
        for (size_t I = LevelBegin; I < LevelEnd && !Expired(); ++I)
          AddCandidate(Arena.tryMake(Op, {Entries[I].Root}));
        continue;
      }
      if (Op == OpKind::Sum || Op == OpKind::Max) {
        for (size_t I = LevelBegin; I < LevelEnd && !Expired(); ++I)
          for (int64_t Axis = 0;
               Axis < Entries[I].Root->getType().TShape.getRank(); ++Axis) {
            NodeAttrs Attrs;
            Attrs.Axis = Axis;
            AddCandidate(Arena.tryMake(Op, {Entries[I].Root}, Attrs));
          }
        continue;
      }
      if (Op == OpKind::Where) {
        for (size_t I = 0; I < LevelEnd && !Expired(); ++I) {
          if (Entries[I].Root->getType().Dtype != DType::Bool)
            continue;
          for (size_t J = 0; J < LevelEnd; ++J)
            for (size_t K = 0; K < LevelEnd; ++K) {
              if (I < LevelBegin && J < LevelBegin && K < LevelBegin)
                continue;
              AddCandidate(Arena.tryMake(
                  Op, {Entries[I].Root, Entries[J].Root, Entries[K].Root}));
              if (Expired())
                break;
            }
        }
        continue;
      }
      // Binary: full cross product with one operand in the newest level.
      for (size_t I = 0; I < LevelEnd && !Expired(); ++I)
        for (size_t J = 0; J < LevelEnd; ++J) {
          if (I < LevelBegin && J < LevelBegin)
            continue;
          AddCandidate(Arena.tryMake(Op, {Entries[I].Root, Entries[J].Root}));
          if (Expired())
            break;
        }
    }
    LevelBegin = LevelEnd;
  }

  Result.Stats.NumStubs = Entries.size();
  Result.SynthesisSeconds = Timer.elapsedSeconds();
  if (BestTree && BestCost < Result.OriginalCost) {
    Result.Improved = true;
    Result.OptimizedCost = BestCost;
    auto Optimized = std::make_unique<Program>();
    Optimized->setRoot(Program::cloneInto(*Optimized, BestTree));
    Result.OptimizedSource = printProgram(*Optimized);
    Result.Optimized = std::move(Optimized);
  }
  if (Budget.latched())
    Result.Abort = Budget.exhaustedReason() == ErrC::Timeout
                       ? AbortReason::Timeout
                       : AbortReason::BudgetExceeded;
  else if (!Result.Improved && Result.Stats.PrunedByError > 0)
    Result.Abort = AbortReason::InternalError;
  Result.TimedOut = Result.Abort == AbortReason::Timeout;
  FinishTelemetry();
  return Result;
}
