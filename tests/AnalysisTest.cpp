//===- AnalysisTest.cpp - Abstract-interpretation analysis layer ----------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the static-analysis layer (src/analysis/):
///
///   * the lattice domains' transfer functions, brute-forced against
///     concrete arithmetic on representative values;
///   * directed sign/degree/support verdicts over symbolic expressions
///     and over DSL ASTs, including the hole-symbol poisoning and the
///     shape edge cases (zero-size tensors, broadcasts, booleans);
///   * a >= 500-program soundness fuzz of the abstract interpreter and
///     the expression analyzer against the reference interpreter /
///     symbolic evaluator on random positive inputs;
///   * the pruning oracle checked differentially against the hole
///     solver: every (sketch, spec) pair the oracle rejects must be a
///     pair the solver fails on;
///   * end-to-end determinism: synthesis returns the identical result
///     with analysis pruning on or off, sequentially and in parallel;
///   * the lint pass (expected checks fire with spans; clean programs
///     stay clean) and the parser's span/line-column bookkeeping.
///
//===----------------------------------------------------------------------===//

#include "analysis/AbstractInterpreter.h"
#include "analysis/CostBound.h"
#include "analysis/ExprSign.h"
#include "analysis/Lint.h"
#include "analysis/PruningOracle.h"
#include "dsl/Interpreter.h"
#include "dsl/Parser.h"
#include "dsl/Printer.h"
#include "support/RNG.h"
#include "symbolic/Evaluator.h"
#include "symbolic/ExprContext.h"
#include "symexec/SymbolicExecutor.h"
#include "synth/HoleSolver.h"
#include "synth/SketchLibrary.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace stenso;
using namespace stenso::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Sign domain: transfer functions vs concrete arithmetic
//===----------------------------------------------------------------------===//

/// Concrete representatives of each sign bit.
std::vector<double> representatives(SignSet S) {
  std::vector<double> Out;
  if (S.canBeNeg()) {
    Out.push_back(-2.5);
    Out.push_back(-1);
  }
  if (S.canBeZero())
    Out.push_back(0);
  if (S.canBePos()) {
    Out.push_back(0.5);
    Out.push_back(3);
  }
  return Out;
}

/// All seven non-empty sign sets.
std::vector<SignSet> allSignSets() {
  std::vector<SignSet> Out;
  for (uint8_t Bits = 1; Bits <= SignSet::AllBits; ++Bits)
    Out.push_back(SignSet(Bits));
  return Out;
}

TEST(SignSetTest, BinaryTransferFunctionsCoverConcreteArithmetic) {
  for (SignSet A : allSignSets())
    for (SignSet B : allSignSets())
      for (double X : representatives(A))
        for (double Y : representatives(B)) {
          EXPECT_TRUE(SignSet::addSign(A, B).contains(SignSet::ofDouble(X + Y)))
              << A.toString() << " + " << B.toString() << " at " << X << ","
              << Y;
          EXPECT_TRUE(SignSet::mulSign(A, B).contains(SignSet::ofDouble(X * Y)))
              << A.toString() << " * " << B.toString() << " at " << X << ","
              << Y;
          EXPECT_TRUE(SignSet::maxSign(A, B).contains(
              SignSet::ofDouble(std::max(X, Y))))
              << "max(" << A.toString() << ", " << B.toString() << ")";
          EXPECT_TRUE(SignSet::lessSign(A, B).contains(
              SignSet::ofDouble(X < Y ? 1.0 : 0.0)))
              << A.toString() << " < " << B.toString() << " at " << X << ","
              << Y;
        }
}

TEST(SignSetTest, NegateAndSumFoldCoverConcreteArithmetic) {
  for (SignSet A : allSignSets()) {
    for (double X : representatives(A))
      EXPECT_TRUE(SignSet::negate(A).contains(SignSet::ofDouble(-X)));
    // Sums of Count representatives, exhaustively for small counts.
    for (int64_t Count : {0, 1, 2, 3}) {
      SignSet Folded = SignSet::sumFold(A, Count);
      std::vector<double> Reps = representatives(A);
      std::vector<size_t> Pick(static_cast<size_t>(Count), 0);
      bool Done = Count == 0;
      auto CheckSum = [&] {
        double Sum = 0;
        for (size_t I : Pick)
          Sum += Reps[I];
        EXPECT_TRUE(Folded.contains(SignSet::ofDouble(Sum)))
            << "sum of " << Count << " from " << A.toString() << " = " << Sum;
      };
      if (Count == 0) {
        EXPECT_TRUE(Folded.contains(SignSet::zero())) << "empty sum";
      }
      while (!Done) {
        CheckSum();
        size_t I = 0;
        for (; I < Pick.size(); ++I) {
          if (++Pick[I] < Reps.size())
            break;
          Pick[I] = 0;
        }
        Done = I == Pick.size();
      }
    }
  }
}

TEST(SignSetTest, SelectSignRefinesOnDecidedConditions) {
  SignSet T = SignSet::pos(), F = SignSet::neg();
  // Condition can never be zero: always the true branch.
  EXPECT_EQ(SignSet::selectSign(SignSet::pos(), T, F), T);
  // Condition is exactly zero: always the false branch.
  EXPECT_EQ(SignSet::selectSign(SignSet::zero(), T, F), F);
  // Undecided: the join.
  EXPECT_EQ(SignSet::selectSign(SignSet::nonNeg(), T, F), T.joinWith(F));
}

TEST(SignSetTest, LatticeBasics) {
  EXPECT_TRUE(SignSet::pos().subsetOf(SignSet::nonNeg()));
  EXPECT_FALSE(SignSet::nonNeg().subsetOf(SignSet::pos()));
  EXPECT_TRUE(SignSet::disjoint(SignSet::pos(), SignSet::nonPos()));
  EXPECT_FALSE(SignSet::disjoint(SignSet::nonNeg(), SignSet::nonPos()));
  EXPECT_EQ(SignSet::ofConstant(Rational(-3, 7)), SignSet::neg());
  EXPECT_EQ(SignSet::ofConstant(Rational(0)), SignSet::zero());
  EXPECT_TRUE(SignSet::top().isTop());
}

//===----------------------------------------------------------------------===//
// Degree domain
//===----------------------------------------------------------------------===//

TEST(DegreeRangeTest, TransferFunctions) {
  DegreeRange C = DegreeRange::constant();
  DegreeRange X = DegreeRange::symbol();
  DegreeRange X2 = DegreeRange::mulDeg(X, X);
  EXPECT_EQ(X2.Lo, 2);
  EXPECT_EQ(X2.Hi, 2);
  // Sums can cancel to any lower degree: Lo collapses.
  DegreeRange S = DegreeRange::addDeg(X2, X);
  EXPECT_EQ(S.Lo, 0);
  EXPECT_EQ(S.Hi, 2);
  EXPECT_EQ(DegreeRange::powDeg(X, 3).Hi, 3);
  EXPECT_TRUE(DegreeRange::powDeg(X, -1).NonPoly);
  EXPECT_TRUE(DegreeRange::mulDeg(X, DegreeRange::nonPoly()).NonPoly);
  EXPECT_TRUE(DegreeRange::disjoint(C, X));
  EXPECT_TRUE(DegreeRange::disjoint(X, X2));
  EXPECT_FALSE(DegreeRange::disjoint(S, X));
  EXPECT_FALSE(DegreeRange::disjoint(X, DegreeRange::nonPoly()));
  // The clamp keeps pathological powers finite.
  DegreeRange Huge = DegreeRange::powDeg(X, int64_t(1) << 40);
  EXPECT_EQ(Huge.Hi, DegreeRange::MaxDegree);
}

//===----------------------------------------------------------------------===//
// Interval domain: transfer functions vs concrete arithmetic
//===----------------------------------------------------------------------===//

/// Representative intervals spanning the shapes the analysis produces:
/// points, closed and open finite ranges, half-lines, and top.
std::vector<Interval> representativeIntervals() {
  double Inf = std::numeric_limits<double>::infinity();
  return {Interval::top(),
          Interval::point(0),
          Interval::point(2),
          Interval::point(-1.5),
          Interval::closed(-1, 1),
          Interval::closed(0, 3),
          Interval::closed(-3, -0.5),
          Interval::above(0, /*Open=*/true),
          Interval::above(1, /*Open=*/false),
          Interval(0, true, 1, true),
          Interval(-Inf, false, 2, false)};
}

/// Concrete members of \p I drawn from a fixed pool.  Membership is
/// decided by the interval itself, so open endpoints need no epsilon
/// gymnastics, and the pool values are exactly representable.
std::vector<double> samplesIn(const Interval &I) {
  static const double Pool[] = {-3, -2.5, -1, -0.5, 0, 0.25, 0.5, 1, 2, 3.5};
  std::vector<double> Out;
  for (double V : Pool)
    if (I.contains(V))
      Out.push_back(V);
  return Out;
}

TEST(IntervalTest, BinaryTransferFunctionsCoverConcreteArithmetic) {
  for (const Interval &A : representativeIntervals())
    for (const Interval &B : representativeIntervals())
      for (double X : samplesIn(A))
        for (double Y : samplesIn(B)) {
          EXPECT_TRUE(Interval::add(A, B).contains(X + Y))
              << A.toString() << " + " << B.toString() << " at " << X << ","
              << Y;
          EXPECT_TRUE(Interval::sub(A, B).contains(X - Y))
              << A.toString() << " - " << B.toString() << " at " << X << ","
              << Y;
          EXPECT_TRUE(Interval::mul(A, B).contains(X * Y))
              << A.toString() << " * " << B.toString() << " at " << X << ","
              << Y;
          EXPECT_TRUE(Interval::minOf(A, B).contains(std::min(X, Y)))
              << "min(" << A.toString() << ", " << B.toString() << ")";
          EXPECT_TRUE(Interval::maxOf(A, B).contains(std::max(X, Y)))
              << "max(" << A.toString() << ", " << B.toString() << ")";
          // Quotients: non-finite results are the Suspect bit's business
          // (the contract only covers finite values).
          double Q = X / Y;
          if (std::isfinite(Q)) {
            EXPECT_TRUE(Interval::div(A, B).contains(Q))
                << A.toString() << " / " << B.toString() << " at " << X << ","
                << Y;
          }
          Interval J = Interval::join(A, B);
          EXPECT_TRUE(J.contains(X) && J.contains(Y))
              << "join(" << A.toString() << ", " << B.toString() << ")";
        }
}

TEST(IntervalTest, UnaryTransferFunctionsCoverConcreteArithmetic) {
  for (const Interval &A : representativeIntervals()) {
    std::vector<double> Xs = samplesIn(A);
    for (double X : Xs) {
      EXPECT_TRUE(Interval::negate(A).contains(-X)) << A.toString();
      EXPECT_TRUE(Interval::expOf(A).contains(std::exp(X))) << A.toString();
      if (X >= 0) {
        EXPECT_TRUE(Interval::sqrtOf(A).contains(std::sqrt(X)))
            << A.toString() << " at " << X;
        EXPECT_TRUE(Interval::powReal(A, 0.5).contains(std::pow(X, 0.5)))
            << A.toString() << " at " << X;
      }
      if (X > 0) {
        EXPECT_TRUE(Interval::logOf(A).contains(std::log(X)))
            << A.toString() << " at " << X;
      }
      for (int64_t K : {0, 1, 2, 3})
        EXPECT_TRUE(Interval::powInt(A, K).contains(std::pow(X, K)))
            << A.toString() << " ** " << K << " at " << X;
      if (X != 0) {
        EXPECT_TRUE(Interval::powInt(A, -1).contains(1.0 / X))
            << A.toString() << " at " << X;
      }
      EXPECT_TRUE(Interval::sumFold(A, 1).contains(X)) << A.toString();
    }
    // Small sums: the empty sum is exactly zero; two-element sums take
    // any pair of members.
    EXPECT_TRUE(Interval::sumFold(A, 0).contains(0)) << A.toString();
    for (double X : Xs)
      for (double Y : Xs)
        EXPECT_TRUE(Interval::sumFold(A, 2).contains(X + Y))
            << A.toString() << " at " << X << "+" << Y;
  }
}

TEST(IntervalTest, QueriesAndSelectMirrorTheSignDomain) {
  // provablyPositive demands the open or strictly-positive lower end;
  // provablyNonNegative accepts a closed zero.
  EXPECT_TRUE(Interval::above(0, true).provablyPositive());
  EXPECT_FALSE(Interval::above(0, false).provablyPositive());
  EXPECT_TRUE(Interval::above(0, false).provablyNonNegative());
  EXPECT_TRUE(Interval::closed(1, 2).excludesZero());
  EXPECT_FALSE(Interval::closed(-1, 1).excludesZero());
  EXPECT_TRUE(Interval::point(0).contains(0));
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_FALSE(Interval::closed(0, 3).isTop());
  EXPECT_FALSE(Interval::point(2).toString().empty());

  // The queries agree with membership on every representative.
  for (const Interval &A : representativeIntervals()) {
    EXPECT_EQ(A.excludesZero(), !A.contains(0)) << A.toString();
    for (double X : samplesIn(A)) {
      if (A.provablyPositive()) {
        EXPECT_GT(X, 0) << A.toString();
      }
      if (A.provablyNonNegative()) {
        EXPECT_GE(X, 0) << A.toString();
      }
    }
  }

  // select mirrors selectSign: a decided condition picks one branch, an
  // undecided one joins.
  Interval T = Interval::closed(1, 2), F = Interval::closed(-2, -1);
  EXPECT_TRUE(Interval::select(SignSet::pos(), T, F).contains(1.5));
  EXPECT_FALSE(Interval::select(SignSet::pos(), T, F).contains(-1.5));
  EXPECT_TRUE(Interval::select(SignSet::zero(), T, F).contains(-1.5));
  EXPECT_FALSE(Interval::select(SignSet::zero(), T, F).contains(1.5));
  Interval Both = Interval::select(SignSet::nonNeg(), T, F);
  EXPECT_TRUE(Both.contains(1.5) && Both.contains(-1.5));
}

//===----------------------------------------------------------------------===//
// ExprAnalyzer: directed verdicts over symbolic expressions
//===----------------------------------------------------------------------===//

TEST(ExprAnalyzerTest, DirectedSignAndDegreeVerdicts) {
  sym::ExprContext Ctx;
  ExprAnalyzer An;
  const sym::Expr *X = Ctx.symbol("x");
  const sym::Expr *Y = Ctx.symbol("y");

  // Input symbols are strictly positive, degree 1.
  EXPECT_EQ(An.analyze(X).Sign, SignSet::pos());
  EXPECT_EQ(An.analyze(X).Degree, DegreeRange::symbol());
  EXPECT_FALSE(An.analyze(X).Suspect);

  // Sums and products of positives stay positive.
  EXPECT_EQ(An.analyze(Ctx.add(X, Y)).Sign, SignSet::pos());
  const ExprAbstract &Prod = An.analyze(Ctx.mul(X, Y));
  EXPECT_EQ(Prod.Sign, SignSet::pos());
  EXPECT_EQ(Prod.Degree.Lo, 2);
  EXPECT_EQ(Prod.Degree.Hi, 2);

  // Differences of positives can have any sign.
  EXPECT_TRUE(An.analyze(Ctx.sub(X, Y)).Sign.isTop());

  // exp is positive and never a polynomial.
  const ExprAbstract &E = An.analyze(Ctx.expOf(X));
  EXPECT_EQ(E.Sign, SignSet::pos());
  EXPECT_TRUE(E.Degree.NonPoly);

  // log of a positive symbol is defined but can take any sign; log of
  // constants away from 1 has a known sign.
  const ExprAbstract &L = An.analyze(Ctx.logOf(X));
  EXPECT_FALSE(L.Suspect);
  EXPECT_TRUE(L.Sign.isTop());
  EXPECT_EQ(An.analyze(Ctx.logOf(Ctx.integer(2))).Sign, SignSet::pos());
  EXPECT_EQ(An.analyze(Ctx.logOf(Ctx.constant(Rational(1, 2)))).Sign,
            SignSet::neg());

  // sqrt / reciprocals of positives stay positive.
  EXPECT_EQ(An.analyze(Ctx.sqrt(X)).Sign, SignSet::pos());
  EXPECT_EQ(An.analyze(Ctx.div(Ctx.one(), X)).Sign, SignSet::pos());

  // log of a possibly-nonpositive value is suspect: published top.
  const ExprAbstract &Bad = An.analyze(Ctx.logOf(Ctx.sub(X, Y)));
  EXPECT_TRUE(Bad.Suspect);
  EXPECT_TRUE(Bad.Sign.isTop());
  EXPECT_TRUE(Bad.Degree.NonPoly);

  // Suspicion is sticky: anything containing the bad log is top too.
  const ExprAbstract &Wrapped =
      An.analyze(Ctx.mul(X, Ctx.logOf(Ctx.sub(X, Y))));
  EXPECT_TRUE(Wrapped.Sign.isTop());
}

TEST(ExprAnalyzerTest, HoleSymbolsPoisonEveryEnclosingExpression) {
  sym::ExprContext Ctx;
  const sym::Expr *X = Ctx.symbol("x");
  const sym::Expr *H = Ctx.symbol("__hole0");
  ExprAnalyzer An({H});

  // The hole itself: no claims whatsoever.
  EXPECT_TRUE(An.analyze(H).Sign.isTop());
  EXPECT_TRUE(An.analyze(H).Degree.NonPoly);
  EXPECT_TRUE(An.analyze(H).Suspect);

  // The solver can substitute arbitrary expressions (including exp(...)
  // inverses), so even sign-preserving contexts must stay top.
  EXPECT_TRUE(An.analyze(Ctx.mul(X, H)).Sign.isTop());
  EXPECT_TRUE(An.analyze(Ctx.expOf(H)).Sign.isTop());
  EXPECT_TRUE(An.analyze(Ctx.add(X, H)).Sign.isTop());

  // A hole-free sibling analyzed by the same instance keeps its verdict.
  EXPECT_EQ(An.analyze(Ctx.mul(X, X)).Sign, SignSet::pos());
}

//===----------------------------------------------------------------------===//
// AbstractInterpreter: directed verdicts over DSL ASTs
//===----------------------------------------------------------------------===//

TEST(AbstractInterpreterTest, SignSupportAndLinearity) {
  dsl::Program P;
  dsl::TensorType Vec{DType::Float64, Shape({5})};
  dsl::TensorType Mat{DType::Float64, Shape({4, 5})};
  const dsl::Node *A = P.input("A", Vec);
  const dsl::Node *B = P.input("B", Vec);
  const dsl::Node *M = P.input("M", Mat);

  AbstractInterpreter AI(P);

  // Inputs: strictly positive, degree-1 in themselves only.
  EXPECT_EQ(AI.analyze(A).Sign, SignSet::pos());
  EXPECT_TRUE(AI.analyze(A).linearIn("A"));
  EXPECT_EQ(AI.analyze(A).Support, std::set<std::string>{"A"});

  // Sums of positives are positive; differences are not.
  EXPECT_EQ(AI.analyze(P.add(A, B)).Sign, SignSet::pos());
  EXPECT_TRUE(AI.analyze(P.subtract(A, B)).Sign.isTop());
  EXPECT_FALSE(AI.analyze(P.subtract(A, B)).Suspect);

  // dot(M, A) is bilinear: linear in each input, support both.
  const AbstractValue &Dot = AI.analyze(P.dot(M, A));
  EXPECT_EQ(Dot.Sign, SignSet::pos());
  EXPECT_TRUE(Dot.linearIn("M"));
  EXPECT_TRUE(Dot.linearIn("A"));
  EXPECT_EQ(Dot.Support, (std::set<std::string>{"A", "M"}));

  // A*A is quadratic in A, so not linear.
  const AbstractValue &Sq = AI.analyze(P.multiply(A, A));
  EXPECT_FALSE(Sq.linearIn("A"));
  EXPECT_EQ(Sq.degreeIn("A").Hi, 2);
  EXPECT_EQ(Sq.degreeIn("B").Hi, 0); // uninvolved input: degree 0

  // Division by a provably positive denominator is safe...
  const AbstractValue &SafeDiv = AI.analyze(P.divide(A, P.add(A, B)));
  EXPECT_FALSE(SafeDiv.Suspect);
  EXPECT_EQ(SafeDiv.Sign, SignSet::pos());
  // ... but by a difference it is suspect, which collapses the sign.
  const AbstractValue &BadDiv = AI.analyze(P.divide(A, P.subtract(A, B)));
  EXPECT_TRUE(BadDiv.Suspect);
  EXPECT_TRUE(BadDiv.Sign.isTop());

  // sqrt of a possibly-negative value is suspect; of a positive, not.
  EXPECT_TRUE(AI.analyze(P.sqrtOp(P.subtract(A, B))).Suspect);
  EXPECT_FALSE(AI.analyze(P.sqrtOp(P.add(A, B))).Suspect);
}

TEST(AbstractInterpreterTest, BooleansSelectionsAndShapeEdgeCases) {
  dsl::Program P;
  dsl::TensorType Vec{DType::Float64, Shape({5})};
  const dsl::Node *A = P.input("A", Vec);
  const dsl::Node *B = P.input("B", Vec);
  AbstractInterpreter AI(P);

  // A comparison of two positives is an undecided 0/1 indicator.
  const dsl::Node *Lt = P.make(dsl::OpKind::Less, {A, B});
  ASSERT_NE(Lt, nullptr);
  EXPECT_EQ(Lt->getType().Dtype, DType::Bool);
  EXPECT_EQ(AI.analyze(Lt).Sign, SignSet::nonNeg());

  // where() over two positive branches is positive either way.
  const dsl::Node *Sel = P.make(dsl::OpKind::Where, {Lt, A, B});
  EXPECT_EQ(AI.analyze(Sel).Sign, SignSet::pos());

  // Masking introduces exact zeros: triu of a positive matrix.
  dsl::TensorType Mat{DType::Float64, Shape({4, 4})};
  const dsl::Node *M = P.input("M", Mat);
  const dsl::Node *Tri = P.make(dsl::OpKind::Triu, {M});
  ASSERT_NE(Tri, nullptr);
  EXPECT_EQ(AI.analyze(Tri).Sign, SignSet::nonNeg());

  // Broadcast: vector + scalar stays elementwise positive.
  dsl::TensorType Scal{DType::Float64, Shape()};
  const dsl::Node *S = P.input("s", Scal);
  EXPECT_EQ(AI.analyze(P.add(A, S)).Sign, SignSet::pos());

  // Zero-size tensor: the full reduction is the empty sum, exactly zero.
  dsl::TensorType Empty{DType::Float64, Shape({0})};
  const dsl::Node *Z = P.input("Z", Empty);
  const dsl::Node *Sum = P.tryMake(dsl::OpKind::SumAll, {Z});
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(AI.analyze(Sum).Sign, SignSet::zero());
}

//===----------------------------------------------------------------------===//
// Soundness fuzz: abstract claims vs the reference interpreter
//===----------------------------------------------------------------------===//

/// Seed discipline (DESIGN.md §12): STENSO_SEED offsets every derived
/// shard seed below; failing tests announce the value to export for an
/// exact rerun.
uint64_t baseSeed() { return seedFromEnv(0); }

/// Random well-typed program generator, extended relative to
/// PropertyTest's with the domain-sensitive operations the analysis
/// exists for (exp, log, where/less, maximum, power by 1/2).
class AnalysisFuzzer {
public:
  /// \p SquareShapes switches the signature to a square matrix (4x4) and
  /// matching vector, which makes the triu/tril/diag sketch families
  /// reachable in the oracle differential test.
  explicit AnalysisFuzzer(uint64_t Seed, bool SquareShapes = false)
      : Rng(Seed), Square(SquareShapes) {}

  std::unique_ptr<dsl::Program> generate(int MaxOps) {
    auto P = std::make_unique<dsl::Program>();
    dsl::TensorType Vec{DType::Float64, Shape({Square ? 4 : 5})};
    dsl::TensorType Mat{DType::Float64,
                        Square ? Shape({4, 4}) : Shape({4, 5})};
    dsl::TensorType Scal{DType::Float64, Shape()};
    std::vector<const dsl::Node *> Pool = {
        P->input("A", Vec), P->input("B", Vec), P->input("M", Mat),
        P->input("s", Scal), P->constant(Rational(2)),
        P->constant(Rational(1, 2))};
    for (int Step = 0; Step < MaxOps; ++Step)
      if (const dsl::Node *Made = randomOp(*P, Pool))
        Pool.push_back(Made);
    for (auto It = Pool.rbegin(); It != Pool.rend(); ++It)
      if (!(*It)->isInput() && !(*It)->isConstant()) {
        P->setRoot(*It);
        return P;
      }
    P->setRoot(P->add(Pool[0], Pool[1]));
    return P;
  }

  RNG &rng() { return Rng; }

private:
  const dsl::Node *pick(const std::vector<const dsl::Node *> &Pool) {
    return Pool[static_cast<size_t>(
        Rng.uniformInt(0, static_cast<int64_t>(Pool.size()) - 1))];
  }

  const dsl::Node *randomOp(dsl::Program &P,
                            const std::vector<const dsl::Node *> &Pool) {
    using dsl::OpKind;
    switch (Rng.uniformInt(0, 13)) {
    case 0:
      return P.tryMake(OpKind::Add, {pick(Pool), pick(Pool)});
    case 1:
      return P.tryMake(OpKind::Subtract, {pick(Pool), pick(Pool)});
    case 2:
      return P.tryMake(OpKind::Multiply, {pick(Pool), pick(Pool)});
    case 3:
      return P.tryMake(OpKind::Divide, {pick(Pool), pick(Pool)});
    case 4:
      return P.tryMake(OpKind::Sqrt, {pick(Pool)});
    case 5:
      return P.tryMake(OpKind::Maximum, {pick(Pool), pick(Pool)});
    case 6:
      return P.tryMake(OpKind::Dot, {pick(Pool), pick(Pool)});
    case 7: {
      const dsl::Node *Operand = pick(Pool);
      if (Operand->getType().TShape.getRank() == 0)
        return nullptr;
      dsl::NodeAttrs Attrs;
      Attrs.Axis = Rng.uniformInt(0, Operand->getType().TShape.getRank() - 1);
      return P.tryMake(OpKind::Sum, {Operand}, Attrs);
    }
    case 8:
      return P.tryMake(OpKind::Transpose, {pick(Pool)});
    case 9:
      return P.tryMake(OpKind::Exp, {pick(Pool)});
    case 10:
      return P.tryMake(OpKind::Log, {pick(Pool)});
    case 11: {
      const dsl::Node *C = P.tryMake(OpKind::Less, {pick(Pool), pick(Pool)});
      if (!C)
        return nullptr;
      return P.tryMake(OpKind::Where, {C, pick(Pool), pick(Pool)});
    }
    case 12:
      return P.tryMake(OpKind::Power,
                       {pick(Pool), P.constant(Rational(1, 2))});
    default:
      return P.tryMake(OpKind::Power, {pick(Pool), P.constant(Rational(2))});
    }
  }

  RNG Rng;
  bool Square = false;
};

dsl::InputBinding randomInputsFor(const dsl::Program &P, RNG &Rng) {
  dsl::InputBinding Inputs;
  for (const dsl::Node *In : P.getInputs()) {
    Tensor T(In->getType().TShape);
    for (int64_t I = 0; I < T.getNumElements(); ++I)
      T.at(I) = Rng.positive();
    Inputs.emplace(In->getName(), std::move(T));
  }
  return Inputs;
}

/// One fuzz round: checks every abstract claim about \p P against a
/// concrete evaluation.  Counts in \p Checked how many non-top claims
/// were actually exercised (so the suite can assert non-vacuity).
void checkSoundnessOnce(const dsl::Program &P, RNG &Rng, int64_t &Checked) {
  AbstractInterpreter AI(P);
  const AbstractValue &V = AI.analyze(P.getRoot());

  dsl::InputBinding Inputs = randomInputsFor(P, Rng);
  Tensor Got = dsl::interpretProgram(P, Inputs);

  // Claim 1 (sign): when not suspect, every finite element's sign is in
  // the set.  (Overflow to inf/NaN is a float artifact outside the
  // real-arithmetic contract; sign claims still hold for +/-inf.)
  if (!V.Suspect) {
    for (int64_t I = 0; I < Got.getNumElements(); ++I) {
      double X = Got.at(I);
      if (std::isnan(X))
        continue;
      SignSet Observed = std::isinf(X)
                             ? (X > 0 ? SignSet::pos() : SignSet::neg())
                             : SignSet::ofDouble(X);
      EXPECT_TRUE(V.Sign.contains(Observed))
          << dsl::printProgram(P) << " element " << I << " = " << X
          << " outside " << V.Sign.toString();
      ++Checked;
    }
  }

  // Claim 1b (interval): when not suspect, every finite element lies in
  // the published range.  The interval's proofs are over exact reals
  // (AbstractDomains.h), so IEEE rounding may graze an endpoint; a
  // relative tolerance absorbs that without masking real unsoundness.
  if (!V.Suspect && !V.Range.isTop()) {
    for (int64_t I = 0; I < Got.getNumElements(); ++I) {
      double X = Got.at(I);
      if (!std::isfinite(X))
        continue;
      double Tol = 1e-9 * std::max(1.0, std::abs(X));
      EXPECT_TRUE(V.Range.contains(X) || V.Range.contains(X - Tol) ||
                  V.Range.contains(X + Tol))
          << dsl::printProgram(P) << " element " << I << " = " << X
          << " outside " << V.Range.toString();
      ++Checked;
    }
  }

  // Claim 2 (support): re-randomizing inputs outside the support set
  // cannot change the result.
  bool HasDeadInput = false;
  for (const dsl::Node *In : P.getInputs())
    if (!V.Support.count(In->getName()))
      HasDeadInput = true;
  if (HasDeadInput && Got.allClose(Got)) {
    dsl::InputBinding Mutated;
    for (const dsl::Node *In : P.getInputs()) {
      if (V.Support.count(In->getName())) {
        Mutated.emplace(In->getName(), Inputs.at(In->getName()));
        continue;
      }
      Tensor T(In->getType().TShape);
      for (int64_t I = 0; I < T.getNumElements(); ++I)
        T.at(I) = Rng.positive();
      Mutated.emplace(In->getName(), std::move(T));
    }
    Tensor Again = dsl::interpretProgram(P, Mutated);
    EXPECT_TRUE(Got.allClose(Again, 0, 0))
        << dsl::printProgram(P) << ": dead input changed the result";
    ++Checked;
  }

  // Claim 3 (symbolic side): the ExprAnalyzer verdict on each spec
  // element contains the sign of its concrete evaluation.
  sym::ExprContext Ctx;
  symexec::SymTensor Spec = symexec::computeSpec(P, Ctx);
  sym::Environment Env;
  for (const sym::Expr *E : Spec.getElements())
    for (const sym::SymbolExpr *S : sym::collectSymbols(E)) {
      const Tensor &T = Inputs.at(S->getTensorName());
      int64_t Flat = S->getIndices().empty()
                         ? 0
                         : T.getShape().linearize(S->getIndices());
      Env.emplace(S, T.at(Flat));
    }
  ExprAnalyzer An;
  for (int64_t I = 0; I < Spec.getNumElements(); ++I) {
    const ExprAbstract &EV = An.analyze(Spec.at(I));
    if (EV.Sign.isTop())
      continue;
    double X = sym::evaluate(Spec.at(I), Env);
    if (std::isnan(X))
      continue;
    SignSet Observed = std::isinf(X)
                           ? (X > 0 ? SignSet::pos() : SignSet::neg())
                           : SignSet::ofDouble(X);
    EXPECT_TRUE(EV.Sign.contains(Observed))
        << dsl::printProgram(P) << " spec element " << I << " = " << X
        << " outside " << EV.Sign.toString();
    ++Checked;
  }
}

class AnalysisFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalysisFuzzTest, AbstractClaimsHoldOnRandomPrograms) {
  // 10 shards x >= 52 programs each = 520 random well-typed programs.
  SCOPED_TRACE("STENSO_SEED=" + std::to_string(baseSeed()));
  int64_t Checked = 0;
  for (int Round = 0; Round < 52; ++Round) {
    uint64_t Seed = baseSeed() +
        static_cast<uint64_t>(GetParam()) * 1000003 + Round * 97 + 11;
    AnalysisFuzzer Fuzzer(Seed);
    std::unique_ptr<dsl::Program> P = Fuzzer.generate(6);
    checkSoundnessOnce(*P, Fuzzer.rng(), Checked);
  }
  // The fuzz must actually exercise non-top claims, not skip everything.
  EXPECT_GT(Checked, 50);
}

INSTANTIATE_TEST_SUITE_P(Shards, AnalysisFuzzTest, ::testing::Range(0, 10));

//===----------------------------------------------------------------------===//
// Pruning oracle vs the hole solver: no unsound rejections
//===----------------------------------------------------------------------===//

TEST(PruningOracleTest, TypeReachabilityCoversExactlyQueryableTypes) {
  dsl::Program P;
  dsl::TensorType Vec{DType::Float64, Shape({5})};
  dsl::TensorType Mat{DType::Float64, Shape({4, 5})};
  const dsl::Node *A = P.input("A", Vec);
  const dsl::Node *M = P.input("M", Mat);
  P.setRoot(P.dot(M, A)); // root type f64[4]

  TypeReachability Reach = TypeReachability::forProgram(P);
  EXPECT_TRUE(Reach.mayMatch({DType::Float64, Shape({4})}));   // root
  EXPECT_TRUE(Reach.mayMatch({DType::Float64, Shape({5})}));   // input
  EXPECT_TRUE(Reach.mayMatch({DType::Float64, Shape({4, 5})})); // input
  EXPECT_TRUE(Reach.mayMatch({DType::Float64, Shape()}));       // scalar
  EXPECT_FALSE(Reach.mayMatch({DType::Float64, Shape({7})}));
  EXPECT_FALSE(Reach.mayMatch({DType::Float64, Shape({5, 4})}));
  EXPECT_FALSE(Reach.mayMatch({DType::Bool, Shape({5})}));
}

TEST(PruningOracleTest, EveryOracleRejectionIsASolverFailure) {
  // Library over the fuzzer's input signature, then a stream of query
  // specs (the seed program's own spec plus random fuzz-program specs
  // over the same inputs): whenever the oracle rejects a (sketch, spec)
  // pair, the solver must fail on it — an unsound prune shows up here as
  // a successful solve of a rejected pair.
  AnalysisFuzzer Seed(424243, /*SquareShapes=*/true);
  std::unique_ptr<dsl::Program> P = Seed.generate(5);

  sym::ExprContext Ctx;
  symexec::SymBinding Bindings = symexec::makeInputBindings(*P, Ctx);
  std::unique_ptr<synth::CostModel> Model = synth::makeCostModel("flops");
  synth::SketchLibrary::Config LibCfg;
  LibCfg.AnalysisPruning = true;
  synth::SketchLibrary Library(*P, Ctx, Bindings, *Model,
                               synth::ShapeScaler(), LibCfg);
  ASSERT_GT(Library.getSketches().size(), 0u);

  synth::HoleSolver Solver(Ctx, Bindings);
  ExprAnalyzer SpecAnalyzer;
  int64_t Rejected = 0, Pairs = 0;

  auto CheckSpec = [&](const symexec::SymTensor &Spec) {
    TensorAbstract SpecSig = computeTensorAbstract(Spec, SpecAnalyzer);
    for (const synth::Sketch *Sk :
         Library.getSketchesFor(Spec.getShape(), Spec.getDType())) {
      PruneDomain D = oracleRejects(Sk->Signature, SpecSig);
      ++Pairs;
      if (D == PruneDomain::None)
        continue;
      ++Rejected;
      Expected<symexec::SymTensor> Solved = Solver.solve(*Sk, Spec);
      EXPECT_FALSE(Solved.hasValue())
          << "oracle (" << toString(D) << ") rejected a solvable pair: "
          << "sketch " << Sk->Index << " vs spec of "
          << dsl::printProgram(*P);
    }
  };

  CheckSpec(symexec::computeSpec(*P, Ctx));
  // Handcrafted positive specs of every reachable shape: these meet the
  // masking sketches (triu/tril/diag templates carry exact-zero
  // elements), which guarantees the rejection path is exercised.
  {
    dsl::Program Q;
    dsl::TensorType Mat{DType::Float64, Shape({4, 4})};
    const dsl::Node *M = Q.input("M", Mat);
    Q.setRoot(Q.add(M, M));
    CheckSpec(symexec::computeSpec(Q, Ctx));
  }
  SCOPED_TRACE("STENSO_SEED=" + std::to_string(baseSeed()));
  for (int Round = 0; Round < 40; ++Round) {
    AnalysisFuzzer Fuzzer(baseSeed() + 90001 + Round * 13,
                          /*SquareShapes=*/true);
    std::unique_ptr<dsl::Program> Q = Fuzzer.generate(5);
    symexec::SymTensor Spec = symexec::computeSpec(*Q, Ctx);
    if (Library.getSketchesFor(Spec.getShape(), Spec.getDType()).empty())
      continue;
    CheckSpec(Spec);
  }

  // Non-vacuity: the stream must have produced both rejections and
  // pass-throughs.
  EXPECT_GT(Rejected, 0) << Pairs << " pairs tested";
  EXPECT_GT(Pairs, Rejected);
}

//===----------------------------------------------------------------------===//
// End-to-end determinism: the oracle never changes the search outcome
//===----------------------------------------------------------------------===//

TEST(AnalysisPruningTest, SynthesisResultIdenticalWithOracleOnOrOff) {
  SCOPED_TRACE("STENSO_SEED=" + std::to_string(baseSeed()));
  // Two seed streams of three programs each.
  std::vector<uint64_t> Seeds;
  for (uint64_t SeedIdx = 0; SeedIdx < 3; ++SeedIdx) {
    Seeds.push_back(baseSeed() + SeedIdx * 7741 + 5);
    Seeds.push_back(baseSeed() + SeedIdx * 6151 + 17);
  }
  for (uint64_t Seed : Seeds) {
    AnalysisFuzzer Fuzzer(Seed);
    std::unique_ptr<dsl::Program> P = Fuzzer.generate(4);

    struct Outcome {
      bool Improved;
      std::string Source;
      double Cost;
      synth::AbortReason Abort;
    };
    std::vector<Outcome> Outcomes;
    int64_t PrunedOn = -1, PrunedOff = -1;
    for (bool Oracle : {true, false})
      for (int Jobs : {1, 2}) {
        synth::SynthesisConfig Config;
        Config.TimeoutSeconds = 60;
        Config.UseAnalysisPruning = Oracle;
        Config.Jobs = Jobs;
        synth::SynthesisResult R = synth::Synthesizer(Config).run(*P);
        Outcomes.push_back(
            {R.Improved, R.OptimizedSource, R.OptimizedCost, R.Abort});
        if (Oracle)
          PrunedOn = R.Stats.PrunedByAnalysis;
        else
          PrunedOff = R.Stats.PrunedByAnalysis;
        if (R.Abort == synth::AbortReason::Timeout)
          GTEST_SKIP() << "timeout; determinism only promised on "
                          "completed searches";
      }
    for (size_t I = 1; I < Outcomes.size(); ++I) {
      EXPECT_EQ(Outcomes[0].Improved, Outcomes[I].Improved)
          << dsl::printProgram(*P);
      EXPECT_EQ(Outcomes[0].Source, Outcomes[I].Source)
          << dsl::printProgram(*P);
      EXPECT_EQ(Outcomes[0].Cost, Outcomes[I].Cost) << dsl::printProgram(*P);
      EXPECT_EQ(Outcomes[0].Abort, Outcomes[I].Abort)
          << dsl::printProgram(*P);
    }
    // Stats bookkeeping: the oracle-off runs must report zero analysis
    // prunes (the counters are tied to the flag, not merely unused).
    EXPECT_EQ(PrunedOff, 0);
    EXPECT_GE(PrunedOn, 0);
  }
}

//===----------------------------------------------------------------------===//
// Cost-bound analysis: admissibility
//===----------------------------------------------------------------------===//

TEST(CostBoundTest, BoundsAreAdmissibleOnEnumeratedCompletions) {
  // DESIGN.md section 14's contract, checked against the enumerated
  // library: the hole floor may not exceed the true (flops-additive)
  // cost of any completion the search could build from it.
  SCOPED_TRACE("STENSO_SEED=" + std::to_string(baseSeed()));
  for (int SeedIdx = 0; SeedIdx < 4; ++SeedIdx) {
    uint64_t Seed = baseSeed() + static_cast<uint64_t>(SeedIdx) * 7919 + 3;
    AnalysisFuzzer Fuzzer(Seed, /*SquareShapes=*/SeedIdx % 2 == 1);
    std::unique_ptr<dsl::Program> P = Fuzzer.generate(5);

    sym::ExprContext Ctx;
    symexec::SymBinding Bindings = symexec::makeInputBindings(*P, Ctx);
    std::unique_ptr<synth::CostModel> Model = synth::makeCostModel("flops");
    synth::ShapeScaler Scaler;
    synth::SketchLibrary Library(*P, Ctx, Bindings, *Model, Scaler,
                                 synth::SketchLibrary::Config());
    ASSERT_GT(Library.getStubs().size(), 0u);

    const int MaxDepth = 4;
    CostBoundAnalysis CB =
        synth::buildCostBound(Library, *Model, Scaler, Bindings, MaxDepth);

    // Depth-0 completions are exactly the stubs.
    for (const synth::Stub &S : Library.getStubs())
      EXPECT_LE(CB.holeCompletionBound(S.Root->getType(), 0), S.Cost)
          << dsl::printProgram(*P);

    // The hole floor must be monotone nonincreasing in the remaining
    // depth: everything reachable at depth d is reachable at d+1.
    for (const synth::Stub &S : Library.getStubs())
      for (int D = 0; D < MaxDepth; ++D)
        EXPECT_LE(CB.holeCompletionBound(S.Root->getType(), D + 1),
                  CB.holeCompletionBound(S.Root->getType(), D));
    for (const synth::Sketch &Sk : Library.getSketches()) {
      dsl::TensorType T{Sk.Template.getDType(), Sk.Template.getShape()};
      for (int D = 0; D < MaxDepth; ++D)
        EXPECT_LE(CB.holeCompletionBound(T, D + 1),
                  CB.holeCompletionBound(T, D));
    }

    // Random sketch chains ending in a stub are the deep completions the
    // DFS builds.  The flops model is additive per node and a sketch's
    // hole is a zero-cost input, so the composed tree's cost is the sum
    // of the concrete costs plus the stub's; the floor at every depth
    // that can reach the chain must stay below that.
    RNG Rng(Seed ^ 0x9e3779b97f4a7c15ull);
    const std::vector<synth::Stub> &Stubs = Library.getStubs();
    const std::vector<synth::Sketch> &Sketches = Library.getSketches();
    for (int Walk = 0; Walk < 32; ++Walk) {
      const synth::Stub &S = Stubs[static_cast<size_t>(Rng.uniformInt(
          0, static_cast<int64_t>(Stubs.size()) - 1))];
      dsl::TensorType CurType = S.Root->getType();
      double Total = S.Cost;
      int Len = 0;
      for (int D = Len; D <= MaxDepth; ++D)
        EXPECT_LE(CB.holeCompletionBound(CurType, D), Total);
      while (Len < MaxDepth) {
        std::vector<const synth::Sketch *> Fits;
        for (const synth::Sketch &Sk : Sketches)
          if (Sk.HoleType == CurType)
            Fits.push_back(&Sk);
        if (Fits.empty())
          break;
        const synth::Sketch &Sk = *Fits[static_cast<size_t>(Rng.uniformInt(
            0, static_cast<int64_t>(Fits.size()) - 1))];
        Total += Sk.ConcreteCost;
        CurType = {Sk.Template.getDType(), Sk.Template.getShape()};
        ++Len;
        for (int D = Len; D <= MaxDepth; ++D)
          EXPECT_LE(CB.holeCompletionBound(CurType, D), Total)
              << dsl::printProgram(*P) << " chain of length " << Len;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Lint: expected checks fire, with spans; clean programs stay clean
//===----------------------------------------------------------------------===//

namespace {

std::vector<LintDiagnostic> lintSource(const std::string &Source,
                                       dsl::ParseResult *Out = nullptr) {
  dsl::InputDecls Decls = {{"A", {DType::Float64, Shape({5})}},
                           {"B", {DType::Float64, Shape({5})}}};
  dsl::ParseResult R = dsl::parseProgram(Source, Decls);
  EXPECT_TRUE(R) << Source << ": " << R.Error;
  if (!R)
    return {};
  std::vector<LintDiagnostic> Diags = lintProgram(*R.Prog);
  if (Out)
    *Out = std::move(R);
  return Diags;
}

bool hasCheck(const std::vector<LintDiagnostic> &Diags,
              const std::string &Check) {
  for (const LintDiagnostic &D : Diags)
    if (D.Check == Check)
      return true;
  return false;
}

} // namespace

TEST(LintTest, DomainChecksFireWithValidSpans) {
  struct Case {
    const char *Source;
    const char *Check;
  };
  const Case Cases[] = {
      {"A / (A - B)", "division-by-possibly-zero"},
      {"np.log(A - B)", "log-domain"},
      {"np.sqrt(A - B)", "sqrt-of-possibly-negative"},
      {"(A - B) ** 0.5", "pow-domain"},
  };
  for (const Case &C : Cases) {
    std::vector<LintDiagnostic> Diags = lintSource(C.Source);
    EXPECT_TRUE(hasCheck(Diags, C.Check)) << C.Source;
    for (const LintDiagnostic &D : Diags) {
      EXPECT_TRUE(D.Span.valid()) << C.Source << " check " << D.Check;
      EXPECT_LE(D.Span.End, static_cast<int64_t>(std::string(C.Source).size()))
          << C.Source;
    }
  }
}

TEST(LintTest, DeadInputAndConstantResultChecks) {
  // B is declared but unused.
  EXPECT_TRUE(hasCheck(lintSource("A + A"), "dead-input"));
  // A result depending on no input at all.
  EXPECT_TRUE(hasCheck(lintSource("2 + 2"), "constant-result"));
  // A clean program yields no warnings at all.
  for (const LintDiagnostic &D : lintSource("np.dot(A, B)"))
    EXPECT_NE(D.Severity, LintSeverity::Warning)
        << D.Check << ": " << D.Message;
}

TEST(LintTest, RenderedDiagnosticsCarryCaretAndLocation) {
  dsl::ParseResult Parsed;
  std::vector<LintDiagnostic> Diags = lintSource("A / (A - B)", &Parsed);
  ASSERT_FALSE(Diags.empty());
  std::string Rendered = renderDiagnostic("A / (A - B)", Diags.front());
  EXPECT_NE(Rendered.find("warning:"), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find('^'), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("1:"), std::string::npos) << Rendered;

  std::string Json = diagnosticsToJson("A / (A - B)", Diags);
  EXPECT_NE(Json.find("\"span\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"check\""), std::string::npos) << Json;
}

TEST(LintTest, SeverityNames) {
  EXPECT_STREQ(toString(LintSeverity::Note), "note");
  EXPECT_STREQ(toString(LintSeverity::Warning), "warning");
  EXPECT_STREQ(toString(LintSeverity::Error), "error");
}

//===----------------------------------------------------------------------===//
// Parser spans and error positions
//===----------------------------------------------------------------------===//

TEST(ParserSpanTest, NodesCarrySpansIntoTheSource) {
  dsl::InputDecls Decls = {{"A", {DType::Float64, Shape({5})}},
                           {"B", {DType::Float64, Shape({5})}}};
  std::string Source = "np.sqrt(A + B) / np.exp(B)";
  dsl::ParseResult R = dsl::parseProgram(Source, Decls);
  ASSERT_TRUE(R) << R.Error;

  // The root (the division) spans the whole expression.
  dsl::SourceSpan Root = R.Prog->getSpan(R.Prog->getRoot());
  ASSERT_TRUE(Root.valid());
  EXPECT_EQ(Root.Begin, 0);
  EXPECT_EQ(Root.End, static_cast<int64_t>(Source.size()));

  // Operand spans nest inside the root and cover their own text.
  const dsl::Node *Sqrt = R.Prog->getRoot()->getOperand(0);
  dsl::SourceSpan S = R.Prog->getSpan(Sqrt);
  ASSERT_TRUE(S.valid());
  EXPECT_EQ(Source.substr(static_cast<size_t>(S.Begin),
                          static_cast<size_t>(S.End - S.Begin)),
            "np.sqrt(A + B)");
}

TEST(ParserSpanTest, ErrorsCarryOffsetAndLineColumn) {
  dsl::InputDecls Decls = {{"A", {DType::Float64, Shape({5})}}};
  const char *Cases[] = {"np.dot(A,", "A +", "np.bogus(A)", "A @ @"};
  for (const char *Source : Cases) {
    dsl::ParseResult R = dsl::parseProgram(Source, Decls);
    ASSERT_FALSE(R) << Source;
    EXPECT_FALSE(R.Error.empty());
    ASSERT_NE(R.ErrorOffset, std::string::npos) << Source;
    EXPECT_LE(R.ErrorOffset, std::string(Source).size());
    EXPECT_GE(R.ErrorLine, 1);
    EXPECT_GE(R.ErrorCol, 1);
    // The line/column must agree with lineColAt on the same offset.
    auto LC = dsl::lineColAt(Source, R.ErrorOffset);
    EXPECT_EQ(LC.first, R.ErrorLine) << Source;
    EXPECT_EQ(LC.second, R.ErrorCol) << Source;
  }
}

TEST(ParserSpanTest, MultiLineSourcesReportLaterLines) {
  dsl::InputDecls Decls = {{"A", {DType::Float64, Shape({5})}}};
  std::string Source = "(A +\n A +\n np.frobnicate(A))";
  dsl::ParseResult R = dsl::parseProgram(Source, Decls);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.ErrorLine, 3) << R.Error;
}

} // namespace
