//===- SymbolicTest.cpp - Unit tests for the symbolic engine --------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "symbolic/Evaluator.h"
#include "symbolic/ExprContext.h"
#include "symbolic/Linear.h"
#include "symbolic/Transforms.h"

#include <gtest/gtest.h>

using namespace stenso;
using namespace stenso::sym;

namespace {

class SymbolicFixture : public ::testing::Test {
protected:
  ExprContext Ctx;
  const Expr *X = Ctx.symbol("x");
  const Expr *Y = Ctx.symbol("y");
  const Expr *Z = Ctx.symbol("z");
};

} // namespace

//===----------------------------------------------------------------------===//
// Interning and leaves
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, ConstantsAreInterned) {
  EXPECT_EQ(Ctx.integer(3), Ctx.constant(Rational(6, 2)));
  EXPECT_NE(Ctx.integer(3), Ctx.integer(4));
}

TEST_F(SymbolicFixture, SymbolsAreInternedByName) {
  EXPECT_EQ(Ctx.symbol("x"), X);
  EXPECT_NE(X, Y);
}

TEST_F(SymbolicFixture, SemanticEqualityIsPointerEquality) {
  EXPECT_EQ(Ctx.add(X, Y), Ctx.add(Y, X));
  EXPECT_EQ(Ctx.mul(X, Y), Ctx.mul(Y, X));
}

//===----------------------------------------------------------------------===//
// Add canonicalization
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, AddFoldsConstants) {
  const Expr *E = Ctx.add({Ctx.integer(2), X, Ctx.integer(3)});
  EXPECT_EQ(E, Ctx.add(Ctx.integer(5), X));
}

TEST_F(SymbolicFixture, AddCollectsLikeTerms) {
  // x + x + x = 3x
  const Expr *E = Ctx.add({X, X, X});
  EXPECT_EQ(E, Ctx.mul(Ctx.integer(3), X));
}

TEST_F(SymbolicFixture, AddCancelsTerms) {
  // x + y - x = y
  const Expr *E = Ctx.add({X, Y, Ctx.neg(X)});
  EXPECT_EQ(E, Y);
}

TEST_F(SymbolicFixture, AddFlattensNestedSums) {
  const Expr *E = Ctx.add(Ctx.add(X, Y), Z);
  EXPECT_EQ(E, Ctx.add({X, Y, Z}));
}

TEST_F(SymbolicFixture, EmptyAddIsZero) {
  EXPECT_TRUE(Ctx.add(std::vector<const Expr *>{})->isZero());
}

TEST_F(SymbolicFixture, Synth2StyleCancellation) {
  // A + B - A - A + B*B - B  =  B^2 - A + 0*B ... = B^2 - A
  const Expr *E = Ctx.add(
      {X, Y, Ctx.neg(X), Ctx.neg(X), Ctx.mul(Y, Y), Ctx.neg(Y)});
  const Expr *Expected =
      Ctx.add(Ctx.neg(X), Ctx.pow(Y, Ctx.integer(2)));
  EXPECT_EQ(E, Expected);
}

//===----------------------------------------------------------------------===//
// Mul / Pow canonicalization
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, MulFoldsConstantsAndZero) {
  EXPECT_EQ(Ctx.mul({Ctx.integer(2), X, Ctx.integer(3)}),
            Ctx.mul(Ctx.integer(6), X));
  EXPECT_TRUE(Ctx.mul(Ctx.zero(), X)->isZero());
}

TEST_F(SymbolicFixture, MulCollectsLikeFactors) {
  // x * x * x * x * x = x^5  (synth_11)
  const Expr *E = Ctx.mul({X, X, X, X, X});
  EXPECT_EQ(E, Ctx.pow(X, Ctx.integer(5)));
}

TEST_F(SymbolicFixture, MulCancelsDivision) {
  // (x*y)/y = x
  const Expr *E = Ctx.div(Ctx.mul(X, Y), Y);
  EXPECT_EQ(E, X);
}

TEST_F(SymbolicFixture, PowBasic) {
  EXPECT_EQ(Ctx.pow(X, Ctx.zero()), Ctx.one());
  EXPECT_EQ(Ctx.pow(X, Ctx.one()), X);
  EXPECT_EQ(Ctx.pow(Ctx.one(), X), Ctx.one());
  EXPECT_EQ(Ctx.pow(Ctx.integer(2), Ctx.integer(10)), Ctx.integer(1024));
}

TEST_F(SymbolicFixture, PowOfPowMultipliesExponents) {
  // (x^(1/2))^4 = x^2  (synth_5 core)
  const Expr *E = Ctx.pow(Ctx.sqrt(X), Ctx.integer(4));
  EXPECT_EQ(E, Ctx.pow(X, Ctx.integer(2)));
}

TEST_F(SymbolicFixture, PowDistributesOverMul) {
  // (x*y)^2 = x^2*y^2
  const Expr *E = Ctx.pow(Ctx.mul(X, Y), Ctx.integer(2));
  EXPECT_EQ(E, Ctx.mul(Ctx.pow(X, Ctx.integer(2)),
                       Ctx.pow(Y, Ctx.integer(2))));
}

TEST_F(SymbolicFixture, PowerQuotientReduces) {
  // x^6 / x^4 = x^2  (synth_7)
  const Expr *E =
      Ctx.div(Ctx.pow(X, Ctx.integer(6)), Ctx.pow(X, Ctx.integer(4)));
  EXPECT_EQ(E, Ctx.pow(X, Ctx.integer(2)));
}

TEST_F(SymbolicFixture, SqrtQuotientReduces) {
  // (x+y)/sqrt(x+y) = sqrt(x+y)  (synth_3)
  const Expr *Sum = Ctx.add(X, Y);
  EXPECT_EQ(Ctx.div(Sum, Ctx.sqrt(Sum)), Ctx.sqrt(Sum));
}

TEST_F(SymbolicFixture, SqrtOfSquareIsIdentityUnderPositivity) {
  EXPECT_EQ(Ctx.sqrt(Ctx.pow(X, Ctx.integer(2))), X);
}

TEST_F(SymbolicFixture, SquaredDoubleSqrtSimplifies) {
  // (sqrt(x) + sqrt(x))^2 canonicalizes to 4x at construction (synth_6),
  // because sqrt(x)+sqrt(x) = 2*sqrt(x) and (2 sqrt(x))^2 = 4x.
  const Expr *E =
      Ctx.pow(Ctx.add(Ctx.sqrt(X), Ctx.sqrt(X)), Ctx.integer(2));
  EXPECT_EQ(E, Ctx.mul(Ctx.integer(4), X));
}

TEST_F(SymbolicFixture, ExactRationalRoots) {
  EXPECT_EQ(Ctx.sqrt(Ctx.constant(Rational(4, 9))),
            Ctx.constant(Rational(2, 3)));
  // sqrt(2) stays symbolic.
  const Expr *Root2 = Ctx.sqrt(Ctx.integer(2));
  EXPECT_TRUE(isa<PowExpr>(Root2));
}

TEST_F(SymbolicFixture, NegativePowerIsReciprocal) {
  // power(x, -1) then times x is 1.
  const Expr *Inv = Ctx.pow(X, Ctx.integer(-1));
  EXPECT_EQ(Ctx.mul(X, Inv), Ctx.one());
}

//===----------------------------------------------------------------------===//
// Exp / Log laws
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, ExpLogInverse) {
  EXPECT_EQ(Ctx.expOf(Ctx.logOf(X)), X);
  EXPECT_EQ(Ctx.logOf(Ctx.expOf(X)), X);
  EXPECT_EQ(Ctx.expOf(Ctx.zero()), Ctx.one());
  EXPECT_EQ(Ctx.logOf(Ctx.one()), Ctx.zero());
}

TEST_F(SymbolicFixture, ExpOfLogSumIsIdentity) {
  // exp(log(x + y)) = x + y  (log_exp_1)
  const Expr *Sum = Ctx.add(X, Y);
  EXPECT_EQ(Ctx.expOf(Ctx.logOf(Sum)), Sum);
}

TEST_F(SymbolicFixture, ExpOfLogDifferenceIsQuotient) {
  // exp(log(x) - log(y)) = x/y  (log_exp_2)
  const Expr *E = Ctx.expOf(Ctx.sub(Ctx.logOf(X), Ctx.logOf(Y)));
  EXPECT_EQ(E, Ctx.div(X, Y));
}

TEST_F(SymbolicFixture, ExpProductMerges) {
  // exp(x)*exp(-x) = 1
  const Expr *E = Ctx.mul(Ctx.expOf(X), Ctx.expOf(Ctx.neg(X)));
  EXPECT_EQ(E, Ctx.one());
}

TEST_F(SymbolicFixture, ExpPowerScalesArgument) {
  EXPECT_EQ(Ctx.pow(Ctx.expOf(X), Ctx.integer(3)),
            Ctx.expOf(Ctx.mul(Ctx.integer(3), X)));
}

TEST_F(SymbolicFixture, LogOfPowerAndProduct) {
  EXPECT_EQ(Ctx.logOf(Ctx.pow(X, Ctx.integer(2))),
            Ctx.mul(Ctx.integer(2), Ctx.logOf(X)));
  EXPECT_EQ(Ctx.logOf(Ctx.mul(X, Y)),
            Ctx.add(Ctx.logOf(X), Ctx.logOf(Y)));
}

//===----------------------------------------------------------------------===//
// Max / Less / Select
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, MaxDedupesAndFoldsConstants) {
  EXPECT_EQ(Ctx.max({X, X}), X);
  EXPECT_EQ(Ctx.max({Ctx.integer(2), Ctx.integer(5)}), Ctx.integer(5));
  const Expr *M = Ctx.max({X, Y});
  EXPECT_EQ(Ctx.max({Y, X}), M);
}

TEST_F(SymbolicFixture, MaxFlattens) {
  EXPECT_EQ(Ctx.max({Ctx.max({X, Y}), Z}), Ctx.max({X, Y, Z}));
}

TEST_F(SymbolicFixture, LessFoldsConstants) {
  EXPECT_TRUE(Ctx.less(Ctx.integer(1), Ctx.integer(2))->isOne());
  EXPECT_TRUE(Ctx.less(Ctx.integer(2), Ctx.integer(1))->isZero());
  EXPECT_TRUE(Ctx.less(X, X)->isZero());
}

TEST_F(SymbolicFixture, SelectSimplifies) {
  EXPECT_EQ(Ctx.select(Ctx.one(), X, Y), X);
  EXPECT_EQ(Ctx.select(Ctx.zero(), X, Y), Y);
  EXPECT_EQ(Ctx.select(Ctx.less(X, Y), Z, Z), Z);
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, EvaluateArithmetic) {
  Environment Env{{X, 2.0}, {Y, 3.0}};
  EXPECT_DOUBLE_EQ(evaluate(Ctx.add(X, Y), Env), 5.0);
  EXPECT_DOUBLE_EQ(evaluate(Ctx.mul(X, Y), Env), 6.0);
  EXPECT_DOUBLE_EQ(evaluate(Ctx.pow(X, Y), Env), 8.0);
  EXPECT_DOUBLE_EQ(evaluate(Ctx.div(X, Y), Env), 2.0 / 3.0);
}

TEST_F(SymbolicFixture, EvaluateFunctions) {
  Environment Env{{X, 2.0}, {Y, 5.0}};
  EXPECT_DOUBLE_EQ(evaluate(Ctx.max({X, Y}), Env), 5.0);
  EXPECT_DOUBLE_EQ(evaluate(Ctx.less(X, Y), Env), 1.0);
  EXPECT_DOUBLE_EQ(evaluate(Ctx.select(Ctx.less(X, Y), X, Y), Env), 2.0);
  EXPECT_NEAR(evaluate(Ctx.logOf(Ctx.expOf(X)), Env), 2.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, SubstituteSymbol) {
  const Expr *E = Ctx.add(Ctx.mul(X, Y), Z);
  const Expr *Sub = substitute(Ctx, E, {{X, Ctx.integer(2)}});
  EXPECT_EQ(Sub, Ctx.add(Ctx.mul(Ctx.integer(2), Y), Z));
}

TEST_F(SymbolicFixture, SubstituteResimplifies) {
  // (x - y) with y := x collapses to 0.
  const Expr *E = Ctx.sub(X, Y);
  EXPECT_TRUE(substitute(Ctx, E, {{Y, X}})->isZero());
}

//===----------------------------------------------------------------------===//
// Expansion and equivalence
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, ExpandDistributes) {
  // (x+y)*z = xz + yz
  const Expr *E = Ctx.mul(Ctx.add(X, Y), Z);
  EXPECT_EQ(expand(Ctx, E), Ctx.add(Ctx.mul(X, Z), Ctx.mul(Y, Z)));
}

TEST_F(SymbolicFixture, ExpandBinomialSquare) {
  // (x+y)^2 = x^2 + 2xy + y^2
  const Expr *E = Ctx.pow(Ctx.add(X, Y), Ctx.integer(2));
  const Expr *Expected = Ctx.add(
      {Ctx.pow(X, Ctx.integer(2)), Ctx.mul({Ctx.integer(2), X, Y}),
       Ctx.pow(Y, Ctx.integer(2))});
  EXPECT_EQ(expand(Ctx, E), Expected);
}

TEST_F(SymbolicFixture, EquivalenceByExpansion) {
  RNG Rng(1);
  // (x+y)^2 - (x-y)^2 == 4xy
  const Expr *Lhs = Ctx.sub(Ctx.pow(Ctx.add(X, Y), Ctx.integer(2)),
                            Ctx.pow(Ctx.sub(X, Y), Ctx.integer(2)));
  const Expr *Rhs = Ctx.mul({Ctx.integer(4), X, Y});
  EXPECT_TRUE(areEquivalent(Ctx, Lhs, Rhs, Rng));
}

TEST_F(SymbolicFixture, EquivalenceRejectsDifferent) {
  RNG Rng(2);
  EXPECT_FALSE(areEquivalent(Ctx, Ctx.add(X, Y), Ctx.mul(X, Y), Rng));
  EXPECT_FALSE(areEquivalent(Ctx, X, Y, Rng));
}

TEST_F(SymbolicFixture, EquivalenceOfMaxForms) {
  RNG Rng(3);
  // max(x, y) + min-free identity: max(x,y) == max(y,x) via canonical form;
  // and max(x,x+0) == x.
  EXPECT_TRUE(areEquivalent(Ctx, Ctx.max({X, Y}), Ctx.max({Y, X}), Rng));
  EXPECT_TRUE(areEquivalent(Ctx, Ctx.max({X, X}), X, Rng));
}

//===----------------------------------------------------------------------===//
// Linear decomposition (solver substrate)
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, DecomposeLinearSimple) {
  // E = 2*x*b0 + y*b1 + 7, targets {b0, b1}.
  const Expr *B0 = Ctx.symbol("b0", "B", {0});
  const Expr *B1 = Ctx.symbol("b1", "B", {1});
  const Expr *E = Ctx.add({Ctx.mul({Ctx.integer(2), X, B0}),
                           Ctx.mul(Y, B1), Ctx.integer(7)});
  auto Result = decomposeLinear(Ctx, E, {B0, B1});
  ASSERT_TRUE(Result.has_value());
  ASSERT_EQ(Result->Coefficients.size(), 2u);
  EXPECT_EQ(Result->Coefficients[0].first, B0);
  EXPECT_EQ(Result->Coefficients[0].second, Ctx.mul(Ctx.integer(2), X));
  EXPECT_EQ(Result->Coefficients[1].first, B1);
  EXPECT_EQ(Result->Coefficients[1].second, Y);
  EXPECT_EQ(Result->Remainder, Ctx.integer(7));
}

TEST_F(SymbolicFixture, DecomposeLinearMergesOccurrences) {
  const Expr *B0 = Ctx.symbol("b0", "B", {0});
  // x*b0 + y*b0 -> coefficient (x+y).
  const Expr *E = Ctx.add(Ctx.mul(X, B0), Ctx.mul(Y, B0));
  auto Result = decomposeLinear(Ctx, E, {B0});
  ASSERT_TRUE(Result.has_value());
  ASSERT_EQ(Result->Coefficients.size(), 1u);
  EXPECT_EQ(Result->Coefficients[0].second, Ctx.add(X, Y));
  EXPECT_TRUE(Result->Remainder->isZero());
}

TEST_F(SymbolicFixture, DecomposeLinearExpandsFirst) {
  const Expr *B0 = Ctx.symbol("b0", "B", {0});
  // (x + b0) * y  ->  coefficient of b0 is y, remainder x*y.
  const Expr *E = Ctx.mul(Ctx.add(X, B0), Y);
  auto Result = decomposeLinear(Ctx, E, {B0});
  ASSERT_TRUE(Result.has_value());
  EXPECT_EQ(Result->Coefficients[0].second, Y);
  EXPECT_EQ(Result->Remainder, Ctx.mul(X, Y));
}

TEST_F(SymbolicFixture, DecomposeLinearRejectsQuadratic) {
  const Expr *B0 = Ctx.symbol("b0", "B", {0});
  EXPECT_FALSE(
      decomposeLinear(Ctx, Ctx.pow(B0, Ctx.integer(2)), {B0}).has_value());
  const Expr *B1 = Ctx.symbol("b1", "B", {1});
  EXPECT_FALSE(decomposeLinear(Ctx, Ctx.mul(B0, B1), {B0, B1}).has_value());
}

TEST_F(SymbolicFixture, DecomposeLinearRejectsBuriedTarget) {
  const Expr *B0 = Ctx.symbol("b0", "B", {0});
  EXPECT_FALSE(decomposeLinear(Ctx, Ctx.expOf(B0), {B0}).has_value());
}

//===----------------------------------------------------------------------===//
// Symbol metadata, printing, misc
//===----------------------------------------------------------------------===//

TEST_F(SymbolicFixture, CollectSymbolsIsSortedAndUnique) {
  const Expr *E = Ctx.add({Ctx.mul(X, Y), X, Z});
  auto Syms = collectSymbols(E);
  ASSERT_EQ(Syms.size(), 3u);
  EXPECT_EQ(Syms[0]->getName(), "x");
  EXPECT_EQ(Syms[1]->getName(), "y");
  EXPECT_EQ(Syms[2]->getName(), "z");
}

TEST_F(SymbolicFixture, CountDistinctInputsGroupsByTensor) {
  const Expr *A0 = Ctx.symbol("A[0]", "A", {0});
  const Expr *A1 = Ctx.symbol("A[1]", "A", {1});
  const Expr *B0 = Ctx.symbol("B[0]", "B", {0});
  EXPECT_EQ(countDistinctInputs(Ctx.add({A0, A1, B0})), 2);
  EXPECT_EQ(countDistinctInputs(Ctx.integer(5)), 0);
}

TEST_F(SymbolicFixture, PrinterRoundTripSpotChecks) {
  EXPECT_EQ(Ctx.add(X, Y)->toString(), "x + y");
  EXPECT_EQ(Ctx.mul(Ctx.integer(2), X)->toString(), "2*x");
  EXPECT_EQ(Ctx.pow(X, Ctx.integer(2))->toString(), "x^2");
  EXPECT_EQ(Ctx.sqrt(X)->toString(), "x^(1/2)");
  // Canonical factor order puts atoms before sums.
  EXPECT_EQ(Ctx.mul(Ctx.add(X, Y), Z)->toString(), "z*(x + y)");
}

TEST_F(SymbolicFixture, CountOps) {
  EXPECT_EQ(X->countOps(), 0);
  EXPECT_EQ(Ctx.add(X, Y)->countOps(), 1);
  EXPECT_EQ(Ctx.mul(Ctx.add(X, Y), Z)->countOps(), 2);
}

//===----------------------------------------------------------------------===//
// Property-style sweeps: canonical forms agree with numeric evaluation
//===----------------------------------------------------------------------===//

namespace {

struct IdentityCase {
  const char *Name;
  // Builds the two sides from (x, y).
  const Expr *(*Lhs)(ExprContext &, const Expr *, const Expr *);
  const Expr *(*Rhs)(ExprContext &, const Expr *, const Expr *);
};

/// Prints the case as its name.  gtest's default dumps the struct's
/// bytes, pointers included, and ctest puts that text in the test name.
void PrintTo(const IdentityCase &C, std::ostream *OS) { *OS << C.Name; }

class IdentityTest : public ::testing::TestWithParam<IdentityCase> {};

} // namespace

TEST_P(IdentityTest, CanonicalFormsCoincide) {
  ExprContext Ctx;
  const Expr *X = Ctx.symbol("x");
  const Expr *Y = Ctx.symbol("y");
  const IdentityCase &C = GetParam();
  RNG Rng(99);
  EXPECT_TRUE(
      areEquivalent(Ctx, C.Lhs(Ctx, X, Y), C.Rhs(Ctx, X, Y), Rng))
      << C.Name;
}

static const IdentityCase IdentityCases[] = {
    {"double_negation",
     [](ExprContext &C, const Expr *X, const Expr *) {
       return C.neg(C.neg(X));
     },
     [](ExprContext &, const Expr *X, const Expr *) { return X; }},
    {"sqrt_square",
     [](ExprContext &C, const Expr *X, const Expr *) {
       return C.sqrt(C.mul(X, X));
     },
     [](ExprContext &, const Expr *X, const Expr *) { return X; }},
    {"exp_log_product",
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.expOf(C.add(C.logOf(X), C.logOf(Y)));
     },
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.mul(X, Y);
     }},
    {"difference_of_squares",
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.mul(C.add(X, Y), C.sub(X, Y));
     },
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.sub(C.mul(X, X), C.mul(Y, Y));
     }},
    {"power_tower",
     [](ExprContext &C, const Expr *X, const Expr *) {
       return C.pow(C.pow(X, C.integer(3)), C.constant(Rational(1, 3)));
     },
     [](ExprContext &, const Expr *X, const Expr *) { return X; }},
    {"div_as_negative_power",
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.div(X, Y);
     },
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.mul(X, C.pow(Y, C.integer(-1)));
     }},
    {"select_collapse",
     [](ExprContext &C, const Expr *X, const Expr *Y) {
       return C.select(C.less(X, Y), X, X);
     },
     [](ExprContext &, const Expr *X, const Expr *) { return X; }},
};

INSTANTIATE_TEST_SUITE_P(AlgebraicIdentities, IdentityTest,
                         ::testing::ValuesIn(IdentityCases),
                         [](const ::testing::TestParamInfo<IdentityCase> &I) {
                           return I.param.Name;
                         });

TEST(SymbolicPropertyTest, RandomExpressionsEvaluateConsistentlyAfterExpand) {
  // Property: expand() preserves value on random positive inputs.
  RNG Rng(7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    ExprContext Ctx;
    const Expr *X = Ctx.symbol("x");
    const Expr *Y = Ctx.symbol("y");
    const Expr *Z = Ctx.symbol("z");
    std::vector<const Expr *> Pool = {X, Y, Z, Ctx.integer(2),
                                      Ctx.constant(Rational(1, 2))};
    // Grow a random expression.
    for (int Step = 0; Step < 6; ++Step) {
      const Expr *A = Pool[static_cast<size_t>(
          Rng.uniformInt(0, static_cast<int64_t>(Pool.size()) - 1))];
      const Expr *B = Pool[static_cast<size_t>(
          Rng.uniformInt(0, static_cast<int64_t>(Pool.size()) - 1))];
      const Expr *Combined = nullptr;
      switch (Rng.uniformInt(0, 4)) {
      case 0:
        Combined = Ctx.add(A, B);
        break;
      case 1:
        Combined = Ctx.sub(A, B);
        break;
      case 2:
        Combined = Ctx.mul(A, B);
        break;
      case 3:
        Combined = Ctx.div(A, B);
        break;
      default:
        Combined = Ctx.pow(A, Ctx.integer(2));
        break;
      }
      Pool.push_back(Combined);
    }
    const Expr *E = Pool.back();
    const Expr *Ex = expand(Ctx, E);
    Environment Env{{X, Rng.positive()}, {Y, Rng.positive()},
                    {Z, Rng.positive()}};
    double VE = evaluate(E, Env);
    double VX = evaluate(Ex, Env);
    double Scale = std::max({1.0, std::fabs(VE), std::fabs(VX)});
    EXPECT_NEAR(VE, VX, 1e-8 * Scale) << E->toString();
  }
}

//===----------------------------------------------------------------------===//
// compareExprs is a strict total order (property check)
//===----------------------------------------------------------------------===//

TEST(SymbolicOrderTest, CompareIsAStrictTotalOrder) {
  ExprContext Ctx;
  const Expr *X = Ctx.symbol("x");
  const Expr *Y = Ctx.symbol("y");
  std::vector<const Expr *> Pool = {
      Ctx.zero(),
      Ctx.one(),
      Ctx.constant(Rational(-3, 2)),
      X,
      Y,
      Ctx.add(X, Y),
      Ctx.mul(X, Y),
      Ctx.mul(Ctx.integer(2), X),
      Ctx.pow(X, Ctx.integer(2)),
      Ctx.sqrt(X),
      Ctx.expOf(X),
      Ctx.logOf(Y),
      Ctx.max({X, Y}),
      Ctx.less(X, Y),
      Ctx.select(Ctx.less(X, Y), X, Y),
  };
  for (const Expr *A : Pool)
    for (const Expr *B : Pool) {
      int AB = compareExprs(A, B);
      int BA = compareExprs(B, A);
      // Antisymmetry; zero exactly on identity (interned semantics).
      EXPECT_EQ(AB == 0, A == B);
      EXPECT_EQ(AB < 0, BA > 0);
      for (const Expr *C : Pool) {
        // Transitivity.
        if (AB < 0 && compareExprs(B, C) < 0)
          EXPECT_LT(compareExprs(A, C), 0);
      }
    }
}

TEST(SymbolicOrderTest, PowZeroBaseEdgeCases) {
  ExprContext Ctx;
  const Expr *X = Ctx.symbol("x");
  // 0^positive folds to 0; 0^negative and 0^symbolic stay symbolic
  // (folding would abort on the rational division).
  EXPECT_TRUE(Ctx.pow(Ctx.zero(), Ctx.integer(3))->isZero());
  EXPECT_TRUE(isa<PowExpr>(Ctx.pow(Ctx.zero(), Ctx.integer(-1))));
  EXPECT_TRUE(isa<PowExpr>(Ctx.pow(Ctx.zero(), X)));
  // Large constant powers are kept symbolic rather than overflowing.
  const Expr *Huge =
      Ctx.pow(Ctx.pow(Ctx.integer(4), Ctx.integer(4)), Ctx.integer(256));
  EXPECT_TRUE(isa<PowExpr>(Huge));
}
