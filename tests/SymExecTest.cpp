//===- SymExecTest.cpp - Unit tests for symbolic execution ----------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "symexec/SymbolicExecutor.h"

#include "dsl/Interpreter.h"
#include "dsl/Parser.h"
#include "support/RNG.h"
#include "symbolic/Evaluator.h"

#include <gtest/gtest.h>

using namespace stenso;
using namespace stenso::dsl;
using namespace stenso::symexec;

static TensorType f64(std::initializer_list<int64_t> Dims) {
  return TensorType{DType::Float64, Shape(Dims)};
}

/// Parses and symbolically executes \p Source, returning the spec.
static SymTensor specOf(sym::ExprContext &Ctx, const std::string &Source,
                        const InputDecls &Decls) {
  auto R = parseProgram(Source, Decls);
  EXPECT_TRUE(R) << Source << ": " << R.Error;
  return computeSpec(*R.Prog, Ctx);
}

//===----------------------------------------------------------------------===//
// Spec identity: syntactically different, algebraically equal programs
//===----------------------------------------------------------------------===//

namespace {

struct SpecPair {
  const char *Name;
  const char *Lhs;
  const char *Rhs;
  InputDecls Decls;
};

/// Prints the case as its name.  gtest's default dumps the struct's
/// bytes, pointers included, and ctest puts that text in the test name.
void PrintTo(const SpecPair &C, std::ostream *OS) { *OS << C.Name; }

class SpecIdentityTest : public ::testing::TestWithParam<SpecPair> {};

} // namespace

TEST_P(SpecIdentityTest, SpecsAreIdentical) {
  const SpecPair &P = GetParam();
  sym::ExprContext Ctx;
  SymTensor A = specOf(Ctx, P.Lhs, P.Decls);
  SymTensor B = specOf(Ctx, P.Rhs, P.Decls);
  EXPECT_TRUE(A.identicalTo(B)) << "\nlhs: " << A.toString()
                                << "\nrhs: " << B.toString();
}

// These are the paper's motivating rewrites (Section II and VII-D): both
// sides must symbolically execute to the *same canonical spec*.
static const SpecPair SpecPairs[] = {
    {"diag_dot", "np.diag(np.dot(A, B))", "np.sum(A * B.T, axis=1)",
     {{"A", f64({3, 3})}, {"B", f64({3, 3})}}},
    {"scale_dot", "np.dot(a * A, B)", "a * np.dot(A, B)",
     {{"a", f64({})}, {"A", f64({3, 2})}, {"B", f64({2})}}},
    {"mat_vec", "np.sum(A * x, axis=1)", "np.dot(A, x)",
     {{"A", f64({3, 4})}, {"x", f64({4})}}},
    {"sqrt_quotient", "(A + B) / np.sqrt(A + B)", "np.sqrt(A + B)",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"log_exp", "np.exp(np.log(A + B))", "A + B",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"log_exp_div", "np.exp(np.log(A) - np.log(B))", "A / B",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"double_transpose", "np.transpose(np.transpose(A))", "A",
     {{"A", f64({3, 4})}}},
    {"sum_sum", "np.sum(np.sum(A, axis=0), axis=0)", "np.sum(A)",
     {{"A", f64({3, 4})}}},
    {"sum_stack", "np.sum(np.stack([A, B, C]), axis=0)", "A + B + C",
     {{"A", f64({4})}, {"B", f64({4})}, {"C", f64({4})}}},
    {"max_stack", "np.max(np.stack([A, B]), axis=0)", "np.maximum(A, B)",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"trace_dot", "np.trace(A @ B.T)", "np.sum(A * B)",
     {{"A", f64({3, 3})}, {"B", f64({3, 3})}}},
    {"vectorize", "np.stack([x * 2 for x in A], axis=0)", "A * 2",
     {{"A", f64({4, 3})}}},
    {"vec_lerp", "np.stack([(x*a + (1 - a)*y) for a in A])",
     "x*A + (1 - A)*y",
     {{"A", f64({5})}, {"x", f64({})}, {"y", f64({})}}},
    {"common_factor", "A * B + C * B", "(A + C) * B",
     {{"A", f64({4})}, {"B", f64({4})}, {"C", f64({4})}}},
    {"synth6", "np.power(np.sqrt(A) + np.sqrt(A), 2)", "4 * A",
     {{"A", f64({4})}}},
    {"synth7", "np.power(A, 6) / np.power(A, 4)", "A * A",
     {{"A", f64({4})}}},
    {"synth8", "A * B + A * B", "2 * A * B",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"reorder_dot", "x.T @ A @ x", "np.dot(x, np.dot(A, x))",
     {{"x", f64({3})}, {"A", f64({3, 3})}}},
    {"reshape_dot",
     "np.reshape(np.dot(np.reshape(A, (2, 3, 1, 4)), B), (2, 3, 5))",
     "np.dot(np.reshape(A, (2, 3, 4)), B)",
     {{"A", f64({2, 3, 4})}, {"B", f64({4, 5})}}},
    {"power_neg", "np.power(A, -1)", "1 / A", {{"A", f64({4})}}},
    {"elem_square", "np.power(A, 2)", "A * A", {{"A", f64({4})}}},
};

INSTANTIATE_TEST_SUITE_P(Rewrites, SpecIdentityTest,
                         ::testing::ValuesIn(SpecPairs),
                         [](const ::testing::TestParamInfo<SpecPair> &I) {
                           return I.param.Name;
                         });

//===----------------------------------------------------------------------===//
// Spec distinguishes genuinely different programs
//===----------------------------------------------------------------------===//

TEST(SymExecTest, DistinguishesDifferentPrograms) {
  sym::ExprContext Ctx;
  InputDecls Decls = {{"A", f64({3})}, {"B", f64({3})}};
  SymTensor S1 = specOf(Ctx, "A + B", Decls);
  SymTensor S2 = specOf(Ctx, "A * B", Decls);
  SymTensor S3 = specOf(Ctx, "A - B", Decls);
  EXPECT_FALSE(S1.identicalTo(S2));
  EXPECT_FALSE(S1.identicalTo(S3));
  EXPECT_FALSE(S2.identicalTo(S3));
}

//===----------------------------------------------------------------------===//
// Cross-validation against the concrete interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Binds every symbol of a SymTensor spec from concrete input tensors.
sym::Environment environmentFor(const SymTensor &Spec,
                                const InputBinding &Inputs) {
  sym::Environment Env;
  for (const sym::Expr *E : Spec.getElements())
    for (const sym::SymbolExpr *S : sym::collectSymbols(E)) {
      const Tensor &T = Inputs.at(S->getTensorName());
      int64_t Flat = S->getIndices().empty()
                         ? 0
                         : T.getShape().linearize(S->getIndices());
      Env.emplace(S, T.at(Flat));
    }
  return Env;
}

struct CrossCase {
  const char *Name;
  const char *Source;
  InputDecls Decls;
};

/// Prints the case as its name.  gtest's default dumps the struct's
/// bytes, pointers included, and ctest puts that text in the test name.
void PrintTo(const CrossCase &C, std::ostream *OS) { *OS << C.Name; }

class CrossValidationTest : public ::testing::TestWithParam<CrossCase> {};

} // namespace

TEST_P(CrossValidationTest, SymbolicAgreesWithConcrete) {
  const CrossCase &C = GetParam();
  auto R = parseProgram(C.Source, C.Decls);
  ASSERT_TRUE(R) << R.Error;

  sym::ExprContext Ctx;
  SymTensor Spec = computeSpec(*R.Prog, Ctx);

  RNG Rng(41);
  InputBinding Inputs;
  for (const auto &[Name, Type] : C.Decls) {
    Tensor T(Type.TShape, Type.Dtype);
    for (int64_t I = 0; I < T.getNumElements(); ++I)
      T.at(I) = Type.Dtype == DType::Bool ? (Rng.chance(0.5) ? 1.0 : 0.0)
                                          : Rng.positive();
    Inputs.emplace(Name, std::move(T));
  }

  Tensor Concrete = interpretProgram(*R.Prog, Inputs);
  ASSERT_EQ(Concrete.getShape(), Spec.getShape());

  sym::Environment Env = environmentFor(Spec, Inputs);
  for (int64_t I = 0; I < Concrete.getNumElements(); ++I) {
    double Symbolic = sym::evaluate(Spec.at(I), Env);
    EXPECT_NEAR(Concrete.at(I), Symbolic,
                1e-9 * std::max(1.0, std::fabs(Symbolic)))
        << C.Name << " element " << I;
  }
}

static const CrossCase CrossCases[] = {
    {"dot_chain", "np.dot(np.multiply(A, C), B)",
     {{"A", f64({2, 3})}, {"C", f64({2, 3})}, {"B", f64({3})}}},
    {"tensordot", "np.tensordot(A, B, axes=([0, 1], [0, 1]))",
     {{"A", f64({2, 3})}, {"B", f64({2, 3})}}},
    {"triu_mask", "np.triu(A) + np.tril(A)",
     {{"A", f64({3, 3})}}},
    {"where_mask", "np.where(A < B, A * 2, B)",
     {{"A", f64({4})}, {"B", f64({4})}}},
    {"reductions", "np.max(A, axis=0) + np.sum(A, axis=0)",
     {{"A", f64({3, 2})}}},
    {"full_use", "A + np.full((3,), 2)", {{"A", f64({3})}}},
    {"comprehension", "np.stack([np.sum(r * r) for r in A])",
     {{"A", f64({3, 4})}}},
    {"exp_log", "np.exp(np.log(A) - np.log(B))",
     {{"A", f64({3})}, {"B", f64({3})}}},
};

INSTANTIATE_TEST_SUITE_P(Programs, CrossValidationTest,
                         ::testing::ValuesIn(CrossCases),
                         [](const ::testing::TestParamInfo<CrossCase> &I) {
                           return I.param.Name;
                         });

//===----------------------------------------------------------------------===//
// Complexity metric ingredients
//===----------------------------------------------------------------------===//

TEST(SymTensorTest, DensityOfTriangle) {
  sym::ExprContext Ctx;
  SymTensor Spec = specOf(Ctx, "np.triu(A)", {{"A", f64({3, 3})}});
  // 6 of 9 elements survive the upper-triangle mask.
  EXPECT_NEAR(Spec.density(), 6.0 / 9.0, 1e-12);
}

TEST(SymTensorTest, DistinctInputCount) {
  sym::ExprContext Ctx;
  SymTensor Spec =
      specOf(Ctx, "A * B + A", {{"A", f64({2})}, {"B", f64({2})}});
  EXPECT_EQ(Spec.countDistinctInputs(), 2);
}

TEST(SymTensorTest, MakeInputNamesAndTags) {
  sym::ExprContext Ctx;
  SymTensor T = SymTensor::makeInput(Ctx, "A", Shape({2, 2}));
  const auto *S = cast<sym::SymbolExpr>(T.at({1, 0}));
  EXPECT_EQ(S->getName(), "A[1,0]");
  EXPECT_EQ(S->getTensorName(), "A");
  EXPECT_EQ(S->getIndices(), (std::vector<int64_t>{1, 0}));

  SymTensor Scalar = SymTensor::makeInput(Ctx, "a", Shape());
  EXPECT_EQ(cast<sym::SymbolExpr>(Scalar.item())->getName(), "a");
}

//===----------------------------------------------------------------------===//
// Masking and selection compositions
//===----------------------------------------------------------------------===//

TEST(SymExecTest, TriangleMasksComposeToFullMatrix) {
  // triu(A) + tril(A) - diagflat-free: overlaps only on the diagonal, so
  // triu(A, 0) + tril(A, -1) == A exactly.
  sym::ExprContext Ctx;
  InputDecls Decls = {{"A", f64({3, 3})}};
  SymTensor Lhs = specOf(Ctx, "np.triu(A) + np.tril(A, -1)", Decls);
  SymTensor Rhs = specOf(Ctx, "A", Decls);
  EXPECT_TRUE(Lhs.identicalTo(Rhs));
}

TEST(SymExecTest, WhereWithConstantConditionFolds) {
  sym::ExprContext Ctx;
  InputDecls Decls = {{"A", f64({3})}, {"B", f64({3})}};
  // 1 < 2 folds to true; the select disappears entirely.
  SymTensor Spec = specOf(Ctx, "np.where(np.full((3,), 1) < np.full((3,), 2), A, B)",
                          Decls);
  EXPECT_TRUE(Spec.identicalTo(specOf(Ctx, "A", Decls)));
}

TEST(SymExecTest, MaskedSpecHasLowerDensity) {
  sym::ExprContext Ctx;
  InputDecls Decls = {{"A", f64({4, 4})}};
  SymTensor Full = specOf(Ctx, "A + A", Decls);
  SymTensor Masked = specOf(Ctx, "np.triu(A + A)", Decls);
  EXPECT_DOUBLE_EQ(Full.density(), 1.0);
  EXPECT_LT(Masked.density(), 1.0);
  EXPECT_NEAR(Masked.density(), 10.0 / 16.0, 1e-12);
}

TEST(SymExecTest, TensordotSpecMatchesDotSpec) {
  sym::ExprContext Ctx;
  InputDecls Decls = {{"A", f64({2, 3})}, {"B", f64({3, 2})}};
  SymTensor ViaDot = specOf(Ctx, "np.dot(A, B)", Decls);
  SymTensor ViaTd = specOf(Ctx, "np.tensordot(A, B, axes=([1], [0]))", Decls);
  EXPECT_TRUE(ViaDot.identicalTo(ViaTd));
}
