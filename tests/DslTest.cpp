//===- DslTest.cpp - Unit tests for the tensor DSL ------------------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "dsl/FlopCost.h"
#include "dsl/Interpreter.h"
#include "dsl/Parser.h"
#include "dsl/Printer.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace stenso;
using namespace stenso::dsl;

static TensorType f64(std::initializer_list<int64_t> Dims) {
  return TensorType{DType::Float64, Shape(Dims)};
}

static Tensor randomTensor(Shape S, RNG &Rng) {
  Tensor T(S);
  for (int64_t I = 0; I < T.getNumElements(); ++I)
    T.at(I) = Rng.positive();
  return T;
}

//===----------------------------------------------------------------------===//
// Type inference
//===----------------------------------------------------------------------===//

TEST(InferTypeTest, ElementwiseBroadcast) {
  auto T = inferType(OpKind::Add, {f64({3, 1}), f64({1, 4})}, {});
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->TShape, Shape({3, 4}));
  EXPECT_FALSE(inferType(OpKind::Add, {f64({3}), f64({4})}, {}).has_value());
}

TEST(InferTypeTest, LessIsBool) {
  auto T = inferType(OpKind::Less, {f64({2}), f64({2})}, {});
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Dtype, DType::Bool);
}

TEST(InferTypeTest, ArithmeticRejectsBool) {
  TensorType B{DType::Bool, Shape({2})};
  EXPECT_FALSE(inferType(OpKind::Add, {B, B}, {}).has_value());
}

TEST(InferTypeTest, DotShapes) {
  EXPECT_EQ(inferType(OpKind::Dot, {f64({2, 3}), f64({3, 4})}, {})->TShape,
            Shape({2, 4}));
  EXPECT_EQ(inferType(OpKind::Dot, {f64({2, 3}), f64({3})}, {})->TShape,
            Shape({2}));
  EXPECT_EQ(inferType(OpKind::Dot, {f64({3}), f64({3})}, {})->TShape, Shape());
  EXPECT_FALSE(inferType(OpKind::Dot, {f64({2, 3}), f64({4, 2})}, {}));
}

TEST(InferTypeTest, ReductionsAndAxes) {
  NodeAttrs Attrs;
  Attrs.Axis = -1;
  EXPECT_EQ(inferType(OpKind::Sum, {f64({2, 3})}, Attrs)->TShape, Shape({2}));
  Attrs.Axis = 2;
  EXPECT_FALSE(inferType(OpKind::Sum, {f64({2, 3})}, Attrs).has_value());
  EXPECT_EQ(inferType(OpKind::SumAll, {f64({2, 3})}, {})->TShape, Shape());
}

TEST(InferTypeTest, WhereRequiresBoolCondition) {
  TensorType B{DType::Bool, Shape({2})};
  EXPECT_TRUE(inferType(OpKind::Where, {B, f64({2}), f64({2})}, {}));
  EXPECT_FALSE(inferType(OpKind::Where, {f64({2}), f64({2}), f64({2})}, {}));
}

TEST(InferTypeTest, TransposeValidation) {
  NodeAttrs Attrs;
  EXPECT_EQ(inferType(OpKind::Transpose, {f64({2, 3})}, Attrs)->TShape,
            Shape({3, 2}));
  Attrs.Perm = {0, 0};
  EXPECT_FALSE(inferType(OpKind::Transpose, {f64({2, 3})}, Attrs));
  Attrs.Perm = {1, 2, 0};
  EXPECT_EQ(inferType(OpKind::Transpose, {f64({2, 3, 4})}, Attrs)->TShape,
            Shape({3, 4, 2}));
}

TEST(InferTypeTest, ReshapeElementCount) {
  NodeAttrs Attrs;
  Attrs.ShapeAttr = Shape({6});
  EXPECT_TRUE(inferType(OpKind::Reshape, {f64({2, 3})}, Attrs));
  Attrs.ShapeAttr = Shape({5});
  EXPECT_FALSE(inferType(OpKind::Reshape, {f64({2, 3})}, Attrs));
}

TEST(InferTypeTest, StackAndTensordot) {
  NodeAttrs Attrs;
  Attrs.Axis = 0;
  EXPECT_EQ(inferType(OpKind::Stack, {f64({3}), f64({3})}, Attrs)->TShape,
            Shape({2, 3}));
  EXPECT_FALSE(inferType(OpKind::Stack, {f64({3}), f64({4})}, Attrs));

  NodeAttrs TD;
  TD.AxesA = {1};
  TD.AxesB = {0};
  EXPECT_EQ(
      inferType(OpKind::Tensordot, {f64({2, 3}), f64({3, 5})}, TD)->TShape,
      Shape({2, 5}));
}

//===----------------------------------------------------------------------===//
// Program construction and cloning
//===----------------------------------------------------------------------===//

TEST(ProgramTest, TryMakeReturnsNullOnTypeError) {
  Program P;
  const Node *A = P.input("A", f64({2, 3}));
  const Node *B = P.input("B", f64({4}));
  EXPECT_EQ(P.tryMake(OpKind::Add, {A, B}), nullptr);
  EXPECT_NE(P.tryMake(OpKind::Transpose, {A}), nullptr);
}

TEST(ProgramTest, InputsAreInternedByName) {
  Program P;
  const Node *A1 = P.input("A", f64({2}));
  const Node *A2 = P.input("A", f64({2}));
  EXPECT_EQ(A1, A2);
  EXPECT_EQ(P.getInputs().size(), 1u);
}

TEST(ProgramTest, CloneIntoPreservesSemantics) {
  Program P;
  const Node *A = P.input("A", f64({2, 2}));
  const Node *B = P.input("B", f64({2, 2}));
  P.setRoot(P.dot(P.multiply(A, B), P.transpose(A)));

  Program Q;
  const Node *Cloned = Program::cloneInto(Q, P.getRoot());
  Q.setRoot(Cloned);

  RNG Rng(5);
  InputBinding Inputs{{"A", randomTensor(Shape({2, 2}), Rng)},
                      {"B", randomTensor(Shape({2, 2}), Rng)}};
  EXPECT_TRUE(
      interpretProgram(P, Inputs).allClose(interpretProgram(Q, Inputs)));
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, ParsesOperators) {
  InputDecls Decls = {{"A", f64({2, 2})}, {"B", f64({2, 2})}};
  auto R = parseProgram("A * B + A / B - A", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Subtract);
}

TEST(ParserTest, ParsesMatmulOperator) {
  InputDecls Decls = {{"x", f64({3})}, {"A", f64({3, 3})}};
  auto R = parseProgram("x.T @ A @ x", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Dot);
  EXPECT_TRUE(R.Prog->getRoot()->getType().TShape.isScalar());
}

TEST(ParserTest, ParsesCallsAndKeywords) {
  InputDecls Decls = {{"A", f64({4, 5})}};
  auto R = parseProgram("np.sum(np.power(A, 2), axis=-1)", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Sum);
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({4}));
}

TEST(ParserTest, ParsesUnaryMinusAndPower) {
  InputDecls Decls = {{"A", f64({2})}};
  auto R = parseProgram("-A ** 2 + 3", Decls);
  ASSERT_TRUE(R) << R.Error;
  // Python precedence: -(A**2) + 3.
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Add);
}

TEST(ParserTest, ParsesReshapeAndTranspose) {
  InputDecls Decls = {{"A", f64({2, 3, 1, 4})}, {"B", f64({4, 5})}};
  auto R = parseProgram(
      "np.reshape(np.dot(np.reshape(A, (2, 3, 1, 4)), B), (2, 3, 5))", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({2, 3, 5}));

  auto R2 = parseProgram("np.transpose(np.transpose(A, (1, 2, 0, 3)))", Decls);
  ASSERT_TRUE(R2) << R2.Error;
}

TEST(ParserTest, ParsesStackList) {
  InputDecls Decls = {{"A", f64({3})}, {"B", f64({3})}};
  auto R = parseProgram("np.stack([A, B, A], axis=0)", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({3, 3}));
}

TEST(ParserTest, ParsesComprehension) {
  InputDecls Decls = {{"A", f64({4})}, {"x", f64({})}, {"y", f64({})}};
  auto R = parseProgram("np.stack([(x*a + (1 - a)*y) for a in A])", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Comprehension);
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({4}));
}

TEST(ParserTest, ParsesComprehensionWithAxis) {
  InputDecls Decls = {{"A", f64({3, 2})}};
  auto R = parseProgram("np.stack([x * 2 for x in A], axis=0)", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({3, 2}));
}

TEST(ParserTest, ParsesTensordot) {
  InputDecls Decls = {{"A", f64({2, 3})}, {"B", f64({3, 5})}};
  auto R = parseProgram("np.tensordot(A, B, axes=([1], [0]))", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getType().TShape, Shape({2, 5}));
}

TEST(ParserTest, ParsesWhereTriuFull) {
  InputDecls Decls = {{"A", f64({3, 3})}, {"B", f64({3, 3})}};
  auto R = parseProgram(
      "np.where(A < B, np.triu(A), np.full((3, 3), 0))", Decls);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.Prog->getRoot()->getKind(), OpKind::Where);
}

TEST(ParserTest, ReportsUnknownVariable) {
  auto R = parseProgram("A + Bogus", {{"A", f64({2})}});
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("Bogus"), std::string::npos);
}

TEST(ParserTest, ReportsTypeError) {
  auto R = parseProgram("A + B", {{"A", f64({2})}, {"B", f64({3})}});
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("type error"), std::string::npos);
}

TEST(ParserTest, ReportsSyntaxError) {
  EXPECT_FALSE(parseProgram("A + ", {{"A", f64({2})}}));
  EXPECT_FALSE(parseProgram("np.bogus(A)", {{"A", f64({2})}}));
  EXPECT_FALSE(parseProgram("A ; B", {{"A", f64({2})}}));
}

TEST(ParserTest, ParsesDecimalConstants) {
  auto R = parseProgram("A * 0.5", {{"A", f64({2})}});
  ASSERT_TRUE(R) << R.Error;
  RNG Rng(3);
  InputBinding Inputs{{"A", randomTensor(Shape({2}), Rng)}};
  Tensor Out = interpretProgram(*R.Prog, Inputs);
  EXPECT_DOUBLE_EQ(Out.at(0), Inputs.at("A").at(0) * 0.5);
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

namespace {

struct RoundTripCase {
  const char *Name;
  const char *Source;
  InputDecls Decls;
};

/// Prints the case as its name.  gtest's default dumps the struct's
/// bytes, pointers included, and ctest puts that text in the test name.
void PrintTo(const RoundTripCase &C, std::ostream *OS) { *OS << C.Name; }

class RoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

} // namespace

TEST_P(RoundTripTest, PrintParseAgreesWithOriginal) {
  const RoundTripCase &C = GetParam();
  auto R1 = parseProgram(C.Source, C.Decls);
  ASSERT_TRUE(R1) << R1.Error;
  std::string Printed = printProgram(*R1.Prog);
  auto R2 = parseProgram(Printed, C.Decls);
  ASSERT_TRUE(R2) << "reparse of '" << Printed << "': " << R2.Error;

  // Semantic agreement on random inputs.
  RNG Rng(17);
  InputBinding Inputs;
  for (const auto &[Name, Type] : C.Decls)
    Inputs.emplace(Name, randomTensor(Type.TShape, Rng));
  EXPECT_TRUE(interpretProgram(*R1.Prog, Inputs)
                  .allClose(interpretProgram(*R2.Prog, Inputs)))
      << Printed;
}

static const RoundTripCase RoundTripCases[] = {
    {"diag_dot", "np.diag(np.dot(A, B))",
     {{"A", f64({4, 4})}, {"B", f64({4, 4})}}},
    {"arith", "(A + B) / np.sqrt(A + B)", {{"A", f64({8})}, {"B", f64({8})}}},
    {"power", "np.power(np.sqrt(A) + np.sqrt(A), 2)", {{"A", f64({8})}}},
    {"reduction", "np.sum(A * x, axis=1)",
     {{"A", f64({4, 6})}, {"x", f64({6})}}},
    {"trace", "np.trace(A @ B.T)", {{"A", f64({3, 3})}, {"B", f64({3, 3})}}},
    {"comprehension", "np.stack([x * 2 for x in A], axis=0)",
     {{"A", f64({3, 2})}}},
    {"stack", "np.max(np.stack([A, B]), axis=0)",
     {{"A", f64({5})}, {"B", f64({5})}}},
    {"reshape", "np.reshape(np.dot(np.reshape(A, (2, 3, 1, 4)), B), (2, 3, 5))",
     {{"A", f64({2, 3, 4})}, {"B", f64({4, 5})}}},
    {"where", "np.where(A < B, A, B)", {{"A", f64({4})}, {"B", f64({4})}}},
    {"scalar_mix", "np.sum(a * A, axis=0)",
     {{"a", f64({})}, {"A", f64({3, 4})}}},
};

INSTANTIATE_TEST_SUITE_P(Printer, RoundTripTest,
                         ::testing::ValuesIn(RoundTripCases),
                         [](const ::testing::TestParamInfo<RoundTripCase> &I) {
                           return I.param.Name;
                         });

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

TEST(InterpreterTest, EvaluatesDiagDotIdentity) {
  InputDecls Decls = {{"A", f64({4, 4})}, {"B", f64({4, 4})}};
  auto Orig = parseProgram("np.diag(np.dot(A, B))", Decls);
  auto Opt = parseProgram("np.sum(A * B.T, axis=1)", Decls);
  ASSERT_TRUE(Orig && Opt);
  RNG Rng(23);
  InputBinding Inputs{{"A", randomTensor(Shape({4, 4}), Rng)},
                      {"B", randomTensor(Shape({4, 4}), Rng)}};
  EXPECT_TRUE(interpretProgram(*Orig.Prog, Inputs)
                  .allClose(interpretProgram(*Opt.Prog, Inputs)));
}

TEST(InterpreterTest, ComprehensionMatchesBroadcast) {
  InputDecls Decls = {{"A", f64({5})}, {"x", f64({})}, {"y", f64({})}};
  auto Loop = parseProgram("np.stack([(x*a + (1 - a)*y) for a in A])", Decls);
  auto Vect = parseProgram("x*A + (1 - A)*y", Decls);
  ASSERT_TRUE(Loop && Vect);
  RNG Rng(29);
  InputBinding Inputs{{"A", randomTensor(Shape({5}), Rng)},
                      {"x", Tensor::scalar(Rng.positive())},
                      {"y", Tensor::scalar(Rng.positive())}};
  EXPECT_TRUE(interpretProgram(*Loop.Prog, Inputs)
                  .allClose(interpretProgram(*Vect.Prog, Inputs)));
}

TEST(InterpreterTest, QuadraticForm) {
  InputDecls Decls = {{"x", f64({3})}, {"A", f64({3, 3})}};
  auto R = parseProgram("x.T @ A @ x", Decls);
  ASSERT_TRUE(R) << R.Error;
  Tensor X(Shape({3}), {1, 2, 3});
  Tensor A = Tensor::full(Shape({3, 3}), 1.0);
  InputBinding Inputs{{"x", X}, {"A", A}};
  // sum_i sum_j x_i x_j = (1+2+3)^2 = 36.
  EXPECT_DOUBLE_EQ(interpretProgram(*R.Prog, Inputs).item(), 36.0);
}

//===----------------------------------------------------------------------===//
// FLOP cost model
//===----------------------------------------------------------------------===//

TEST(FlopCostTest, DotCost) {
  Program P;
  const Node *A = P.input("A", f64({8, 8}));
  const Node *B = P.input("B", f64({8, 8}));
  const Node *D = P.dot(A, B);
  EXPECT_DOUBLE_EQ(flopCostOfOp(D), 2.0 * 64 * 8);
}

TEST(FlopCostTest, DataMovementIsCheapButNotFree) {
  Program P;
  const Node *A = P.input("A", f64({8, 8}));
  double TransposeCost = flopCostOfOp(P.transpose(A));
  EXPECT_GT(TransposeCost, 0.0);
  EXPECT_LT(TransposeCost, flopCostOfOp(P.add(A, A)));
}

TEST(FlopCostTest, DiagDotRewriteIsCheaper) {
  InputDecls Decls = {{"A", f64({16, 16})}, {"B", f64({16, 16})}};
  auto Orig = parseProgram("np.diag(np.dot(A, B))", Decls);
  auto Opt = parseProgram("np.sum(A * B.T, axis=1)", Decls);
  ASSERT_TRUE(Orig && Opt);
  // Cubic vs quadratic: the rewrite must be much cheaper.
  EXPECT_GT(flopCost(Orig.Prog->getRoot()),
            4.0 * flopCost(Opt.Prog->getRoot()));
}

TEST(FlopCostTest, ComprehensionChargesPerIteration) {
  InputDecls Decls = {{"A", f64({10})}};
  auto Loop = parseProgram("np.stack([x * 2 for x in A], axis=0)", Decls);
  auto Vect = parseProgram("A * 2", Decls);
  ASSERT_TRUE(Loop && Vect);
  // Both do 10 multiplies in this model (interpreter overhead is the
  // backend's concern), so FLOPs should be equal.
  EXPECT_DOUBLE_EQ(flopCost(Loop.Prog->getRoot()),
                   flopCost(Vect.Prog->getRoot()));
}

//===----------------------------------------------------------------------===//
// Parser robustness (malformed inputs must fail cleanly, never crash)
//===----------------------------------------------------------------------===//

namespace {

class ParserRejectionTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ParserRejectionTest, MalformedSourceIsRejected) {
  InputDecls Decls = {{"A", f64({3, 3})}, {"B", f64({3, 3})},
                      {"x", f64({3})}};
  auto R = parseProgram(GetParam(), Decls);
  EXPECT_FALSE(R) << "accepted: " << GetParam();
  EXPECT_FALSE(R.Error.empty());
}

static const char *RejectionCases[] = {
    "",                                  // empty
    "np.dot(A)",                         // arity
    "np.dot(A, B",                       // unbalanced
    "np.sum(A, axis=)",                  // missing axis value
    "np.sum(A, axis=x)",                 // non-integer axis
    "np.transpose(A, (0, 0))",           // invalid permutation
    "np.reshape(A, (2, 2))",             // element-count mismatch
    "np.stack([A, x])",                  // shape mismatch in stack
    "np.stack([a * 2 for in A])",        // missing loop variable
    "np.stack([y * 2 for y in 3])",      // iterating a scalar
    "A @ np.sum(x)",                     // dot with a scalar
    "np.where(A, A, B)",                 // non-bool condition
    "A ** B ** ",                        // dangling power
    "np.triu(x)",                        // triu needs rank 2
    "A..T",                              // bad attribute
    "np.full((3, 3))",                   // missing fill value
    "$A + B",                            // bad character
    "np.tensordot(A, B, axes=([1], [0, 1]))", // axis arity mismatch
};

INSTANTIATE_TEST_SUITE_P(Malformed, ParserRejectionTest,
                         ::testing::ValuesIn(RejectionCases));

TEST(ParserTest, RejectsOverflowingLiterals) {
  // A literal beyond int64 must fail cleanly (no exception, no crash).
  InputDecls Decls = {{"A", f64({2})}};
  auto R = parseProgram("A + 99999999999999999999999999", Decls);
  EXPECT_FALSE(R);
  EXPECT_NE(R.Error.find("out of range"), std::string::npos) << R.Error;
  auto R2 = parseProgram("A * 0.12345678901234567890123", Decls);
  EXPECT_FALSE(R2);
}

//===----------------------------------------------------------------------===//
// Program factory edge cases
//===----------------------------------------------------------------------===//

TEST(ProgramDeathTest, MakeAbortsWithDiagnosticOnTypeError) {
  Program P;
  const Node *A = P.input("A", f64({2, 3}));
  const Node *B = P.input("B", f64({4}));
  EXPECT_DEATH(P.make(OpKind::Add, {A, B}), "type error building np.add");
}

TEST(ProgramDeathTest, InputRedeclarationAborts) {
  Program P;
  P.input("A", f64({2}));
  EXPECT_DEATH(P.input("A", f64({3})), "redeclared");
}

TEST(ProgramTest, ComprehensionFactoryRejectsBadShapes) {
  Program P;
  const Node *A = P.input("A", f64({4, 3}));
  // Wrong loop-variable type: slice of A is (3,), not scalar.
  const Node *BadVar = P.loopVar("v", f64({}));
  const Node *Body = P.add(BadVar, P.constant(Rational(1)));
  EXPECT_EQ(P.tryMakeComprehension(A, BadVar, Body), nullptr);

  // Correct variable type works.
  const Node *Var = P.loopVar("w", f64({3}));
  const Node *Body2 = P.add(Var, Var);
  EXPECT_NE(P.tryMakeComprehension(A, Var, Body2), nullptr);
}

TEST(ProgramTest, CloneIntoMergesInputsByName) {
  Program P;
  const Node *A = P.input("A", f64({2}));
  P.setRoot(P.add(A, A));
  Program Q;
  Q.input("A", f64({2})); // pre-declared; clone must reuse it
  const Node *Root = Program::cloneInto(Q, P.getRoot());
  Q.setRoot(Root);
  EXPECT_EQ(Q.getInputs().size(), 1u);
}
