//===- BackendTest.cpp - Tests for framework execution backends -----------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "backend/ExecutionEngine.h"

#include "dsl/Interpreter.h"
#include "dsl/Parser.h"
#include "dsl/Printer.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace stenso;
using namespace stenso::dsl;
using namespace stenso::backend;

static TensorType f64(std::initializer_list<int64_t> Dims) {
  return TensorType{DType::Float64, Shape(Dims)};
}

static InputBinding randomInputs(const InputDecls &Decls, RNG &Rng) {
  InputBinding Inputs;
  for (const auto &[Name, Type] : Decls) {
    Tensor T(Type.TShape, Type.Dtype);
    for (int64_t I = 0; I < T.getNumElements(); ++I)
      T.at(I) = Rng.positive();
    Inputs.emplace(Name, std::move(T));
  }
  return Inputs;
}

//===----------------------------------------------------------------------===//
// Rewrite rules
//===----------------------------------------------------------------------===//

static std::string rewriteToSource(const std::string &Source,
                                   const InputDecls &Decls,
                                   const RuleSet &Rules) {
  auto R = parseProgram(Source, Decls);
  EXPECT_TRUE(R) << R.Error;
  Program Dest;
  Dest.setRoot(applyRewriteRules(Dest, R.Prog->getRoot(), Rules));
  return printProgram(Dest);
}

TEST(RewriteRulesTest, PowerToMultiply) {
  EXPECT_EQ(rewriteToSource("np.power(A, 2)", {{"A", f64({4})}},
                            RuleSet::xlaLike()),
            "A * A");
}

TEST(RewriteRulesTest, DoubleTransposeEliminated) {
  EXPECT_EQ(rewriteToSource("np.transpose(np.transpose(A))",
                            {{"A", f64({3, 4})}}, RuleSet::xlaLike()),
            "A");
}

TEST(RewriteRulesTest, ExpLogOnlyInXla) {
  InputDecls Decls = {{"A", f64({4})}};
  EXPECT_EQ(rewriteToSource("np.exp(np.log(A))", Decls, RuleSet::xlaLike()),
            "A");
  // The Inductor-like set lacks this cancellation.
  EXPECT_EQ(rewriteToSource("np.exp(np.log(A))", Decls,
                            RuleSet::inductorLike()),
            "np.exp(np.log(A))");
}

TEST(RewriteRulesTest, IdentityElimination) {
  InputDecls Decls = {{"A", f64({4})}};
  EXPECT_EQ(rewriteToSource("A + 0", Decls, RuleSet::xlaLike()), "A");
  EXPECT_EQ(rewriteToSource("A * 1", Decls, RuleSet::xlaLike()), "A");
  EXPECT_EQ(rewriteToSource("A / 1", Decls, RuleSet::xlaLike()), "A");
}

TEST(RewriteRulesTest, DivideByConstantBecomesMultiply) {
  EXPECT_EQ(rewriteToSource("A / 4", {{"A", f64({4})}},
                            RuleSet::inductorLike()),
            "A * 1/4");
}

TEST(RewriteRulesTest, ConstantFolding) {
  EXPECT_EQ(rewriteToSource("A * (2 * 2 + 1)", {{"A", f64({4})}},
                            RuleSet::xlaLike()),
            "A * 5");
}

TEST(RewriteRulesTest, NoneLeavesProgramAlone) {
  std::string Source = "np.power(A, 2) + np.exp(np.log(A))";
  EXPECT_EQ(rewriteToSource(Source, {{"A", f64({4})}}, RuleSet::none()),
            Source);
}

TEST(RewriteRulesTest, RewritesPreserveSemantics) {
  InputDecls Decls = {{"A", f64({5})}, {"B", f64({5})}};
  std::string Source =
      "np.power(A, 2) / 4 + np.exp(np.log(A + B)) * 1 + (B + 0)";
  auto Original = parseProgram(Source, Decls);
  ASSERT_TRUE(Original);
  RNG Rng(3);
  InputBinding Inputs = randomInputs(Decls, Rng);
  Tensor Expected = interpretProgram(*Original.Prog, Inputs);
  for (const RuleSet &Rules :
       {RuleSet::none(), RuleSet::xlaLike(), RuleSet::inductorLike()}) {
    Program Dest;
    Dest.setRoot(applyRewriteRules(Dest, Original.Prog->getRoot(), Rules));
    EXPECT_TRUE(interpretProgram(Dest, Inputs).allClose(Expected, 1e-9));
  }
}

//===----------------------------------------------------------------------===//
// Execution engines
//===----------------------------------------------------------------------===//

namespace {

struct EngineCase {
  const char *Name;
  const char *Source;
  InputDecls Decls;
};

/// Prints the case as its name.  gtest's default dumps the struct's
/// bytes, pointers included, and ctest puts that text in the test name.
void PrintTo(const EngineCase &C, std::ostream *OS) { *OS << C.Name; }

class EngineCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<FrameworkKind, EngineCase>> {
};

} // namespace

namespace stenso::backend {
/// The framework half of an EngineCorrectnessTest parameter, by name.
void PrintTo(FrameworkKind K, std::ostream *OS) { *OS << toString(K); }
} // namespace stenso::backend

TEST_P(EngineCorrectnessTest, MatchesReferenceInterpreter) {
  auto [Kind, Case] = GetParam();
  auto Parsed = parseProgram(Case.Source, Case.Decls);
  ASSERT_TRUE(Parsed) << Parsed.Error;
  RNG Rng(11);
  InputBinding Inputs = randomInputs(Case.Decls, Rng);
  Tensor Expected = interpretProgram(*Parsed.Prog, Inputs);

  BackendConfig Config;
  Config.Kind = Kind;
  ExecutionEngine Engine(Config);
  Engine.compile(*Parsed.Prog);
  EXPECT_TRUE(Engine.execute(Inputs).allClose(Expected, 1e-9)) << Case.Name;
}

static std::vector<std::tuple<FrameworkKind, EngineCase>> engineMatrix() {
  std::vector<std::tuple<FrameworkKind, EngineCase>> Out;
  EngineCase Cases[] = {
      {"elementwise_chain", "(A + B) * A - B / (A + 1)",
       {{"A", f64({6})}, {"B", f64({6})}}},
      {"matmul_mix", "np.diag(np.dot(A, B)) + np.sum(A, axis=1)",
       {{"A", f64({4, 4})}, {"B", f64({4, 4})}}},
      {"comprehension", "np.stack([(x*a + (1 - a)*y) for a in A])",
       {{"A", f64({5})}, {"x", f64({})}, {"y", f64({})}}},
      {"masking", "np.where(A < B, np.sqrt(A), B)",
       {{"A", f64({3})}, {"B", f64({3})}}},
      {"reductions", "np.max(np.stack([A, B]), axis=0) + np.sum(A) * B",
       {{"A", f64({4})}, {"B", f64({4})}}}};
  for (FrameworkKind Kind : {FrameworkKind::NumPyEager, FrameworkKind::XlaLike,
                             FrameworkKind::InductorLike})
    for (const EngineCase &Case : Cases)
      Out.emplace_back(Kind, Case);
  return Out;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, EngineCorrectnessTest, ::testing::ValuesIn(engineMatrix()),
    [](const ::testing::TestParamInfo<
        std::tuple<FrameworkKind, EngineCase>> &I) {
      std::string Name = toString(std::get<0>(I.param)) + "_" +
                         std::get<1>(I.param).Name;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(ExecutionEngineTest, CompiledFrameworksApplyTheirRules) {
  InputDecls Decls = {{"A", f64({4})}};
  auto Parsed = parseProgram("np.exp(np.log(A))", Decls);
  ASSERT_TRUE(Parsed);
  BackendConfig Jax;
  Jax.Kind = FrameworkKind::XlaLike;
  ExecutionEngine Engine(Jax);
  Engine.compile(*Parsed.Prog);
  EXPECT_EQ(printProgram(Engine.getCompiledProgram()), "A");
}

TEST(ExecutionEngineTest, EagerLoopIsSlowerThanVectorized) {
  // The eager backend's per-trip charge must make the Python-style loop
  // measurably slower than the broadcast form — the Vectorization story.
  InputDecls Decls = {{"A", f64({256})}};
  auto Loop = parseProgram("np.stack([x * 2 for x in A], axis=0)", Decls);
  auto Vect = parseProgram("A * 2", Decls);
  ASSERT_TRUE(Loop && Vect);
  RNG Rng(4);
  InputBinding Inputs = randomInputs(Decls, Rng);

  BackendConfig Eager; // NumPy
  ExecutionEngine LoopEngine(Eager), VectEngine(Eager);
  LoopEngine.compile(*Loop.Prog);
  VectEngine.compile(*Vect.Prog);
  double LoopTime = LoopEngine.measureSeconds(Inputs, 3);
  double VectTime = VectEngine.measureSeconds(Inputs, 3);
  EXPECT_GT(LoopTime, 4.0 * VectTime);
}

TEST(ExecutionEngineTest, CompiledBackendCheaperThanEagerOnOpChains) {
  // Many small ops: eager pays a dispatch per op; XLA-like fuses the
  // chain into one kernel.
  InputDecls Decls = {{"A", f64({64})}, {"B", f64({64})}};
  auto Parsed = parseProgram(
      "((A + B) * A - B) / (A + 1) + (B - A) * (A + 2)", Decls);
  ASSERT_TRUE(Parsed);
  RNG Rng(5);
  InputBinding Inputs = randomInputs(Decls, Rng);

  BackendConfig Eager;
  BackendConfig Jax;
  Jax.Kind = FrameworkKind::XlaLike;
  ExecutionEngine EagerEngine(Eager), JaxEngine(Jax);
  EagerEngine.compile(*Parsed.Prog);
  JaxEngine.compile(*Parsed.Prog);
  EXPECT_GT(EagerEngine.measureSeconds(Inputs, 3),
            JaxEngine.measureSeconds(Inputs, 3));
}

TEST(ExecutionEngineTest, PlatformProfilesScaleOverheads) {
  BackendConfig Amd;
  BackendConfig Intel;
  Intel.Platform = PlatformProfile::i7_8700k();
  EXPECT_GT(Intel.perOpSeconds(), Amd.perOpSeconds());
  EXPECT_EQ(PlatformProfile::all().size(), 3u);
}

TEST(ExecutionEngineTest, ConfigNames) {
  BackendConfig C;
  C.Kind = FrameworkKind::InductorLike;
  C.Platform = PlatformProfile::m3pro();
  EXPECT_EQ(C.name(), "PyTorch-Inductor/Apple-M3-Pro");
}

TEST(ExecutionEngineTest, FusedReductionCrossesChunkBoundaries) {
  // The chunk VM processes 512-element blocks; reductions must accumulate
  // correctly across chunk and row boundaries for every axis.
  InputDecls Decls = {{"A", f64({7, 300})}, {"x", f64({300})}};
  for (const char *Source :
       {"np.sum(A * x, axis=1)", "np.sum(A * x, axis=0)",
        "np.sum(A * x)", "np.max(A * x, axis=1)", "np.max(A * x, axis=0)"}) {
    auto Parsed = parseProgram(Source, Decls);
    ASSERT_TRUE(Parsed) << Parsed.Error;
    RNG Rng(21);
    InputBinding Inputs = randomInputs(Decls, Rng);
    Tensor Expected = interpretProgram(*Parsed.Prog, Inputs);
    BackendConfig Jax;
    Jax.Kind = FrameworkKind::XlaLike;
    ExecutionEngine Engine(Jax);
    Engine.compile(*Parsed.Prog);
    EXPECT_TRUE(Engine.execute(Inputs).allClose(Expected, 1e-9)) << Source;
  }
}

TEST(ExecutionEngineTest, AblationOverridesChangeBehaviour) {
  InputDecls Decls = {{"A", f64({8})}};
  auto Parsed = parseProgram("np.exp(np.log(A))", Decls);
  ASSERT_TRUE(Parsed);
  BackendConfig NoRules;
  NoRules.Kind = FrameworkKind::XlaLike;
  NoRules.OverrideRules = false;
  ExecutionEngine Engine(NoRules);
  Engine.compile(*Parsed.Prog);
  // With rules disabled, the exp(log(...)) survives compilation.
  EXPECT_EQ(printProgram(Engine.getCompiledProgram()),
            "np.exp(np.log(A))");

  BackendConfig NoFusion;
  NoFusion.Kind = FrameworkKind::XlaLike;
  NoFusion.OverrideFusion = false;
  EXPECT_FALSE(NoFusion.fusesElementwise());
  RNG Rng(2);
  InputBinding Inputs = randomInputs(Decls, Rng);
  ExecutionEngine Unfused(NoFusion);
  Unfused.compile(*Parsed.Prog);
  EXPECT_TRUE(Unfused.execute(Inputs).allClose(
      interpretProgram(*Parsed.Prog, Inputs), 1e-9));
}
