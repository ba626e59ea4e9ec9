//===- ParallelSynthTest.cpp - Parallel-vs-sequential differential tests --==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The determinism contract of the parallel sketch search, tested
/// differentially: for one representative benchmark per transform class
/// (paper Table I), synthesis with --jobs 2/4/8 must return the
/// byte-identical program, the exactly-equal cost, and the same
/// AbortReason as the sequential engine.  Budget-exhaustion runs use
/// *decisive* budgets — a node cap small enough to latch during
/// single-threaded setup, and an already-expired wall clock — so the
/// latched reason is schedule-free and the tests double as a proof that
/// the latch itself is race-free.  Everything here uses the flops cost
/// model: measured costs embed wall time and are nondeterministic by
/// nature, which would mask (or fake) engine divergence.
///
//===----------------------------------------------------------------------===//

#include "dsl/Parser.h"
#include "dsl/Printer.h"
#include "evalsuite/Harness.h"
#include "observe/DecisionLog.h"
#include "observe/Trace.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace stenso;
using namespace stenso::dsl;
using namespace stenso::evalsuite;
using namespace stenso::synth;

namespace {

SynthesisConfig parallelTestConfig(int Jobs) {
  SynthesisConfig Config;
  Config.CostModelName = "flops"; // deterministic costs, see \file header
  // Generous: sanitizer builds are ~10x slower and must never trip the
  // wall clock mid-search, which would make the comparison flaky.
  Config.TimeoutSeconds = 300;
  Config.Jobs = Jobs;
  return Config;
}

/// Synthesizes benchmark \p Name at its reduced shapes with \p Jobs
/// workers (costs scaled to the full shapes, as the harness does).
SynthesisResult runBenchmark(const std::string &Name, int Jobs) {
  const BenchmarkDef *Def = findBenchmark(Name);
  EXPECT_NE(Def, nullptr) << Name;
  auto Parsed = parseProgram(Def->sourceFor(false), Def->declsFor(false));
  EXPECT_TRUE(Parsed) << Parsed.Error;
  return Synthesizer(parallelTestConfig(Jobs)).run(*Parsed.Prog,
                                                   Def->scaler());
}

/// What a degraded run emits: the original program as the synthesizer
/// *prints* it (a re-serialization of the parse tree, not the benchmark's
/// source bytes — spacing and redundant parentheses are normalized away).
std::string printedOriginal(const BenchmarkDef &Def) {
  auto Parsed = parseProgram(Def.sourceFor(false), Def.declsFor(false));
  EXPECT_TRUE(Parsed) << Parsed.Error;
  return printNode(Parsed.Prog->getRoot());
}

/// The whole differential contract between two runs of the same search.
void expectIdenticalOutcome(const SynthesisResult &Sequential,
                            const SynthesisResult &Parallel, int Jobs) {
  EXPECT_EQ(Sequential.Improved, Parallel.Improved) << "jobs=" << Jobs;
  // Byte-identical program text, not just an equivalent program.
  EXPECT_EQ(Sequential.OptimizedSource, Parallel.OptimizedSource)
      << "jobs=" << Jobs;
  // Exactly equal costs: both engines evaluate the same flops polynomial
  // on the same candidate, so even the doubles must match bit-for-bit.
  EXPECT_EQ(Sequential.OriginalCost, Parallel.OriginalCost)
      << "jobs=" << Jobs;
  EXPECT_EQ(Sequential.OptimizedCost, Parallel.OptimizedCost)
      << "jobs=" << Jobs;
  EXPECT_EQ(Sequential.Abort, Parallel.Abort) << "jobs=" << Jobs;
  EXPECT_EQ(Sequential.TimedOut, Parallel.TimedOut) << "jobs=" << Jobs;
}

/// One representative benchmark per transform class (suite order), all at
/// small reduced shapes so a full jobs-{1,2,4,8} sweep stays cheap.
class ParallelDifferentialTest
    : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ParallelDifferentialTest, JobsSweepMatchesSequential) {
  SynthesisResult Sequential = runBenchmark(GetParam(), /*Jobs=*/1);
  // The representative benchmarks all have a known improvement; a search
  // that found nothing would make the differential check vacuous.
  EXPECT_TRUE(Sequential.Improved) << GetParam();
  EXPECT_EQ(Sequential.Abort, AbortReason::None);
  for (int Jobs : {2, 4, 8}) {
    SynthesisResult Parallel = runBenchmark(GetParam(), Jobs);
    expectIdenticalOutcome(Sequential, Parallel, Jobs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    OnePerTransformClass, ParallelDifferentialTest,
    ::testing::Values("synth_12",    // Algebraic Simplification
                      "diag_dot",    // Identity Replacement
                      "dot_trans_2", // Redundancy Elimination
                      "elem_square", // Strength Reduction
                      "vec_lerp"),   // Vectorization
    [](const ::testing::TestParamInfo<const char *> &I) {
      return std::string(I.param);
    });

TEST(ParallelSynthTest, JobsZeroUsesHardwareThreadsAndStillMatches) {
  SynthesisResult Sequential = runBenchmark("diag_dot", /*Jobs=*/1);
  SynthesisResult Auto = runBenchmark("diag_dot", /*Jobs=*/0);
  expectIdenticalOutcome(Sequential, Auto, /*Jobs=*/0);
}

TEST(ParallelSynthTest, RepeatedParallelRunsAreStable) {
  // Determinism also means run-to-run: the same parallel search twice
  // under a real scheduler returns the same everything.
  SynthesisResult First = runBenchmark("diag_dot", /*Jobs=*/4);
  SynthesisResult Second = runBenchmark("diag_dot", /*Jobs=*/4);
  expectIdenticalOutcome(First, Second, /*Jobs=*/4);
}

TEST(ParallelSynthTest, EverySolverSuccessIsPrunedOrExplored) {
  // SolverSuccesses counts the search's own successful solves, memo hits
  // included: each one is then simplification-pruned or explored, in
  // either engine.  At jobs=4 the shared memo serves repeated queries
  // across branches, so a count of distinct solutions would fall short.
  for (int Jobs : {1, 4}) {
    SynthesisResult R = runBenchmark("vec_lerp", Jobs);
    EXPECT_GT(R.Stats.SolverSuccesses, 0) << "jobs=" << Jobs;
    EXPECT_EQ(R.Stats.SolverSuccesses,
              R.Stats.PrunedBySimplification + R.Stats.SketchesExplored)
        << "jobs=" << Jobs;
  }
}

TEST(ParallelSynthTest, LiveTelemetryDoesNotPerturbTheSearch) {
  // Telemetry is observation-only by contract (DESIGN.md §9): an active
  // trace session plus an attached decision log around the search must
  // leave the jobs=N differential bit-for-bit intact.
  SynthesisResult Bare = runBenchmark("diag_dot", /*Jobs=*/1);
  EXPECT_TRUE(Bare.Improved);
  const BenchmarkDef *Def = findBenchmark("diag_dot");
  ASSERT_NE(Def, nullptr);
  auto Parsed = parseProgram(Def->sourceFor(false), Def->declsFor(false));
  ASSERT_TRUE(Parsed) << Parsed.Error;
  for (int Jobs : {1, 4}) {
    observe::TraceSession Session;
    ASSERT_TRUE(Session.start());
    observe::DecisionLog Log;
    SynthesisConfig Config = parallelTestConfig(Jobs);
    Config.Decisions = &Log;
    SynthesisResult Traced =
        Synthesizer(Config).run(*Parsed.Prog, Def->scaler());
    Session.stop();
    expectIdenticalOutcome(Bare, Traced, Jobs);
    // And the telemetry actually observed the run.
    EXPECT_GT(Log.size(), 0u) << "jobs=" << Jobs;
#if STENSO_TRACE_ENABLED
    EXPECT_GT(Session.eventCount(), 0u) << "jobs=" << Jobs;
#endif
  }
}

//===----------------------------------------------------------------------===//
// Budget exhaustion under concurrency
//===----------------------------------------------------------------------===//

TEST(ParallelSynthTest, NodeCapAbortsIdenticallyAtEveryJobCount) {
  const BenchmarkDef *Def = findBenchmark("diag_dot");
  ASSERT_NE(Def, nullptr);
  auto Parsed = parseProgram(Def->sourceFor(false), Def->declsFor(false));
  ASSERT_TRUE(Parsed) << Parsed.Error;
  for (int Jobs : {1, 2, 4, 8}) {
    SynthesisConfig Config = parallelTestConfig(Jobs);
    // Decisively tiny: the cap latches while the sketch library is built,
    // i.e. before any worker exists, so every engine must observe the
    // same latched reason — a near-boundary cap could legitimately
    // classify differently across schedules and proves nothing.
    Config.MaxSymbolicNodes = 50;
    SynthesisResult Result =
        Synthesizer(Config).run(*Parsed.Prog, Def->scaler());
    EXPECT_EQ(Result.Abort, AbortReason::BudgetExceeded) << "jobs=" << Jobs;
    EXPECT_FALSE(Result.Improved) << "jobs=" << Jobs;
    EXPECT_FALSE(Result.TimedOut) << "jobs=" << Jobs;
    // Well-formed degradation: the original program at its original cost.
    EXPECT_EQ(Result.OptimizedSource, printedOriginal(*Def));
    EXPECT_EQ(Result.OptimizedCost, Result.OriginalCost);
  }
}

TEST(ParallelSynthTest, ExpiredWallClockAbortsIdenticallyAtEveryJobCount) {
  const BenchmarkDef *Def = findBenchmark("diag_dot");
  ASSERT_NE(Def, nullptr);
  auto Parsed = parseProgram(Def->sourceFor(false), Def->declsFor(false));
  ASSERT_TRUE(Parsed) << Parsed.Error;
  for (int Jobs : {1, 2, 4, 8}) {
    SynthesisConfig Config = parallelTestConfig(Jobs);
    Config.TimeoutSeconds = 1e-9; // expired before the search starts
    SynthesisResult Result =
        Synthesizer(Config).run(*Parsed.Prog, Def->scaler());
    EXPECT_EQ(Result.Abort, AbortReason::Timeout) << "jobs=" << Jobs;
    EXPECT_TRUE(Result.TimedOut) << "jobs=" << Jobs;
    EXPECT_FALSE(Result.Improved) << "jobs=" << Jobs;
    EXPECT_EQ(Result.OptimizedSource, printedOriginal(*Def));
  }
}

TEST(ParallelSynthTest, SharedBudgetIsChargedInsteadOfConfigLimits) {
  const BenchmarkDef *Def = findBenchmark("diag_dot");
  ASSERT_NE(Def, nullptr);
  auto Parsed = parseProgram(Def->sourceFor(false), Def->declsFor(false));
  ASSERT_TRUE(Parsed) << Parsed.Error;
  ResourceBudget::Limits L;
  L.MaxSymbolicNodes = 50;
  ResourceBudget Shared(L);
  SynthesisConfig Config = parallelTestConfig(/*Jobs=*/4);
  Config.SharedBudget = &Shared;
  SynthesisResult Result =
      Synthesizer(Config).run(*Parsed.Prog, Def->scaler());
  EXPECT_EQ(Result.Abort, AbortReason::BudgetExceeded);
  EXPECT_TRUE(Shared.latched());
  EXPECT_GT(Shared.getSymbolicNodes(), 0);
  // A second run against the already-latched budget degrades immediately
  // with the *same* reason — the latch is sticky across runs.
  SynthesisResult Again =
      Synthesizer(Config).run(*Parsed.Prog, Def->scaler());
  EXPECT_EQ(Again.Abort, AbortReason::BudgetExceeded);
  EXPECT_FALSE(Again.Improved);
}

//===----------------------------------------------------------------------===//
// Suite-level parallelism under one global budget
//===----------------------------------------------------------------------===//

TEST(ParallelSynthTest, SuiteUnderExhaustedGlobalBudgetDegradesEverywhere) {
  // Four concurrent benchmarks all charging one near-empty global budget:
  // every run must degrade to its original program with the budget
  // reason, in suite order, with no hang and no partial result.
  ResourceBudget::Limits L;
  L.MaxSymbolicNodes = 50;
  ResourceBudget Global(L);
  SuiteRunOptions Options;
  Options.Jobs = 4;
  Options.GlobalBudget = &Global;
  std::vector<BenchmarkRun> Runs =
      synthesizeSuite(parallelTestConfig(/*Jobs=*/1), Options);
  const std::vector<BenchmarkDef> &Suite = benchmarkSuite();
  ASSERT_EQ(Runs.size(), Suite.size());
  for (size_t I = 0; I < Runs.size(); ++I) {
    ASSERT_EQ(Runs[I].Def, &Suite[I]) << "suite order violated at " << I;
    EXPECT_EQ(Runs[I].Synthesis.Abort, AbortReason::BudgetExceeded)
        << Suite[I].Name;
    EXPECT_FALSE(Runs[I].Synthesis.Improved) << Suite[I].Name;
    EXPECT_EQ(Runs[I].Synthesis.OptimizedSource, printedOriginal(Suite[I]))
        << Suite[I].Name;
  }
  EXPECT_TRUE(Global.latched());
}
