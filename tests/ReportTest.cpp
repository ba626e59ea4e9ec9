//===- ReportTest.cpp - Post-hoc report builder and differ ----------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// observe/Report.h end to end: reports built from the live telemetry of
/// a real synthesis run must reproduce the run's own statistics exactly
/// (the cross-check), golden fixtures pin the ingestion schema, diff
/// mode must flag a perturbed run, and malformed streams must fail
/// loudly instead of reading as zeros.
///
//===----------------------------------------------------------------------===//

#include "observe/JsonValue.h"
#include "observe/Progress.h"
#include "observe/Report.h"

#include "dsl/Parser.h"
#include "observe/DecisionLog.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

using namespace stenso;
using namespace stenso::observe;

#ifndef STENSO_REPORT_SAMPLES_DIR
#define STENSO_REPORT_SAMPLES_DIR "tests/report_samples"
#endif

namespace {

std::string samplePath(const char *Name) {
  return std::string(STENSO_REPORT_SAMPLES_DIR) + "/" + Name;
}

/// One real (small) synthesis run with every in-memory stream attached.
struct LiveRun {
  synth::SynthesisResult Result;
  std::string StatsJson;
  std::string DecisionsJsonl;
  std::string ProgressJsonl;
};

LiveRun runLiveSynthesis(int Jobs) {
  // log_exp_1: improves to "A + B" in ~200ms while still exercising
  // pruning, so one run feeds every live-stream test below.
  dsl::TensorType Vec4{DType::Float64, Shape({4})};
  dsl::InputDecls Decls = {{"A", Vec4}, {"B", Vec4}};
  auto P = dsl::parseProgram("np.exp(np.log(A + B))", Decls);
  EXPECT_TRUE(P) << P.Error;

  DecisionLog Log;
  std::ostringstream ProgressOS;
  ProgressOptions POpts;
  POpts.IntervalMs = 5;
  ProgressMonitor Monitor(ProgressOS, POpts);
  Monitor.start();

  synth::SynthesisConfig Config;
  Config.CostModelName = "flops";
  Config.TimeoutSeconds = 300;
  Config.Decisions = &Log;
  Config.DecisionsTag = "live";
  Config.Progress = &Monitor;
  Config.Jobs = Jobs;
  LiveRun Run;
  Run.Result = synth::Synthesizer(Config).run(*P.Prog);
  Monitor.stop();

  std::ostringstream StatsOS, DecisionsOS;
  synth::writeStatsJson(Run.Result, StatsOS);
  Log.writeJsonl(DecisionsOS);
  Run.StatsJson = StatsOS.str();
  Run.DecisionsJsonl = DecisionsOS.str();
  Run.ProgressJsonl = ProgressOS.str();
  return Run;
}

/// The sequential live run is deterministic, so one shared instance
/// serves every test that reads it.
const LiveRun &liveRun() {
  static const LiveRun Run = runLiveSynthesis(/*Jobs=*/1);
  return Run;
}

RunReport buildFromStreams(const LiveRun &Run) {
  ReportStreams Streams;
  Streams.StatsJson = &Run.StatsJson;
  Streams.DecisionsJsonl = &Run.DecisionsJsonl;
  Streams.ProgressJsonl = &Run.ProgressJsonl;
  RunReport R;
  std::string Error;
  EXPECT_TRUE(buildReport(Streams, ReportOptions(), R, Error)) << Error;
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Live streams: the report must reproduce the run's own numbers
//===----------------------------------------------------------------------===//

/// The report built from \p Run's streams reproduces the run's own
/// numbers: the decision log's outcome counts ARE the stats counters for
/// the decision-paired prunes — exact, not approximate.
void expectStreamsReproduceStats(const LiveRun &Run) {
  ASSERT_TRUE(Run.Result.Improved);
  RunReport R = buildFromStreams(Run);

  const synth::SynthesisStats &S = Run.Result.Stats;
  EXPECT_EQ(R.OutcomeCounts["pruned-cost"], S.PrunedByCost);
  EXPECT_EQ(R.OutcomeCounts["pruned-costbound"], S.PrunedByCostBound);
  EXPECT_EQ(R.OutcomeCounts["pruned-simplification"],
            S.PrunedBySimplification);
  EXPECT_EQ(R.OutcomeCounts["pruned-analysis"],
            S.AnalysisPrunedSign + S.AnalysisPrunedDegree);
  EXPECT_EQ(R.OptimizedCost, Run.Result.OptimizedCost);
  ASSERT_TRUE(R.MinCompletedCost.has_value());
  EXPECT_NEAR(*R.MinCompletedCost, Run.Result.OptimizedCost, 1e-12);

  // The monitor's final heartbeat carries the run's answer.
  EXPECT_TRUE(R.SawFinalHeartbeat);
  ASSERT_TRUE(R.FinalBest.has_value());
  EXPECT_NEAR(*R.FinalBest, Run.Result.OptimizedCost, 1e-12);

  EXPECT_TRUE(crossCheckReport(R).empty());
}

TEST(ReportTest, LiveStreamsReproduceStatsExactly) {
  expectStreamsReproduceStats(liveRun());
}

TEST(ReportTest, ParallelLiveStreamsReproduceStatsExactly) {
  // Both engines run the same per-sketch step, so the parallel engine's
  // decision log pairs with its counters exactly as the sequential one's.
  expectStreamsReproduceStats(runLiveSynthesis(/*Jobs=*/4));
}

TEST(ReportTest, LiveStreamsRenderBothFormats) {
  const LiveRun &Run = liveRun();
  RunReport R = buildFromStreams(Run);

  std::ostringstream Text;
  renderReportText(R, Text);
  EXPECT_NE(Text.str().find("decision breakdown"), std::string::npos);
  EXPECT_NE(Text.str().find("cross-check: OK"), std::string::npos);

  // The JSON rendering must itself parse with the repo's parser.
  std::ostringstream Json;
  renderReportJson(R, Json);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(Json.str(), V, Error)) << Error;
  const JsonValue *Check = V.find("cross_check");
  ASSERT_NE(Check, nullptr);
  const JsonValue *Ok = Check->find("ok");
  ASSERT_NE(Ok, nullptr);
  EXPECT_TRUE(Ok->boolValue());
}

TEST(ReportTest, SelfDiffDoesNotDiverge) {
  const LiveRun &Run = liveRun();
  RunReport R = buildFromStreams(Run);
  ReportDiff D = diffReports(R, R);
  EXPECT_FALSE(D.diverged());
  EXPECT_TRUE(D.MetricDiffs.empty());
}

//===----------------------------------------------------------------------===//
// Golden fixtures
//===----------------------------------------------------------------------===//

TEST(ReportTest, GoldenFixturesCrossCheck) {
  ReportInputs Inputs;
  Inputs.StatsPath = samplePath("stats.json");
  Inputs.DecisionsPath = samplePath("decisions.jsonl");
  Inputs.TracePath = samplePath("trace.json");
  Inputs.ProgressPath = samplePath("progress.jsonl");
  Inputs.MetricsPath = samplePath("metrics.json");
  RunReport R;
  std::string Error;
  ASSERT_TRUE(buildReport(Inputs, ReportOptions(), R, Error)) << Error;

  EXPECT_TRUE(R.Improved);
  EXPECT_EQ(R.Abort, "None");
  EXPECT_EQ(R.OriginalCost, 10.0);
  EXPECT_EQ(R.OptimizedCost, 4.0);
  EXPECT_EQ(R.DecisionCount, 11);
  EXPECT_EQ(R.OutcomeCounts["pruned-cost"], 3);
  ASSERT_TRUE(R.MinCompletedCost.has_value());
  EXPECT_EQ(*R.MinCompletedCost, 4.0);

  // Trajectory: running minimum over depth-0 completions, in log order.
  ASSERT_EQ(R.CostTrajectory.size(), 2u);
  EXPECT_EQ(R.CostTrajectory[0].Cost, 6.0);
  EXPECT_EQ(R.CostTrajectory[1].Cost, 4.0);

  // Trace: 5 events over 2 threads; per-thread attribution splits the
  // holesolver/solve category 30 ms on tid 1 vs 70 ms on tid 2.
  EXPECT_EQ(R.TraceEventCount, 5);
  EXPECT_EQ(R.TraceThreadCount, 2);
  bool FoundSolve = false;
  for (const PhaseStat &P : R.Phases)
    if (P.Cat == "holesolver" && P.Name == "solve") {
      FoundSolve = true;
      EXPECT_EQ(P.Count, 3);
      EXPECT_DOUBLE_EQ(P.TotalMicros, 100000.0);
      EXPECT_DOUBLE_EQ(P.MicrosByTid.at(1), 30000.0);
      EXPECT_DOUBLE_EQ(P.MicrosByTid.at(2), 70000.0);
    }
  EXPECT_TRUE(FoundSolve);

  // Metrics: two shards saw traffic.
  ASSERT_EQ(R.ShardCaches.size(), 2u);
  EXPECT_EQ(R.ShardCaches[0].Shard, 0);
  EXPECT_EQ(R.ShardCaches[0].Hits, 5.0);
  EXPECT_EQ(R.ShardCaches[1].Shard, 3);

  EXPECT_TRUE(crossCheckReport(R).empty());
}

TEST(ReportTest, DiffFlagsPerturbedRun) {
  ReportInputs A, B;
  A.StatsPath = samplePath("stats.json");
  B.StatsPath = samplePath("stats_perturbed.json");
  RunReport RA, RB;
  std::string Error;
  ASSERT_TRUE(buildReport(A, ReportOptions(), RA, Error)) << Error;
  ASSERT_TRUE(buildReport(B, ReportOptions(), RB, Error)) << Error;

  ReportDiff D = diffReports(RA, RB);
  // optimized_cost 4 vs 5 is an answer change — hard divergence.
  ASSERT_TRUE(D.diverged());
  bool FoundCost = false;
  for (const ReportDiff::Entry &E : D.OutcomeDiffs)
    if (E.Key == "optimized_cost") {
      FoundCost = true;
      EXPECT_EQ(E.A, 4.0);
      EXPECT_EQ(E.B, 5.0);
    }
  EXPECT_TRUE(FoundCost);
  // pruned_cost 3 vs 6 is metric drift beyond any sane tolerance.
  bool FoundPrune = false;
  for (const ReportDiff::Entry &E : D.MetricDiffs)
    FoundPrune |= E.Key.find("pruned_cost") != std::string::npos;
  EXPECT_TRUE(FoundPrune);

  std::ostringstream Text;
  renderDiffText(D, RA, RB, Text);
  EXPECT_NE(Text.str().find("DIVERGED"), std::string::npos);
}

TEST(ReportTest, CrossCheckCatchesInconsistentStreams) {
  // The perturbed stats against the original decision log: pruned_cost
  // says 6 but the log only has 3 such records.
  ReportInputs Inputs;
  Inputs.StatsPath = samplePath("stats_perturbed.json");
  Inputs.DecisionsPath = samplePath("decisions.jsonl");
  RunReport R;
  std::string Error;
  ASSERT_TRUE(buildReport(Inputs, ReportOptions(), R, Error)) << Error;
  std::vector<std::string> Mismatches = crossCheckReport(R);
  EXPECT_FALSE(Mismatches.empty());
}

//===----------------------------------------------------------------------===//
// Malformed inputs and edge cases
//===----------------------------------------------------------------------===//

TEST(ReportTest, MalformedStreamIsAnErrorNotZeros) {
  ReportInputs Inputs;
  Inputs.DecisionsPath = samplePath("malformed_decisions.jsonl");
  RunReport R;
  std::string Error;
  EXPECT_FALSE(buildReport(Inputs, ReportOptions(), R, Error));
  EXPECT_NE(Error.find("line"), std::string::npos) << Error;
}

TEST(ReportTest, MissingFileIsAnError) {
  ReportInputs Inputs;
  Inputs.StatsPath = samplePath("no_such_file.json");
  RunReport R;
  std::string Error;
  EXPECT_FALSE(buildReport(Inputs, ReportOptions(), R, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ReportTest, NoInputsIsAnError) {
  RunReport R;
  std::string Error;
  EXPECT_FALSE(buildReport(ReportInputs(), ReportOptions(), R, Error));
}

TEST(ReportTest, TopLosersAreRankedAndTruncated) {
  // Bounds deliberately out of log order; only losers qualify.
  std::string Jsonl =
      R"({"seq":0,"sketch":0,"depth":1,"bound":5.0,"outcome":"pruned-cost","cost":0,"tag":""})"
      "\n"
      R"({"seq":1,"sketch":1,"depth":1,"bound":9.0,"outcome":"no-solution","cost":0,"tag":""})"
      "\n"
      R"({"seq":2,"sketch":2,"depth":0,"bound":9.0,"outcome":"accepted","cost":2.0,"tag":""})"
      "\n"
      R"({"seq":3,"sketch":3,"depth":1,"bound":7.0,"outcome":"pruned-simplification","cost":0,"tag":""})"
      "\n"
      R"({"seq":4,"sketch":4,"depth":1,"bound":8.0,"outcome":"pruned-cost","cost":0,"tag":""})"
      "\n";
  ReportStreams Streams;
  Streams.DecisionsJsonl = &Jsonl;
  ReportOptions Opts;
  Opts.TopK = 3;
  RunReport R;
  std::string Error;
  ASSERT_TRUE(buildReport(Streams, Opts, R, Error)) << Error;
  ASSERT_EQ(R.TopLosers.size(), 3u);
  EXPECT_EQ(R.TopLosers[0].Bound, 9.0);
  EXPECT_EQ(R.TopLosers[1].Bound, 8.0);
  EXPECT_EQ(R.TopLosers[2].Bound, 7.0);
  // The accepted record is a winner, never a loser.
  for (const DecisionRecord &D : R.TopLosers)
    EXPECT_NE(D.Outcome, "accepted");
}

TEST(ReportTest, StatsOnlyReportSkipsAbsentSections) {
  ReportInputs Inputs;
  Inputs.StatsPath = samplePath("stats.json");
  RunReport R;
  std::string Error;
  ASSERT_TRUE(buildReport(Inputs, ReportOptions(), R, Error)) << Error;
  EXPECT_TRUE(R.HasStats);
  EXPECT_FALSE(R.HasDecisions);
  EXPECT_FALSE(R.HasTrace);
  // Cross-checks needing absent streams are skipped, not failed.
  EXPECT_TRUE(crossCheckReport(R).empty());
  std::ostringstream Text;
  renderReportText(R, Text);
  EXPECT_EQ(Text.str().find("decision breakdown"), std::string::npos);
}
