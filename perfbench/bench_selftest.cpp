//===- bench_selftest.cpp - Checks of the benchmark's own arithmetic -------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self time over nested and recursive spans, median and geometric mean,
/// time in reference-kernel runs, golden-outcome rows, and metric-name
/// validation.  Exits non-zero on the first failed check; run.py runs it
/// after every build.
///
//===----------------------------------------------------------------------===//

#include "BenchLib.h"
#include "Golden.h"

#include <iostream>

using namespace perfbench;
using stenso::synth::AbortReason;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    std::cerr << "bench_selftest: FAILED " << What << "\n";
    ++Failures;
  }
}

bool near(double A, double B) { return std::abs(A - B) < 1e-12; }

void testSelfTime() {
  // root [0,10] with children a [1,4] and b [6,9]; a has child c [2,3].
  SpanRecorder R;
  int Root = R.add("root", 0, 10);
  int A = R.add("a", 1, 4, Root);
  R.add("b", 6, 9, Root);
  R.add("c", 2, 3, A);
  std::map<std::string, double> Self = R.selfTimeByName();
  check(near(Self["root"], 4) && near(Self["a"], 2) && near(Self["b"], 3) &&
            near(Self["c"], 1),
        "self time of nested spans");
  double Sum = 0;
  for (const auto &[Name, S] : Self)
    Sum += S;
  check(near(Sum, R.duration(Root)), "self times sum to the root duration");

  // A recursive span: each level's self time excludes the level below, so
  // the per-name total is the outermost duration, not the sum of levels.
  SpanRecorder D;
  int L0 = D.add("dfs", 0, 8);
  int L1 = D.add("dfs", 1, 7, L0);
  D.add("dfs", 2, 4, L1);
  D.add("solve", 5, 6, L1);
  std::map<std::string, double> DSelf = D.selfTimeByName();
  check(near(DSelf["dfs"], 7) && near(DSelf["solve"], 1),
        "self time of recursive spans");

  // Scopes nest by lexical lifetime.
  SpanRecorder S;
  {
    SpanRecorder::Scope Outer(S, "outer");
    SpanRecorder::Scope Inner(S, "inner");
  }
  check(S.spans().size() == 2 && S.spans()[0].Parent == -1 &&
            S.spans()[1].Parent == 0 && S.spans()[1].End <= S.spans()[0].End &&
            S.selfTime(0) >= 0,
        "scopes record parent links");
}

void testStatistics() {
  check(median({3, 1, 2}) == 2, "median of an odd count");
  check(median({4, 1, 3, 2}) == 2.5, "median of an even count");
  check(median({}) == 0, "median of nothing");
  std::optional<double> G = geomean({1, 4, 16});
  check(G && near(*G, 4), "geometric mean");
  check(!geomean({}) && !geomean({2, 0}) && !geomean({2, -1}),
        "geometric mean rejects empty and non-positive input");
}

void testGolden() {
  GoldenRow Row{"p", true, AbortReason::None, 0.1 + 0.2, "np.sum(A * B)"};
  std::optional<GoldenRow> Back = parseGoldenRow(formatGoldenRow(Row));
  check(Back && Back->Name == "p" && Back->Improved &&
            Back->Abort == AbortReason::None && Back->Cost == 0.1 + 0.2 &&
            Back->Source == Row.Source,
        "golden row round-trips exactly");
  check(!parseGoldenRow("p\t1\tNone\t5") &&
            !parseGoldenRow("p\t2\tNone\t5\tA") &&
            !parseGoldenRow("p\t1\tSlow\t5\tA") &&
            !parseGoldenRow("p\t1\tNone\t5x\tA"),
        "malformed golden rows are rejected");

  stenso::synth::SynthesisResult Got = outcomeOf(Row);
  Got.Stats.SolverCalls = 12345; // statistics are not part of the outcome
  check(goldenMismatch(Row, Got).empty(), "matching outcome");
  Got.OptimizedCost = std::nextafter(Row.Cost, 1.0);
  check(!goldenMismatch(Row, Got).empty(), "cost differing by one ulp");
  Got = outcomeOf(Row);
  Got.Abort = AbortReason::Timeout;
  check(!goldenMismatch(Row, Got).empty(), "abort reason differs");
  Got = outcomeOf(Row);
  Got.OptimizedSource = "np.sum(B * A)";
  check(!goldenMismatch(Row, Got).empty(), "source differs");
}

void testMetricNames() {
  for (const char *Good : {"wall_s", "library.build_s", "a-b", "9lives"})
    check(isValidMetricName(Good), Good);
  for (const char *Bad : {"", "_x", ".x", "a b", "a/b", "a\"b", "é"})
    check(!isValidMetricName(Bad), "invalid metric name accepted");
  check(isValidMetricName(std::string(64, 'a')) &&
            !isValidMetricName(std::string(65, 'a')),
        "metric name length limit");
  std::optional<std::string> Line = resultLine(true, 1, 0, {{"a", 1.5, "s"}});
  check(Line.value_or("") ==
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}}}",
        "result line format");
  for (const std::vector<Metric> &Bad :
       {std::vector<Metric>{{"a", 1, "s"}, {"a", 2, "s"}},
        std::vector<Metric>{{"a b", 1, "s"}},
        std::vector<Metric>{{"a", std::nan(""), "s"}}})
    check(!resultLine(true, 1, 0, Bad).has_value(),
          "result line rejects repeated, invalid and non-finite metrics");
}

} // namespace

int main() {
  testSelfTime();
  testStatistics();
  testGolden();
  testMetricNames();
  if (Failures)
    return 1;
  std::cerr << "bench_selftest: all checks passed\n";
  return 0;
}
