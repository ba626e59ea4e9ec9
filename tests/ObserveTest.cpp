//===- ObserveTest.cpp - Telemetry subsystem tests ------------------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observe/ contracts: trace JSON well-formedness, span/arg recording,
/// the inactive-mode zero-allocation guarantee, histogram bucket
/// boundaries, counter atomicity under a real thread pool, decision-log
/// JSONL shape, the budget checkpoint decimation (clock reads far
/// below calls; first call decisive; unlimited budgets clock-free),
/// the JsonValue ingest parser, and the progress heartbeat — including
/// the observation-only guarantee that a fast heartbeat never perturbs
/// a jobs={1,4} search result.
///
//===----------------------------------------------------------------------===//

#include "observe/DecisionLog.h"
#include "observe/Json.h"
#include "observe/JsonValue.h"
#include "observe/Metrics.h"
#include "observe/Progress.h"
#include "observe/Trace.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"

#include "dsl/Parser.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <thread>

using namespace stenso;
using namespace stenso::observe;

//===----------------------------------------------------------------------===//
// Allocation counting — the zero-allocation guarantee needs a real global
// operator new override, so it lives at global scope in this binary only.
//===----------------------------------------------------------------------===//

static std::atomic<int64_t> GAllocCount{0};

void *operator new(std::size_t Size) {
  GAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// A strict recursive-descent JSON syntax validator — just enough to
/// assert that every serializer in observe/ emits parseable JSON without
/// pulling in a JSON library the repo does not have.
class JsonValidator {
public:
  static bool valid(const std::string &S) {
    JsonValidator V(S);
    V.skipWs();
    if (!V.value())
      return false;
    V.skipWs();
    return V.P == V.End;
  }

private:
  explicit JsonValidator(const std::string &S)
      : P(S.data()), End(S.data() + S.size()) {}

  const char *P;
  const char *End;

  void skipWs() {
    while (P < End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool literal(const char *Lit) {
    size_t N = std::strlen(Lit);
    if (static_cast<size_t>(End - P) < N || std::strncmp(P, Lit, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P >= End || *P != '"')
      return false;
    ++P;
    while (P < End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P >= End)
          return false;
        if (*P == 'u') {
          for (int I = 0; I < 4; ++I)
            if (++P >= End || !std::isxdigit(static_cast<unsigned char>(*P)))
              return false;
        }
      }
      ++P;
    }
    if (P >= End)
      return false;
    ++P; // closing quote
    return true;
  }
  bool number() {
    const char *Start = P;
    if (P < End && *P == '-')
      ++P;
    while (P < End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                       *P == '.' || *P == 'e' || *P == 'E' || *P == '+' ||
                       *P == '-'))
      ++P;
    return P > Start;
  }
  bool value() {
    skipWs();
    if (P >= End)
      return false;
    switch (*P) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++P; // '{'
    skipWs();
    if (P < End && *P == '}') {
      ++P;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (P >= End || *P != ':')
        return false;
      ++P;
      if (!value())
        return false;
      skipWs();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++P; // '['
    skipWs();
    if (P < End && *P == ']') {
      ++P;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

#if STENSO_TRACE_ENABLED

TEST(ObserveTest, TraceSessionWritesWellFormedChromeJson) {
  TraceSession Session;
  ASSERT_TRUE(Session.start());
  {
    STENSO_TRACE_NAMED_SPAN(Span, "test", "outer");
    Span.arg("count", 42);
    Span.arg("ratio", 0.5);
    Span.arg("label", std::string_view("tricky \"quoted\"\n"));
    { STENSO_TRACE_SPAN("test", "inner"); }
    STENSO_TRACE_INSTANT("test", "marker");
  }
  Session.stop();
  EXPECT_EQ(Session.eventCount(), 3u);
  EXPECT_EQ(Session.threadCount(), 1u);
  EXPECT_EQ(Session.droppedEvents(), 0u);

  std::ostringstream OS;
  Session.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator::valid(Json)) << Json;
  // Structural spot checks of the trace_event format.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"count\":42"), std::string::npos);
  // The arg text was escaped, not emitted raw.
  EXPECT_NE(Json.find("tricky \\\"quoted\\\"\\n"), std::string::npos);
  EXPECT_EQ(Json.find("tricky \"quoted\"\n"), std::string::npos);
}

TEST(ObserveTest, SpansFromPoolThreadsLandInOneSession) {
  TraceSession Session;
  ASSERT_TRUE(Session.start());
  constexpr size_t N = 256;
  {
    ThreadPool Pool(4);
    Pool.parallelFor(0, N, [](size_t I) {
      STENSO_TRACE_NAMED_SPAN(Span, "test", "work");
      Span.arg("i", static_cast<int64_t>(I));
    });
  } // pool drained and joined: workers are quiesced before stop()
  Session.stop();
  // parallelFor's helpers run pool-task spans too; at least the N body
  // spans must be there, from at least one thread.
  EXPECT_GE(Session.eventCount(), N);
  EXPECT_GE(Session.threadCount(), 1u);
  std::ostringstream OS;
  Session.writeJson(OS);
  EXPECT_TRUE(JsonValidator::valid(OS.str()));
}

TEST(ObserveTest, SecondSessionCannotDisplaceAnActiveOne) {
  TraceSession First;
  ASSERT_TRUE(First.start());
  TraceSession Second;
  EXPECT_FALSE(Second.start());
  { STENSO_TRACE_SPAN("test", "goes-to-first"); }
  First.stop();
  EXPECT_EQ(First.eventCount(), 1u);
  EXPECT_EQ(Second.eventCount(), 0u);
  // With the first gone, the second may now start.
  EXPECT_TRUE(Second.start());
  Second.stop();
}

TEST(ObserveTest, PerThreadCapDropsEventsInsteadOfGrowing) {
  constexpr size_t Cap = 64;
  TraceSession Session(Cap);
  ASSERT_TRUE(Session.start());
  for (size_t I = 0; I < Cap + 10; ++I)
    STENSO_TRACE_INSTANT("test", "tick");
  Session.stop();
  EXPECT_EQ(Session.eventCount(), Cap);
  EXPECT_EQ(Session.droppedEvents(), 10u);
  std::ostringstream OS;
  Session.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_TRUE(JsonValidator::valid(Json));
  EXPECT_NE(Json.find("\"droppedEvents\":10"), std::string::npos);
}

#endif // STENSO_TRACE_ENABLED

TEST(ObserveTest, InactiveSpansAllocateNothing) {
  ASSERT_EQ(TraceSession::active(), nullptr)
      << "test requires no live session";
  int64_t Before = GAllocCount.load(std::memory_order_relaxed);
  for (int I = 0; I < 1000; ++I) {
    STENSO_TRACE_NAMED_SPAN(Span, "test", "inactive");
    Span.arg("i", I);
    STENSO_TRACE_INSTANT("test", "inactive-instant");
  }
  int64_t After = GAllocCount.load(std::memory_order_relaxed);
  EXPECT_EQ(After - Before, 0)
      << "trace sites must not allocate while no session is active";
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(ObserveTest, HistogramBucketBoundaries) {
  Histogram H({1.0, 2.0, 4.0});
  // A value lands in the first bucket whose upper bound is >= the value;
  // above every bound it lands in the overflow bucket.
  H.record(0.5); // <= 1
  H.record(1.0); // <= 1 (boundary is inclusive)
  H.record(1.5); // <= 2
  H.record(2.0); // <= 2
  H.record(3.0); // <= 4
  H.record(4.0); // <= 4
  H.record(5.0); // overflow
  EXPECT_EQ(H.bucketCount(0), 2);
  EXPECT_EQ(H.bucketCount(1), 2);
  EXPECT_EQ(H.bucketCount(2), 2);
  EXPECT_EQ(H.bucketCount(3), 1);
  EXPECT_EQ(H.count(), 7);
  EXPECT_DOUBLE_EQ(H.sum(), 17.0);
}

TEST(ObserveTest, CountersAndHistogramsAreAtomicUnderParallelFor) {
  MetricsRegistry Registry; // private registry: no cross-test interference
  Counter &C = Registry.counter("test.parallel.counter");
  Histogram &H = Registry.histogram("test.parallel.hist", {10.0, 100.0});
  constexpr size_t Iterations = 10000;
  ThreadPool Pool(8);
  Pool.parallelFor(0, Iterations, [&](size_t I) {
    C.add(1);
    H.record(static_cast<double>(I % 3));
  });
  EXPECT_EQ(C.value(), static_cast<int64_t>(Iterations));
  EXPECT_EQ(H.count(), static_cast<int64_t>(Iterations));
  EXPECT_EQ(H.bucketCount(0), static_cast<int64_t>(Iterations));
  EXPECT_EQ(Registry.counterValue("test.parallel.counter"),
            static_cast<int64_t>(Iterations));
}

TEST(ObserveTest, RegistrySnapshotIsValidJson) {
  MetricsRegistry Registry;
  Registry.counter("a.count").add(3);
  Registry.gauge("a.gauge").set(2.5);
  Registry.histogram("a.hist", {1.0, 10.0}).record(5.0);
  std::string Json = Registry.toJson();
  EXPECT_TRUE(JsonValidator::valid(Json)) << Json;
  EXPECT_NE(Json.find("\"a.count\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"histograms\""), std::string::npos);

  Registry.reset();
  EXPECT_EQ(Registry.counterValue("a.count"), 0);
  EXPECT_EQ(Registry.histogram("a.hist", {}).count(), 0);
}

TEST(ObserveTest, CounterSnapshotIsSortedByName) {
  MetricsRegistry Registry;
  Registry.counter("z.last").add(1);
  Registry.counter("a.first").add(2);
  Registry.counter("m.middle").add(3);
  auto Snapshot = Registry.counterSnapshot();
  ASSERT_EQ(Snapshot.size(), 3u);
  EXPECT_EQ(Snapshot[0].first, "a.first");
  EXPECT_EQ(Snapshot[1].first, "m.middle");
  EXPECT_EQ(Snapshot[2].first, "z.last");
}

//===----------------------------------------------------------------------===//
// Decision log
//===----------------------------------------------------------------------===//

TEST(ObserveTest, DecisionLogWritesOneValidJsonObjectPerLine) {
  DecisionLog Log;
  Log.record(-1, 0, 100.0, DecisionLog::Outcome::StubMatch, 40.0, "bench_a");
  Log.record(3, 1, 40.0, DecisionLog::Outcome::PrunedCost, 0, "bench_a");
  Log.record(7, 2, 40.0, DecisionLog::Outcome::Accepted, 12.5, "bench_b");
  Log.record(9, 1, 40.0, DecisionLog::Outcome::NoSolution, 0, "");
  EXPECT_EQ(Log.size(), 4u);

  std::ostringstream OS;
  Log.writeJsonl(OS);
  std::istringstream In(OS.str());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    EXPECT_TRUE(JsonValidator::valid(Line)) << Line;
    ++Lines;
  }
  EXPECT_EQ(Lines, 4u);
  std::string All = OS.str();
  EXPECT_NE(All.find("\"outcome\":\"stub-match\""), std::string::npos);
  EXPECT_NE(All.find("\"outcome\":\"pruned-cost\""), std::string::npos);
  EXPECT_NE(All.find("\"outcome\":\"accepted\""), std::string::npos);
  EXPECT_NE(All.find("\"tag\":\"bench_b\""), std::string::npos);

  Log.clear();
  EXPECT_EQ(Log.size(), 0u);
}

TEST(ObserveTest, DecisionLogIsThreadSafe) {
  DecisionLog Log;
  constexpr size_t PerThread = 500;
  ThreadPool Pool(4);
  Pool.parallelFor(0, 8, [&](size_t T) {
    for (size_t I = 0; I < PerThread; ++I)
      Log.record(static_cast<int32_t>(T), static_cast<int32_t>(I), 1.0,
                 DecisionLog::Outcome::Explored, 0, "hammer");
  });
  EXPECT_EQ(Log.size(), 8 * PerThread);
}

//===----------------------------------------------------------------------===//
// Budget checkpoint decimation
//===----------------------------------------------------------------------===//

TEST(ObserveTest, CheckpointDecimationKeepsClockReadsFarBelowCalls) {
  ResourceBudget Budget(/*WallSeconds=*/300.0);
  constexpr int64_t Calls = 100000;
  for (int64_t I = 0; I < Calls; ++I)
    ASSERT_TRUE(Budget.checkpoint());
  // The hot loop above runs millions of checkpoints per second, so the
  // adaptive interval must saturate and reads stay a small fraction of
  // calls.  1/8 is far above anything observed (~1/64); it just guards
  // the contract without making the test timing-sensitive.
  EXPECT_LT(Budget.getClockReads(), Calls / 8);
  EXPECT_GT(Budget.getClockReads(), 0);
}

TEST(ObserveTest, FirstCheckpointOnAThreadIsDecisive) {
  // An already-expired budget must latch on the very first checkpoint —
  // the decimation may never skip a thread's first clock read.
  ResourceBudget Budget(/*WallSeconds=*/1e-9);
  EXPECT_FALSE(Budget.checkpoint());
  EXPECT_TRUE(Budget.latched());
  EXPECT_EQ(Budget.exhaustedReason(), ErrC::Timeout);
  // And the latch stays decisive for later calls.
  EXPECT_FALSE(Budget.checkpoint());
}

TEST(ObserveTest, UnlimitedBudgetNeverReadsTheClock) {
  ResourceBudget Budget; // all dimensions unlimited
  for (int I = 0; I < 10000; ++I)
    ASSERT_TRUE(Budget.checkpoint());
  EXPECT_EQ(Budget.getClockReads(), 0);
}

TEST(ObserveTest, FreshBudgetAtSameAddressGetsFreshDecimationState) {
  // A budget destroyed mid-skip-interval must not leak its interval to a
  // new budget at the same address: the new one's first checkpoint still
  // reads the clock (the (pointer, id) key changes).
  alignas(ResourceBudget) unsigned char Storage[sizeof(ResourceBudget)];
  auto *First = new (Storage) ResourceBudget(/*WallSeconds=*/300.0);
  for (int I = 0; I < 1000; ++I)
    ASSERT_TRUE(First->checkpoint()); // earn a long skip interval
  First->~ResourceBudget();
  auto *Second = new (Storage) ResourceBudget(/*WallSeconds=*/1e-9);
  EXPECT_FALSE(Second->checkpoint()) << "stale thread-local skip state "
                                        "masked an expired budget";
  EXPECT_TRUE(Second->latched());
  Second->~ResourceBudget();
}

//===----------------------------------------------------------------------===//
// JSON helpers
//===----------------------------------------------------------------------===//

TEST(ObserveTest, JsonHelpersEscapeAndFormat) {
  EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(jsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(jsonQuote(std::string_view("ctrl\x01", 5)), "\"ctrl\\u0001\"");
  EXPECT_EQ(jsonNumber(2.5), "2.5");
  // JSON has no inf/nan; they degrade to null rather than corrupt output.
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
  // %.17g round-trips doubles exactly.
  double Tricky = 0.1 + 0.2;
  EXPECT_EQ(std::stod(jsonNumber(Tricky)), Tricky);
}

//===----------------------------------------------------------------------===//
// JsonValue — the ingest side must round-trip every emitter above
//===----------------------------------------------------------------------===//

TEST(ObserveTest, JsonValueParsesScalarsAndContainers) {
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(
      R"({"i":42,"f":2.5,"neg":-1e-3,"s":"hi","t":true,"n":null,)"
      R"("arr":[1,2,3],"nested":{"k":"v"}})",
      V, Error))
      << Error;
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.find("i")->intValue(), 42);
  EXPECT_DOUBLE_EQ(V.find("f")->numberValue(), 2.5);
  EXPECT_DOUBLE_EQ(V.find("neg")->numberValue(), -1e-3);
  EXPECT_EQ(V.find("s")->stringValue(), "hi");
  EXPECT_TRUE(V.find("t")->boolValue());
  EXPECT_TRUE(V.find("n")->isNull());
  ASSERT_EQ(V.find("arr")->array().size(), 3u);
  EXPECT_EQ(V.find("nested")->find("k")->stringValue(), "v");
  EXPECT_EQ(V.find("absent"), nullptr);
  // Tolerant accessors for optional stream fields.
  EXPECT_DOUBLE_EQ(V.numberOr("i", 0), 42.0);
  EXPECT_DOUBLE_EQ(V.numberOr("absent", 7.5), 7.5);
  EXPECT_EQ(V.stringOr("absent", "dflt"), "dflt");
  EXPECT_TRUE(V.boolOr("t", false));
}

TEST(ObserveTest, JsonValueRoundTripsTheEmitters) {
  // jsonQuote's escapes must come back as the original bytes.
  std::string Original = "a\"b\\c\nd\tctrl:\x01 end";
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(parseJson(jsonQuote(Original), V, Error)) << Error;
  EXPECT_EQ(V.stringValue(), Original);
  // \uXXXX escapes decode to UTF-8.
  ASSERT_TRUE(parseJson(R"("pi: π")", V, Error)) << Error;
  EXPECT_EQ(V.stringValue(), "pi: \xcf\x80");
  // A registry snapshot parses back whole.
  MetricsRegistry Registry;
  Registry.counter("rt.count").add(3);
  Registry.histogram("rt.hist", {1.0}).record(0.5);
  ASSERT_TRUE(parseJson(Registry.toJson(), V, Error)) << Error;
  const JsonValue *Counters = V.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->find("rt.count")->intValue(), 3);
}

TEST(ObserveTest, JsonValueErrorsCarryPositions) {
  JsonValue V;
  std::string Error;
  // A torn object on line 2: errors must name where.
  EXPECT_FALSE(parseJson("{\"ok\":1,\n\"torn\":", V, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
  // Trailing garbage after a complete value is malformed, not ignored.
  EXPECT_FALSE(parseJson("{} trailing", V, Error));
  // JSONL reports the first bad line by number.
  std::vector<JsonValue> Lines;
  EXPECT_TRUE(parseJsonl("{\"a\":1}\n\n{\"b\":2}\n", Lines, Error)) << Error;
  EXPECT_EQ(Lines.size(), 2u);
  EXPECT_FALSE(parseJsonl("{\"a\":1}\n{\"b\":\n", Lines, Error));
  EXPECT_NE(Error.find("line 2"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Progress heartbeat
//===----------------------------------------------------------------------===//

TEST(ObserveTest, ProgressMonitorEmitsParseableHeartbeats) {
  std::ostringstream OS;
  ProgressOptions Opts;
  Opts.IntervalMs = 5;
  Opts.Tag = "unit";
  ProgressMonitor Monitor(OS, Opts);
  std::atomic<int64_t> Work{0};
  Monitor.setSampler([&] {
    ProgressSample S;
    S.Candidates = Work.load(std::memory_order_relaxed);
    S.Nodes = 10;
    S.NodeCap = 100;
    S.BestCost = 42.0;
    S.HasBest = true;
    S.CacheHits = 9;
    S.CacheMisses = 1;
    S.Jobs = 4;
    return S;
  });
  Monitor.setQueueProbe([] { return int64_t(7); });
  Monitor.start();
  for (int I = 0; I < 8; ++I) {
    Work.fetch_add(100, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Monitor.stop();
  ASSERT_GE(Monitor.recordsWritten(), 2);

  std::vector<JsonValue> Records;
  std::string Error;
  ASSERT_TRUE(parseJsonl(OS.str(), Records, Error)) << Error;
  ASSERT_EQ(static_cast<int64_t>(Records.size()), Monitor.recordsWritten());
  int64_t PrevSeq = -1;
  double PrevElapsed = -1;
  for (size_t I = 0; I < Records.size(); ++I) {
    const JsonValue &R = Records[I];
    EXPECT_GT(R.find("seq")->intValue(), PrevSeq);
    PrevSeq = R.find("seq")->intValue();
    EXPECT_GE(R.find("elapsed")->numberValue(), PrevElapsed);
    PrevElapsed = R.find("elapsed")->numberValue();
    EXPECT_EQ(R.stringOr("tag", ""), "unit");
    EXPECT_EQ(R.find("jobs")->intValue(), 4);
    EXPECT_DOUBLE_EQ(R.numberOr("best_cost", 0), 42.0);
    EXPECT_DOUBLE_EQ(R.numberOr("cache_hit_rate", 0), 0.9);
    EXPECT_EQ(R.find("queue_depth")->intValue(), 7);
    // Only the very last record is final.
    EXPECT_EQ(R.boolOr("final", false), I + 1 == Records.size());
  }
}

TEST(ObserveTest, ProgressMonitorOmitsUnknownFields) {
  std::ostringstream OS;
  ProgressOptions Opts;
  Opts.IntervalMs = 1000; // only the final record fires
  ProgressMonitor Monitor(OS, Opts);
  Monitor.start(); // no sampler installed at all
  Monitor.stop();
  std::vector<JsonValue> Records;
  std::string Error;
  ASSERT_TRUE(parseJsonl(OS.str(), Records, Error)) << Error;
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_TRUE(Records[0].boolOr("final", false));
  // No sampler -> no best cost, no caps, no ETA.
  EXPECT_EQ(Records[0].find("best_cost"), nullptr);
  EXPECT_EQ(Records[0].find("node_cap"), nullptr);
  EXPECT_EQ(Records[0].find("eta_seconds"), nullptr);
}

TEST(ObserveTest, ProgressMonitorStopIsIdempotentAndSamplerClearable) {
  std::ostringstream OS;
  ProgressOptions Opts;
  Opts.IntervalMs = 1;
  ProgressMonitor Monitor(OS, Opts);
  {
    // The sampler dies right after being cleared: if a stale in-flight
    // call could still reach it, this would be use-after-scope (and the
    // sanitizer matrix would catch it).
    std::atomic<int64_t> Local{5};
    Monitor.setSampler([&Local] {
      ProgressSample S;
      S.Candidates = Local.load(std::memory_order_relaxed);
      return S;
    });
    Monitor.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Monitor.setSampler(nullptr);
  }
  Monitor.stop();
  int64_t After = Monitor.recordsWritten();
  Monitor.stop(); // idempotent: no second final record
  EXPECT_EQ(Monitor.recordsWritten(), After);
  std::vector<JsonValue> Records;
  std::string Error;
  ASSERT_TRUE(parseJsonl(OS.str(), Records, Error)) << Error;
  EXPECT_EQ(static_cast<int64_t>(Records.size()), After);
}

TEST(ObserveTest, ProgressMonitorBadPathIsNonFatal) {
  ProgressMonitor Monitor("/nonexistent-dir/progress.jsonl",
                          ProgressOptions());
  EXPECT_FALSE(Monitor.openedOk());
  // Still safe to run; records are dropped.
  Monitor.start();
  Monitor.stop();
}

//===----------------------------------------------------------------------===//
// Observation-only: a fast heartbeat must not perturb the search
//===----------------------------------------------------------------------===//

namespace {

synth::SynthesisResult runLogExp(int Jobs, observe::ProgressMonitor *Monitor) {
  dsl::TensorType Vec4{DType::Float64, Shape({4})};
  dsl::InputDecls Decls = {{"A", Vec4}, {"B", Vec4}};
  auto P = dsl::parseProgram("np.exp(np.log(A + B))", Decls);
  EXPECT_TRUE(P) << P.Error;
  synth::SynthesisConfig Config;
  Config.CostModelName = "flops";
  Config.TimeoutSeconds = 300;
  Config.Jobs = Jobs;
  Config.Progress = Monitor;
  return synth::Synthesizer(Config).run(*P.Prog);
}

} // namespace

TEST(ObserveTest, HeartbeatDoesNotPerturbSearch) {
  // DESIGN.md §9: attaching a monitor is observation-only.  A 10ms
  // heartbeat hammering the sampler during both a sequential and a
  // parallel search must leave the entire result contract untouched.
  for (int Jobs : {1, 4}) {
    synth::SynthesisResult Bare = runLogExp(Jobs, nullptr);
    std::ostringstream OS;
    ProgressOptions Opts;
    Opts.IntervalMs = 10;
    ProgressMonitor Monitor(OS, Opts);
    Monitor.start();
    synth::SynthesisResult Watched = runLogExp(Jobs, &Monitor);
    Monitor.stop();

    EXPECT_EQ(Bare.Improved, Watched.Improved) << "jobs=" << Jobs;
    EXPECT_EQ(Bare.OptimizedSource, Watched.OptimizedSource)
        << "jobs=" << Jobs;
    EXPECT_EQ(Bare.OriginalCost, Watched.OriginalCost) << "jobs=" << Jobs;
    EXPECT_EQ(Bare.OptimizedCost, Watched.OptimizedCost) << "jobs=" << Jobs;
    EXPECT_EQ(Bare.Abort, Watched.Abort) << "jobs=" << Jobs;
    EXPECT_EQ(Bare.TimedOut, Watched.TimedOut) << "jobs=" << Jobs;

    // The stream is real: a final record exists and carries the answer.
    std::vector<JsonValue> Records;
    std::string Error;
    ASSERT_TRUE(parseJsonl(OS.str(), Records, Error)) << Error;
    ASSERT_FALSE(Records.empty());
    const JsonValue &Last = Records.back();
    EXPECT_TRUE(Last.boolOr("final", false));
    EXPECT_NEAR(Last.numberOr("best_cost", -1), Watched.OptimizedCost,
                1e-9 * Watched.OptimizedCost)
        << "jobs=" << Jobs;
  }
}
