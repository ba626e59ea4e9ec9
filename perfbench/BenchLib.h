//===- BenchLib.h - Arithmetic of the synthesizer benchmark ----*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own bookkeeping, kept apart from the driver so that
/// bench_selftest can check it: span recording with self time, median and
/// geometric mean, metric-name validation, and the result-line JSON.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_PERFBENCH_BENCHLIB_H
#define STENSO_PERFBENCH_BENCHLIB_H

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed interval; Parent indexes the enclosing span (-1 for a root).
struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
};

/// In-memory span log of one thread.  Spans nest by scope: a span opened
/// while another is open becomes its child.
class SpanRecorder {
public:
  using Clock = std::chrono::steady_clock;

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(SpanRecorder &R, std::string Name) : R(R), Index(R.open(Name)) {}
    ~Scope() { R.close(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /// The span's index, for reading its duration once it has closed.
    int index() const { return Index; }

  private:
    SpanRecorder &R;
    int Index;
  };

  /// Records a finished span directly (for tests and replayed timings).
  int add(std::string Name, double Start, double End, int Parent = -1) {
    Spans.push_back({std::move(Name), Start, End, Parent});
    return static_cast<int>(Spans.size()) - 1;
  }

  const std::vector<Span> &spans() const { return Spans; }

  double duration(int I) const { return Spans[I].End - Spans[I].Start; }

  /// Span I's duration minus its direct children's durations.  Spans
  /// nest strictly on one thread, so the children never overlap.
  double selfTime(int I) const {
    double Self = duration(I);
    for (size_t C = 0; C < Spans.size(); ++C)
      if (Spans[C].Parent == I)
        Self -= duration(static_cast<int>(C));
    return Self;
  }

  /// Self time summed per span name.  A recursive span's nested copies
  /// are its children, so no interval is counted twice.
  std::map<std::string, double> selfTimeByName() const {
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += selfTime(static_cast<int>(I));
    return Out;
  }

private:
  int open(const std::string &Name) {
    Spans.push_back({Name, now(), 0, Stack.empty() ? -1 : Stack.back()});
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    return Stack.back();
  }
  void close(int I) {
    Spans[I].End = now();
    Stack.pop_back();
  }
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Origin).count();
  }

  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Median; the mean of the middle pair for an even count, 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Geometric mean of positive values; nullopt when empty or any value is
/// not positive.
inline std::optional<double> geomean(const std::vector<double> &V) {
  if (V.empty())
    return std::nullopt;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return std::nullopt;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Length of a run of timed steps in reference-kernel runs.  Refs[I] is
/// the kernel's time just before step I and Refs.back() its time after the
/// last step, so Refs has one entry more than Steps.  Each step is divided
/// by the median kernel time of the 2 * HalfWindow samples around it
/// (fewer at the ends), and the quotients are summed.  A host that slows
/// down slows the kernel beside the steps, so the sum keeps still where
/// the seconds do not.  nullopt when the sizes do not match, HalfWindow is
/// 0, or a kernel time is not positive.
inline std::optional<double> inReferenceRuns(const std::vector<double> &Steps,
                                             const std::vector<double> &Refs,
                                             size_t HalfWindow) {
  if (Refs.size() != Steps.size() + 1 || HalfWindow == 0 ||
      std::any_of(Refs.begin(), Refs.end(), [](double R) { return !(R > 0); }))
    return std::nullopt;
  double Sum = 0;
  for (size_t I = 0; I < Steps.size(); ++I) {
    size_t Lo = I + 1 > HalfWindow ? I + 1 - HalfWindow : 0;
    size_t Hi = std::min(Refs.size(), I + 1 + HalfWindow);
    Sum += Steps[I] / median({Refs.begin() + Lo, Refs.begin() + Hi});
  }
  return Sum;
}

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

/// A metric name starts with a letter or digit and has at most 64
/// letters, digits, '_', '.' and '-'.
inline bool isValidMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum((unsigned char)Name[0]))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return std::isalnum((unsigned char)C) || C == '_' || C == '.' || C == '-';
  });
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The benchmark's final stdout line.  Values keep all 17 significant
/// digits.  Returns nullopt when a metric name is invalid, repeated, or a
/// value is not finite.
inline std::optional<std::string> resultLine(bool Correct, int64_t Attempted,
                                             int64_t Failed,
                                             const std::vector<Metric> &Ms) {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  std::vector<std::string> Seen;
  for (size_t I = 0; I < Ms.size(); ++I) {
    const Metric &M = Ms[I];
    if (!isValidMetricName(M.Name) || !std::isfinite(M.Value) ||
        std::find(Seen.begin(), Seen.end(), M.Name) != Seen.end())
      return std::nullopt;
    Seen.push_back(M.Name);
    char Value[64];
    std::snprintf(Value, sizeof(Value), "%.17g", M.Value);
    OS << (I ? ", " : "") << "\"" << M.Name << "\": {\"value\": " << Value
       << ", \"unit\": \"" << M.Unit << "\"}";
  }
  OS << "}}";
  return OS.str();
}

} // namespace perfbench

#endif // STENSO_PERFBENCH_BENCHLIB_H
