//===- Golden.h - Checked-in expected synthesis outcomes -------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// golden.tsv holds one expected outcome per program, recorded with the
/// sequential engine and no store.  A row carries exactly the fields
/// synth::sameSearchOutcome compares, so every workload (parallel engine,
/// warm store) must reproduce the sequential outcome.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_PERFBENCH_GOLDEN_H
#define STENSO_PERFBENCH_GOLDEN_H

#include "synth/Synthesizer.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct GoldenRow {
  std::string Name;
  bool Improved = false;
  stenso::synth::AbortReason Abort = stenso::synth::AbortReason::None;
  double Cost = 0;
  std::string Source;
};

inline GoldenRow goldenRowOf(const std::string &Name,
                             const stenso::synth::SynthesisResult &R) {
  return {Name, R.Improved, R.Abort, R.OptimizedCost, R.OptimizedSource};
}

inline stenso::synth::SynthesisResult outcomeOf(const GoldenRow &Row) {
  stenso::synth::SynthesisResult R;
  R.Improved = Row.Improved;
  R.Abort = Row.Abort;
  R.OptimizedCost = Row.Cost;
  R.OptimizedSource = Row.Source;
  return R;
}

/// One tab-separated line.  The cost is printed with 17 significant
/// digits, which round-trips every double exactly.
inline std::string formatGoldenRow(const GoldenRow &R) {
  char Cost[64];
  std::snprintf(Cost, sizeof(Cost), "%.17g", R.Cost);
  return R.Name + "\t" + (R.Improved ? "1" : "0") + "\t" +
         stenso::synth::toString(R.Abort) + "\t" + Cost + "\t" + R.Source;
}

/// Parses formatGoldenRow's output; nullopt on a malformed line.
inline std::optional<GoldenRow> parseGoldenRow(const std::string &Line) {
  using stenso::synth::AbortReason;
  std::vector<std::string> F;
  size_t Begin = 0;
  for (int I = 0; I < 4; ++I) {
    size_t Tab = Line.find('\t', Begin);
    if (Tab == std::string::npos)
      return std::nullopt;
    F.push_back(Line.substr(Begin, Tab - Begin));
    Begin = Tab + 1;
  }
  F.push_back(Line.substr(Begin));
  GoldenRow Row;
  Row.Name = F[0];
  Row.Source = F[4];
  if (Row.Name.empty() || Row.Source.empty() || (F[1] != "0" && F[1] != "1"))
    return std::nullopt;
  Row.Improved = F[1] == "1";
  std::optional<AbortReason> Abort;
  for (AbortReason A : {AbortReason::None, AbortReason::Timeout,
                        AbortReason::BudgetExceeded, AbortReason::InternalError})
    if (F[2] == stenso::synth::toString(A))
      Abort = A;
  char *End = nullptr;
  Row.Cost = std::strtod(F[3].c_str(), &End);
  if (!Abort || F[3].empty() || *End != '\0')
    return std::nullopt;
  Row.Abort = *Abort;
  return Row;
}

/// Empty when \p Got has the outcome \p Want records; otherwise the
/// differing fields.
inline std::string goldenMismatch(const GoldenRow &Want,
                                  const stenso::synth::SynthesisResult &Got) {
  stenso::synth::SynthesisResult Expected = outcomeOf(Want);
  if (stenso::synth::sameSearchOutcome(Got, Expected))
    return "";
  return stenso::synth::describeOutcomeDiff(Got, Expected);
}

} // namespace perfbench

#endif // STENSO_PERFBENCH_GOLDEN_H
