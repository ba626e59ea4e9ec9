//===- BottomUpSynthesizer.h - TASO-like enumerative baseline --*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline of the paper's Figure 5: a bottom-up enumerative
/// synthesizer in the style of TASO's substitution generator.  It grows
/// the set of all type-correct programs level by level (full cross
/// product of shallower programs), deduplicates by symbolic spec, and
/// reports the cheapest program whose spec equals the target.  Complexity
/// is exponential in depth — it is expected to time out where STENSO's
/// cost-guided search does not.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SYNTH_BOTTOMUPSYNTHESIZER_H
#define STENSO_SYNTH_BOTTOMUPSYNTHESIZER_H

#include "synth/Synthesizer.h"

namespace stenso {
namespace synth {

/// Configuration of the enumerative baseline.
struct BottomUpConfig {
  std::string CostModelName = "flops";
  double TimeoutSeconds = 600;
  /// Maximum program depth to enumerate.
  int MaxDepth = 4;
  /// Hard cap on retained distinct programs.
  size_t MaxPrograms = 500000;
  /// Static analysis prunes at the final enumeration depth (candidates
  /// that can no longer feed deeper programs and whose type, input
  /// support, or sign provably differs from the target's are dropped
  /// before their symbolic execution).  Sound for the search result; the
  /// enumerated-program count and MaxPrograms consumption change (see
  /// DESIGN.md §10).
  bool UseAnalysisPruning = true;
  /// Grammar restriction; empty = SketchLibrary::defaultOps().
  std::vector<dsl::OpKind> Ops;
  /// Opt-in live heartbeat, same contract as SynthesisConfig::Progress:
  /// the run installs a sampler over atomic counters for its duration
  /// and freezes a final snapshot on exit.  Caller owns start()/stop();
  /// must outlive the run.
  observe::ProgressMonitor *Progress = nullptr;
};

/// One-shot enumerative search; reuses SynthesisResult for reporting.
class BottomUpSynthesizer {
public:
  explicit BottomUpSynthesizer(BottomUpConfig Config = BottomUpConfig());

  SynthesisResult run(const dsl::Program &Clamped, const ShapeScaler &Scaler);
  SynthesisResult run(const dsl::Program &Program) {
    return run(Program, ShapeScaler());
  }

private:
  BottomUpConfig Config;
};

} // namespace synth
} // namespace stenso

#endif // STENSO_SYNTH_BOTTOMUPSYNTHESIZER_H
