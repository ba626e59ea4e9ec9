//===- CostBound.h - Admissible cost lower bounds for sketches -*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static lower bound on the cost of completing a sketch's hole, used to
/// drop library sketches that cannot beat the original program
/// (DESIGN.md section 14).
///
/// holeCompletionBound(T, d) is the cheapest cost any well-typed tree of
/// type T reachable within d more sketch nestings can have.  It is a
/// small fixpoint over the sketch library itself — depth 0 is the
/// cheapest stub of type T, depth d additionally considers every sketch
/// whose template has type T, charging its concrete cost plus the
/// depth-(d-1) floor of its hole type.  +inf means no completion exists
/// at all, which is itself a sound (and maximally useful) bound.
///
/// Admissibility contract: the bound is <= the model's costOfTree of
/// every completion the search could enumerate.  The fuzz suite checks
/// this against the enumerated library (AnalysisTest CostBoundTest).
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_ANALYSIS_COSTBOUND_H
#define STENSO_ANALYSIS_COSTBOUND_H

#include "dsl/Node.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace stenso {
namespace analysis {

/// The hole-completion fixpoint.  Register the enumerated library (stubs
/// and sketch edges), seal(), then query.
class CostBoundAnalysis {
public:
  /// Registers one complete library fragment (stub) of root type \p T
  /// costing \p Cost: a depth-0 completion.
  void addLeafCompletion(const dsl::TensorType &T, double Cost);

  /// Registers one sketch: a template of type \p TemplateT whose
  /// concrete part costs \p ConcreteCost around a hole of type \p HoleT.
  void addSketchEdge(const dsl::TensorType &TemplateT,
                     const dsl::TensorType &HoleT, double ConcreteCost);

  /// Runs the hole-floor fixpoint for depths 0..\p MaxDepth.  Must be
  /// called once, after registration and before any query.
  void seal(int MaxDepth);

  /// Floor on the cost of any tree of type \p T reachable with
  /// \p DepthRemaining further sketch nestings; +inf when none exists.
  double holeCompletionBound(const dsl::TensorType &T,
                             int DepthRemaining) const;

private:
  struct TypeInfo {
    double MinStub;
    /// (hole type index, concrete template cost) per sketch whose
    /// template has this type.
    std::vector<std::pair<size_t, double>> Edges;
  };

  size_t typeIndex(const dsl::TensorType &T);

  std::unordered_map<std::string, size_t> TypeIdx;
  std::vector<TypeInfo> Types;
  /// FloorAtDepth[d][i]: the sealed fixpoint for type i at depth d.
  std::vector<std::vector<double>> FloorAtDepth;
  bool Sealed = false;
};

} // namespace analysis
} // namespace stenso

#endif // STENSO_ANALYSIS_COSTBOUND_H
