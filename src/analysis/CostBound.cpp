//===- CostBound.cpp - Admissible cost lower bounds for sketches ----------===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostBound.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace stenso;
using namespace stenso::analysis;

static constexpr double Inf = std::numeric_limits<double>::infinity();

size_t CostBoundAnalysis::typeIndex(const dsl::TensorType &T) {
  auto [It, Inserted] = TypeIdx.try_emplace(T.toString(), Types.size());
  if (Inserted)
    Types.push_back(TypeInfo{Inf, {}});
  return It->second;
}

void CostBoundAnalysis::addLeafCompletion(const dsl::TensorType &T,
                                          double Cost) {
  assert(!Sealed && "registration after seal()");
  TypeInfo &Info = Types[typeIndex(T)];
  Info.MinStub = std::min(Info.MinStub, Cost);
}

void CostBoundAnalysis::addSketchEdge(const dsl::TensorType &TemplateT,
                                      const dsl::TensorType &HoleT,
                                      double ConcreteCost) {
  assert(!Sealed && "registration after seal()");
  size_t Hole = typeIndex(HoleT);
  Types[typeIndex(TemplateT)].Edges.emplace_back(Hole, ConcreteCost);
}

void CostBoundAnalysis::seal(int MaxDepth) {
  assert(!Sealed && "seal() called twice");
  Sealed = true;
  MaxDepth = std::max(MaxDepth, 0);
  FloorAtDepth.assign(static_cast<size_t>(MaxDepth) + 1,
                      std::vector<double>(Types.size(), Inf));
  for (size_t I = 0; I < Types.size(); ++I)
    FloorAtDepth[0][I] = Types[I].MinStub;
  for (int D = 1; D <= MaxDepth; ++D) {
    const std::vector<double> &Prev = FloorAtDepth[D - 1];
    std::vector<double> &Cur = FloorAtDepth[D];
    for (size_t I = 0; I < Types.size(); ++I) {
      double Best = Types[I].MinStub;
      for (const auto &[Hole, Concrete] : Types[I].Edges)
        Best = std::min(Best, Concrete + Prev[Hole]);
      Cur[I] = Best;
    }
  }
}

double CostBoundAnalysis::holeCompletionBound(const dsl::TensorType &T,
                                              int DepthRemaining) const {
  assert(Sealed && "query before seal()");
  auto It = TypeIdx.find(T.toString());
  if (It == TypeIdx.end())
    return Inf; // No stub or sketch produces this type: no completion.
  int D = std::clamp(DepthRemaining, 0,
                     static_cast<int>(FloorAtDepth.size()) - 1);
  return FloorAtDepth[static_cast<size_t>(D)][It->second];
}
