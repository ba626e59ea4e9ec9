//===- CostModel.cpp - Cost estimation for branch-and-bound ----------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "synth/CostModel.h"

#include "dsl/FlopCost.h"
#include "dsl/Interpreter.h"
#include "support/Error.h"
#include "support/Result.h"
#include "support/Timer.h"

#include <sstream>

using namespace stenso;
using namespace stenso::synth;
using namespace stenso::dsl;

//===----------------------------------------------------------------------===//
// ShapeScaler
//===----------------------------------------------------------------------===//

void ShapeScaler::addMapping(int64_t Small, int64_t Orig) {
  auto [It, Inserted] = SmallToOrig.emplace(Small, Orig);
  if (!Inserted && It->second != Orig)
    reportFatalError("conflicting shape-scaler mapping for extent " +
                     std::to_string(Small));
}

int64_t ShapeScaler::scaleExtent(int64_t Small) const {
  auto It = SmallToOrig.find(Small);
  return It == SmallToOrig.end() ? Small : It->second;
}

Shape ShapeScaler::scaleUp(const Shape &S) const {
  std::vector<int64_t> Dims;
  Dims.reserve(static_cast<size_t>(S.getRank()));
  for (int64_t D : S.getDims())
    Dims.push_back(scaleExtent(D));
  return Shape(std::move(Dims));
}

//===----------------------------------------------------------------------===//
// CostModel
//===----------------------------------------------------------------------===//

CostModel::~CostModel() = default;

double CostModel::costOfTree(const dsl::Node *N,
                             const ShapeScaler &Scaler) const {
  if (N->getKind() == OpKind::Comprehension) {
    double Iterated = costOfTree(N->getOperand(0), Scaler);
    double Body = costOfTree(N->getOperand(1), Scaler);
    double Trips = static_cast<double>(
        Scaler.scaleExtent(N->getOperand(0)->getType().TShape.getDim(0)));
    return Iterated + Trips * Body;
  }
  double Total = costOfOp(N, Scaler);
  for (const dsl::Node *Op : N->getOperands())
    Total += costOfTree(Op, Scaler);
  return Total;
}

//===----------------------------------------------------------------------===//
// FlopCostModel
//===----------------------------------------------------------------------===//

double FlopCostModel::costOfOp(const dsl::Node *N,
                               const ShapeScaler &Scaler) const {
  std::vector<Shape> OperandShapes;
  OperandShapes.reserve(N->getNumOperands());
  for (const dsl::Node *Op : N->getOperands())
    OperandShapes.push_back(Scaler.scaleUp(Op->getType().TShape));
  return flopCostForOp(N->getKind(), Scaler.scaleUp(N->getType().TShape),
                       OperandShapes, N->getAttrs());
}

//===----------------------------------------------------------------------===//
// MeasuredCostModel
//===----------------------------------------------------------------------===//

MeasuredCostModel::MeasuredCostModel(uint64_t Seed, int Repetitions)
    : Rng(Seed), Repetitions(Repetitions) {}

/// Cache key: op kind + scaled operand shapes + relevant attributes.
static std::string cacheKeyFor(const dsl::Node *N, const ShapeScaler &Scaler) {
  std::ostringstream OS;
  OS << static_cast<int>(N->getKind());
  for (const dsl::Node *Op : N->getOperands())
    OS << "|" << Scaler.scaleUp(Op->getType().TShape).toString()
       << stenso::toString(Op->getType().Dtype);
  const NodeAttrs &Attrs = N->getAttrs();
  if (Attrs.ShapeAttr.getRank() > 0)
    OS << "|shape=" << Scaler.scaleUp(Attrs.ShapeAttr).toString();
  if (Attrs.Axis)
    OS << "|axis=" << *Attrs.Axis;
  OS << "|k=" << Attrs.Diagonal;
  for (int64_t P : Attrs.Perm)
    OS << "|p" << P;
  for (int64_t A : Attrs.AxesA)
    OS << "|a" << A;
  for (int64_t B : Attrs.AxesB)
    OS << "|b" << B;
  return OS.str();
}

double MeasuredCostModel::costOfOp(const dsl::Node *N,
                                   const ShapeScaler &Scaler) const {
  if (N->isInput() || N->isConstant() ||
      N->getKind() == OpKind::Comprehension)
    return 0;
  std::string Key = cacheKeyFor(N, Scaler);
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return It->second;
  double Seconds = measure(N, Scaler);
  Cache.emplace(std::move(Key), Seconds);
  return Seconds;
}

double MeasuredCostModel::measure(const dsl::Node *N,
                                  const ShapeScaler &Scaler) const {
  // Rebuild the op at the original (scaled-up) shapes in a scratch
  // program, with fresh inputs standing in for the operands.
  Program Scratch;
  std::vector<const dsl::Node *> Operands;
  InputBinding Inputs;
  for (size_t I = 0; I < N->getNumOperands(); ++I) {
    const dsl::Node *Op = N->getOperand(I);
    TensorType Type{Op->getType().Dtype,
                    Scaler.scaleUp(Op->getType().TShape)};
    std::string Name = "in" + std::to_string(I);
    Operands.push_back(Scratch.input(Name, Type));
    Tensor T(Type.TShape, Type.Dtype);
    for (int64_t J = 0; J < T.getNumElements(); ++J)
      T.at(J) = Type.Dtype == DType::Bool ? (Rng.chance(0.5) ? 1.0 : 0.0)
                                          : Rng.positive();
    Inputs.emplace(std::move(Name), std::move(T));
  }
  // Attributes carrying literal shapes (reshape/full targets) must be
  // scaled along with the operands.
  NodeAttrs Attrs = N->getAttrs();
  if (Attrs.ShapeAttr.getRank() > 0)
    Attrs.ShapeAttr = Scaler.scaleUp(Attrs.ShapeAttr);
  const dsl::Node *Rebuilt =
      Scratch.tryMake(N->getKind(), std::move(Operands), std::move(Attrs));
  if (!Rebuilt) {
    // Candidate-reachable: a synthesized tree may be ill-shaped once its
    // extents are scaled up.  Poison the measurement so the candidate is
    // never preferred; the enclosing scope prunes it.
    raiseOrFatal(ErrC::ShapeMismatch,
                 "measured cost model failed to rebuild op " +
                     getOpName(N->getKind()) + " at scaled shapes");
    return 1e30;
  }

  // Warm up once, then take the minimum of the repetitions — the usual
  // low-noise estimator for short kernels.
  volatile double Sink = 0;
  Tensor Warm = interpret(Rebuilt, Inputs);
  Sink = Sink + Warm.at(0);
  double Best = 1e30;
  for (int Rep = 0; Rep < Repetitions; ++Rep) {
    WallTimer Timer;
    Tensor Out = interpret(Rebuilt, Inputs);
    double Elapsed = Timer.elapsedSeconds();
    Sink = Sink + Out.at(0);
    Best = std::min(Best, Elapsed);
  }
  (void)Sink;
  return Best;
}

std::unique_ptr<CostModel> synth::makeCostModel(const std::string &Name) {
  if (Name == "flops")
    return std::make_unique<FlopCostModel>();
  if (Name == "measured")
    return std::make_unique<MeasuredCostModel>();
  reportFatalError("unknown cost model '" + Name + "' (use flops|measured)");
}
