//===- CostModel.h - Cost estimation for branch-and-bound ------*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost estimators guiding STENSO's branch-and-bound pruning (paper
/// Sections V-B and VI-C):
///
///   * FlopCostModel — the analytic JAX/XLA-style FLOP count.
///   * MeasuredCostModel — wall-clock profiles of each operation on random
///     inputs of representative shapes, cached in a lookup table; during
///     search, a partial program's cost is the sum of its ops' cached
///     measurements (no re-measuring mid-search).
///
/// Synthesis explores programs at *reduced* shapes (symbolic execution
/// would explode at the benchmark's real sizes), so both models map
/// shapes back to the originals through a ShapeScaler before costing —
/// pruning decisions reflect real workload sizes.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SYNTH_COSTMODEL_H
#define STENSO_SYNTH_COSTMODEL_H

#include "dsl/Node.h"
#include "support/RNG.h"

#include <map>
#include <memory>
#include <string>

namespace stenso {
namespace synth {

/// Maps the reduced ("clamped") extents used during synthesis back to the
/// benchmark's original extents.  The mapping is injective by
/// construction (Clamper guarantees distinct originals get distinct
/// reduced extents), so extent values identify dimensions.
class ShapeScaler {
public:
  /// Identity scaling (synthesis at original shapes).
  ShapeScaler() = default;

  /// Records that reduced extent \p Small denotes original extent \p Orig.
  void addMapping(int64_t Small, int64_t Orig);

  /// Maps one extent; unmapped extents pass through unchanged.
  int64_t scaleExtent(int64_t Small) const;

  /// Maps every extent of \p S.
  Shape scaleUp(const Shape &S) const;

  /// The recorded (reduced, original) extent pairs.
  const std::map<int64_t, int64_t> &getMappings() const {
    return SmallToOrig;
  }

private:
  std::map<int64_t, int64_t> SmallToOrig;
};

/// Interface of the pluggable cost estimators.
class CostModel {
public:
  virtual ~CostModel();

  /// Cost of executing the single op at \p N, with shapes mapped through
  /// \p Scaler to the original workload sizes.  Units are model-specific
  /// (FLOPs or seconds) but consistent within a model.
  virtual double costOfOp(const dsl::Node *N,
                          const ShapeScaler &Scaler) const = 0;

  /// Short model name for reports ("flops" / "measured").
  virtual std::string getName() const = 0;

  /// Total cost of the expression tree rooted at \p N (comprehension
  /// bodies charged per trip).
  double costOfTree(const dsl::Node *N, const ShapeScaler &Scaler) const;
};

/// Analytic FLOP-count estimator (the paper's `flops` option).
class FlopCostModel : public CostModel {
public:
  double costOfOp(const dsl::Node *N,
                  const ShapeScaler &Scaler) const override;
  std::string getName() const override { return "flops"; }
};

/// Measurement-based estimator (the paper's `measured` option): profiles
/// each (op, shapes) pair once through the tensor runtime and caches the
/// result.  Deterministic given the seed.
class MeasuredCostModel : public CostModel {
public:
  explicit MeasuredCostModel(uint64_t Seed = 7, int Repetitions = 3);

  double costOfOp(const dsl::Node *N,
                  const ShapeScaler &Scaler) const override;
  std::string getName() const override { return "measured"; }

  /// Number of distinct (op, shapes) entries profiled so far.
  size_t getNumCacheEntries() const { return Cache.size(); }

private:
  double measure(const dsl::Node *N, const ShapeScaler &Scaler) const;

  mutable std::map<std::string, double> Cache;
  mutable RNG Rng;
  int Repetitions;
};

/// Builds the model selected by name ("flops" or "measured").
std::unique_ptr<CostModel> makeCostModel(const std::string &Name);

} // namespace synth
} // namespace stenso

#endif // STENSO_SYNTH_COSTMODEL_H
