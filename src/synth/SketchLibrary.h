//===- SketchLibrary.h - Bottom-up stub and sketch enumeration -*- C++ -*-===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GENSKETCHES (paper Section IV-B): bottom-up enumeration of program
/// stubs from the NumPy grammar up to depth 2, type-checked, deduplicated
/// by symbolic spec (keeping the cheapest representative), then converted
/// into sketches by replacing each input occurrence with a hole.
///
/// Every stub carries its expanded symbolic spec over the shared input
/// symbols; every sketch carries a pre-executed symbolic *template* over
/// the inputs plus a fresh hole-symbol tensor, which the HoleSolver
/// decomposes against target specifications.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_SYNTH_SKETCHLIBRARY_H
#define STENSO_SYNTH_SKETCHLIBRARY_H

#include "analysis/PruningOracle.h"
#include "dsl/Node.h"
#include "support/Budget.h"
#include "symexec/SymbolicExecutor.h"
#include "synth/CostModel.h"

#include <functional>
#include <unordered_map>
#include <unordered_set>

namespace stenso {
namespace synth {

/// A complete (hole-free) program fragment with its spec and cost.
struct Stub {
  const dsl::Node *Root = nullptr;
  symexec::SymTensor Spec;
  double Cost = 0;
  int Depth = 0;
};

/// A stub with exactly one input occurrence replaced by a hole.
struct Sketch {
  const dsl::Node *Root = nullptr; ///< tree containing the hole node
  const dsl::Node *Hole = nullptr; ///< the hole (an unregistered Input)
  dsl::TensorType HoleType;
  /// Symbolic execution of Root with HoleSymbols bound to the hole.
  symexec::SymTensor Template;
  /// The fresh symbols standing for the hole's elements.
  symexec::SymTensor HoleSymbols;
  /// Cost of the sketch's concrete operations (hole excluded).
  double ConcreteCost = 0;
  /// Position in the library's canonical (cost, enumeration) order.
  /// Run-independent, unlike the Root pointer — the solver cache and the
  /// parallel engine's tie-breaking key both build on it.
  uint32_t Index = 0;
  /// Input tensors mentioned by the concrete part (hole excluded),
  /// sorted.  Precomputed so the search's subset filter is a read-only
  /// scan, shareable across worker threads.
  std::vector<std::string> ConcreteTensors;
  /// Per-element abstract signature of Template with the hole symbols at
  /// top (analysis/PruningOracle.h).  Computed once at library build;
  /// read-only afterwards, shareable across workers.  Left all-top when
  /// analysis pruning is disabled.
  analysis::TensorAbstract Signature;
};

/// Hash/equality over (shape, dtype, interned element pointers).
struct SpecKey {
  Shape S;
  DType Ty;
  std::vector<const sym::Expr *> Elements;

  bool operator==(const SpecKey &RHS) const {
    return Ty == RHS.Ty && S == RHS.S && Elements == RHS.Elements;
  }
};

struct SpecKeyHash {
  size_t operator()(const SpecKey &K) const;
};

/// Builds and owns the stub/sketch library for one synthesis run.
class SketchLibrary {
public:
  struct Config {
    /// Maximum stub depth (the paper's d; d = 2 is its sweet spot).
    int MaxDepth = 2;
    /// Hard cap on kept stubs (safety valve for the full-depth ablation).
    size_t MaxStubs = 50000;
    /// Combine depth-1 stubs with each other at depth 2 (ablation mode);
    /// the default pairs depth-(d-1) stubs with terminals only.
    bool FullCombination = false;
    /// Grammar restriction; empty = the full default operation set.
    std::vector<dsl::OpKind> Ops;
    /// Static shape-reachability pruning + sketch signature computation
    /// (analysis/PruningOracle.h).  Skips the symbolic execution of
    /// final-depth stubs and of sketches whose result type no query of
    /// this search can have; sound because such candidates can never
    /// match or solve anything (the skipped entries are unreachable, so
    /// the search outcome is identical — only NumStubs/NumSketches and
    /// the node budget consumption change).
    bool AnalysisPruning = true;
  };

  /// Enumerates the library for \p Clamped (the reduced-shape program).
  /// \p Bindings must be the shared input symbols of the synthesis run.
  /// When \p Budget is given, enumeration checkpoints it and stops early
  /// on exhaustion (the library stays usable, just smaller); candidates
  /// that raise recoverable errors while being specced are skipped and
  /// counted in getNumCandidatesFailed().
  SketchLibrary(const dsl::Program &Clamped, sym::ExprContext &Ctx,
                const symexec::SymBinding &Bindings, const CostModel &Model,
                const ShapeScaler &Scaler, Config C,
                ResourceBudget *Budget = nullptr);

  const std::vector<Stub> &getStubs() const { return Stubs; }
  const std::vector<Sketch> &getSketches() const { return Sketches; }

  /// Sketches whose template has the given output shape/dtype, ordered by
  /// ascending concrete cost (the only ones that can match such a spec).
  const std::vector<const Sketch *> &
  getSketchesFor(const Shape &S, DType Ty) const;

  /// MATCH (Algorithm 2 base case): the cheapest stub whose spec is
  /// identical to \p Phi, or null.
  const Stub *findMatchingStub(const symexec::SymTensor &Phi) const;

  /// The default grammar operation set.
  static std::vector<dsl::OpKind> defaultOps();

  /// Drops every sketch \p Pred accepts.  Surviving sketches keep their
  /// Index values (the solver cache and the persistent store key on it)
  /// and their relative — ascending-cost — order; the shape index is
  /// rebuilt.  Returns the number of sketches dropped.  Used by the
  /// cost-bound analysis to drop sketches no completion of which can
  /// beat the original program (DESIGN.md §14).
  size_t removeSketchesIf(const std::function<bool(const Sketch &)> &Pred);

  /// Arena owning all stub/sketch trees (needed for cloning results out).
  dsl::Program &getArena() { return Arena; }

  /// Enumeration statistics for reports.
  int64_t getNumCandidatesTried() const { return CandidatesTried; }

  /// Candidates dropped because spec computation raised a recoverable
  /// error (arithmetic overflow, injected fault, ...).
  int64_t getNumCandidatesFailed() const { return CandidatesFailed; }

  /// Candidates skipped by the shape-reachability domain (final-depth
  /// stubs and sketches whose type no query can have).
  int64_t getNumShapePruned() const { return ShapePruned; }

private:
  void enumerateStubs(const dsl::Program &Clamped, const CostModel &Model,
                      const ShapeScaler &Scaler, const Config &C);
  void makeSketches(const CostModel &Model, const ShapeScaler &Scaler);

  /// Type-checks, specs, costs and dedupes one candidate application.
  void addCandidate(const dsl::Node *Root, int Depth, const CostModel &Model,
                    const ShapeScaler &Scaler);

  sym::ExprContext &Ctx;
  const symexec::SymBinding &Bindings;
  ResourceBudget *Budget = nullptr;
  dsl::Program Arena;
  Config Cfg;
  /// Types a query spec of this search can have (root, inputs, scalar).
  analysis::TypeReachability Reach;

  std::vector<Stub> Stubs;
  std::vector<Sketch> Sketches;
  std::unordered_map<SpecKey, size_t, SpecKeyHash> StubBySpec;
  /// Sketch dedup: sketches of different stubs share canonical per-type
  /// hole symbols, so redundant decompositions collide on their template.
  std::unordered_map<SpecKey, size_t, SpecKeyHash> SketchByTemplate;
  /// Canonical hole node + symbols per hole type.
  std::unordered_map<std::string, std::pair<const dsl::Node *,
                                            symexec::SymTensor>>
      CanonicalHoles;
  /// Shape/dtype-indexed view over Sketches, built after dedup.
  std::unordered_map<SpecKey, std::vector<const Sketch *>, SpecKeyHash>
      SketchesByShape;
  int64_t CandidatesTried = 0;
  int64_t CandidatesFailed = 0;
  int64_t ShapePruned = 0;
};

} // namespace synth
} // namespace stenso

#endif // STENSO_SYNTH_SKETCHLIBRARY_H
