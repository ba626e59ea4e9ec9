//===- HoleSolver.cpp - Symbolic solving of sketch holes -------------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "synth/HoleSolver.h"

#include "dsl/Printer.h"
#include "observe/Trace.h"
#include "persist/ExprCodec.h"
#include "persist/StensoStore.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "symbolic/Linear.h"
#include "symbolic/Transforms.h"

#include <algorithm>

using namespace stenso;
using namespace stenso::synth;
using sym::Expr;
using sym::ExprContext;
using symexec::SymTensor;

size_t HoleSolver::CacheKeyHash::operator()(const CacheKey &K) const {
  size_t Seed = std::hash<uint32_t>()(K.SketchIndex);
  hashCombine(Seed, SpecKeyHash()(K.Phi));
  return Seed;
}

//===----------------------------------------------------------------------===//
// Monomial helpers
//===----------------------------------------------------------------------===//

namespace {

/// A canonical term viewed as coefficient * prod(base^exponent).
struct Monomial {
  Rational Coefficient = Rational(1);
  /// base -> exponent, in deterministic (id) order.
  std::vector<std::pair<const Expr *, const Expr *>> Factors;
};

/// Decomposes a canonical non-Add expression into a Monomial.
Monomial decomposeMonomial(const Expr *Term) {
  Monomial M;
  std::vector<const Expr *> Factors;
  if (isa<sym::MulExpr>(Term))
    Factors = Term->getOperands();
  else
    Factors.push_back(Term);
  for (const Expr *F : Factors) {
    if (const auto *C = dyn_cast<sym::ConstantExpr>(F)) {
      M.Coefficient *= C->getValue();
      continue;
    }
    if (const auto *P = dyn_cast<sym::PowExpr>(F)) {
      M.Factors.emplace_back(P->getBase(), P->getExponent());
      continue;
    }
    M.Factors.emplace_back(F, nullptr); // nullptr encodes exponent 1
  }
  return M;
}

/// Computes Term / Divisor when the division is "clean": every factor of
/// the divisor occurs in the term with at least its exponent.  Returns
/// nullopt otherwise (no negative powers are ever introduced).
std::optional<const Expr *> divideMonomial(ExprContext &Ctx, const Expr *Term,
                                           const Expr *Divisor) {
  Monomial T = decomposeMonomial(Term);
  Monomial D = decomposeMonomial(Divisor);
  if (D.Coefficient.isZero())
    return std::nullopt;

  auto ExponentOf = [&](const Expr *E) -> std::optional<Rational> {
    if (!E)
      return Rational(1);
    return ExprContext::getConstantValue(E);
  };

  for (const auto &[Base, DivExp] : D.Factors) {
    auto It = std::find_if(T.Factors.begin(), T.Factors.end(),
                           [&, B = Base](const auto &F) { return F.first == B; });
    if (It == T.Factors.end())
      return std::nullopt;
    std::optional<Rational> ET = ExponentOf(It->second);
    std::optional<Rational> ED = ExponentOf(DivExp);
    if (ET && ED) {
      Rational Quotient = *ET - *ED;
      if (Quotient < Rational(0))
        return std::nullopt;
      if (Quotient.isZero()) {
        T.Factors.erase(It);
      } else {
        It->second = Ctx.constant(Quotient);
      }
      continue;
    }
    // Symbolic exponents must match exactly.
    if (It->second != DivExp)
      return std::nullopt;
    T.Factors.erase(It);
  }

  std::vector<const Expr *> Parts;
  Parts.push_back(Ctx.constant(T.Coefficient / D.Coefficient));
  for (const auto &[Base, Exp] : T.Factors)
    Parts.push_back(Exp ? Ctx.pow(Base, Exp) : Base);
  return Ctx.mul(std::move(Parts));
}

/// The additive terms of an expanded expression.
std::vector<const Expr *> termsOf(const Expr *E) {
  if (isa<sym::AddExpr>(E))
    return E->getOperands();
  return {E};
}

} // namespace

//===----------------------------------------------------------------------===//
// Solving
//===----------------------------------------------------------------------===//

Expected<SymTensor> HoleSolver::solve(const Sketch &Sk,
                                      const SymTensor &Phi) {
  Calls.fetch_add(1, std::memory_order_relaxed);
  if (Budget) {
    Budget->chargeSolverCall();
    if (!Budget->checkpoint())
      return Budget->toError();
  }
  CacheKey Key{Sk.Index, SpecKey{Phi.getShape(), Phi.getDType(),
                                 Phi.getElements()}};
  CacheShard &Shard = Shards[CacheKeyHash()(Key) % NumCacheShards];
  {
    std::lock_guard<std::mutex> Lock(Shard.M);
    auto It = Shard.Map.find(Key);
    if (It != Shard.Map.end()) {
      ++Shard.Hits;
      return It->second;
    }
    ++Shard.Misses;
  }
  // Solve outside the lock; a racing duplicate computes the identical
  // canonical answer and loses the emplace below, which is benign.
  STENSO_TRACE_NAMED_SPAN(Span, "holesolver", "solve");
  Span.arg("sketch", Sk.Index);

  // Probe the persistent store before paying for a solve.  The budget
  // was charged above either way, so warm and cold runs account solver
  // calls identically; only the work differs.
  std::vector<uint8_t> PersistKey;
  std::optional<Expected<SymTensor>> FromStore;
  if (Store) {
    PersistKey = storeKeyFor(Sk, Phi);
    if (std::optional<std::vector<uint8_t>> Bytes = Store->get(PersistKey)) {
      FromStore = decodeStoreHit(Sk, Phi, *Bytes);
      if (FromStore)
        StoreHits.fetch_add(1, std::memory_order_relaxed);
      else
        StoreRejected.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Expected<SymTensor> Result =
      FromStore ? std::move(*FromStore) : solveUncached(Sk, Phi);
  Span.arg("solved", static_cast<bool>(Result));
  if (Result)
    Solved.fetch_add(1, std::memory_order_relaxed);
  // Budget exhaustion describes this run's budget, not the query — don't
  // memoize it, or a later run with head-room would inherit the failure.
  if (Result || (Result.error().code() != ErrC::BudgetExhausted &&
                 Result.error().code() != ErrC::Timeout)) {
    std::lock_guard<std::mutex> Lock(Shard.M);
    if (Shard.Map.size() >= MaxEntriesPerShard) {
      // Flush-on-full: the memo is a pure-function cache, so discarding
      // it only costs recomputation.  Wholesale flush keeps the insert
      // path O(1) — no LRU bookkeeping on every hit.
      Shard.Evictions += static_cast<int64_t>(Shard.Map.size());
      Shard.Map.clear();
    }
    Shard.Map.emplace(std::move(Key), Result);
  }

  // Write computed answers behind.  Only solutions and the benign
  // no-solution outcome persist: run-specific failures (budget, injected
  // faults, overflow context) describe this run, not the query.
  if (Store && !FromStore &&
      (Result || Result.error().code() == ErrC::NoSolution)) {
    persist::ByteWriter W;
    if (Result) {
      W.putU8(1);
      persist::ExprEncoder Enc(W);
      Enc.addTensor(*Result);
    } else {
      W.putU8(0);
    }
    StorePuts.fetch_add(1, std::memory_order_relaxed);
    Store->put(std::move(PersistKey), W.takeBytes());
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Persistent store integration
//===----------------------------------------------------------------------===//

std::vector<uint8_t> HoleSolver::storeKeyFor(const Sketch &Sk,
                                             const SymTensor &Phi) {
  std::vector<uint8_t> Prefix;
  {
    std::lock_guard<std::mutex> Lock(PrefixMutex);
    auto It = KeyPrefixes.find(Sk.Index);
    if (It != KeyPrefixes.end())
      Prefix = It->second;
  }
  if (Prefix.empty()) {
    // Everything the answer is a function of, in canonical printed /
    // serialized form — never pointers or run-local ids.  Two runs (or
    // two different programs in one suite) that agree on these bytes are
    // asking the same question.
    persist::ByteWriter W;
    W.putString("stenso-holesolve-v1");
    W.putString(dsl::printNode(Sk.Root));
    W.putString(Sk.Hole->getName());
    W.putString(toString(Sk.HoleType.Dtype));
    for (int64_t D : Sk.HoleType.TShape.getDims())
      W.putI64(D);
    std::vector<std::string> Names;
    Names.reserve(Bindings.size());
    for (const auto &[Name, T] : Bindings)
      Names.push_back(Name);
    std::sort(Names.begin(), Names.end());
    W.putU32(static_cast<uint32_t>(Names.size()));
    for (const std::string &Name : Names) {
      const SymTensor &T = Bindings.at(Name);
      W.putString(Name);
      W.putString(toString(T.getDType()));
      W.putU32(static_cast<uint32_t>(T.getShape().getRank()));
      for (int64_t D : T.getShape().getDims())
        W.putI64(D);
    }
    persist::ExprEncoder Enc(W);
    Enc.addTensor(Sk.Template);
    Enc.addTensor(Sk.HoleSymbols);
    Prefix = W.takeBytes();
    std::lock_guard<std::mutex> Lock(PrefixMutex);
    KeyPrefixes.emplace(Sk.Index, Prefix);
  }

  persist::ByteWriter W;
  persist::ExprEncoder Enc(W);
  Enc.addTensor(Phi);
  std::vector<uint8_t> Key = std::move(Prefix);
  const std::vector<uint8_t> &Suffix = W.bytes();
  Key.insert(Key.end(), Suffix.begin(), Suffix.end());
  return Key;
}

std::optional<Expected<SymTensor>>
HoleSolver::decodeStoreHit(const Sketch &Sk, const SymTensor &Phi,
                           const std::vector<uint8_t> &Bytes) {
  persist::ByteReader R(Bytes);
  uint8_t Tag = R.getU8();
  if (!R.ok())
    return std::nullopt;
  if (Tag == 0) {
    // A persisted no-solution is a pure function of the full key bytes
    // the store already compared; nothing further to verify.  Keep the
    // message identical to the computed path so warm and cold runs are
    // indistinguishable downstream.
    if (R.remaining() != 0)
      return std::nullopt;
    return Expected<SymTensor>(
        makeError(ErrC::NoSolution, "no representable hole solution"));
  }
  if (Tag != 1)
    return std::nullopt;
  persist::ExprDecoder Dec(R, Ctx);
  std::optional<SymTensor> HoleSpec = Dec.readTensor();
  if (!HoleSpec || R.remaining() != 0 ||
      HoleSpec->getShape() != Sk.HoleSymbols.getShape() ||
      HoleSpec->getDType() != Sk.HoleType.Dtype)
    return std::nullopt;
  // Re-verification gate: a persisted solution is only trusted after it
  // passes the same soundness check a computed one does — re-execute the
  // sketch with the decoded hole bound and demand the exact target spec.
  // Decoding damage, hash collisions, or foreign records all fail here
  // and degrade to a miss.
  symexec::SymBinding Extended = Bindings;
  Extended.insert_or_assign(Sk.Hole->getName(), *HoleSpec);
  Expected<SymTensor> Check =
      symexec::symbolicExecuteChecked(Sk.Root, Ctx, Extended);
  if (!Check || !Check->identicalTo(Phi))
    return std::nullopt;
  return Expected<SymTensor>(std::move(*HoleSpec));
}

int64_t HoleSolver::getCacheHits() const {
  int64_t Total = 0;
  for (const CacheShard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Hits;
  }
  return Total;
}

int64_t HoleSolver::getCacheMisses() const {
  int64_t Total = 0;
  for (const CacheShard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Misses;
  }
  return Total;
}

int64_t HoleSolver::getCacheEvictions() const {
  int64_t Total = 0;
  for (const CacheShard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    Total += S.Evictions;
  }
  return Total;
}

std::array<int64_t, 16> HoleSolver::getCacheHitsByShard() const {
  static_assert(NumCacheShards == 16, "by-shard API assumes 16 shards");
  std::array<int64_t, 16> Out{};
  for (size_t I = 0; I < NumCacheShards; ++I) {
    std::lock_guard<std::mutex> Lock(Shards[I].M);
    Out[I] = Shards[I].Hits;
  }
  return Out;
}

std::array<int64_t, 16> HoleSolver::getCacheMissesByShard() const {
  std::array<int64_t, 16> Out{};
  for (size_t I = 0; I < NumCacheShards; ++I) {
    std::lock_guard<std::mutex> Lock(Shards[I].M);
    Out[I] = Shards[I].Misses;
  }
  return Out;
}

Expected<SymTensor> HoleSolver::solveUncached(const Sketch &Sk,
                                              const SymTensor &Phi) {
  RecoverableErrorScope Scope;
  if (maybeInjectFault(FaultSite::HoleSolve))
    return Scope.takeError();
  std::optional<SymTensor> Result = solveImpl(Sk, Phi);
  if (Scope.hasError())
    return Scope.takeError().withContext("solving sketch hole");
  if (!Result)
    return makeError(ErrC::NoSolution, "no representable hole solution");
  return std::move(*Result);
}

std::optional<SymTensor>
HoleSolver::solveImpl(const Sketch &Sk, const SymTensor &Phi) {
  if (Sk.Template.getShape() != Phi.getShape() ||
      Sk.Template.getDType() != Phi.getDType())
    return std::nullopt;

  // Hole symbol -> flat index within the hole tensor.
  std::unordered_map<const Expr *, int64_t> HoleIndex;
  std::unordered_set<const Expr *> HoleSet;
  for (int64_t I = 0; I < Sk.HoleSymbols.getNumElements(); ++I) {
    HoleIndex.emplace(Sk.HoleSymbols.at(I), I);
    HoleSet.insert(Sk.HoleSymbols.at(I));
  }

  std::vector<const Expr *> Solved(
      static_cast<size_t>(Sk.HoleSymbols.getNumElements()), nullptr);

  // Records a solved value; fails on conflicting assignments.
  auto Assign = [&](const Expr *HoleSym, const Expr *Value) {
    int64_t Index = HoleIndex.at(HoleSym);
    const Expr *Expanded = sym::expand(Ctx, Value);
    if (Solved[static_cast<size_t>(Index)] &&
        Solved[static_cast<size_t>(Index)] != Expanded)
      return false;
    Solved[static_cast<size_t>(Index)] = Expanded;
    return true;
  };

  for (int64_t I = 0; I < Phi.getNumElements(); ++I) {
    const Expr *S = Sk.Template.at(I);
    const Expr *Target = Phi.at(I);

    // Linear case (covers hole-free elements as a degenerate form).
    if (std::optional<sym::LinearDecomposition> Lin =
            sym::decomposeLinear(Ctx, S, HoleSet)) {
      const Expr *Residual =
          sym::expand(Ctx, Ctx.sub(Target, Lin->Remainder));
      if (Lin->Coefficients.empty()) {
        if (!Residual->isZero())
          return std::nullopt;
        continue;
      }
      if (Lin->Coefficients.size() == 1) {
        auto [HoleSym, Coeff] = Lin->Coefficients.front();
        const Expr *Value =
            Coeff->isOne() ? Residual : Ctx.div(Residual, Coeff);
        if (!Assign(HoleSym, Value))
          return std::nullopt;
        continue;
      }
      // Multi-unknown equation (contraction/reduction): assign each target
      // term to the unique unknown whose coefficient divides it.
      std::unordered_map<const Expr *, std::vector<const Expr *>> Parts;
      for (const Expr *Term : termsOf(Residual)) {
        if (Term->isZero())
          continue;
        const Expr *Owner = nullptr;
        const Expr *Quotient = nullptr;
        for (const auto &[HoleSym, Coeff] : Lin->Coefficients) {
          std::optional<const Expr *> Q = divideMonomial(Ctx, Term, Coeff);
          if (!Q)
            continue;
          if (Owner)
            return std::nullopt; // ambiguous attribution
          Owner = HoleSym;
          Quotient = *Q;
        }
        if (!Owner)
          return std::nullopt; // term not producible by any unknown
        Parts[Owner].push_back(Quotient);
      }
      for (const auto &[HoleSym, Coeff] : Lin->Coefficients) {
        auto Found = Parts.find(HoleSym);
        const Expr *Value = Found == Parts.end()
                                ? Ctx.zero()
                                : Ctx.add(Found->second);
        if (!Assign(HoleSym, Value))
          return std::nullopt;
      }
      continue;
    }

    // Non-linear single-occurrence forms: S == c * f(h) with an H-free c
    // and f in {identity, pow-by-constant, exp, log}.
    std::vector<const Expr *> Factors;
    if (isa<sym::MulExpr>(S))
      Factors = S->getOperands();
    else
      Factors.push_back(S);
    std::vector<const Expr *> HFree;
    const Expr *HoleFactor = nullptr;
    for (const Expr *Factor : Factors) {
      if (sym::mentionsAny(Factor, HoleSet)) {
        if (HoleFactor)
          return std::nullopt; // hole in several factors
        HoleFactor = Factor;
      } else {
        HFree.push_back(Factor);
      }
    }
    if (!HoleFactor)
      return std::nullopt;
    const Expr *Residual = HFree.empty()
                               ? Target
                               : Ctx.div(Target, Ctx.mul(std::move(HFree)));

    const Expr *HoleSym = nullptr;
    const Expr *Value = nullptr;
    if (const auto *P = dyn_cast<sym::PowExpr>(HoleFactor)) {
      std::optional<Rational> Exp =
          ExprContext::getConstantValue(P->getExponent());
      if (!Exp || Exp->isZero() || !HoleSet.count(P->getBase()))
        return std::nullopt;
      HoleSym = P->getBase();
      Value = Ctx.pow(Residual, Ctx.constant(Rational(1) / *Exp));
    } else if (const auto *E = dyn_cast<sym::ExpExpr>(HoleFactor)) {
      if (!HoleSet.count(E->getArg()))
        return std::nullopt;
      HoleSym = E->getArg();
      Value = Ctx.logOf(Residual);
    } else if (const auto *L = dyn_cast<sym::LogExpr>(HoleFactor)) {
      if (!HoleSet.count(L->getArg()))
        return std::nullopt;
      HoleSym = L->getArg();
      Value = Ctx.expOf(Residual);
    } else {
      return std::nullopt;
    }
    if (!Assign(HoleSym, Value))
      return std::nullopt;
  }

  // Hole elements the output never observes default to zero.
  std::vector<const Expr *> Elements;
  Elements.reserve(Solved.size());
  for (const Expr *E : Solved)
    Elements.push_back(E ? E : Ctx.zero());
  SymTensor HoleSpec(Sk.HoleSymbols.getShape(), std::move(Elements),
                     Sk.HoleType.Dtype);

  // Soundness gate: re-execute the sketch with the solved hole bound and
  // demand the exact target spec.
  symexec::SymBinding Extended = Bindings;
  Extended.insert_or_assign(Sk.Hole->getName(), HoleSpec);
  SymTensor Check = symexec::symbolicExecute(Sk.Root, Ctx, Extended);
  if (!Check.identicalTo(Phi))
    return std::nullopt;
  return HoleSpec;
}
