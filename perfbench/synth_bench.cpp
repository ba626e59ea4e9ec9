//===- synth_bench.cpp - The synthesizer benchmark driver -------------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload's program set through the public synthesis entry
/// points (evalsuite::synthesizeBenchmark + verifyRunEquivalence), one
/// program at a time in a closed loop, and prints the benchmark's result
/// line.  Usage:
///
///   synth_bench --workload NAME --seed N --seconds S --trace 0|1
///               --data DIR --work DIR
///   synth_bench --record-golden FILE
///
/// --trace 0 times whole passes and reports the end-to-end metrics;
/// --trace 1 instead makes one pass that also times each layer's public
/// functions from spans in this file, and reports per-layer self time and
/// counters plus one row per program.  --data holds golden.tsv; --work is
/// scratch space for the store.  See README.md.
///
//===----------------------------------------------------------------------===//

#include "BenchLib.h"
#include "Golden.h"

#include "dsl/Interpreter.h"
#include "evalsuite/Harness.h"
#include "persist/StensoStore.h"
#include "support/RNG.h"
#include "verify/Equivalence.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <numeric>
#include <set>
#include <thread>
#include <unordered_map>

using namespace stenso;
using namespace perfbench;
using evalsuite::BenchmarkDef;
using evalsuite::BenchmarkRun;

namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Workload {
  std::string Name;
  int Jobs = 1;
  bool Store = false; ///< cold pass into a store in setup, warm timed pass
  /// Programs of the set left out, so that one run fits the benchmark's
  /// time budget (README.md gives each workload's reason).
  std::vector<std::string> Skip;
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> W = {
      {"suite-seq", 1, false, {}},
      {"suite-par4", 4, false, {}},
      {"suite-warm", 1, true, {"diag_dot", "scale_dot"}},
  };
  return W;
}

/// Set-up warms the allocator and the synthesis path on this program
/// before anything is timed.
constexpr const char *WarmupProgram = "synth_1";
constexpr int SetupRepeats = 9;

/// Reference-kernel samples on each side of a step whose median gives the
/// host's speed during that step (see inReferenceRuns).
constexpr size_t ReferenceHalfWindow = 3;

synth::SynthesisConfig configFor(const Workload &W) {
  synth::SynthesisConfig C;
  C.CostModelName = "flops";
  C.Jobs = W.Jobs;
  // Far above any program's search time: a timeout is a failure, not a
  // measurement.
  C.TimeoutSeconds = 120;
  return C;
}

/// The workload's programs in canonical (suite) order.
std::vector<BenchmarkDef> loadPrograms(const Workload &W) {
  std::vector<BenchmarkDef> Out;
  for (const BenchmarkDef &D : evalsuite::benchmarkSuite())
    if (std::find(W.Skip.begin(), W.Skip.end(), D.Name) == W.Skip.end())
      Out.push_back(D);
  return Out;
}

std::vector<const BenchmarkDef *> shuffled(const std::vector<BenchmarkDef> &Defs,
                                           uint64_t Seed) {
  std::vector<const BenchmarkDef *> Order;
  for (const BenchmarkDef &D : Defs)
    Order.push_back(&D);
  RNG Rng(Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1],
              Order[static_cast<size_t>(Rng.uniformInt(0, int64_t(I) - 1))]);
  return Order;
}

//===----------------------------------------------------------------------===//
// Process measurements
//===----------------------------------------------------------------------===//

/// Returns freed heap to the kernel, then resets the peak-RSS mark
/// (VmHWM) to the current RSS, so set-up's garbage does not count.
void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

double dirMb(const std::string &Dir) {
  std::error_code EC;
  uintmax_t Bytes = 0;
  for (const auto &E : fs::recursive_directory_iterator(Dir, EC))
    if (E.is_regular_file(EC))
      Bytes += E.file_size(EC);
  return static_cast<double>(Bytes) / (1024.0 * 1024.0);
}

double seconds(SpanRecorder::Clock::time_point Since) {
  return std::chrono::duration<double>(SpanRecorder::Clock::now() - Since)
      .count();
}

/// Fixed work in the synthesizer's style that calls nothing in src/:
/// rebuilding small hash maps of short vectors, so hashing, pointer chasing
/// and small heap allocations.  On the shared host the programs' speed
/// moves with its neighbours' load, and this kernel moves with it, where a
/// pure arithmetic loop or a memory-latency loop did not.  Returns a
/// checksum so that the work is not optimized away.
uint64_t referenceKernel() {
  uint64_t Acc = 0;
  for (uint64_t Round = 0; Round < 40; ++Round) {
    std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
    uint64_t X = 0x9E3779B97F4A7C15ull + Round;
    for (int I = 0; I < 4000; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      std::vector<uint32_t> &V = Buckets[X & 4095];
      V.push_back(static_cast<uint32_t>(X));
      if ((X >> 40) & 1)
        Acc += V.size();
    }
    for (const auto &[Key, V] : Buckets)
      Acc += Key * V.size();
  }
  return Acc;
}

/// Seconds the reference kernel takes, run at once on \p Threads threads
/// (the workload's job count, so that it meets the contention the search
/// meets); the mean over the threads.
double timeReferenceKernel(int Threads) {
  static std::atomic<uint64_t> Sink{0};
  std::vector<double> Times(Threads);
  auto Run = [&Times](int T) {
    auto Start = SpanRecorder::Clock::now();
    Sink += referenceKernel();
    Times[T] = seconds(Start);
  };
  std::vector<std::thread> Pool;
  for (int T = 1; T < Threads; ++T)
    Pool.emplace_back(Run, T);
  Run(0);
  for (std::thread &T : Pool)
    T.join();
  return std::accumulate(Times.begin(), Times.end(), 0.0) / Threads;
}

//===----------------------------------------------------------------------===//
// Correctness
//===----------------------------------------------------------------------===//

using GoldenTable = std::map<std::string, GoldenRow>;

bool loadGolden(const std::string &Path, GoldenTable &Out, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::optional<GoldenRow> Row = parseGoldenRow(Line);
    if (!Row) {
      Error = "malformed golden row: " + Line;
      return false;
    }
    Out[Row->Name] = *Row;
  }
  return true;
}

/// Checks a finished run independently of the harness's own verification:
/// verify::checkEquivalence plus a reference-interpreter comparison, both
/// at reduced shapes on seed-derived inputs.  Empty when both agree.
std::string independentCheck(const BenchmarkRun &Run, uint64_t Seed) {
  const BenchmarkDef &Def = *Run.Def;
  auto Orig = dsl::parseProgram(Def.sourceFor(false), Def.declsFor(false));
  auto Opt = dsl::parseProgram(Run.Synthesis.OptimizedSource,
                               Def.declsFor(false));
  if (!Orig || !Opt)
    return "reduced-shape parse failed";
  uint64_t ProgramSeed = Seed ^ std::hash<std::string>()(Def.Name);
  verify::Options Opts;
  Opts.Seed = ProgramSeed;
  Expected<verify::Verdict> V =
      verify::checkEquivalence(*Orig.Prog, *Opt.Prog, Opts);
  if (!V)
    return "checkEquivalence failed: " + V.error().toString();
  if (*V != verify::Verdict::ProvenEquivalent &&
      *V != verify::Verdict::ProbablyEquivalent)
    return "checkEquivalence verdict " + verify::toString(*V);
  RNG Rng(ProgramSeed);
  for (int Trial = 0; Trial < 3; ++Trial) {
    dsl::InputBinding Inputs =
        evalsuite::makeBenchmarkInputs(Def, /*Full=*/false, Rng);
    Expected<Tensor> A = dsl::interpretProgramChecked(*Orig.Prog, Inputs);
    Expected<Tensor> B = dsl::interpretProgramChecked(*Opt.Prog, Inputs);
    if (!A || !B)
      return "interpreter failed";
    if (!A->allClose(*B, 1e-6, 1e-9))
      return "interpreter outputs differ";
  }
  return "";
}

/// Original over optimized flops cost at full shapes, each plus one flop
/// so that an optimized program of cost 0 (a bare input or constant)
/// still yields a finite ratio.
double costRatio(const BenchmarkRun &Run) {
  std::unique_ptr<synth::CostModel> Model = synth::makeCostModel("flops");
  synth::ShapeScaler Identity;
  return (Model->costOfTree(Run.Original->getRoot(), Identity) + 1) /
         (Model->costOfTree(Run.Optimized->getRoot(), Identity) + 1);
}

/// Outcome bookkeeping shared by every pass.
struct Checker {
  Checker(const GoldenTable &Golden, uint64_t Seed)
      : Golden(Golden), Seed(Seed) {}

  const GoldenTable &Golden;
  uint64_t Seed;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::set<std::string> CheckedIndependently;
  std::vector<double> CostRatios;

  /// Returns "ok" or the reason the run failed.
  std::string check(const BenchmarkRun &Run) {
    ++Attempted;
    const std::string &Name = Run.Def->Name;
    std::string Why;
    auto It = Golden.find(Name);
    if (Run.Degraded)
      Why = "degraded: " + Run.DegradedReason;
    else if (It == Golden.end())
      Why = "no golden outcome";
    else
      Why = goldenMismatch(It->second, Run.Synthesis);
    if (Why.empty() && CheckedIndependently.insert(Name).second) {
      Why = independentCheck(Run, Seed);
      CostRatios.push_back(costRatio(Run));
    }
    if (Why.empty())
      return "ok";
    ++Failed;
    std::cerr << "FAILED " << Name << ": " << Why << "\n";
    return Why;
  }
};

//===----------------------------------------------------------------------===//
// Layer probes (traced run)
//===----------------------------------------------------------------------===//

using Counters = std::map<std::string, double>;

/// Seconds one program spends in the parts of Synthesizer::run that are
/// not search.
struct LayerTimes {
  double Spec = 0;
  double Library = 0;
  double CostBound = 0;

  double nonSearch() const { return Spec + Library + CostBound; }
};

/// Times each layer's public functions on one program, the way
/// Synthesizer::run calls them, and adds their counters to \p C.
LayerTimes probeLayers(SpanRecorder &R, const BenchmarkDef &Def,
                       const synth::SynthesisConfig &Config, Counters &C) {
  auto Timed = [&R](const char *Span, auto &&Work) {
    int I;
    {
      SpanRecorder::Scope S(R, Span);
      I = S.index();
      Work();
    }
    return R.duration(I);
  };
  LayerTimes T;
  auto Reduced = dsl::parseProgram(Def.sourceFor(false), Def.declsFor(false));
  if (!Reduced)
    return T;
  const dsl::Program &P = *Reduced.Prog;
  synth::ShapeScaler Scaler = Def.scaler();
  std::unique_ptr<synth::CostModel> Model =
      synth::makeCostModel(Config.CostModelName);
  sym::ExprContext Ctx;
  symexec::SymBinding Bindings;
  std::optional<symexec::SymTensor> Phi;

  T.Spec = Timed("symexec.spec", [&] {
    RecoverableErrorScope Scope;
    Bindings = symexec::makeInputBindings(P, Ctx);
    symexec::SymTensor Spec =
        symexec::symbolicExecute(P.getRoot(), Ctx, Bindings);
    if (!Scope.hasError())
      Phi = std::move(Spec);
  });
  if (!Phi)
    return T;

  std::optional<synth::SketchLibrary> Library;
  T.Library = Timed("library.build", [&] {
    synth::SketchLibrary::Config LibCfg = Config.Library;
    LibCfg.AnalysisPruning = Config.UseAnalysisPruning;
    Library.emplace(P, Ctx, Bindings, *Model, Scaler, LibCfg);
  });
  C["library.stubs"] += Library->getStubs().size();
  C["library.sketches"] += Library->getSketches().size();
  C["library.candidates"] += Library->getNumCandidatesTried();
  C["library.shape_pruned"] += Library->getNumShapePruned();
  C["library.intern_lookups"] += Ctx.getInternLookups();
  C["library.intern_hits"] += Ctx.getInternHits();
  C["counters.violations"] += Ctx.getInternHits() > Ctx.getInternLookups();

  T.CostBound = Timed("costbound.build", [&] {
    analysis::CostBoundAnalysis CB = synth::buildCostBound(
        *Library, *Model, Scaler, Bindings, Config.MaxRecursionDepth);
    double Original = Model->costOfTree(P.getRoot(), Scaler);
    C["costbound.sketches_dropped"] +=
        Library->removeSketchesIf([&](const synth::Sketch &Sk) {
          return Sk.ConcreteCost + CB.holeCompletionBound(
                                       Sk.HoleType, Config.MaxRecursionDepth) >=
                 Original;
        });
  });

  // Level-0 sweep: every shape-matching sketch against the root spec,
  // first with a fresh solver, then again so every probe hits the memo.
  synth::HoleSolver Solver(Ctx, Bindings);
  const auto &Sketches =
      Library->getSketchesFor(Phi->getShape(), Phi->getDType());
  for (const char *Span : {"holesolver.sweep", "holesolver.memo_sweep"})
    Timed(Span, [&] {
      for (const synth::Sketch *Sk : Sketches)
        (void)Solver.solve(*Sk, *Phi);
    });
  C["holesolver.sweep_calls"] += Sketches.size();
  C["holesolver.sweep_solved"] += Solver.getNumSolved();
  return T;
}

void addRunCounters(const synth::SynthesisStats &S, Counters &C) {
  C["holesolver.calls"] += S.SolverCalls;
  C["holesolver.successes"] += S.SolverSuccesses;
  C["holesolver.memo_hits"] += S.SolverCacheHits;
  C["holesolver.memo_misses"] += S.SolverCacheMisses;
  C["holesolver.memo_evictions"] += S.SolverCacheEvictions;
  C["search.dfs_calls"] += S.DfsCalls;
  C["search.sketches_explored"] += S.SketchesExplored;
  C["search.pruned_cost"] += S.PrunedByCost;
  C["search.pruned_costbound"] += S.PrunedByCostBound;
  C["search.pruned_simplification"] += S.PrunedBySimplification;
  C["search.pruned_analysis"] += S.PrunedByAnalysis;
  C["search.pruned_sign"] += S.AnalysisPrunedSign;
  C["search.pruned_degree"] += S.AnalysisPrunedDegree;
  C["symbolic.intern_lookups"] += S.InternLookups;
  C["symbolic.intern_hits"] += S.InternHits;
  C["symbolic.interned_nodes"] += S.InternedNodes;
  C["store.hits"] += S.StoreHits;
  C["store.rejected"] += S.StoreRejected;
  C["store.puts"] += S.StorePuts;
  // Relations the counters must satisfy; a violation is reported, not
  // failed, since it is a telemetry defect rather than a wrong program.
  C["counters.violations"] +=
      (S.SolverCacheHits + S.SolverCacheMisses != S.SolverCalls) +
      (S.InternHits > S.InternLookups) +
      (S.SolverSuccesses < S.PrunedBySimplification);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string DataDir = "perfbench";
  std::string WorkDir = ".bench_build/work";
  std::string RecordGolden;
};

std::optional<Args> parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    try {
      if (Flag == "--workload")
        A.Workload = Value;
      else if (Flag == "--seed")
        A.Seed = std::stoull(Value);
      else if (Flag == "--seconds")
        A.Seconds = std::stod(Value);
      else if (Flag == "--trace" && (Value == "0" || Value == "1"))
        A.Trace = Value == "1";
      else if (Flag == "--data")
        A.DataDir = Value;
      else if (Flag == "--work")
        A.WorkDir = Value;
      else if (Flag == "--record-golden")
        A.RecordGolden = Value;
      else
        return std::nullopt;
    } catch (const std::exception &) {
      return std::nullopt;
    }
  }
  if (Argc % 2 == 0 || (A.Workload.empty() == A.RecordGolden.empty()))
    return std::nullopt;
  return A;
}

BenchmarkRun runProgram(const BenchmarkDef &Def,
                        const synth::SynthesisConfig &Config) {
  BenchmarkRun Run = evalsuite::synthesizeBenchmark(Def, Config);
  evalsuite::verifyRunEquivalence(Run);
  return Run;
}

/// Writes the sequential, store-less outcome of every suite program.
int recordGolden(const Args &A) {
  std::ofstream Out(A.RecordGolden);
  Out << "# name\timproved\tabort\toptimized_cost\toptimized_source\n";
  synth::SynthesisConfig Config = configFor(workloads().front());
  for (const BenchmarkDef &Def : evalsuite::benchmarkSuite()) {
    BenchmarkRun Run = runProgram(Def, Config);
    if (Run.Degraded || Run.Synthesis.Abort != synth::AbortReason::None) {
      std::cerr << "error: " << Def.Name << " did not complete cleanly\n";
      return 1;
    }
    Out << formatGoldenRow(goldenRowOf(Def.Name, Run.Synthesis)) << "\n";
  }
  return Out ? 0 : 1;
}

/// Timed passes over the program set in the seed's order, one program at
/// a time, repeated until \p Seconds have elapsed (at least one pass).
/// A pass is a run of timed steps: opening the store (it is reopened every
/// pass, so opening and recovering it is part of the pass), then each
/// program.  The reference kernel is timed before each step and after the
/// last, outside the steps.  Outcomes are checked after each pass, outside
/// the timed region.  Returns the end-to-end metrics except set-up time.
std::vector<Metric> timedPasses(const Workload &W,
                                const std::vector<BenchmarkDef> &Defs,
                                uint64_t Seed, synth::SynthesisConfig Config,
                                const persist::StensoStore::Options &StoreOpts,
                                double Seconds, Checker &Check) {
  using Clock = SpanRecorder::Clock;
  std::vector<const BenchmarkDef *> Order = shuffled(Defs, Seed);
  std::vector<BenchmarkRun> Runs;
  std::vector<double> PassTimes, PassRefRuns, ProgramTimes, KernelTimes;
  resetPeakRss();
  auto Start = Clock::now();
  do {
    // Every pass starts from a trimmed heap, so the peak does not grow
    // with the number of passes.
    malloc_trim(0);
    std::vector<double> Steps, Refs = {timeReferenceKernel(W.Jobs)};
    auto Step = [&](auto &&Work) {
      auto T = Clock::now();
      Work();
      Steps.push_back(seconds(T));
      Refs.push_back(timeReferenceKernel(W.Jobs));
    };
    std::optional<persist::StensoStore> Store;
    if (W.Store)
      Step([&] { Config.Store = &Store.emplace(StoreOpts); });
    for (const BenchmarkDef *Def : Order) {
      Step([&] { Runs.push_back(runProgram(*Def, Config)); });
      ProgramTimes.push_back(Steps.back());
    }
    PassTimes.push_back(std::accumulate(Steps.begin(), Steps.end(), 0.0));
    PassRefRuns.push_back(
        inReferenceRuns(Steps, Refs, ReferenceHalfWindow).value_or(0));
    KernelTimes.insert(KernelTimes.end(), Refs.begin(), Refs.end());
    std::cerr << "DUMP";
    for (double X : Steps)
      std::cerr << " " << X;
    std::cerr << " |";
    for (double X : Refs)
      std::cerr << " " << X;
    std::cerr << "\n";
    Store.reset();
    for (const BenchmarkRun &Run : Runs)
      Check.check(Run);
    Runs.clear();
  } while (seconds(Start) < Seconds);
  // Seconds move with the host's load, so they are printed for reading
  // only; wall_ref is the pass length the host's speed cancels out of.
  std::cout << PassTimes.size() << " passes; median pass " << median(PassTimes)
            << " s; median program " << median(ProgramTimes) << " s over "
            << ProgramTimes.size() << " programs; median reference kernel "
            << median(KernelTimes) << " s over " << KernelTimes.size()
            << " runs\n";
  return {
      {"wall_ref", median(PassRefRuns), "ref"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

/// One traced pass: probes each program's layers, then synthesizes and
/// verifies it as the timed pass does, printing one row per program.
/// Returns the per-layer metrics.
std::vector<Metric> tracedPass(const Workload &W,
                               const std::vector<const BenchmarkDef *> &Order,
                               synth::SynthesisConfig Config,
                               const persist::StensoStore::Options &StoreOpts,
                               Checker &Check) {
  SpanRecorder Trace;
  Counters C;
  std::optional<persist::StensoStore> Store;
  if (W.Store) {
    SpanRecorder::Scope S(Trace, "store.open");
    Config.Store = &Store.emplace(StoreOpts);
  }
  std::cout << "program\twall_s\tlibrary_s\tcostbound_s\tsearch_self_s\t"
               "solver_calls\tmemo_hits\tabort\toutcome\n";
  for (const BenchmarkDef *Def : Order) {
    BenchmarkRun Run;
    int ProgramSpan, SynthSpan;
    LayerTimes Layers;
    {
      SpanRecorder::Scope S(Trace, "program");
      ProgramSpan = S.index();
      Layers = probeLayers(Trace, *Def, Config, C);
      {
        SpanRecorder::Scope S2(Trace, "synthesize");
        SynthSpan = S2.index();
        Run = evalsuite::synthesizeBenchmark(*Def, Config);
      }
      SpanRecorder::Scope S3(Trace, "verify");
      evalsuite::verifyRunEquivalence(Run);
    }
    double SearchSelf =
        std::max(0.0, Trace.duration(SynthSpan) - Layers.nonSearch());
    C["search.self_s"] += SearchSelf;
    addRunCounters(Run.Synthesis.Stats, C);
    std::cout << Def->Name << "\t" << Trace.duration(ProgramSpan) << "\t"
              << Layers.Library << "\t" << Layers.CostBound << "\t"
              << SearchSelf << "\t"
              << Run.Synthesis.Stats.SolverCalls << "\t"
              << Run.Synthesis.Stats.SolverCacheHits << "\t"
              << synth::toString(Run.Synthesis.Abort) << "\t"
              << Check.check(Run) << "\n";
  }
  Store.reset();

  std::map<std::string, double> Self = Trace.selfTimeByName();
  std::cout << "self time: benchmark overhead " << Self["program"]
            << " s, synthesize " << Self["synthesize"] << " s, verify "
            << Self["verify"] << " s\n";
  std::vector<Metric> Metrics = {
      {"symexec.spec_s", Self["symexec.spec"], "s"},
      {"library.build_s", Self["library.build"], "s"},
      {"costbound.build_s", Self["costbound.build"], "s"},
      {"holesolver.sweep_s", Self["holesolver.sweep"], "s"},
      {"holesolver.memo_sweep_s", Self["holesolver.memo_sweep"], "s"},
      {"search.self_s", C["search.self_s"], "s"},
      {"store.open_s", Self["store.open"], "s"},
      {"store.size_mb", W.Store ? dirMb(StoreOpts.Dir) : 0.0, "MB"},
  };
  for (const char *Name :
       {"library.stubs", "library.sketches", "library.candidates",
        "library.shape_pruned", "library.intern_lookups",
        "library.intern_hits", "costbound.sketches_dropped",
        "holesolver.sweep_calls", "holesolver.sweep_solved",
        "holesolver.calls", "holesolver.successes", "holesolver.memo_hits",
        "holesolver.memo_misses", "holesolver.memo_evictions",
        "search.dfs_calls", "search.sketches_explored", "search.pruned_cost",
        "search.pruned_costbound", "search.pruned_simplification",
        "search.pruned_analysis", "search.pruned_sign", "search.pruned_degree",
        "symbolic.intern_lookups", "symbolic.intern_hits",
        "symbolic.interned_nodes", "store.hits", "store.rejected",
        "store.puts", "counters.violations"})
    Metrics.push_back({Name, C[Name], "count"});
  return Metrics;
}

int runWorkload(const Args &A) {
  auto W = std::find_if(workloads().begin(), workloads().end(),
                        [&](const Workload &X) { return X.Name == A.Workload; });
  if (W == workloads().end()) {
    std::cerr << "error: unknown workload '" << A.Workload << "'\n";
    return 2;
  }
  GoldenTable Golden;
  std::string Error;
  if (!loadGolden(A.DataDir + "/golden.tsv", Golden, Error)) {
    std::cerr << "error: " << Error << "\n";
    return 2;
  }
  synth::SynthesisConfig Config = configFor(*W);
  Checker Check(Golden, A.Seed);
  persist::StensoStore::Options StoreOpts;
  StoreOpts.Dir = A.WorkDir + "/store";

  // Set-up: load the programs, then either warm up (repeated, median
  // reported) or run the cold pass that fills the store.  The cold pass
  // runs the programs in canonical order, so every seed writes the same
  // store the same way.
  std::vector<BenchmarkDef> Defs;
  std::vector<double> SetupTimes;
  for (int I = 0; I < (W->Store ? 1 : SetupRepeats); ++I) {
    auto T = SpanRecorder::Clock::now();
    Defs = loadPrograms(*W);
    std::vector<BenchmarkRun> ColdRuns;
    if (W->Store) {
      std::error_code EC;
      fs::remove_all(StoreOpts.Dir, EC);
      fs::create_directories(StoreOpts.Dir, EC);
      persist::StensoStore Store(StoreOpts);
      synth::SynthesisConfig Cold = Config;
      Cold.Store = &Store;
      for (const BenchmarkDef &Def : Defs)
        ColdRuns.push_back(runProgram(Def, Cold));
    } else {
      (void)runProgram(*evalsuite::findBenchmark(WarmupProgram), Config);
    }
    SetupTimes.push_back(seconds(T));
    for (const BenchmarkRun &Run : ColdRuns)
      Check.check(Run);
  }

  std::vector<Metric> Metrics;
  if (A.Trace) {
    Metrics = tracedPass(*W, shuffled(Defs, A.Seed), Config, StoreOpts, Check);
  } else {
    Metrics =
        timedPasses(*W, Defs, A.Seed, Config, StoreOpts, A.Seconds, Check);
    Metrics.insert(Metrics.begin() + 1, {"setup_s", median(SetupTimes), "s"});
    Metrics.push_back(
        {"cost_ratio_geomean", geomean(Check.CostRatios).value_or(0), "x"});
    Metrics.push_back({"ok_share",
                       double(Check.Attempted - Check.Failed) /
                           double(Check.Attempted),
                       "1"});
  }
  if (W->Store) {
    std::error_code EC;
    fs::remove_all(StoreOpts.Dir, EC);
  }

  std::optional<std::string> Line =
      resultLine(Check.Failed == 0, Check.Attempted, Check.Failed, Metrics);
  if (!Line) {
    std::cerr << "error: invalid metric in result\n";
    return 2;
  }
  std::cout << *Line << std::endl;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::optional<Args> A = parseArgs(Argc, Argv);
  if (!A) {
    std::cerr << "usage: synth_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data DIR] [--work DIR]\n"
                 "       synth_bench --record-golden FILE\n";
    return 2;
  }
  return A->RecordGolden.empty() ? runWorkload(*A) : recordGolden(*A);
}
