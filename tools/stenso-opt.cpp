//===- stenso-opt.cpp - Command-line superoptimizer driver -----------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ counterpart of the paper artifact's `stenso/main.py`
/// (Appendix F):
///
///   stenso-opt --program original.stenso [--synth_out optimized.stenso]
///              [--cost_estimator flops|measured] [--timeout SECONDS]
///              [--stats] [--rule]
///
/// Program files declare their inputs and give one expression:
///
///   # comment lines start with '#'
///   input A f64[96,96]
///   input B f64[96,96]
///   np.diag(np.dot(A, B))
///
/// Shapes in `input` lines are the *search* shapes; an optional
/// `scale SMALL FULL` line maps a search extent to the production extent
/// for cost estimation (paper Section VI-C).
///
//===----------------------------------------------------------------------===//

#include "dsl/Parser.h"
#include "dsl/Printer.h"
#include "evalsuite/RewriteRuleMiner.h"
#include "evalsuite/RuleBook.h"
#include "observe/DecisionLog.h"
#include "observe/Json.h"
#include "observe/Metrics.h"
#include "observe/Progress.h"
#include "observe/Trace.h"
#include "persist/StensoStore.h"
#include "support/RNG.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "synth/Synthesizer.h"

#include "evalsuite/ProgramFile.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

using namespace stenso;
using namespace stenso::dsl;
using evalsuite::ProgramFile;
using evalsuite::loadProgramFile;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: stenso-opt --program FILE [options]\n"
        "\n"
        "options:\n"
        "  --program FILE          source program (required)\n"
        "  --synth_out FILE        write the optimized program here\n"
        "                          (default: print to stdout)\n"
        "  --cost_estimator NAME   flops | measured (default: measured)\n"
        "  --timeout SECONDS       synthesis budget (default: 60)\n"
        "  --max-nodes N           cap on symbolic nodes (default: none)\n"
        "  --jobs N                worker threads for the sketch search\n"
        "                          (default: 1; 0 = all hardware threads;\n"
        "                          any N returns the same program)\n"
        "  --no-branch-and-bound   disable cost pruning (ablation)\n"
        "  --no-analysis-pruning   disable the static analysis oracle\n"
        "                          (escape hatch; the oracle is sound, so\n"
        "                          the result is identical either way)\n"
        "  --stats                 print search statistics\n"
        "  --stats-json FILE       write statistics + outcome as JSON\n"
        "  --trace FILE            record a Chrome/Perfetto trace_event\n"
        "                          timeline of the run (open FILE in\n"
        "                          https://ui.perfetto.dev)\n"
        "  --metrics FILE          write a JSON snapshot of the metrics\n"
        "                          registry after the run\n"
        "  --decisions FILE        stream every DFS branch decision as\n"
        "                          JSONL (one decision per line)\n"
        "  --progress[=FILE]       live heartbeat: periodic JSONL\n"
        "                          progress records (elapsed, rate,\n"
        "                          budget consumption, best cost, ETA)\n"
        "                          to FILE, or stderr when no FILE\n"
        "  --progress-interval-ms N\n"
        "                          heartbeat period (default 1000)\n"
        "  --store DIR             durable synthesis store: serve hole\n"
        "                          solutions persisted by previous runs\n"
        "                          and write this run's results behind\n"
        "                          (crash-safe: a killed or\n"
        "                          budget-aborted run resumes\n"
        "                          by rerunning warm and converges to the\n"
        "                          identical result).  STENSO_STORE in\n"
        "                          the environment is honored when the\n"
        "                          flag is absent\n"
        "  --no-store              ignore --store and STENSO_STORE\n"
        "  --rule                  print the generalized rewrite rule\n"
        "  --rules_out FILE        append the mined rule to a rule file\n"
        "  --rules_in FILE         skip synthesis; rewrite the program\n"
        "                          with previously mined rules instead\n";
}

/// One-line diagnostic + nonzero exit for every user-input error; the
/// tool never aborts on bad input.
int fail(const std::string &Message) {
  std::cerr << "error: " << Message << "\n";
  return 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string ProgramPath, OutPath, RulesOutPath, RulesInPath;
  std::string TracePath, MetricsPath, DecisionsPath, StatsJsonPath;
  std::string StorePath, ProgressPath;
  bool WantProgress = false;
  int ProgressIntervalMs = 1000;
  synth::SynthesisConfig Config;
  Config.CostModelName = "measured";
  Config.TimeoutSeconds = 60;
  bool PrintStats = false, PrintRule = false, NoStore = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--program")
      ProgramPath = Value();
    else if (Arg == "--synth_out")
      OutPath = Value();
    else if (Arg == "--cost_estimator")
      Config.CostModelName = Value();
    else if (Arg == "--timeout")
      Config.TimeoutSeconds = std::atof(Value().c_str());
    else if (Arg == "--max-nodes") {
      std::string Nodes = Value();
      std::optional<int64_t> Parsed = parseInt64(Nodes);
      if (!Parsed || *Parsed < 0)
        return fail("bad --max-nodes value '" + Nodes + "'");
      Config.MaxSymbolicNodes = *Parsed;
    } else if (Arg == "--jobs") {
      std::string Jobs = Value();
      std::optional<int64_t> Parsed = parseInt64(Jobs);
      if (!Parsed || *Parsed < 0 || *Parsed > 1024)
        return fail("bad --jobs value '" + Jobs + "'");
      Config.Jobs = static_cast<int>(*Parsed);
    } else if (Arg == "--no-branch-and-bound")
      Config.UseBranchAndBound = false;
    else if (Arg == "--no-analysis-pruning")
      Config.UseAnalysisPruning = false;
    else if (Arg == "--rules_out")
      RulesOutPath = Value();
    else if (Arg == "--rules_in")
      RulesInPath = Value();
    else if (Arg == "--stats")
      PrintStats = true;
    else if (Arg == "--stats-json")
      StatsJsonPath = Value();
    else if (Arg == "--trace")
      TracePath = Value();
    else if (Arg == "--metrics")
      MetricsPath = Value();
    else if (Arg == "--decisions")
      DecisionsPath = Value();
    else if (Arg == "--progress")
      WantProgress = true;
    else if (Arg.rfind("--progress=", 0) == 0) {
      WantProgress = true;
      ProgressPath = Arg.substr(std::string("--progress=").size());
    } else if (Arg == "--progress-interval-ms") {
      std::string Interval = Value();
      std::optional<int64_t> Parsed = parseInt64(Interval);
      if (!Parsed || *Parsed <= 0 || *Parsed > 3600000)
        return fail("bad --progress-interval-ms value '" + Interval + "'");
      ProgressIntervalMs = static_cast<int>(*Parsed);
    } else if (Arg == "--store")
      StorePath = Value();
    else if (Arg == "--no-store")
      NoStore = true;
    else if (Arg == "--rule")
      PrintRule = true;
    else if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else {
      printUsage(std::cerr);
      return fail("unknown option '" + Arg + "'");
    }
  }
  if (ProgramPath.empty()) {
    printUsage(std::cerr);
    return fail("--program is required");
  }
  if (Config.CostModelName != "flops" && Config.CostModelName != "measured")
    return fail("unknown cost estimator '" + Config.CostModelName + "'");

  ProgramFile File;
  std::string Error;
  if (!loadProgramFile(ProgramPath, File, Error))
    return fail(Error);
  ParseResult Parsed = parseProgram(File.Source, File.Inputs);
  if (!Parsed)
    return fail(Parsed.Error);

  // Rule-application mode: rewrite with a mined-rule file, no synthesis.
  if (!RulesInPath.empty()) {
    std::ifstream RulesIn(RulesInPath);
    if (!RulesIn)
      return fail("cannot open '" + RulesInPath + "'");
    std::stringstream Buffer;
    Buffer << RulesIn.rdbuf();
    std::string RuleError;
    std::optional<evalsuite::RuleBook> Book =
        evalsuite::RuleBook::deserialize(Buffer.str(), RuleError);
    if (!Book)
      return fail(RuleError);
    dsl::Program Dest;
    RNG Rng(0x5741);
    int Applied = 0;
    const dsl::Node *Out = Book->applyVerified(
        Dest, Parsed.Prog->getRoot(), Rng, 3, &Applied);
    std::cerr << Applied << " rule(s) fired out of " << Book->size()
              << " loaded\n";
    std::cout << printNode(Out) << "\n";
    return 0;
  }

  // Telemetry attachments: a trace session covering the synthesis run
  // and an opt-in decision log.  Both are observation-only.
  observe::DecisionLog Decisions;
  if (!DecisionsPath.empty())
    Config.Decisions = &Decisions;
  std::optional<observe::TraceSession> Trace;
  if (!TracePath.empty()) {
    Trace.emplace();
    Trace->start();
  }
  std::optional<observe::ProgressMonitor> Progress;
  if (WantProgress) {
    observe::ProgressOptions ProgressOpts;
    ProgressOpts.IntervalMs = ProgressIntervalMs;
    if (ProgressPath.empty()) {
      Progress.emplace(std::cerr, ProgressOpts);
    } else {
      Progress.emplace(ProgressPath, ProgressOpts);
      if (!Progress->openedOk())
        return fail("cannot write '" + ProgressPath + "'");
    }
    Config.Progress = &*Progress;
    Progress->start();
  }

  // Durable store: the flag wins over the environment; --no-store beats
  // both.  Opening never fails hard — an unusable directory degrades the
  // store to an in-memory cache and the run proceeds.
  if (StorePath.empty() && !NoStore)
    if (const char *Env = std::getenv("STENSO_STORE"))
      StorePath = Env;
  std::optional<persist::StensoStore> Store;
  if (!StorePath.empty() && !NoStore) {
    persist::StensoStore::Options StoreOptions;
    StoreOptions.Dir = StorePath;
    Store.emplace(StoreOptions);
    Config.Store = &*Store;
  }

  synth::SynthesisResult Result =
      synth::Synthesizer(Config).run(*Parsed.Prog, File.Scaler);

  if (Progress) {
    Progress->stop();
    if (!ProgressPath.empty())
      std::cerr << "progress: " << Progress->recordsWritten()
                << " heartbeat(s) -> " << ProgressPath << "\n";
  }
  if (Trace) {
    Trace->stop();
    std::ofstream TraceOut(TracePath);
    if (!TraceOut)
      return fail("cannot write '" + TracePath + "'");
    Trace->writeJson(TraceOut);
    std::cerr << "trace: " << Trace->eventCount() << " event(s) from "
              << Trace->threadCount() << " thread(s) -> " << TracePath
              << "\n";
  }
  if (!MetricsPath.empty()) {
    std::ofstream MetricsOut(MetricsPath);
    if (!MetricsOut)
      return fail("cannot write '" + MetricsPath + "'");
    observe::MetricsRegistry::global().writeJson(MetricsOut);
  }
  if (!DecisionsPath.empty()) {
    std::ofstream DecisionsOut(DecisionsPath);
    if (!DecisionsOut)
      return fail("cannot write '" + DecisionsPath + "'");
    Decisions.writeJsonl(DecisionsOut);
    std::cerr << "decisions: " << Decisions.size() << " record(s) -> "
              << DecisionsPath << "\n";
  }

  std::cerr << (Result.Improved ? "improved" : "no improvement found")
            << " in "
            << TablePrinter::formatDouble(Result.SynthesisSeconds, 2)
            << " s (cost " << Result.OriginalCost << " -> "
            << Result.OptimizedCost << ")"
            << (Result.TimedOut ? " [search timed out]" : "") << "\n";
  std::cerr << "AbortReason=" << synth::toString(Result.Abort) << "\n";

  if (Store) {
    // Flush the final batch before reporting sizes so the
    // record/byte counts reflect what actually survives this process.
    Store->flush();
    persist::StensoStore::Stats SS = Store->stats();
    std::cerr << "store: dir=" << Store->dir()
              << " hits=" << Result.Stats.StoreHits
              << " rejected=" << Result.Stats.StoreRejected
              << " puts=" << Result.Stats.StorePuts
              << " records=" << Store->size()
              << " bytes=" << Store->diskBytes();
    if (SS.TornBytesTruncated || SS.SegmentsQuarantined || SS.VersionSkipped)
      std::cerr << " recovered(torn_bytes=" << SS.TornBytesTruncated
                << " quarantined=" << SS.SegmentsQuarantined
                << " version_skipped=" << SS.VersionSkipped << ")";
    if (Store->degraded())
      std::cerr << " [degraded: in-memory only]";
    else if (Store->readOnly())
      std::cerr << " [read-only]";
    std::cerr << "\n";
  }

  if (PrintStats) {
    const synth::SynthesisStats &S = Result.Stats;
    std::cerr << "stats: stubs=" << S.NumStubs
              << " sketches=" << S.NumSketches << " dfs=" << S.DfsCalls
              << " solver=" << S.SolverSuccesses << "/" << S.SolverCalls
              << " pruned(cost)=" << S.PrunedByCost
              << " pruned(costbound)=" << S.PrunedByCostBound
              << " pruned(simplification)=" << S.PrunedBySimplification
              << " pruned(analysis)=" << S.PrunedByAnalysis << "\n";
    std::cerr << "analysis: sign=" << S.AnalysisPrunedSign
              << " degree=" << S.AnalysisPrunedDegree
              << " shape=" << S.AnalysisPrunedShape << "\n";
    std::cerr << "cache: solver hit/miss/evict=" << S.SolverCacheHits << "/"
              << S.SolverCacheMisses << "/" << S.SolverCacheEvictions
              << " intern nodes=" << S.InternedNodes
              << " hit/lookup=" << S.InternHits << "/" << S.InternLookups
              << "\n";
  }
  if (!StatsJsonPath.empty()) {
    std::ofstream StatsOut(StatsJsonPath);
    if (!StatsOut)
      return fail("cannot write '" + StatsJsonPath + "'");
    synth::writeStatsJson(Result, StatsOut);
  }
  if (PrintRule && Result.Improved) {
    evalsuite::RewriteRule Rule = evalsuite::mineRewriteRule(
        Parsed.Prog->getRoot(), Result.Optimized->getRoot());
    std::cerr << "rule: " << Rule.toString() << "\n";
  }
  if (!RulesOutPath.empty() && Result.Improved) {
    evalsuite::RuleBook Book;
    if (Book.addRule(Parsed.Prog->getRoot(), Result.Optimized->getRoot())) {
      std::ofstream RulesOut(RulesOutPath, std::ios::app);
      if (!RulesOut) {
        std::cerr << "error: cannot write '" << RulesOutPath << "'\n";
        return 1;
      }
      RulesOut << Book.serialize();
      std::cerr << "rule appended to " << RulesOutPath << "\n";
    }
  }

  if (OutPath.empty()) {
    std::cout << Result.OptimizedSource << "\n";
  } else {
    std::ofstream Out(OutPath);
    if (!Out) {
      std::cerr << "error: cannot write '" << OutPath << "'\n";
      return 1;
    }
    for (const auto &[Name, Type] : File.Inputs) {
      Out << "input " << Name << " " << stenso::toString(Type.Dtype);
      if (Type.TShape.getRank() > 0) {
        Out << "[";
        for (int64_t I = 0; I < Type.TShape.getRank(); ++I)
          Out << (I ? "," : "") << Type.TShape.getDim(I);
        Out << "]";
      }
      Out << "\n";
    }
    for (const auto &[Small, Full] : File.Scaler.getMappings())
      Out << "scale " << Small << " " << Full << "\n";
    Out << Result.OptimizedSource << "\n";
  }
  return 0;
}
