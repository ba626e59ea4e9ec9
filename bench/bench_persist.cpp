//===- bench_persist.cpp - Persistent store cold/warm/recovery bench -------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the durable synthesis store (persist/StensoStore.h) buys
/// on the paper's benchmark suite and emits BENCH_persist.json:
///
///   * cold pass: the whole suite synthesized into a fresh store
///     (records + bytes written, wall time);
///   * warm pass: the identical suite re-run against that store
///     (wall time, per-benchmark solver calls avoided = persistent
///     hits, differential check against the cold results);
///   * recovery: a torn tail is appended to the last segment —
///     simulating SIGKILL mid-append — and the store is reopened
///     (recovery wall time, torn bytes truncated, records preserved).
///
/// Uses the flops cost model and the 4-way parallel engine: flops makes
/// cold and warm searches comparable on program/cost/abort, and the
/// parallel engine's strict cost prune drives hole-solver traffic on
/// benchmarks the sequential engine settles by stub matching alone.
/// Benchmarks that hit the wall-clock timeout in either pass are
/// excluded from the differential (a mid-search timeout trips at a
/// scheduling-dependent point, DESIGN.md §8) but still count toward the
/// avoided-work tally.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "persist/StensoStore.h"
#include "support/Timer.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace stenso;
using namespace stenso::evalsuite;
using namespace stenso::bench;
using namespace stenso::synth;
namespace fs = std::filesystem;

namespace {

struct PerBenchmark {
  std::string Name;
  int64_t ColdSolverCalls = 0;
  int64_t ColdStorePuts = 0;
  int64_t WarmStoreHits = 0; // solver calls served from disk, not re-run
  bool Comparable = false; // neither pass timed out
  bool Mismatch = false;
};

} // namespace

int main() {
  printBanner("Persistent store — cold vs warm suite synthesis + recovery",
              "crash-safe store harness (not a paper figure; tracks the "
              "durable cache's payoff and recovery cost)");

  double Timeout = suiteTimeoutSeconds(5);
  std::cout << "\nPer-benchmark timeout: " << Timeout
            << " s (STENSO_TIMEOUT overrides)\n\n";

  SynthesisConfig Config;
  Config.CostModelName = "flops";
  Config.TimeoutSeconds = Timeout;
  Config.Jobs = 4;

  // The store lives in scratch space and is deleted at exit; only the
  // measurements are kept.
  std::string Template =
      (fs::temp_directory_path() / "bench-persist-XXXXXX").string();
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data())) {
    std::cerr << "cannot create scratch directory\n";
    return 1;
  }
  std::string StoreDir = (fs::path(Buf.data()) / "suite.stenso-cache").string();

  std::vector<PerBenchmark> Rows;
  double ColdWall = 0, WarmWall = 0;
  int64_t StoreRecords = 0, StoreBytes = 0;
  {
    persist::StensoStore::Options O;
    O.Dir = StoreDir;
    persist::StensoStore Store(O);
    SuiteRunOptions Options;
    Options.Store = &Store;

    std::cout << "cold pass (fresh store):\n";
    WallTimer ColdTimer;
    std::vector<BenchmarkRun> Cold =
        synthesizeSuite(Config, Options, &std::cout);
    ColdWall = ColdTimer.elapsedSeconds();
    Store.flush();
    StoreRecords = static_cast<int64_t>(Store.size());
    StoreBytes = Store.diskBytes();

    std::cout << "\nwarm pass (same store):\n";
    WallTimer WarmTimer;
    std::vector<BenchmarkRun> Warm =
        synthesizeSuite(Config, Options, &std::cout);
    WarmWall = WarmTimer.elapsedSeconds();

    for (size_t I = 0; I < Cold.size(); ++I) {
      PerBenchmark Row;
      Row.Name = Cold[I].Def->Name;
      Row.ColdSolverCalls = Cold[I].Synthesis.Stats.SolverCalls;
      Row.ColdStorePuts = Cold[I].Synthesis.Stats.StorePuts;
      Row.WarmStoreHits = Warm[I].Synthesis.Stats.StoreHits;
      Row.Comparable =
          !Cold[I].Synthesis.TimedOut && !Warm[I].Synthesis.TimedOut;
      if (Row.Comparable)
        Row.Mismatch =
            Cold[I].Synthesis.OptimizedSource !=
                Warm[I].Synthesis.OptimizedSource ||
            Cold[I].Synthesis.OptimizedCost !=
                Warm[I].Synthesis.OptimizedCost ||
            Cold[I].Synthesis.Abort != Warm[I].Synthesis.Abort;
      Rows.push_back(std::move(Row));
    }
  }

  // Recovery: tear the last segment's tail the way SIGKILL does —
  // a truncated record append — and time the reopen.
  double RecoverySeconds = 0;
  int64_t TornBytesTruncated = 0, RecoveredRecords = 0;
  {
    std::string LastSegment;
    for (const auto &E : fs::directory_iterator(StoreDir)) {
      std::string Name = E.path().filename().string();
      if (Name.rfind("seg-", 0) == 0 && Name > LastSegment)
        LastSegment = Name;
    }
    if (!LastSegment.empty()) {
      std::ofstream OS((fs::path(StoreDir) / LastSegment).string(),
                       std::ios::binary | std::ios::app);
      uint32_t KeyLen = 4096, ValLen = 4096;
      OS.write(reinterpret_cast<const char *>(&KeyLen), 4);
      OS.write(reinterpret_cast<const char *>(&ValLen), 4);
      OS << "torn: the promised 8192 payload bytes never arrived";
    }
    WallTimer RecoverTimer;
    persist::StensoStore::Options O;
    O.Dir = StoreDir;
    persist::StensoStore Reopened(O);
    RecoverySeconds = RecoverTimer.elapsedSeconds();
    persist::StensoStore::Stats S = Reopened.stats();
    TornBytesTruncated = S.TornBytesTruncated;
    RecoveredRecords = S.RecordsRecovered;
  }

  int AvoidedPositive = 0, Mismatches = 0, NotComparable = 0;
  for (const PerBenchmark &Row : Rows) {
    AvoidedPositive += Row.WarmStoreHits > 0;
    Mismatches += Row.Mismatch;
    NotComparable += !Row.Comparable;
  }

  std::cout << "\ncold " << TablePrinter::formatDouble(ColdWall, 2)
            << " s, warm " << TablePrinter::formatDouble(WarmWall, 2)
            << " s (speedup "
            << TablePrinter::formatDouble(
                   WarmWall > 0 ? ColdWall / WarmWall : 1.0, 2)
            << "x); store " << StoreRecords << " record(s), " << StoreBytes
            << " bytes\n"
            << "warm solver work avoided on " << AvoidedPositive << "/"
            << Rows.size() << " benchmark(s); " << Mismatches
            << " differential mismatch(es), " << NotComparable
            << " not comparable (timed out)\n"
            << "torn-tail recovery: "
            << TablePrinter::formatDouble(RecoverySeconds * 1e3, 1)
            << " ms, " << TornBytesTruncated << " torn byte(s) truncated, "
            << RecoveredRecords << " record(s) preserved\n";

  std::ofstream Json("BENCH_persist.json");
  Json << "{\n"
       << "  \"bench\": \"persist\",\n"
       << "  \"workloads\": \"full suite, reduced shapes, flops cost "
          "model, parallel engine (4 jobs)\",\n"
       << "  \"timeout_seconds_per_benchmark\": " << Timeout << ",\n"
       << "  \"cold_wall_seconds\": " << ColdWall << ",\n"
       << "  \"warm_wall_seconds\": " << WarmWall << ",\n"
       << "  \"store_records\": " << StoreRecords << ",\n"
       << "  \"store_bytes\": " << StoreBytes << ",\n"
       << "  \"recovery_seconds\": " << RecoverySeconds << ",\n"
       << "  \"recovery_torn_bytes_truncated\": " << TornBytesTruncated
       << ",\n"
       << "  \"recovery_records_preserved\": " << RecoveredRecords << ",\n"
       << "  \"warm_avoided_positive\": " << AvoidedPositive << ",\n"
       << "  \"differential_mismatches\": " << Mismatches << ",\n"
       << "  \"differential_not_comparable\": " << NotComparable << ",\n"
       << "  \"benchmarks\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const PerBenchmark &R = Rows[I];
    Json << "    {\"name\": \"" << R.Name
         << "\", \"cold_solver_calls\": " << R.ColdSolverCalls
         << ", \"cold_store_puts\": " << R.ColdStorePuts
         << ", \"warm_store_hits\": " << R.WarmStoreHits
         << ", \"comparable\": " << (R.Comparable ? "true" : "false")
         << ", \"mismatch\": " << (R.Mismatch ? "true" : "false") << "}"
         << (I + 1 < Rows.size() ? "," : "") << "\n";
  }
  Json << "  ],\n"
       << "  \"note\": \"warm_store_hits counts hole-solver calls served "
          "byte-for-byte from the previous pass's store instead of being "
          "re-solved; the differential only compares benchmarks that ran "
          "to completion in both passes, since a wall-clock timeout stops "
          "at a scheduling-dependent point\"\n"
       << "}\n";
  std::cout << "wrote BENCH_persist.json\n";

  std::error_code EC;
  fs::remove_all(Buf.data(), EC);

  if (Mismatches != 0) {
    std::cerr << "error: warm results diverged from cold results\n";
    return 1;
  }
  return 0;
}
