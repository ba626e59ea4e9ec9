//===- PersistTest.cpp - Crash-safe persistent store tests ----------------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence subsystem's contract, bottom to top:
///
///   * Wire / XXHash / ExprCodec primitives round-trip and reject
///     malformed input without aborting.
///   * StensoStore survives reopen, truncates torn tails, quarantines
///     checksum-corrupt records, and reads a version-mismatched store as
///     cold — a deterministic corruption corpus (truncations + bit flips
///     at systematic offsets) asserts the store never serves a *wrong*
///     value, only a smaller cache.
///   * Crash-safety end to end: a child `stenso-opt --store` process is
///     SIGKILLed mid-search at seeded-random points; the resumed run must
///     converge to the bit-identical program / cost / AbortReason of an
///     uninterrupted cold run, at --jobs 1 and --jobs 4.
///
/// The child-process tests use the flops cost model and a generous
/// wall-clock timeout so every uninterrupted search runs to completion
/// (AbortReason=None): wall-clock-truncated searches stop at
/// scheduling-dependent points and are not comparable (DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#include "persist/ExprCodec.h"
#include "persist/StensoStore.h"
#include "persist/Wire.h"
#include "persist/XXHash.h"

#include "dsl/Parser.h"
#include "fuzz/Generator.h"
#include "support/RNG.h"
#include "symexec/SymbolicExecutor.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace stenso;
using namespace stenso::persist;
namespace fs = std::filesystem;

namespace {

/// A unique scratch directory, removed on scope exit.
class TempDir {
public:
  TempDir() {
    std::string Template =
        (fs::temp_directory_path() / "stenso-persist-XXXXXX").string();
    std::vector<char> Buf(Template.begin(), Template.end());
    Buf.push_back('\0');
    const char *P = mkdtemp(Buf.data());
    EXPECT_NE(P, nullptr);
    Dir = P ? P : Template;
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }
  const std::string &path() const { return Dir; }
  std::string sub(const std::string &Name) const {
    return (fs::path(Dir) / Name).string();
  }

private:
  std::string Dir;
};

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

/// The single segment file of a store directory (fails the test when the
/// store rolled more than one — the fixtures keep batches small).
std::string onlySegment(const std::string &Dir) {
  std::string Found;
  for (const auto &E : fs::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("seg-", 0) == 0) {
      EXPECT_TRUE(Found.empty()) << "more than one segment";
      Found = E.path().string();
    }
  }
  EXPECT_FALSE(Found.empty()) << "no segment under " << Dir;
  return Found;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(IS)),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS.write(reinterpret_cast<const char *>(Bytes.data()),
           static_cast<std::streamsize>(Bytes.size()));
}

} // namespace

//===----------------------------------------------------------------------===//
// XXHash / Wire
//===----------------------------------------------------------------------===//

TEST(XXHashTest, KnownAnswers) {
  // Reference vectors from the xxHash specification.
  EXPECT_EQ(xxhash64(nullptr, 0), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxhash64("abc", 3), 0x44BC2CF5AD770999ull);
  std::string Long = "xxhash64 is a fast non-cryptographic hash function";
  EXPECT_EQ(xxhash64(Long.data(), Long.size()),
            xxhash64(Long.data(), Long.size()));
  EXPECT_NE(xxhash64(Long.data(), Long.size()),
            xxhash64(Long.data(), Long.size(), /*Seed=*/1));
}

TEST(WireTest, RoundTrip) {
  ByteWriter W;
  W.putU8(7);
  W.putU32(0xDEADBEEFu);
  W.putU64(0x0123456789ABCDEFull);
  W.putI64(-42);
  W.putF64(2.5);
  W.putString("phi");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.getU8(), 7);
  EXPECT_EQ(R.getU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.getU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.getI64(), -42);
  EXPECT_EQ(R.getF64(), 2.5);
  EXPECT_EQ(R.getString(), "phi");
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(WireTest, TruncationLatches) {
  ByteWriter W;
  W.putU32(12345);
  std::vector<uint8_t> Bytes = W.takeBytes();
  Bytes.pop_back();
  ByteReader R(Bytes);
  (void)R.getU32();
  EXPECT_FALSE(R.ok());
  // Latched: later reads stay zero/failed even if bytes remain.
  EXPECT_EQ(R.getU8(), 0);
  EXPECT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// ExprCodec
//===----------------------------------------------------------------------===//

namespace {

/// Symbolically executes \p Source under \p Decls, returning the spec.
symexec::SymTensor specOf(sym::ExprContext &Ctx, const std::string &Source,
                          const dsl::InputDecls &Decls) {
  auto R = dsl::parseProgram(Source, Decls);
  EXPECT_TRUE(R) << Source << ": " << R.Error;
  return symexec::computeSpec(*R.Prog, Ctx);
}

dsl::InputDecls matDecls() {
  return {{"A", dsl::TensorType{DType::Float64, Shape({3, 3})}},
          {"B", dsl::TensorType{DType::Float64, Shape({3, 3})}}};
}

} // namespace

TEST(ExprCodecTest, SpecRoundTripsToIdenticalNodes) {
  sym::ExprContext Ctx;
  for (const char *Source :
       {"np.diag(np.dot(A, B))", "np.sum(A * B)", "np.exp(A) / (A + B)"}) {
    symexec::SymTensor Spec = specOf(Ctx, Source, matDecls());
    std::vector<uint8_t> Bytes = encodeSymTensor(Spec);
    // Same context: canonical forms are fixed points, so decoding must
    // reproduce the *identical* interned nodes.
    std::optional<symexec::SymTensor> Back = decodeSymTensor(Bytes, Ctx);
    ASSERT_TRUE(Back.has_value()) << Source;
    ASSERT_EQ(Back->getShape(), Spec.getShape());
    for (int64_t I = 0; I < Spec.getNumElements(); ++I)
      EXPECT_EQ(Back->at(I), Spec.at(I)) << Source << " element " << I;
    // Fresh context: the same bytes decode and re-encode to the same
    // bytes (content addressing is context-independent).
    sym::ExprContext Fresh;
    std::optional<symexec::SymTensor> Again = decodeSymTensor(Bytes, Fresh);
    ASSERT_TRUE(Again.has_value()) << Source;
    EXPECT_EQ(encodeSymTensor(*Again), Bytes) << Source;
  }
}

TEST(ExprCodecTest, MalformedBuffersAreRejectedNotFatal) {
  sym::ExprContext Ctx;
  symexec::SymTensor Spec = specOf(Ctx, "np.dot(A, B)", matDecls());
  std::vector<uint8_t> Bytes = encodeSymTensor(Spec);
  // Every strict prefix must fail cleanly.
  for (size_t Len : {size_t(0), size_t(1), Bytes.size() / 2,
                     Bytes.size() - 1}) {
    std::vector<uint8_t> Prefix(Bytes.begin(), Bytes.begin() + Len);
    sym::ExprContext Fresh;
    EXPECT_FALSE(decodeSymTensor(Prefix, Fresh).has_value()) << Len;
  }
  // A flipped byte either fails or decodes to *some* well-formed tensor;
  // it must never abort.  (The store's verify gate rejects wrong values.)
  for (size_t I = 0; I < Bytes.size(); I += 7) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0x20;
    sym::ExprContext Fresh;
    (void)decodeSymTensor(Mutated, Fresh);
  }
}

TEST(ExprCodecTest, FuzzGeneratedSpecsRoundTrip) {
  // Property form of the round trip, over the fuzzer's program
  // distribution (ragged shapes, rank-3 inputs, comprehensions, larger
  // extents) instead of three hand-picked sources.  STENSO_SEED in the
  // environment reproduces a failure.
  uint64_t Seed = seedFromEnv(0xc0dec);
  SCOPED_TRACE("STENSO_SEED=" + std::to_string(Seed));
  fuzz::GeneratorConfig GenConfig;
  GenConfig.MaxOps = 5; // keep specs small enough to encode quickly
  fuzz::ProgramGenerator Gen(Seed, GenConfig);
  for (int I = 0; I < 20; ++I) {
    fuzz::FuzzCase Case = Gen.generate();
    dsl::ParseResult Parsed = fuzz::parseCase(Case);
    ASSERT_TRUE(Parsed) << Case.Source;
    sym::ExprContext Ctx;
    symexec::SymTensor Spec = symexec::computeSpec(*Parsed.Prog, Ctx);
    std::vector<uint8_t> Bytes = encodeSymTensor(Spec);

    // Same context: identical interned nodes (structural equality at
    // its strongest).
    std::optional<symexec::SymTensor> Back = decodeSymTensor(Bytes, Ctx);
    ASSERT_TRUE(Back.has_value()) << Case.Source;
    EXPECT_TRUE(Back->identicalTo(Spec)) << Case.Source;

    // Fresh context: content addressing — decode + re-encode is the
    // identity on bytes.
    sym::ExprContext Fresh;
    std::optional<symexec::SymTensor> Again = decodeSymTensor(Bytes, Fresh);
    ASSERT_TRUE(Again.has_value()) << Case.Source;
    EXPECT_EQ(encodeSymTensor(*Again), Bytes) << Case.Source;

    // Truncated buffers are rejected, never fatal.
    for (size_t Len : {size_t(0), Bytes.size() / 3, Bytes.size() - 1}) {
      std::vector<uint8_t> Prefix(Bytes.begin(),
                                  Bytes.begin() + static_cast<long>(Len));
      sym::ExprContext Scratch;
      EXPECT_FALSE(decodeSymTensor(Prefix, Scratch).has_value())
          << Case.Source << " truncated to " << Len;
    }
  }
}

//===----------------------------------------------------------------------===//
// StensoStore: durability and recovery
//===----------------------------------------------------------------------===//

TEST(StensoStoreTest, PutGetFlushReopen) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    EXPECT_TRUE(Store.onDisk());
    EXPECT_FALSE(Store.readOnly());
    EXPECT_FALSE(Store.get(bytesOf("absent")).has_value());
    Store.put(bytesOf("k1"), bytesOf("v1"));
    Store.put(bytesOf("k2"), bytesOf("v2"));
    // Visible before any flush.
    auto V = Store.get(bytesOf("k1"));
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, bytesOf("v1"));
    Store.flush();
    EXPECT_EQ(Store.size(), 2u);
  }
  // Reopen: both records survive; the last put for a key wins.
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    EXPECT_EQ(Store.size(), 2u);
    auto V2 = Store.get(bytesOf("k2"));
    ASSERT_TRUE(V2.has_value());
    EXPECT_EQ(*V2, bytesOf("v2"));
    Store.put(bytesOf("k2"), bytesOf("v2-updated"));
    Store.flush();
  }
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    auto V2 = Store.get(bytesOf("k2"));
    ASSERT_TRUE(V2.has_value());
    EXPECT_EQ(*V2, bytesOf("v2-updated"));
    StensoStore::Stats S = Store.stats();
    EXPECT_GE(S.RecordsRecovered, 3);
    EXPECT_EQ(S.CorruptRecords, 0);
    EXPECT_EQ(S.TornBytesTruncated, 0);
  }
}

TEST(StensoStoreTest, ReadOnlyOptionNeverWrites) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    Store.put(bytesOf("k"), bytesOf("v"));
    Store.flush();
  }
  uintmax_t SizeBefore = fs::file_size(onlySegment(Dir));
  {
    StensoStore::Options O;
    O.Dir = Dir;
    O.ReadOnly = true;
    StensoStore Store(O);
    EXPECT_TRUE(Store.readOnly());
    ASSERT_TRUE(Store.get(bytesOf("k")).has_value());
    Store.put(bytesOf("k2"), bytesOf("v2")); // cached in memory only
    ASSERT_TRUE(Store.get(bytesOf("k2")).has_value());
    Store.flush();
  }
  // Nothing hit the disk, and no second segment appeared.
  EXPECT_EQ(fs::file_size(onlySegment(Dir)), SizeBefore);
}

TEST(StensoStoreTest, TornTailIsTruncatedOnReopen) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    for (int I = 0; I < 8; ++I)
      Store.put(bytesOf("key" + std::to_string(I)),
                bytesOf("value" + std::to_string(I)));
    Store.flush();
  }
  // Simulate SIGKILL mid-append: half a record's worth of garbage.
  std::string Seg = onlySegment(Dir);
  {
    std::ofstream OS(Seg, std::ios::binary | std::ios::app);
    uint32_t KeyLen = 100, ValLen = 100;
    OS.write(reinterpret_cast<const char *>(&KeyLen), 4);
    OS.write(reinterpret_cast<const char *>(&ValLen), 4);
    OS << "only part of the promised payload";
  }
  uintmax_t TornSize = fs::file_size(Seg);
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    StensoStore::Stats S = Store.stats();
    EXPECT_EQ(S.RecordsRecovered, 8);
    EXPECT_GT(S.TornBytesTruncated, 0);
    EXPECT_EQ(S.CorruptRecords, 0);
    for (int I = 0; I < 8; ++I) {
      auto V = Store.get(bytesOf("key" + std::to_string(I)));
      ASSERT_TRUE(V.has_value()) << I;
      EXPECT_EQ(*V, bytesOf("value" + std::to_string(I)));
    }
  }
  // The tail is physically gone: the next open sees a clean segment.
  EXPECT_LT(fs::file_size(Seg), TornSize);
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    EXPECT_EQ(Store.stats().TornBytesTruncated, 0);
  }
}

TEST(StensoStoreTest, ChecksumCorruptionQuarantinesNotServes) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    for (int I = 0; I < 8; ++I)
      Store.put(bytesOf("key" + std::to_string(I)),
                bytesOf("value" + std::to_string(I)));
    Store.flush();
  }
  // Flip one bit in the middle of the payload area.
  std::string Seg = onlySegment(Dir);
  std::vector<uint8_t> Bytes = readFile(Seg);
  Bytes[Bytes.size() / 2] ^= 0x01;
  writeFile(Seg, Bytes);
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    StensoStore::Stats S = Store.stats();
    // Strictly fewer records; quarantine kept the evidence.
    EXPECT_LT(S.RecordsRecovered, 8);
    EXPECT_GE(S.CorruptRecords + S.SegmentsQuarantined, 1);
    EXPECT_TRUE(fs::exists(fs::path(Dir) / "quarantine"));
    // Whatever survived is byte-exact.
    for (int I = 0; I < 8; ++I) {
      auto V = Store.get(bytesOf("key" + std::to_string(I)));
      if (V.has_value()) {
        EXPECT_EQ(*V, bytesOf("value" + std::to_string(I)));
      }
    }
  }
}

TEST(StensoStoreTest, VersionMismatchReadsAsColdStore) {
  TempDir Tmp;
  std::string Dir = Tmp.sub("store");
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    Store.put(bytesOf("k"), bytesOf("v"));
    Store.flush();
  }
  // Bump the on-disk format version field (bytes 4..7 after the magic).
  std::string Seg = onlySegment(Dir);
  std::vector<uint8_t> Bytes = readFile(Seg);
  ASSERT_GT(Bytes.size(), 8u);
  Bytes[4] = StensoStore::FormatVersion + 1;
  writeFile(Seg, Bytes);
  {
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O);
    StensoStore::Stats S = Store.stats();
    EXPECT_EQ(S.VersionSkipped, 1);
    EXPECT_EQ(S.RecordsRecovered, 0);
    EXPECT_FALSE(Store.get(bytesOf("k")).has_value());
    // Still fully usable as a fresh store.
    Store.put(bytesOf("k2"), bytesOf("v2"));
    Store.flush();
    EXPECT_FALSE(Store.degraded());
  }
}

TEST(StensoStoreTest, UnusableDirectoryDegradesToMemoryOnly) {
  TempDir Tmp;
  // A *file* where the store wants a directory: creation must fail, and
  // the store must degrade to a working in-memory cache.
  std::string FilePath = Tmp.sub("not-a-dir");
  writeFile(FilePath, bytesOf("occupied"));
  StensoStore::Options O;
  O.Dir = (fs::path(FilePath) / "store").string();
  StensoStore Store(O);
  EXPECT_FALSE(Store.onDisk());
  Store.put(bytesOf("k"), bytesOf("v"));
  auto V = Store.get(bytesOf("k"));
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, bytesOf("v"));
  Store.flush(); // must be a safe no-op
}

/// Deterministic corruption corpus: for a grid of truncation points and
/// single-bit flips over a real segment, reopening must never crash and
/// must never serve a value that differs from what was written.
TEST(StensoStoreTest, CorruptionCorpusNeverServesWrongBytes) {
  TempDir Tmp;
  std::string Pristine = Tmp.sub("pristine");
  const int N = 32;
  auto KeyOf = [](int I) { return bytesOf("corpus-key-" + std::to_string(I)); };
  auto ValOf = [](int I) {
    std::string V = "corpus-value-" + std::to_string(I) + "-";
    V.append(static_cast<size_t>(17 + I % 23), 'x');
    return bytesOf(V);
  };
  {
    StensoStore::Options O;
    O.Dir = Pristine;
    StensoStore Store(O);
    for (int I = 0; I < N; ++I)
      Store.put(KeyOf(I), ValOf(I));
    Store.flush();
  }
  std::vector<uint8_t> Good = readFile(onlySegment(Pristine));
  ASSERT_GT(Good.size(), 64u);

  int Case = 0;
  auto Check = [&](std::vector<uint8_t> Mutated, const char *What) {
    std::string Dir = Tmp.sub("case-" + std::to_string(Case++));
    fs::create_directories(Dir);
    writeFile((fs::path(Dir) / "seg-000001.log").string(), Mutated);
    StensoStore::Options O;
    O.Dir = Dir;
    StensoStore Store(O); // must not crash
    for (int I = 0; I < N; ++I) {
      auto V = Store.get(KeyOf(I));
      if (V.has_value()) {
        EXPECT_EQ(*V, ValOf(I)) << What << " served wrong bytes for " << I;
      }
    }
    std::error_code EC;
    fs::remove_all(Dir, EC);
  };

  // Truncations at 13 evenly spaced points (including inside the header).
  for (int Frac = 0; Frac <= 12; ++Frac)
    Check(std::vector<uint8_t>(
              Good.begin(),
              Good.begin() + static_cast<long>(Good.size() * Frac / 12)),
          "truncation");
  // Single-bit flips marching through the file, every bit position.
  for (size_t Off = 0; Off < Good.size(); Off += 41) {
    std::vector<uint8_t> Mutated = Good;
    Mutated[Off] ^= static_cast<uint8_t>(1u << (Off % 8));
    Check(std::move(Mutated), "bit flip");
  }
}

//===----------------------------------------------------------------------===//
// Store-backed differential: parallel + store == sequential + no store
//===----------------------------------------------------------------------===//

/// Exercises the concurrent store surface (shard puts from driver
/// threads, async flushes on the search pool, the flush hook) under the
/// determinism contract: a jobs=4 search writing a cold store, and a
/// jobs=4 search reading it warm, must both produce the sequential
/// no-store result.  This is the case the TSan leg runs.
TEST(PersistDifferentialTest, StoreBackedParallelMatchesSequential) {
  dsl::InputDecls Decls = {
      {"P", dsl::TensorType{DType::Float64, Shape({3})}},
      {"Q", dsl::TensorType{DType::Float64, Shape({3})}}};
  auto Parsed = dsl::parseProgram("np.exp(np.log(P) - np.log(Q))", Decls);
  ASSERT_TRUE(Parsed) << Parsed.Error;

  auto ConfigAt = [](int Jobs, StensoStore *Store) {
    synth::SynthesisConfig C;
    C.CostModelName = "flops";
    C.TimeoutSeconds = 120;
    C.Jobs = Jobs;
    C.Store = Store;
    return C;
  };
  synth::SynthesisResult Baseline =
      synth::Synthesizer(ConfigAt(1, nullptr)).run(*Parsed.Prog);
  ASSERT_EQ(Baseline.Abort, synth::AbortReason::None);

  TempDir Tmp;
  StensoStore::Options O;
  O.Dir = Tmp.sub("differential.stenso-cache");
  O.FlushThreshold = 32; // small batches: more concurrent flush traffic
  {
    StensoStore Cold(O);
    synth::SynthesisResult Parallel =
        synth::Synthesizer(ConfigAt(4, &Cold)).run(*Parsed.Prog);
    EXPECT_EQ(Parallel.OptimizedSource, Baseline.OptimizedSource);
    EXPECT_EQ(Parallel.OptimizedCost, Baseline.OptimizedCost);
    EXPECT_EQ(Parallel.Abort, Baseline.Abort);
    EXPECT_GT(Parallel.Stats.StorePuts, 0);
  }
  {
    StensoStore Warm(O);
    synth::SynthesisResult Resumed =
        synth::Synthesizer(ConfigAt(4, &Warm)).run(*Parsed.Prog);
    EXPECT_EQ(Resumed.OptimizedSource, Baseline.OptimizedSource);
    EXPECT_EQ(Resumed.OptimizedCost, Baseline.OptimizedCost);
    EXPECT_EQ(Resumed.Abort, Baseline.Abort);
    EXPECT_GT(Resumed.Stats.StoreHits, 0);
  }
}

//===----------------------------------------------------------------------===//
// End-to-end crash safety: SIGKILL a child stenso-opt, resume, compare
//===----------------------------------------------------------------------===//

namespace {

struct OptRun {
  bool Signaled = false;
  int ExitCode = -1;
  std::string Stdout;   // the optimized program
  std::string StatsJson;
};

/// Runs `stenso-opt --program diag_dot --cost_estimator flops` as a child
/// process.  KillAfterMs >= 0 SIGKILLs the child after that delay (if it
/// is still running).  Never throws; failures surface as EXPECT failures
/// plus a defaulted OptRun.
OptRun runOpt(const TempDir &Tmp, const std::string &StoreDir, int Jobs,
              int KillAfterMs, int Tag) {
  std::string Base = "run-" + std::to_string(Tag);
  std::string OutPath = Tmp.sub(Base + ".out");
  std::string ErrPath = Tmp.sub(Base + ".err");
  std::string JsonPath = Tmp.sub(Base + ".json");

  std::vector<std::string> Args = {
      STENSO_OPT_BINARY, "--program",        STENSO_DIAG_DOT_PROGRAM,
      "--cost_estimator", "flops",           "--timeout",
      "300",              "--jobs",          std::to_string(Jobs),
      "--stats-json",     JsonPath};
  if (StoreDir.empty())
    Args.push_back("--no-store");
  else {
    Args.push_back("--store");
    Args.push_back(StoreDir);
  }

  pid_t Pid = fork();
  if (Pid == 0) {
    int OutFd = open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int ErrFd = open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    dup2(OutFd, STDOUT_FILENO);
    dup2(ErrFd, STDERR_FILENO);
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    execv(Argv[0], Argv.data());
    _exit(127);
  }
  OptRun Run;
  if (Pid < 0) {
    ADD_FAILURE() << "fork failed";
    return Run;
  }

  int Status = 0;
  if (KillAfterMs >= 0) {
    // Poll so a child that finishes early is reaped without a kill.
    int Waited = 0;
    while (Waited < KillAfterMs) {
      if (waitpid(Pid, &Status, WNOHANG) == Pid) {
        Run.Signaled = WIFSIGNALED(Status);
        Run.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
        Run.Stdout = std::string(
            reinterpret_cast<const char *>(readFile(OutPath).data()),
            readFile(OutPath).size());
        Run.StatsJson = std::string(
            reinterpret_cast<const char *>(readFile(JsonPath).data()),
            readFile(JsonPath).size());
        return Run;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      Waited += 10;
    }
    kill(Pid, SIGKILL);
  }
  waitpid(Pid, &Status, 0);
  Run.Signaled = WIFSIGNALED(Status);
  Run.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  std::vector<uint8_t> Out = readFile(OutPath);
  Run.Stdout = std::string(reinterpret_cast<const char *>(Out.data()),
                           Out.size());
  std::vector<uint8_t> Json = readFile(JsonPath);
  Run.StatsJson = std::string(reinterpret_cast<const char *>(Json.data()),
                              Json.size());
  return Run;
}

/// Extracts `"name": value` (up to the next ',' or '\n') from stats JSON.
std::string jsonField(const std::string &Json, const std::string &Name) {
  std::string Needle = "\"" + Name + "\": ";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return "<missing>";
  At += Needle.size();
  size_t End = Json.find_first_of(",\n", At);
  return Json.substr(At, End - At);
}

/// Asserts two completed runs are bit-identical in result terms.  The
/// solver-call count is part of the contract only at jobs=1: with
/// workers, branch-and-bound explores a schedule-dependent node set (the
/// *result* is still deterministic — DESIGN.md §8).
void expectSameResult(const OptRun &A, const OptRun &B, int Jobs,
                      const char *What) {
  EXPECT_EQ(A.Stdout, B.Stdout) << What << ": program differs";
  EXPECT_EQ(jsonField(A.StatsJson, "optimized_cost"),
            jsonField(B.StatsJson, "optimized_cost"))
      << What << ": cost differs";
  EXPECT_EQ(jsonField(A.StatsJson, "abort"), jsonField(B.StatsJson, "abort"))
      << What << ": abort reason differs";
  if (Jobs == 1) {
    EXPECT_EQ(jsonField(A.StatsJson, "solver_calls"),
              jsonField(B.StatsJson, "solver_calls"))
        << What << ": solver call count differs";
  }
}

void runKillResumeAt(int Jobs) {
  TempDir Tmp;
  // Reference: an uninterrupted run with no store at all.
  OptRun Reference = runOpt(Tmp, "", Jobs, /*KillAfterMs=*/-1, 0);
  ASSERT_EQ(Reference.ExitCode, 0);
  ASSERT_EQ(jsonField(Reference.StatsJson, "abort"), "\"None\"");

  // Cold store run: same result, store populated.
  std::string ColdDir = Tmp.sub("cold.stenso-cache");
  OptRun Cold = runOpt(Tmp, ColdDir, Jobs, -1, 1);
  ASSERT_EQ(Cold.ExitCode, 0);
  expectSameResult(Reference, Cold, Jobs, "cold-vs-nostore");

  // Warm rerun on the populated store: same result again, served warm.
  OptRun Warm = runOpt(Tmp, ColdDir, Jobs, -1, 2);
  ASSERT_EQ(Warm.ExitCode, 0);
  expectSameResult(Reference, Warm, Jobs, "warm-vs-nostore");
  EXPECT_NE(jsonField(Warm.StatsJson, "store_hits"), "0");

  // Kill-at-seeded-random-points, then resume to completion.  The store
  // accumulates across kills — exactly the crash-loop a user would hit.
  std::mt19937 Rng(0x5EED0000u + static_cast<unsigned>(Jobs));
  std::uniform_int_distribution<int> KillMs(150, 2500);
  std::string KillDir = Tmp.sub("kill.stenso-cache");
  for (int Attempt = 0; Attempt < 2; ++Attempt) {
    OptRun Killed = runOpt(Tmp, KillDir, Jobs, KillMs(Rng), 10 + Attempt);
    if (!Killed.Signaled && Killed.ExitCode == 0) {
      // The child out-raced the kill: already a completed run.
      expectSameResult(Reference, Killed, Jobs, "early-finish-vs-nostore");
      break;
    }
    EXPECT_TRUE(Killed.Signaled);
  }
  OptRun Resumed = runOpt(Tmp, KillDir, Jobs, -1, 20);
  ASSERT_EQ(Resumed.ExitCode, 0);
  expectSameResult(Reference, Resumed, Jobs, "kill-resume-vs-nostore");
}

} // namespace

TEST(PersistCrashTest, KillResumeConvergesSequential) { runKillResumeAt(1); }

TEST(PersistCrashTest, KillResumeConvergesParallel) { runKillResumeAt(4); }
