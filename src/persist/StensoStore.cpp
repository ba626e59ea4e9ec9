//===- StensoStore.cpp - Crash-safe content-addressed on-disk store --------==//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "persist/StensoStore.h"

#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "persist/XXHash.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

using namespace stenso;
using namespace stenso::persist;

namespace fs = std::filesystem;

namespace {

/// "STSO" little-endian.
constexpr uint32_t SegmentMagic = 0x4F535453u;
constexpr size_t HeaderBytes = 8;
/// A single cache record never legitimately reaches this size; a length
/// field past it is corruption, not data.
constexpr uint32_t MaxRecordLen = 1u << 26;

uint32_t readU32At(const std::vector<uint8_t> &B, size_t Off) {
  uint32_t V;
  std::memcpy(&V, B.data() + Off, 4);
  return V;
}

uint64_t readU64At(const std::vector<uint8_t> &B, size_t Off) {
  uint64_t V;
  std::memcpy(&V, B.data() + Off, 8);
  return V;
}

void appendU32(std::vector<uint8_t> &B, uint32_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  B.insert(B.end(), P, P + 4);
}

void appendU64(std::vector<uint8_t> &B, uint64_t V) {
  const uint8_t *P = reinterpret_cast<const uint8_t *>(&V);
  B.insert(B.end(), P, P + 8);
}

/// `[keyLen][valLen][key][val][xxh64 of the preceding bytes]`.
void appendRecord(std::vector<uint8_t> &Out, const std::vector<uint8_t> &Key,
                  const std::vector<uint8_t> &Val) {
  size_t Start = Out.size();
  appendU32(Out, static_cast<uint32_t>(Key.size()));
  appendU32(Out, static_cast<uint32_t>(Val.size()));
  Out.insert(Out.end(), Key.begin(), Key.end());
  Out.insert(Out.end(), Val.begin(), Val.end());
  appendU64(Out, xxhash64(Out.data() + Start, Out.size() - Start));
}

std::string segmentName(uint64_t N) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "seg-%06llu.log",
                static_cast<unsigned long long>(N));
  return Buf;
}

/// seg-NNNNNN.log -> NNNNNN, or nullopt for anything else.
std::optional<uint64_t> segmentIndex(const std::string &Name) {
  if (Name.size() != 14 || Name.rfind("seg-", 0) != 0 ||
      Name.compare(10, 4, ".log") != 0)
    return std::nullopt;
  uint64_t N = 0;
  for (size_t I = 4; I < 10; ++I) {
    if (Name[I] < '0' || Name[I] > '9')
      return std::nullopt;
    N = N * 10 + static_cast<uint64_t>(Name[I] - '0');
  }
  return N;
}

/// fsync a directory so a just-renamed entry survives power loss.
void fsyncDir(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Open + recovery
//===----------------------------------------------------------------------===//

StensoStore::StensoStore(Options O) : Opts(std::move(O)) {
  STENSO_TRACE_SPAN("store", "open");
  std::error_code EC;
  fs::create_directories(Opts.Dir, EC);
  if (EC || !fs::is_directory(Opts.Dir, EC)) {
    diagnoseOnce("directory unusable, running in-memory only", Opts.Dir);
    ReadOnlyMode = Opts.ReadOnly;
    return;
  }
  DiskUsable = true;
  recover();

  // Probe writability once: the store either appends for the whole run or
  // serves read-only for the whole run, with one up-front diagnostic.
  if (Opts.ReadOnly) {
    ReadOnlyMode = true;
  } else {
    std::string Probe = Opts.Dir + "/.write-probe.tmp";
    std::FILE *F = std::fopen(Probe.c_str(), "wb");
    if (!F) {
      ReadOnlyMode = true;
      diagnoseOnce("directory not writable, serving read-only", Opts.Dir);
    } else {
      std::fclose(F);
      std::remove(Probe.c_str());
    }
  }
}

StensoStore::~StensoStore() {
  // A detached async executor may already be gone; final flush runs
  // inline.  setAsyncExecutor(nullptr) before destroying the pool is part
  // of the usage contract.
  setAsyncExecutor(nullptr);
  flush();
}

void StensoStore::recover() {
  std::vector<std::pair<uint64_t, std::string>> Segments;
  std::error_code EC;
  for (const auto &DE : fs::directory_iterator(Opts.Dir, EC)) {
    std::string Name = DE.path().filename().string();
    // Tmp files are crash artifacts of never-committed segments: a rename
    // that did not happen.  They contain nothing the index may use.
    if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".tmp") == 0) {
      std::error_code RmEC;
      fs::remove(DE.path(), RmEC);
      continue;
    }
    if (std::optional<uint64_t> N = segmentIndex(Name))
      Segments.emplace_back(*N, DE.path().string());
  }
  // Scan in commit order so a key rewritten in a later segment wins.
  std::sort(Segments.begin(), Segments.end());
  for (const auto &[N, Path] : Segments) {
    NextSegment = std::max(NextSegment, N + 1);
    recoverSegment(Path);
  }

  observe::MetricsRegistry &MR = observe::MetricsRegistry::global();
  std::lock_guard<std::mutex> Lock(StatsMutex);
  MR.counter("store.open.segments_scanned").add(S.SegmentsScanned);
  MR.counter("store.open.records_recovered").add(S.RecordsRecovered);
  MR.counter("store.open.torn_bytes_truncated").add(S.TornBytesTruncated);
  MR.counter("store.open.corrupt_records").add(S.CorruptRecords);
  MR.counter("store.open.segments_quarantined").add(S.SegmentsQuarantined);
  MR.counter("store.open.version_skipped").add(S.VersionSkipped);
}

bool StensoStore::recoverSegment(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.SegmentsScanned;
  }

  std::vector<uint8_t> Bytes;
  {
    std::ifstream In(Path, std::ios::binary | std::ios::ate);
    bool ReadFault =
        FaultInjector::instance().fireWithMode(FaultSite::StoreRead)
            .has_value();
    if (!In || ReadFault) {
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++S.ReadFaults;
      }
      diagnoseOnce("segment unreadable, skipping", Path);
      return false;
    }
    std::streamoff Size = In.tellg();
    In.seekg(0);
    Bytes.resize(static_cast<size_t>(Size));
    if (Size > 0 && !In.read(reinterpret_cast<char *>(Bytes.data()), Size)) {
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++S.ReadFaults;
      }
      diagnoseOnce("segment unreadable, skipping", Path);
      return false;
    }
  }
  DiskBytes.fetch_add(static_cast<int64_t>(Bytes.size()),
                      std::memory_order_relaxed);

  // Headers are committed atomically (tmp + rename), so a header that is
  // short or has the wrong magic was damaged after commit: quarantine the
  // whole file.  A wrong *version* is healthy data from another build —
  // leave it alone and read none of it.
  if (Bytes.size() < HeaderBytes || readU32At(Bytes, 0) != SegmentMagic) {
    quarantineTail(Path, Bytes, 0);
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.SegmentsQuarantined;
    return false;
  }
  if (readU32At(Bytes, 4) != FormatVersion) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++S.VersionSkipped;
    }
    diagnoseOnce("segment has foreign format version, starting cold", Path);
    return false;
  }

  size_t Off = HeaderBytes;
  int64_t Recovered = 0;
  while (Off < Bytes.size()) {
    size_t Remaining = Bytes.size() - Off;
    // Complete-record length if the length fields are readable and sane.
    bool Torn = Remaining < 8;
    size_t Need = 0;
    if (!Torn) {
      uint32_t KeyLen = readU32At(Bytes, Off);
      uint32_t ValLen = readU32At(Bytes, Off + 4);
      if (KeyLen == 0 || KeyLen > MaxRecordLen || ValLen > MaxRecordLen) {
        // Insane lengths: damage inside a committed record, not a torn
        // append.  Quarantine the rest of the segment.
        quarantineTail(Path, Bytes, Off);
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++S.CorruptRecords;
        break;
      }
      Need = 8 + static_cast<size_t>(KeyLen) + ValLen + 8;
      Torn = Remaining < Need;
    }
    if (Torn) {
      // The expected SIGKILL artifact: an append that never finished.
      // Truncate it away; everything before it is intact.
      std::error_code EC;
      if (!Opts.ReadOnly)
        fs::resize_file(Path, Off, EC);
      std::lock_guard<std::mutex> Lock(StatsMutex);
      S.TornBytesTruncated += static_cast<int64_t>(Remaining);
      break;
    }
    uint64_t Stored = readU64At(Bytes, Off + Need - 8);
    if (xxhash64(Bytes.data() + Off, Need - 8) != Stored) {
      quarantineTail(Path, Bytes, Off);
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++S.CorruptRecords;
      break;
    }
    uint32_t KeyLen = readU32At(Bytes, Off);
    uint32_t ValLen = readU32At(Bytes, Off + 4);
    std::vector<uint8_t> Key(Bytes.begin() + Off + 8,
                             Bytes.begin() + Off + 8 + KeyLen);
    std::vector<uint8_t> Val(Bytes.begin() + Off + 8 + KeyLen,
                             Bytes.begin() + Off + 8 + KeyLen + ValLen);
    {
      std::lock_guard<std::mutex> Lock(StateMutex);
      insertLocked(std::move(Key), std::move(Val));
    }
    ++Recovered;
    Off += Need;
  }
  std::lock_guard<std::mutex> Lock(StatsMutex);
  S.RecordsRecovered += Recovered;
  return true;
}

void StensoStore::quarantineTail(const std::string &Path,
                                 const std::vector<uint8_t> &Bytes,
                                 size_t Offset) {
  diagnoseOnce("corrupt record, quarantining segment tail", Path);
  if (Opts.ReadOnly)
    return;
  std::error_code EC;
  fs::create_directories(Opts.Dir + "/quarantine", EC);
  std::string QPath = Opts.Dir + "/quarantine/" +
                      fs::path(Path).filename().string() + "." +
                      std::to_string(Offset) + ".bad";
  {
    std::ofstream Out(QPath, std::ios::binary | std::ios::trunc);
    if (Out && Offset < Bytes.size())
      Out.write(reinterpret_cast<const char *>(Bytes.data() + Offset),
                static_cast<std::streamsize>(Bytes.size() - Offset));
  }
  // Offset 0 means the header itself is damaged: remove the file so the
  // next open does not rescan known-bad bytes.
  if (Offset == 0)
    fs::remove(Path, EC);
  else
    fs::resize_file(Path, Offset, EC);
}

//===----------------------------------------------------------------------===//
// Lookup + write-behind
//===----------------------------------------------------------------------===//

void StensoStore::insertLocked(std::vector<uint8_t> Key,
                               std::vector<uint8_t> Value) {
  uint64_t H = xxhash64(Key.data(), Key.size());
  std::vector<Entry> &Bucket = Index[H];
  for (Entry &E : Bucket)
    if (E.Key == Key) {
      E.Value = std::move(Value);
      return;
    }
  Bucket.push_back(Entry{std::move(Key), std::move(Value)});
}

std::optional<std::vector<uint8_t>>
StensoStore::get(const std::vector<uint8_t> &Key) {
  std::optional<FaultMode> Fault =
      FaultInjector::instance().fireWithMode(FaultSite::StoreRead);
  if (Fault) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.ReadFaults;
  }
  if (Fault == FaultMode::Fail) {
    // A failed read is a miss: the caller recomputes, nothing breaks.
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.Misses;
    return std::nullopt;
  }

  std::optional<std::vector<uint8_t>> Result;
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    uint64_t H = xxhash64(Key.data(), Key.size());
    auto It = Index.find(H);
    if (It != Index.end())
      for (const Entry &E : It->second)
        if (E.Key == Key) {
          Result = E.Value;
          break;
        }
  }
  if (Result && Fault == FaultMode::BitFlip && !Result->empty())
    // Damage the payload after lookup: exercises the caller's decode +
    // re-verification gates, which must turn this into a miss downstream.
    (*Result)[Result->size() / 2] ^= 0x10;
  if (Result && Fault == FaultMode::ShortWrite)
    Result->resize(Result->size() / 2);

  std::lock_guard<std::mutex> Lock(StatsMutex);
  if (Result)
    ++S.Hits;
  else
    ++S.Misses;
  observe::MetricsRegistry::global()
      .counter(Result ? "store.hits" : "store.misses")
      .add(1);
  return Result;
}

void StensoStore::put(std::vector<uint8_t> Key, std::vector<uint8_t> Value) {
  if (Key.empty())
    return;
  bool InlineFlush = false;
  Executor Schedule;
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    insertLocked(Key, Value);
    if (ReadOnlyMode || !DiskUsable ||
        Degraded.load(std::memory_order_relaxed))
      Key.clear();
    else
      Pending.push_back(Entry{std::move(Key), std::move(Value)});
    if (!Pending.empty() && Pending.size() >= Opts.FlushThreshold) {
      if (Async) {
        if (!FlushScheduled) {
          FlushScheduled = true;
          Schedule = Async;
        }
      } else {
        InlineFlush = true;
      }
    }
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.Puts;
  }
  observe::MetricsRegistry::global().counter("store.puts").add(1);
  if (Schedule)
    Schedule([this] { flush(); });
  else if (InlineFlush)
    flush();
}

void StensoStore::flush() {
  std::lock_guard<std::mutex> FlushLock(FlushMutex);
  STENSO_TRACE_SPAN("store", "flush");

  std::vector<Entry> Batch;
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    FlushScheduled = false;
    Batch.swap(Pending);
  }
  if (ReadOnlyMode || !DiskUsable ||
      Degraded.load(std::memory_order_relaxed) || Batch.empty())
    return;

  std::vector<uint8_t> Buf;
  for (const Entry &E : Batch)
    appendRecord(Buf, E.Key, E.Value);

  if (appendDurable(Buf)) {
    ConsecutiveFlushFailures = 0;
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.Flushes;
    observe::MetricsRegistry::global().counter("store.flushes").add(1);
    return;
  }

  // The records stay served from memory; only durability degrades.
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++S.FlushFailures;
    observe::MetricsRegistry::global().counter("store.flush_failures").add(1);
  }
  if (++ConsecutiveFlushFailures >= Opts.MaxFlushFailures &&
      !Degraded.exchange(true, std::memory_order_relaxed)) {
    diagnoseOnce("repeated write failures, degrading to in-memory only",
                 Opts.Dir);
    observe::MetricsRegistry::global().counter("store.degraded").add(1);
    STENSO_TRACE_INSTANT("store", "degraded");
  }
}

bool StensoStore::appendDurable(const std::vector<uint8_t> &Bytes) {
  for (int Attempt = 0; Attempt < Opts.WriteRetries; ++Attempt) {
    if (Attempt > 0) {
      {
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++S.WriteRetriesUsed;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << Attempt));
    }

    // Roll / create the active segment.  The header commit is atomic:
    // write a tmp file, fsync it, rename into place, fsync the directory.
    if (ActivePath.empty() ||
        ActiveBytes + Bytes.size() > Opts.MaxSegmentBytes) {
      std::string Name = segmentName(NextSegment);
      std::string Tmp = Opts.Dir + "/" + Name + ".tmp";
      std::string Final = Opts.Dir + "/" + Name;
      std::FILE *F = std::fopen(Tmp.c_str(), "wb");
      if (!F)
        continue;
      uint32_t Header[2] = {SegmentMagic, FormatVersion};
      bool Ok = std::fwrite(Header, 1, sizeof(Header), F) == sizeof(Header) &&
                std::fflush(F) == 0 && ::fsync(::fileno(F)) == 0;
      std::fclose(F);
      if (!Ok || std::rename(Tmp.c_str(), Final.c_str()) != 0) {
        std::remove(Tmp.c_str());
        continue;
      }
      fsyncDir(Opts.Dir);
      ++NextSegment;
      ActivePath = Final;
      ActiveBytes = HeaderBytes;
      DiskBytes.fetch_add(HeaderBytes, std::memory_order_relaxed);
    }

    const std::vector<uint8_t> *Payload = &Bytes;
    std::vector<uint8_t> Mutated;
    size_t WriteLen = Bytes.size();
    if (std::optional<FaultMode> Fault =
            FaultInjector::instance().fireWithMode(FaultSite::StoreWrite)) {
      if (*Fault == FaultMode::Fail)
        continue;
      if (*Fault == FaultMode::ShortWrite) {
        // Persist only a prefix and report success — the deliberate torn
        // tail the recovery pass must later truncate.
        WriteLen = Bytes.size() / 2;
      } else if (*Fault == FaultMode::BitFlip) {
        Mutated = Bytes;
        Mutated[Mutated.size() / 2] ^= 0x04;
        Payload = &Mutated;
      }
    }

    std::FILE *F = std::fopen(ActivePath.c_str(), "ab");
    if (!F)
      continue;
    bool Ok = std::fwrite(Payload->data(), 1, WriteLen, F) == WriteLen &&
              std::fflush(F) == 0;
    if (Ok) {
      bool FsyncFault = FaultInjector::instance()
                            .fireWithMode(FaultSite::StoreFsync)
                            .has_value();
      Ok = !FsyncFault && ::fsync(::fileno(F)) == 0;
    }
    std::fclose(F);
    if (!Ok)
      continue;
    ActiveBytes += WriteLen;
    DiskBytes.fetch_add(static_cast<int64_t>(WriteLen),
                        std::memory_order_relaxed);
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Wiring + introspection
//===----------------------------------------------------------------------===//

void StensoStore::setAsyncExecutor(Executor E) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  Async = std::move(E);
}

StensoStore::Stats StensoStore::stats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return S;
}

size_t StensoStore::size() const {
  std::lock_guard<std::mutex> Lock(StateMutex);
  size_t N = 0;
  for (const auto &[H, Bucket] : Index)
    N += Bucket.size();
  return N;
}

void StensoStore::diagnoseOnce(const char *What, const std::string &Detail) {
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    if (!EmittedDiagnostics.insert(What).second)
      return;
  }
  std::fprintf(stderr, "stenso-store: %s (%s)\n", What, Detail.c_str());
}
