//===- StensoStore.h - Crash-safe content-addressed on-disk store -*- C++ -*-=//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A crash-safe, content-addressed key/value store backing the synthesis
/// caches across process restarts (ROADMAP item 1: warm requests must
/// survive a daemon restart).  Design (DESIGN.md §11):
///
///   * Append-only segment logs (`seg-NNNNNN.log`) under one directory.
///     Every record is `[keyLen][valLen][key][val][xxh64]`; the segment
///     starts with a magic + format-version header.  New segments are
///     created via tmp-file + atomic rename, so a half-created segment is
///     never scanned; record batches are appended + fsync'd, so the only
///     crash artifact is a *torn tail*.
///
///   * Recovery pass on open: every segment is scanned front to back;
///     a torn tail (incomplete trailing record — the expected SIGKILL
///     artifact) is truncated; a checksum-mismatched record (bit rot)
///     quarantines the rest of its segment into `quarantine/` and
///     truncates; a version-mismatched or unreadable segment is skipped
///     wholesale.  Every degradation path lands on a *smaller* — possibly
///     empty — cache, never a wrong record and never a crash.
///
///   * Lookups are served from an in-memory index built at open (the
///     store is a cache of microsecond-latency warm answers, not a paging
///     database).  A hit returns the stored bytes only when the *full*
///     key bytes match — the 64-bit address hash alone is never trusted,
///     so hash collisions cannot alias two queries.
///
///   * Writes are write-behind: put() enqueues; batches are flushed off
///     the hot path (through a caller-attached executor, e.g. the search
///     ThreadPool) or inline at a batch threshold.  Transient write
///     failures retry with backoff; repeated failures latch the store
///     into degraded in-memory-only mode with a one-line diagnostic —
///     the process keeps its in-memory cache and keeps working.
///
/// Fault injection: the `store-write`, `store-read`, and `store-fsync`
/// STENSO_FAULT sites fire inside this class, with `short` (partial
/// write / torn tail) and `flip` (single bit flip) modes on top of the
/// default hard failure — see support/FaultInjection.h.
///
//===----------------------------------------------------------------------===//

#ifndef STENSO_PERSIST_STENSOSTORE_H
#define STENSO_PERSIST_STENSOSTORE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace stenso {
namespace persist {

/// Thread-safe persistent key/value cache with crash recovery.
class StensoStore {
public:
  /// Bumped whenever the record or value encoding changes shape; a store
  /// written by any other version reads as empty (cold), never as data.
  static constexpr uint32_t FormatVersion = 1;

  struct Options {
    std::string Dir;
    /// Never write, even if the directory is writable.
    bool ReadOnly = false;
    /// Pending puts that trigger a write-behind flush.
    size_t FlushThreshold = 128;
    /// Active segment size that triggers rolling to a new segment.
    size_t MaxSegmentBytes = 64u << 20;
    /// Write attempts per batch before counting a flush failure.
    int WriteRetries = 3;
    /// Consecutive failed flushes before latching degraded mode.
    int MaxFlushFailures = 3;
  };

  /// Counters describing the recovery pass and steady-state traffic.
  struct Stats {
    int64_t SegmentsScanned = 0;
    int64_t RecordsRecovered = 0;
    int64_t TornBytesTruncated = 0;
    int64_t CorruptRecords = 0;
    int64_t SegmentsQuarantined = 0;
    int64_t VersionSkipped = 0;
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t Puts = 0;
    int64_t Flushes = 0;
    int64_t FlushFailures = 0;
    int64_t WriteRetriesUsed = 0;
    int64_t ReadFaults = 0;
  };

  /// Opens (creating if needed) the store at \p O.Dir and runs recovery.
  /// Construction never fails hard: an unusable directory yields a
  /// memory-only store, a read-only one a read-only store, each with a
  /// single-line stderr diagnostic.
  explicit StensoStore(Options O);
  ~StensoStore();
  StensoStore(const StensoStore &) = delete;
  StensoStore &operator=(const StensoStore &) = delete;

  /// True when the directory was usable at open (reads may hit disk data).
  bool onDisk() const { return DiskUsable; }
  /// True when writes are disabled (read-only dir or --read-only).
  bool readOnly() const { return ReadOnlyMode; }
  /// True once repeated write failures latched in-memory-only mode.
  bool degraded() const { return Degraded.load(std::memory_order_relaxed); }

  /// Looks \p Key up; serves from memory.  Full-key comparison — a hash
  /// collision is a miss, not an aliased hit.
  std::optional<std::vector<uint8_t>> get(const std::vector<uint8_t> &Key);

  /// Enqueues \p Key -> \p Value.  Visible to get() immediately;
  /// persisted at the next flush.  May trigger a write-behind flush when
  /// the pending batch reaches the threshold.
  void put(std::vector<uint8_t> Key, std::vector<uint8_t> Value);

  /// Synchronously persists all pending records (no-op when read-only,
  /// degraded, or memory-only).  Safe to call from any thread.
  void flush();

  /// Attaches / detaches (nullptr) an executor used to run threshold
  /// flushes off the caller's thread — e.g. ThreadPool::submit.  The
  /// executor must outlive the attachment; detach before destroying it.
  using Executor = std::function<void(std::function<void()>)>;
  void setAsyncExecutor(Executor E);

  Stats stats() const;
  const std::string &dir() const { return Opts.Dir; }
  /// Number of distinct keys currently resident (disk + pending).
  size_t size() const;
  /// Bytes across all scanned segment files at open + appended since.
  int64_t diskBytes() const { return DiskBytes.load(std::memory_order_relaxed); }

private:
  struct Entry {
    std::vector<uint8_t> Key;
    std::vector<uint8_t> Value;
  };

  void recover();
  /// Scans one segment file; returns false when the segment was skipped
  /// wholesale (unreadable / version mismatch).
  bool recoverSegment(const std::string &Path);
  void quarantineTail(const std::string &Path,
                      const std::vector<uint8_t> &Bytes, size_t Offset);
  void insertLocked(std::vector<uint8_t> Key, std::vector<uint8_t> Value);
  /// Appends \p Bytes to the active segment with retry/backoff; returns
  /// false after the retry budget is exhausted.
  bool appendDurable(const std::vector<uint8_t> &Bytes);
  void scheduleFlushLocked();
  void diagnoseOnce(const char *What, const std::string &Detail);

  Options Opts;
  bool DiskUsable = false;
  bool ReadOnlyMode = false;
  std::atomic<bool> Degraded{false};
  std::atomic<int64_t> DiskBytes{0};

  /// Guards Index, Pending, Async, FlushScheduled.
  mutable std::mutex StateMutex;
  std::unordered_map<uint64_t, std::vector<Entry>> Index;
  std::vector<Entry> Pending;
  bool FlushScheduled = false;

  /// Serializes flush bodies (one writer at a time); also the only lock
  /// under which ActivePath/ActiveBytes/NextSegment change after open.
  std::mutex FlushMutex;
  std::string ActivePath;
  size_t ActiveBytes = 0;
  uint64_t NextSegment = 1;
  Executor Async;
  int ConsecutiveFlushFailures = 0;

  mutable std::mutex StatsMutex;
  Stats S;
  /// One line per distinct condition, however often it recurs.
  std::set<std::string> EmittedDiagnostics;
};

} // namespace persist
} // namespace stenso

#endif // STENSO_PERSIST_STENSOSTORE_H
