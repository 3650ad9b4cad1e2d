// por/journal/journal.hpp
//
// por::journal — a CRC-tagged, fsync-disciplined write-ahead journal
// (DESIGN.md §15).  The durable substrate of crash-only serving: the
// RefineService appends every job-lifecycle transition here BEFORE
// acknowledging it, so a process killed at any instant — including
// mid-write, the chaos harness aims SIGKILL inside these very syscall
// sequences — restarts by replaying the journal and loses nothing it
// ever acknowledged.
//
// On-disk layout: a directory of segment files
//
//   <dir>/wal-00000001.porj
//   <dir>/wal-00000002.porj          <- active (append) segment
//
// each starting with a header (magic "PORJ" | u32 version | u64 seq)
// followed by length-prefixed records:
//
//   u32 payload_len | u32 type | payload bytes | u32 crc
//
// where the CRC-32 covers len, type and payload.  Appends go to the
// highest-seq segment; when it exceeds max_segment_bytes the writer
// fsyncs it and starts seq+1 (so every non-final segment is complete
// and fsync'd by construction).  A crash can therefore tear at most
// the TAIL of the FINAL segment; replay() proves each record intact
// via its CRC, keeps the longest valid prefix, and open() atomically
// rewrites a torn final segment down to that prefix (via the PR 5
// atomic_write_file machinery) so the journal is self-healing — it is
// never left unreadable, and a torn tail can never be misparsed as a
// record once appends resume.  A bad record in a NON-final segment
// cannot come from a crash and raises Error{kCorrupt} loudly.
//
// rewrite() is the compaction path: the full logical state is written
// as one fresh segment (atomic temp+fsync+rename), the directory entry
// is fsync'd, and only then are the old segments unlinked — a crash at
// any point leaves either the old segment set or the new one.
//
// Observability: journal.appends, journal.fsyncs, journal.segments
// (gauge), journal.replayed_records, journal.torn_tails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace por::obs {
class Counter;
class Gauge;
}  // namespace por::obs

namespace por::journal {

struct JournalOptions {
  /// Rotate the active segment once its size reaches this.
  std::size_t max_segment_bytes = 4u << 20;
};

/// One replayed record: the type tag and the raw payload bytes.
struct Record {
  std::uint32_t type = 0;
  std::string payload;
};

struct ReplayResult {
  std::vector<Record> records;   ///< every intact record, journal order
  std::uint64_t segments = 0;    ///< segment files scanned
  std::uint64_t torn_bytes = 0;  ///< bytes dropped from a torn final tail
};

class Journal {
 public:
  /// Open (creating the directory if needed), replay existing
  /// segments, self-heal a torn final tail, and position the writer.
  /// The replayed records are available via replayed() until the first
  /// append.  Throws resilience::Error{kCorrupt} for damage that
  /// cannot be a crash tail, kTransient for I/O failures.
  explicit Journal(std::string dir, JournalOptions options = {});
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Records recovered by the constructor's replay (journal order).
  [[nodiscard]] const ReplayResult& replayed() const { return replayed_; }
  /// Release the replay buffer once the owner has consumed it.
  void discard_replayed() { replayed_ = ReplayResult{}; }

  /// Append one record.  `durable` appends are fsync'd before
  /// returning — the caller may acknowledge the event to its client
  /// the moment this returns.  Appends with durable=false are flushed
  /// to the kernel (surviving a process kill) but not fsync'd (an OS
  /// crash may drop them); the service journals job SUBMISSION
  /// durably — that is the ack the client holds us to — and lifecycle
  /// transitions cheaply.
  /// Throws resilience::Error{kTransient} on I/O failure; the journal
  /// is still consistent (the torn tail will be healed on reopen).
  void append(std::uint32_t type, const void* payload, std::size_t bytes,
              bool durable = true);
  void append(std::uint32_t type, const std::string& payload,
              bool durable = true) {
    append(type, payload.data(), payload.size(), durable);
  }

  /// fsync the active segment now (flushes any non-durable appends).
  void sync();

  /// Compaction: atomically replace the whole journal with `records`
  /// as one fresh segment of the next sequence number, then unlink the
  /// retired segments.  Crash-safe at every step.
  void rewrite(const std::vector<Record>& records);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  /// Sequence number of the active segment.
  [[nodiscard]] std::uint64_t active_segment() const { return seq_; }

  /// Read-only replay of a journal directory (tools, tests, and the
  /// constructor).  Same tolerance/corruption rules as the class doc.
  [[nodiscard]] static ReplayResult replay_dir(const std::string& dir);

 private:
  void open_segment(std::uint64_t seq, bool truncate);
  void rotate();
  [[nodiscard]] std::string segment_path(std::uint64_t seq) const;

  std::string dir_;
  JournalOptions options_;
  ReplayResult replayed_;
  std::uint64_t seq_ = 0;           ///< active segment sequence
  std::size_t segment_bytes_ = 0;   ///< bytes written to the active segment
  std::ofstream out_;               ///< active segment stream
  bool dirty_ = false;              ///< unsynced appends outstanding

  obs::Counter* appends_;
  obs::Counter* fsyncs_;
  obs::Counter* replayed_records_;
  obs::Counter* torn_tails_;
  obs::Gauge* segments_gauge_;
};

}  // namespace por::journal
