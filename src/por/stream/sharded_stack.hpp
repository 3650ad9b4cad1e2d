// por/stream/sharded_stack.hpp
//
// Sharded, memory-mapped view-stack store (DESIGN.md §14) — the one
// on-disk view stack, sized for paper-scale runs (7,917 Sindbis views
// at 331² ≈ 6.9 GB of f64 pixels; 4,422 reovirus views at 511²).
//
// A sharded stack is a manifest file plus fixed-population shard
// files (`<base>` + `<base>.s0000`, `<base>.s0001`, ...), format
// version 2:
//
//   manifest "PORV": magic | u32 version | u64 count, ny, nx,
//                    views_per_shard, shard_count | u32 crc(fields)
//   shard    "PORH": magic | u32 version | u64 first_view, view_count,
//                    ny, nx | u32 crc32[view_count] | u32 header_crc |
//                    pad to 8 | view payloads, ny*nx f64 each
//
// Payloads are raw, so view i of a shard sits at the fixed offset
// align8(header) + i*ny*nx*8 and is seekable without touching its
// neighbours; its own CRC-32 catches any torn or bit-flipped byte on
// read.  No other format uses the "PORV" magic, so a density map or a
// stray file of another kind fails on the magic, not deeper in.
// Corrupt-input policy follows the PR 5 taxonomy: malformed bytes are
// resilience::Error{kCorrupt}; with
// ShardedStackOptions::quarantine_corrupt the reader degrades
// per-shard/per-view instead — the bad view arrives NaN-filled (the
// refiner's quarantine gate then excludes it) and the run survives.
//
// The reader keeps at most `max_resident_bytes` of shard mappings
// resident (LRU), mapping shards on demand via ShardMapping (mmap with
// a read() fallback; both paths are bitwise identical).  Obs:
// stream.shards_mapped / stream.bytes_mapped / stream.resident_bytes /
// stream.shards_quarantined / stream.views_quarantined.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "por/em/grid.hpp"
#include "por/stream/shard_mapping.hpp"

namespace por::stream {

struct ShardedStackOptions {
  /// Views per shard file (the last shard may be short).
  std::size_t views_per_shard = 64;
  /// Reader: mmap shards (true) or read() them into heap buffers
  /// (false).  Identical bytes either way — tests assert it.
  bool use_mmap = true;
  /// Reader: unmap least-recently-used shards beyond this budget
  /// (0 = keep everything resident).
  std::size_t max_resident_bytes = 0;
  /// Reader: a corrupt shard/view is quarantined (NaN-filled pixels,
  /// read_view returns false) instead of throwing, so one bad shard
  /// costs its views, not the run.
  bool quarantine_corrupt = false;
};

/// Incremental writer: append views one at a time, then finish().
/// Shards and the manifest are written with atomic (temp+fsync+rename)
/// replacement, so a crash mid-write never leaves a half shard a
/// reader would trust — and no complete manifest without its shards.
class ShardedStackWriter {
 public:
  ShardedStackWriter(std::string base, std::size_t ny, std::size_t nx,
                     const ShardedStackOptions& options = {});
  ~ShardedStackWriter();
  ShardedStackWriter(const ShardedStackWriter&) = delete;
  ShardedStackWriter& operator=(const ShardedStackWriter&) = delete;

  /// Append one ny*nx row-major view.
  void append(const double* pixels);
  void append(const em::Image<double>& view);

  /// Flush the tail shard and write the manifest.  Idempotent; must be
  /// called for the stack to be readable (the destructor does NOT
  /// finish a stack implicitly — an abandoned writer leaves no
  /// manifest, which is exactly the crash story).
  void finish();

  [[nodiscard]] std::uint64_t appended() const { return appended_; }

 private:
  void flush_shard();

  std::string base_;
  ShardedStackOptions options_;
  std::size_t ny_ = 0, nx_ = 0;
  std::uint64_t appended_ = 0;
  std::size_t shards_written_ = 0;
  std::vector<double> pending_;  ///< pixels of the open shard
  bool finished_ = false;
};

/// One-shot writer for an in-memory stack.
void write_sharded_stack(const std::string& base,
                         const std::vector<em::Image<double>>& views,
                         const ShardedStackOptions& options = {});

/// Path of shard `k` of the stack rooted at `base`.
[[nodiscard]] std::string shard_path(const std::string& base, std::size_t k);

/// Random-access reader.  Thread-safe: concurrent read_view calls are
/// serialized internally (shard I/O is the bottleneck, not the lock).
class ShardedStack {
 public:
  explicit ShardedStack(const std::string& base,
                        const ShardedStackOptions& options = {});

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::size_t ny() const { return ny_; }
  [[nodiscard]] std::size_t nx() const { return nx_; }
  [[nodiscard]] std::size_t view_pixels() const { return ny_ * nx_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t views_per_shard() const {
    return views_per_shard_;
  }
  [[nodiscard]] const std::string& base() const { return base_; }

  /// Copy view `index` (ny*nx doubles, row-major) into `dst`.  Returns
  /// true on success; false when the view was quarantined (pixels are
  /// NaN-filled so downstream finiteness gates catch any missed check).
  /// Without quarantine_corrupt a corrupt view/shard throws
  /// resilience::Error{kCorrupt} instead.
  bool read_view(std::uint64_t index, double* dst);

  /// Views [first, first + n) as Images (throws std::out_of_range
  /// beyond count()).
  [[nodiscard]] std::vector<em::Image<double>> read_range(std::uint64_t first,
                                                          std::size_t n);

  /// madvise(WILLNEED) the payload window of views [first, first + n)
  /// — the master calls this before fetching a block it will ship.
  void will_need(std::uint64_t first, std::size_t n);

  // ---- accounting ---------------------------------------------------------
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] std::size_t resident_shards() const;
  [[nodiscard]] std::uint64_t quarantined_shards() const;
  [[nodiscard]] std::uint64_t quarantined_views() const;

 private:
  struct Shard {
    std::uint64_t first = 0;
    std::uint64_t views = 0;
    ShardMapping map;                ///< empty until opened
    bool open = false;
    bool quarantined = false;
  };

  /// Ensure shard `k` is mapped and validated; returns nullptr when
  /// the shard is quarantined (only possible with quarantine_corrupt).
  Shard* ensure_open(std::size_t k);
  /// Throws kCorrupt unless the mapped shard's header matches the
  /// manifest, its CRC holds and the file holds every payload.
  void validate_shard(const Shard& shard) const;
  void evict_to_budget(std::size_t keep);
  void touch_lru(std::size_t k);
  void quarantine_shard(std::size_t k, Shard& shard,
                        const std::string& why);

  std::string base_;
  ShardedStackOptions options_;
  std::uint64_t count_ = 0;
  std::size_t ny_ = 0, nx_ = 0;
  std::size_t views_per_shard_ = 0;

  mutable std::mutex mutex_;
  std::vector<Shard> shards_;
  std::list<std::size_t> lru_;  ///< open shards, front = most recent
  std::size_t resident_bytes_ = 0;
  std::uint64_t quarantined_shards_ = 0;
  std::uint64_t quarantined_views_ = 0;
};

}  // namespace por::stream
