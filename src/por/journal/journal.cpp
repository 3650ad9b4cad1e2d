#include "por/journal/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "por/obs/registry.hpp"
#include "por/resilience/atomic_file.hpp"
#include "por/resilience/crc32.hpp"
#include "por/resilience/error.hpp"
#include "por/resilience/sync_hooks.hpp"
#include "por/util/log.hpp"

namespace por::journal {

namespace fs = std::filesystem;
using resilience::SyncOp;
using resilience::sync_hook_point;

namespace {

constexpr char kMagic[4] = {'P', 'O', 'R', 'J'};
constexpr std::uint32_t kVersion = 1;
/// Header flag: this segment is a compaction snapshot and supersedes
/// every lower-sequence segment (rewrite() crash tolerance: a crash
/// between writing the snapshot and unlinking the old segments must
/// not replay records twice).
constexpr std::uint32_t kSnapshotFlag = 1;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;
/// A frame length beyond this cannot be a real record (the service
/// journals view payloads of at most a few MB); treating garbage
/// lengths as damage instead of allocating them is what keeps a
/// bit-flipped length from becoming a 4 GB allocation.
constexpr std::uint32_t kMaxPayloadBytes = 256u << 20;

constexpr const char* kPrefix = "wal-";
constexpr const char* kSuffix = ".porj";

void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof bytes);
}

std::string encode_header(std::uint64_t seq, std::uint32_t flags) {
  std::string header;
  header.reserve(kHeaderBytes);
  header.append(kMagic, sizeof kMagic);
  put_u32(header, kVersion);
  put_u64(header, seq);
  put_u32(header, flags);
  return header;
}

/// One encoded frame: len | type | payload | crc(len,type,payload).
std::string encode_frame(std::uint32_t type, const void* payload,
                         std::size_t bytes) {
  std::string frame;
  frame.reserve(12 + bytes + 4);
  put_u32(frame, static_cast<std::uint32_t>(bytes));
  put_u32(frame, type);
  frame.append(static_cast<const char*>(payload), bytes);
  put_u32(frame, resilience::crc32(frame.data(), frame.size()));
  return frame;
}

struct SegmentInfo {
  std::uint64_t seq = 0;
  std::string path;
  std::uint32_t flags = 0;
  std::vector<Record> records;
  std::uint64_t valid_bytes = 0;  ///< header + intact frames
  std::uint64_t file_bytes = 0;
  bool torn = false;  ///< bytes beyond valid_bytes exist and fail
};

/// Parse one segment file.  `final_segment` selects the tolerance
/// rule: damage in the final segment is a crash tail (kept as `torn`),
/// anywhere else it is corruption and throws.
SegmentInfo scan_segment(const std::string& path, std::uint64_t seq,
                         bool final_segment) {
  SegmentInfo info;
  info.seq = seq;
  info.path = path;

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw resilience::transient_error("journal: cannot open segment " + path);
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  info.file_bytes = bytes.size();

  const auto damaged = [&](const std::string& why) {
    if (!final_segment) {
      throw resilience::corrupt_error("journal: " + why + " in non-final " +
                                      path);
    }
    info.torn = true;
  };

  if (bytes.size() < kHeaderBytes) {
    // A crash during rotation can leave a header-less final segment.
    damaged("truncated header");
    info.valid_bytes = 0;
    return info;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    // A wrong magic is never a crash artifact — the header is written
    // and flushed before any record.
    throw resilience::corrupt_error("journal: bad magic in " + path);
  }
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 4, sizeof version);
  if (version != kVersion) {
    throw resilience::corrupt_error("journal: unsupported version " +
                                    std::to_string(version) + " in " + path);
  }
  std::uint64_t header_seq = 0;
  std::memcpy(&header_seq, bytes.data() + 8, sizeof header_seq);
  if (header_seq != seq) {
    throw resilience::corrupt_error("journal: header seq mismatch in " + path);
  }
  std::memcpy(&info.flags, bytes.data() + 16, sizeof info.flags);

  std::size_t offset = kHeaderBytes;
  info.valid_bytes = offset;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < 12) {
      damaged("torn frame header");
      break;
    }
    std::uint32_t payload_len = 0;
    std::memcpy(&payload_len, bytes.data() + offset, sizeof payload_len);
    if (payload_len > kMaxPayloadBytes ||
        bytes.size() - offset < 12 + static_cast<std::size_t>(payload_len)) {
      damaged("torn frame payload");
      break;
    }
    const std::size_t frame_bytes = 8 + payload_len;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + offset + frame_bytes,
                sizeof stored_crc);
    if (resilience::crc32(bytes.data() + offset, frame_bytes) != stored_crc) {
      damaged("frame CRC mismatch");
      break;
    }
    Record record;
    std::memcpy(&record.type, bytes.data() + offset + 4, sizeof record.type);
    record.payload.assign(bytes.data() + offset + 8, payload_len);
    info.records.push_back(std::move(record));
    offset += frame_bytes + 4;
    info.valid_bytes = offset;
  }
  return info;
}

/// Segment files in `dir`, sorted by sequence.  Lower-seq segments
/// superseded by a snapshot are still listed (the caller prunes).
std::vector<std::pair<std::uint64_t, std::string>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  if (!fs::exists(dir)) return segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kPrefix, 0) != 0 || name.size() <= 4 + 5 ||
        name.substr(name.size() - 5) != kSuffix) {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 4 - 5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    segments.emplace_back(std::stoull(digits), entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

/// Full scan: every live segment parsed, snapshot supersession
/// applied.  Shared by replay_dir and the constructor.
std::vector<SegmentInfo> scan_dir(const std::string& dir) {
  const auto listed = list_segments(dir);
  std::vector<SegmentInfo> segments;
  segments.reserve(listed.size());
  for (std::size_t i = 0; i < listed.size(); ++i) {
    segments.push_back(scan_segment(listed[i].second, listed[i].first,
                                    i + 1 == listed.size()));
  }
  // Snapshot supersession: replay starts at the newest snapshot
  // segment — the records of everything older are already folded in.
  std::size_t first = 0;
  for (std::size_t i = segments.size(); i-- > 0;) {
    if ((segments[i].flags & kSnapshotFlag) != 0) {
      first = i;
      break;
    }
  }
  if (first > 0) segments.erase(segments.begin(),
                                segments.begin() +
                                    static_cast<std::ptrdiff_t>(first));
  return segments;
}

}  // namespace

ReplayResult Journal::replay_dir(const std::string& dir) {
  ReplayResult result;
  for (SegmentInfo& segment : scan_dir(dir)) {
    ++result.segments;
    result.torn_bytes += segment.file_bytes - segment.valid_bytes;
    for (Record& record : segment.records) {
      result.records.push_back(std::move(record));
    }
  }
  return result;
}

std::string Journal::segment_path(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof name, "wal-%08llu.porj",
                static_cast<unsigned long long>(seq));
  return dir_ + "/" + name;
}

Journal::Journal(std::string dir, JournalOptions options)
    : dir_(std::move(dir)), options_(options) {
  obs::MetricsRegistry& registry = obs::current_registry();
  appends_ = &registry.counter("journal.appends");
  fsyncs_ = &registry.counter("journal.fsyncs");
  replayed_records_ = &registry.counter("journal.replayed_records");
  torn_tails_ = &registry.counter("journal.torn_tails");
  segments_gauge_ = &registry.gauge("journal.segments");

  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    throw resilience::transient_error("journal: cannot create " + dir_ +
                                      ": " + ec.message());
  }

  std::vector<SegmentInfo> segments = scan_dir(dir_);

  // Unlink segments a completed compaction superseded but a crash left
  // behind (scan_dir already dropped them from the replay set).
  for (const auto& [seq, path] : list_segments(dir_)) {
    const bool live = std::any_of(
        segments.begin(), segments.end(),
        [s = seq](const SegmentInfo& info) { return info.seq == s; });
    if (!live) resilience::remove_artifact(path);
  }

  for (SegmentInfo& segment : segments) {
    ++replayed_.segments;
    replayed_.torn_bytes += segment.file_bytes - segment.valid_bytes;
    for (Record& record : segment.records) {
      replayed_.records.push_back(std::move(record));
      replayed_records_->add();
    }
  }

  if (segments.empty()) {
    seq_ = 1;
    open_segment(seq_, /*truncate=*/true);
  } else {
    SegmentInfo& last = segments.back();
    seq_ = last.seq;
    if (last.torn || last.file_bytes != last.valid_bytes) {
      // Self-heal: atomically rewrite the final segment down to its
      // intact prefix so resumed appends never abut garbage bytes.
      torn_tails_->add();
      util::log_warn("journal: healed torn tail of ", last.path, " (",
                     last.file_bytes - last.valid_bytes, " bytes dropped)");
      const std::uint32_t flags = last.flags;
      const std::uint64_t seq = last.seq;
      const std::vector<Record> keep = last.records;  // re-encode canonical
      resilience::atomic_write_file(last.path, [&](std::ostream& out) {
        out << encode_header(seq, flags);
        for (const Record& record : keep) {
          out << encode_frame(record.type, record.payload.data(),
                              record.payload.size());
        }
      });
    }
    open_segment(seq_, /*truncate=*/false);
  }
  segments_gauge_->set(static_cast<double>(replayed_.segments == 0
                                               ? 1
                                               : replayed_.segments));
}

Journal::~Journal() {
  try {
    sync();
  } catch (...) {
    // Destructor sync is best-effort; explicit sync()/append() are the
    // calls whose failures matter (and throw).
  }
}

void Journal::open_segment(std::uint64_t seq, bool truncate) {
  const std::string path = segment_path(seq);
  sync_hook_point(SyncOp::kOpen, path);
  if (truncate) {
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw resilience::transient_error("journal: cannot create " + path);
    }
    const std::string header = encode_header(seq, 0);
    sync_hook_point(SyncOp::kWrite, path);
    out_ << header;
    out_.flush();
    if (!out_) {
      throw resilience::transient_error("journal: header write failed for " +
                                        path);
    }
    // The header (and the directory entry naming the segment) must be
    // durable before any record claims to be: replay classifies a
    // bad header as corruption in a non-final segment.
    sync_hook_point(SyncOp::kFsync, path);
    resilience::fsync_path(path);
    sync_hook_point(SyncOp::kDirFsync, dir_);
    resilience::fsync_path(dir_);
    fsyncs_->add();
    segment_bytes_ = header.size();
  } else {
    out_.open(path, std::ios::binary | std::ios::app);
    if (!out_) {
      throw resilience::transient_error("journal: cannot open " + path);
    }
    std::error_code ec;
    segment_bytes_ = static_cast<std::size_t>(fs::file_size(path, ec));
  }
  dirty_ = false;
}

void Journal::rotate() {
  sync();
  out_.close();
  ++seq_;
  open_segment(seq_, /*truncate=*/true);
  segments_gauge_->set(segments_gauge_->value() + 1.0);
}

void Journal::append(std::uint32_t type, const void* payload,
                     std::size_t bytes, bool durable) {
  if (bytes > kMaxPayloadBytes) {
    throw resilience::fatal_error("journal: record too large: " +
                                  std::to_string(bytes));
  }
  const std::string frame = encode_frame(type, payload, bytes);
  const std::string path = segment_path(seq_);
  sync_hook_point(SyncOp::kWrite, path);
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  sync_hook_point(SyncOp::kFlush, path);
  out_.flush();
  if (!out_) {
    throw resilience::transient_error("journal: append failed for " + path);
  }
  appends_->add();
  segment_bytes_ += frame.size();
  dirty_ = true;
  if (durable) {
    sync_hook_point(SyncOp::kFsync, path);
    if (!resilience::fsync_path(path)) {
      throw resilience::transient_error("journal: fsync failed for " + path);
    }
    fsyncs_->add();
    dirty_ = false;
  }
  if (segment_bytes_ >= options_.max_segment_bytes) rotate();
}

void Journal::sync() {
  if (!dirty_) return;
  const std::string path = segment_path(seq_);
  out_.flush();
  if (!out_) {
    throw resilience::transient_error("journal: flush failed for " + path);
  }
  sync_hook_point(SyncOp::kFsync, path);
  if (!resilience::fsync_path(path)) {
    throw resilience::transient_error("journal: fsync failed for " + path);
  }
  fsyncs_->add();
  dirty_ = false;
}

void Journal::rewrite(const std::vector<Record>& records) {
  // Settle the active segment first so a crash mid-compaction leaves a
  // fully-replayable old journal.
  sync();
  out_.close();

  const std::uint64_t old_seq = seq_;
  const std::uint64_t new_seq = seq_ + 1;
  const std::string path = segment_path(new_seq);
  // Snapshot segments carry the supersession flag: replay starts here
  // even when the unlink pass below never ran (crash window).
  resilience::atomic_write_file(path, [&](std::ostream& out) {
    out << encode_header(new_seq, kSnapshotFlag);
    for (const Record& record : records) {
      out << encode_frame(record.type, record.payload.data(),
                          record.payload.size());
    }
  });

  for (const auto& [seq, segment] : list_segments(dir_)) {
    if (seq > old_seq) continue;
    resilience::remove_artifact(segment);
  }

  seq_ = new_seq;
  open_segment(seq_, /*truncate=*/false);
  segments_gauge_->set(1.0);
}

}  // namespace por::journal
