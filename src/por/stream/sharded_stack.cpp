#include "por/stream/sharded_stack.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "por/obs/registry.hpp"
#include "por/resilience/atomic_file.hpp"
#include "por/resilience/crc32.hpp"
#include "por/resilience/error.hpp"

namespace por::stream {

namespace {

constexpr char kManifestMagic[4] = {'P', 'O', 'R', 'V'};
constexpr char kShardMagic[4] = {'P', 'O', 'R', 'H'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kManifestFields = 40;  ///< bytes after magic+version
constexpr std::size_t kManifestBytes = 8 + kManifestFields + 4;
constexpr std::size_t kShardFixed = 40;      ///< magic..nx, before the CRCs
constexpr std::size_t kMaxEdge = std::size_t{1} << 14;

[[nodiscard]] constexpr std::size_t align8(std::size_t n) {
  return (n + 7) & ~std::size_t{7};
}

/// Bytes of a shard header holding `views` CRCs, before the padding.
[[nodiscard]] constexpr std::size_t shard_header_bytes(std::size_t views) {
  return kShardFixed + views * 4 + 4;
}

/// Offset of view 0's pixels in a shard of `views` views.
[[nodiscard]] constexpr std::size_t payload_begin(std::size_t views) {
  return align8(shard_header_bytes(views));
}

/// Most views a shard of `view_px`-pixel views may hold and still be
/// addressable in memory (header + payload).
[[nodiscard]] constexpr std::size_t max_views_per_shard(std::size_t view_px) {
  return std::numeric_limits<std::size_t>::max() / 2 /
         (view_px * sizeof(double) + 4);
}

// Element-wise (not insert(range)): GCC 12's -Warray-bounds misfires
// on char-array ranges inserted into a byte vector.
void put_magic(std::vector<unsigned char>& out, const char (&magic)[4]) {
  for (const char c : magic) out.push_back(static_cast<unsigned char>(c));
}

void put_u32(std::vector<unsigned char>& out, std::uint32_t v) {
  unsigned char b[4];
  std::memcpy(b, &v, 4);
  out.insert(out.end(), b, b + 4);
}

void put_u64(std::vector<unsigned char>& out, std::uint64_t v) {
  unsigned char b[8];
  std::memcpy(b, &v, 8);
  out.insert(out.end(), b, b + 8);
}

[[nodiscard]] std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

[[nodiscard]] std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

[[nodiscard]] std::uint64_t shards_for(std::uint64_t count,
                                       std::size_t views_per_shard) {
  return count / views_per_shard + (count % views_per_shard != 0 ? 1 : 0);
}

void fill_nan(double* dst, std::size_t n) {
  std::fill_n(dst, n, std::numeric_limits<double>::quiet_NaN());
}

}  // namespace

std::string shard_path(const std::string& base, std::size_t k) {
  char suffix[24];
  std::snprintf(suffix, sizeof suffix, ".s%04zu", k);
  return base + suffix;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ShardedStackWriter::ShardedStackWriter(std::string base, std::size_t ny,
                                       std::size_t nx,
                                       const ShardedStackOptions& options)
    : base_(std::move(base)), options_(options), ny_(ny), nx_(nx) {
  if (ny_ == 0 || nx_ == 0 || ny_ > kMaxEdge || nx_ > kMaxEdge) {
    throw resilience::fatal_error("ShardedStackWriter: bad view size");
  }
  if (options_.views_per_shard == 0) {
    throw resilience::fatal_error(
        "ShardedStackWriter: views_per_shard must be positive");
  }
  pending_.reserve(options_.views_per_shard * ny_ * nx_);
}

ShardedStackWriter::~ShardedStackWriter() = default;

void ShardedStackWriter::append(const double* pixels) {
  if (finished_) {
    throw resilience::fatal_error("ShardedStackWriter: append after finish");
  }
  pending_.insert(pending_.end(), pixels, pixels + ny_ * nx_);
  ++appended_;
  if (pending_.size() == options_.views_per_shard * ny_ * nx_) {
    flush_shard();
  }
}

void ShardedStackWriter::append(const em::Image<double>& view) {
  if (view.ny() != ny_ || view.nx() != nx_) {
    throw resilience::fatal_error("ShardedStackWriter: view size mismatch");
  }
  append(view.data());
}

void ShardedStackWriter::flush_shard() {
  const std::size_t view_px = ny_ * nx_;
  const std::size_t view_bytes = view_px * sizeof(double);
  const std::size_t n = pending_.size() / view_px;
  if (n == 0) return;

  std::vector<unsigned char> header;
  header.reserve(align8(shard_header_bytes(n)));
  put_magic(header, kShardMagic);
  put_u32(header, kVersion);
  put_u64(header, appended_ - n);
  put_u64(header, n);
  put_u64(header, ny_);
  put_u64(header, nx_);
  for (std::size_t i = 0; i < n; ++i) {
    put_u32(header, resilience::crc32(pending_.data() + i * view_px,
                                      view_bytes));
  }
  // header_crc covers first_view through the last view CRC.
  put_u32(header, resilience::crc32(header.data() + 8, header.size() - 8));
  header.resize(align8(header.size()), 0);

  resilience::atomic_write_file(
      shard_path(base_, shards_written_), [&](std::ostream& os) {
        os.write(reinterpret_cast<const char*>(header.data()),
                 static_cast<std::streamsize>(header.size()));
        os.write(reinterpret_cast<const char*>(pending_.data()),
                 static_cast<std::streamsize>(n * view_bytes));
      });
  ++shards_written_;
  pending_.clear();
}

void ShardedStackWriter::finish() {
  if (finished_) return;
  flush_shard();
  std::vector<unsigned char> bytes;
  bytes.reserve(kManifestBytes);
  put_magic(bytes, kManifestMagic);
  put_u32(bytes, kVersion);
  put_u64(bytes, appended_);
  put_u64(bytes, ny_);
  put_u64(bytes, nx_);
  put_u64(bytes, options_.views_per_shard);
  put_u64(bytes, shards_written_);
  put_u32(bytes, resilience::crc32(bytes.data() + 8, kManifestFields));
  resilience::atomic_write_file(base_, [&](std::ostream& os) {
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  });
  finished_ = true;
}

void write_sharded_stack(const std::string& base,
                         const std::vector<em::Image<double>>& views,
                         const ShardedStackOptions& options) {
  if (views.empty()) {
    throw resilience::fatal_error("write_sharded_stack: empty stack");
  }
  ShardedStackWriter writer(base, views.front().ny(), views.front().nx(),
                            options);
  for (const auto& view : views) writer.append(view);
  writer.finish();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ShardedStack::ShardedStack(const std::string& base,
                           const ShardedStackOptions& options)
    : base_(base), options_(options) {
  std::ifstream in(base, std::ios::binary);
  if (!in) {
    throw resilience::transient_error("ShardedStack: cannot open manifest " +
                                      base);
  }
  unsigned char m[kManifestBytes];
  in.read(reinterpret_cast<char*>(m), kManifestBytes);
  if (in.gcount() != static_cast<std::streamsize>(kManifestBytes)) {
    throw resilience::corrupt_error("ShardedStack: truncated manifest " +
                                    base);
  }
  if (std::memcmp(m, kManifestMagic, 4) != 0) {
    throw resilience::corrupt_error("ShardedStack: bad manifest magic in " +
                                    base);
  }
  if (get_u32(m + 4) != kVersion) {
    throw resilience::corrupt_error("ShardedStack: unsupported version in " +
                                    base);
  }
  if (resilience::crc32(m + 8, kManifestFields) !=
      get_u32(m + 8 + kManifestFields)) {
    throw resilience::corrupt_error("ShardedStack: manifest CRC mismatch in " +
                                    base);
  }
  count_ = get_u64(m + 8);
  ny_ = static_cast<std::size_t>(get_u64(m + 16));
  nx_ = static_cast<std::size_t>(get_u64(m + 24));
  views_per_shard_ = static_cast<std::size_t>(get_u64(m + 32));
  const std::uint64_t shard_count = get_u64(m + 40);
  if (ny_ == 0 || nx_ == 0 || ny_ > kMaxEdge || nx_ > kMaxEdge ||
      views_per_shard_ == 0 ||
      views_per_shard_ > max_views_per_shard(ny_ * nx_) ||
      shard_count != shards_for(count_, views_per_shard_)) {
    throw resilience::corrupt_error(
        "ShardedStack: implausible manifest fields in " + base);
  }
  shards_.resize(static_cast<std::size_t>(shard_count));
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    shards_[k].first = static_cast<std::uint64_t>(k) * views_per_shard_;
    shards_[k].views =
        std::min<std::uint64_t>(views_per_shard_, count_ - shards_[k].first);
  }
}

void ShardedStack::touch_lru(std::size_t k) {
  lru_.remove(k);
  lru_.push_front(k);
}

void ShardedStack::quarantine_shard(std::size_t k, Shard& shard,
                                    const std::string& why) {
  if (!options_.quarantine_corrupt) {
    throw resilience::corrupt_error("ShardedStack: " + why + " in " +
                                    shard_path(base_, k));
  }
  if (shard.open) {
    resident_bytes_ -= shard.map.size();
    lru_.remove(k);
  }
  shard.map = ShardMapping();
  shard.open = false;
  shard.quarantined = true;
  ++quarantined_shards_;
  obs::current_registry().counter("stream.shards_quarantined").add();
}

void ShardedStack::validate_shard(const Shard& shard) const {
  const unsigned char* p = shard.map.data();
  const std::size_t size = shard.map.size();
  const std::size_t n = static_cast<std::size_t>(shard.views);
  const std::size_t header_bytes = shard_header_bytes(n);
  if (size < header_bytes) {
    throw resilience::corrupt_error("shard header truncated");
  }
  if (std::memcmp(p, kShardMagic, 4) != 0) {
    throw resilience::corrupt_error("bad shard magic");
  }
  if (get_u32(p + 4) != kVersion) {
    throw resilience::corrupt_error("unsupported shard version");
  }
  if (resilience::crc32(p + 8, header_bytes - 12) !=
      get_u32(p + header_bytes - 4)) {
    throw resilience::corrupt_error("shard header CRC mismatch");
  }
  if (get_u64(p + 8) != shard.first || get_u64(p + 16) != shard.views ||
      get_u64(p + 24) != ny_ || get_u64(p + 32) != nx_) {
    throw resilience::corrupt_error("shard header disagrees with manifest");
  }
  if (size < payload_begin(n) ||
      size - payload_begin(n) < n * view_pixels() * sizeof(double)) {
    throw resilience::corrupt_error("shard payload truncated");
  }
}

ShardedStack::Shard* ShardedStack::ensure_open(std::size_t k) {
  Shard& shard = shards_[k];
  if (shard.quarantined) return nullptr;
  if (shard.open) {
    touch_lru(k);
    return &shard;
  }
  try {
    shard.map = ShardMapping(shard_path(base_, k), options_.use_mmap);
    validate_shard(shard);
  } catch (const resilience::Error&) {
    if (!options_.quarantine_corrupt) throw;
    quarantine_shard(k, shard, "unreadable shard");
    return nullptr;
  }
  shard.open = true;
  resident_bytes_ += shard.map.size();
  lru_.push_front(k);
  evict_to_budget(k);
  obs::current_registry()
      .gauge("stream.resident_bytes")
      .set(static_cast<double>(resident_bytes_));
  return &shard;
}

void ShardedStack::evict_to_budget(std::size_t keep) {
  if (options_.max_resident_bytes == 0) return;
  while (resident_bytes_ > options_.max_resident_bytes && lru_.size() > 1) {
    const std::size_t victim = lru_.back();
    if (victim == keep) break;  // never evict the shard being read
    lru_.pop_back();
    Shard& shard = shards_[victim];
    resident_bytes_ -= shard.map.size();
    shard.map = ShardMapping();
    shard.open = false;
  }
}

bool ShardedStack::read_view(std::uint64_t index, double* dst) {
  if (index >= count_) {
    throw std::out_of_range("ShardedStack::read_view: index out of range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t px = view_pixels();
  const std::size_t k = static_cast<std::size_t>(index / views_per_shard_);
  Shard* shard = ensure_open(k);
  if (shard == nullptr) {
    fill_nan(dst, px);
    ++quarantined_views_;
    obs::current_registry().counter("stream.views_quarantined").add();
    return false;
  }
  // validate_shard checked the header CRC and the payload length.
  const std::size_t i = static_cast<std::size_t>(index - shard->first);
  const std::size_t view_bytes = px * sizeof(double);
  const unsigned char* header = shard->map.data();
  const unsigned char* stored =
      header + payload_begin(static_cast<std::size_t>(shard->views)) +
      i * view_bytes;
  if (resilience::crc32(stored, view_bytes) !=
      get_u32(header + kShardFixed + i * 4)) {
    if (!options_.quarantine_corrupt) {
      throw resilience::corrupt_error(
          "ShardedStack: view CRC mismatch for view " + std::to_string(index));
    }
    fill_nan(dst, px);
    ++quarantined_views_;
    obs::current_registry().counter("stream.views_quarantined").add();
    return false;
  }
  std::memcpy(dst, stored, view_bytes);
  return true;
}

std::vector<em::Image<double>> ShardedStack::read_range(std::uint64_t first,
                                                        std::size_t n) {
  if (first + n > count_) {
    throw std::out_of_range("ShardedStack::read_range: range out of bounds");
  }
  std::vector<em::Image<double>> views;
  views.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    em::Image<double> view(ny_, nx_);
    (void)read_view(first + i, view.data());
    views.push_back(std::move(view));
  }
  return views;
}

void ShardedStack::will_need(std::uint64_t first, std::size_t n) {
  if (n == 0 || first >= count_) return;
  const std::uint64_t last = std::min<std::uint64_t>(first + n, count_) - 1;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = static_cast<std::size_t>(first / views_per_shard_);
       k <= static_cast<std::size_t>(last / views_per_shard_); ++k) {
    Shard* shard = ensure_open(k);
    if (shard == nullptr) continue;
    const std::uint64_t lo = std::max<std::uint64_t>(first, shard->first);
    const std::uint64_t hi =
        std::min<std::uint64_t>(last, shard->first + shard->views - 1);
    const std::size_t view_bytes = view_pixels() * sizeof(double);
    shard->map.will_need(
        payload_begin(static_cast<std::size_t>(shard->views)) +
            static_cast<std::size_t>(lo - shard->first) * view_bytes,
        static_cast<std::size_t>(hi - lo + 1) * view_bytes);
  }
}

std::size_t ShardedStack::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_bytes_;
}

std::size_t ShardedStack::resident_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t ShardedStack::quarantined_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_shards_;
}

std::uint64_t ShardedStack::quarantined_views() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_views_;
}

}  // namespace por::stream
