#include "por/stream/shard_mapping.hpp"

#include <cstdint>
#include <fstream>
#include <utility>

#include "por/obs/registry.hpp"
#include "por/resilience/error.hpp"

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define POR_STREAM_HAS_MMAP 1
#else
#define POR_STREAM_HAS_MMAP 0
#endif

namespace por::stream {

namespace {

#if POR_STREAM_HAS_MMAP
constexpr std::size_t kPage = 4096;

/// Round an [offset, offset+bytes) window outward to page boundaries,
/// clamped to the mapping.
void page_window(std::size_t size, std::size_t& offset, std::size_t& bytes) {
  if (offset > size) {
    offset = size;
    bytes = 0;
    return;
  }
  const std::size_t end = offset + bytes > size ? size : offset + bytes;
  offset &= ~(kPage - 1);
  bytes = end - offset;
}
#endif

}  // namespace

ShardMapping::ShardMapping(const std::string& path, bool prefer_mmap) {
#if POR_STREAM_HAS_MMAP
  if (prefer_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      throw resilience::transient_error("ShardMapping: cannot open " + path);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      throw resilience::corrupt_error("ShardMapping: empty or unstatable " +
                                      path);
    }
    const std::size_t bytes = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (p != MAP_FAILED) {
      data_ = static_cast<const unsigned char*>(p);
      size_ = bytes;
      mapped_ = true;
      obs::MetricsRegistry& registry = obs::current_registry();
      registry.counter("stream.shards_mapped").add();
      registry.counter("stream.bytes_mapped").add(bytes);
      return;
    }
    // mmap failure (exotic filesystem, rlimit): fall through to read().
  }
#else
  (void)prefer_mmap;
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw resilience::transient_error("ShardMapping: cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  if (end <= 0) {
    throw resilience::corrupt_error("ShardMapping: empty file " + path);
  }
  in.seekg(0, std::ios::beg);
  const std::size_t bytes = static_cast<std::size_t>(end);
  auto* buffer = new unsigned char[bytes];
  in.read(reinterpret_cast<char*>(buffer), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    delete[] buffer;
    throw resilience::corrupt_error("ShardMapping: short read of " + path);
  }
  data_ = buffer;
  size_ = bytes;
  mapped_ = false;
  obs::current_registry().counter("stream.bytes_read").add(bytes);
}

ShardMapping::~ShardMapping() { reset(); }

void ShardMapping::reset() {
  if (data_ == nullptr) return;
#if POR_STREAM_HAS_MMAP
  if (mapped_) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
    obs::current_registry().counter("stream.shards_unmapped").add();
  } else {
    delete[] data_;
  }
#else
  delete[] data_;
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

ShardMapping::ShardMapping(ShardMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)) {}

ShardMapping& ShardMapping::operator=(ShardMapping&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

void ShardMapping::will_need(std::size_t offset, std::size_t bytes) const {
#if POR_STREAM_HAS_MMAP
  if (!mapped_ || bytes == 0) return;
  page_window(size_, offset, bytes);
  if (bytes == 0) return;
  (void)::madvise(const_cast<unsigned char*>(data_) + offset, bytes,
                  MADV_WILLNEED);
#else
  (void)offset;
  (void)bytes;
#endif
}

}  // namespace por::stream
