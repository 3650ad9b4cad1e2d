// por/stream/shard_mapping.hpp
//
// ShardMapping — RAII read-only memory mapping of one shard file with
// an madvise(WILLNEED) hint (DESIGN.md §14).
//
// The stream layer maps shards instead of read()ing them so that a
// dataset larger than RAM costs page-cache pages, not anonymous
// memory: the kernel reclaims cold shard pages under pressure, and the
// master's WILLNEED hint pulls a block in before it reads the block
// to ship it.  On non-Linux/posix builds (or when mmap fails) the class
// degrades to a read()-backed heap buffer with identical bytes — the
// reader layer asserts mmap-vs-read bit equality in tests.
//
// LIFETIME: data() points into the mapping and dies with it.  Never
// store a pointer derived from a ShardMapping beyond the mapping's
// scope — the `mmap-escape` ast_lint rule flags returns/member stores
// of such pointers (tools/lint/ast_lint.py).
//
// Obs: every successful map bumps "stream.shards_mapped" and adds the
// file size to "stream.bytes_mapped"; unmapping adds to
// "stream.shards_unmapped".
#pragma once

#include <cstddef>
#include <string>

namespace por::stream {

class ShardMapping {
 public:
  ShardMapping() = default;
  /// Map `path` read-only in whole.  Throws resilience::Error —
  /// kTransient when the file cannot be opened (mount flap; the retry
  /// layer decides), kCorrupt when it is empty.  `prefer_mmap` = false
  /// forces the read() fallback (the bitwise-equality reference path).
  explicit ShardMapping(const std::string& path, bool prefer_mmap = true);
  ~ShardMapping();

  ShardMapping(const ShardMapping&) = delete;
  ShardMapping& operator=(const ShardMapping&) = delete;
  ShardMapping(ShardMapping&& other) noexcept;
  ShardMapping& operator=(ShardMapping&& other) noexcept;

  [[nodiscard]] const unsigned char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// True when the bytes come from a live mmap (false: heap fallback).
  [[nodiscard]] bool mapped() const { return mapped_; }

  /// Hint the kernel to fault in [offset, offset + bytes) ahead of use.
  /// Best effort; a no-op on the read fallback.
  void will_need(std::size_t offset, std::size_t bytes) const;

 private:
  void reset();

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  ///< true: munmap on destruction; false: delete[]
};

}  // namespace por::stream
