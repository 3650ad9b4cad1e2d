// por/util/arena.hpp
//
// Frame/arena allocation for the hot paths (DESIGN.md §12).
//
// The steady-state matching path — sliding_window_search scratch, the
// score-cache tables, FFT line-tile and Bluestein scratch — used to
// round-trip the general heap on every call.  An Arena replaces those
// with monotonic bump allocation out of reusable chunks: allocation is
// a pointer increment, deallocation is a scoped rewind, and after
// warm-up (the first pass that sizes the chunks) the steady state
// performs ZERO general-heap allocations (asserted in
// tests/test_simd.cpp and gated in bench_matcher).
//
// Model:
//   * Arena         — chunked monotonic bump region.  allocate() never
//                     constructs or destructs; only trivially
//                     destructible types belong here.
//   * Arena::Mark   — a rewind point.  rewind(mark) releases everything
//                     allocated after the mark back to the arena (the
//                     chunks stay warm for reuse).
//   * ArenaScope    — RAII mark/rewind; scopes must nest like stack
//                     frames (LIFO), which every call site here does.
//   * frame_arena() — the calling thread's arena.  Thread-local, so
//                     scheduler workers and vmpi rank threads never
//                     contend.
//   * ArenaUpstream — where chunks come from.  The default is the
//                     general heap; tests install a CountingUpstream to
//                     prove the steady state never refills.
//   * ArenaVector   — minimal push_back-style growth buffer for
//                     trivially copyable types over an Arena.
//
// Ownership/lifetime rules (also in DESIGN.md §12):
//   1. An allocation lives until the enclosing mark is rewound — never
//      free individual blocks.
//   2. Scopes are strictly LIFO per arena.  A structure that must
//      outlive interleaved scopes (e.g. ScoreCache growing mid-search)
//      owns a PRIVATE Arena instead of borrowing the frame arena.
//   3. Only trivially destructible element types (static_assert'd).
//   4. The upstream pointer must outlive the arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "por/util/contracts.hpp"

namespace por::util {

/// Source of the arena's backing chunks.  Implementations must return
/// storage aligned to alignof(std::max_align_t).
class ArenaUpstream {
 public:
  virtual ~ArenaUpstream() = default;
  [[nodiscard]] virtual void* allocate(std::size_t bytes) = 0;
  virtual void deallocate(void* p, std::size_t bytes) = 0;
};

/// The default upstream: global operator new/delete.
[[nodiscard]] ArenaUpstream& heap_upstream();

/// Counts every chunk refill that reaches it — the oracle for the
/// "zero general-heap allocations after warm-up" contract.
class CountingUpstream final : public ArenaUpstream {
 public:
  explicit CountingUpstream(ArenaUpstream& inner) : inner_(&inner) {}
  [[nodiscard]] void* allocate(std::size_t bytes) override {
    ++allocations_;
    bytes_ += bytes;
    return inner_->allocate(bytes);
  }
  void deallocate(void* p, std::size_t bytes) override {
    ++deallocations_;
    inner_->deallocate(p, bytes);
  }
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }
  [[nodiscard]] std::uint64_t deallocations() const { return deallocations_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  ArenaUpstream* inner_;
  std::uint64_t allocations_ = 0;
  std::uint64_t deallocations_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Chunked monotonic bump allocator with scoped rewind marks.
///
/// Exhaustion fallback: when the current chunk cannot satisfy a
/// request the arena pulls a new, geometrically larger chunk from the
/// upstream (so pathological sizes degrade to upstream allocation
/// instead of failing); rewinding keeps every chunk for reuse, which is
/// what makes the steady state allocation-free.
// CONTRACT: live_bytes()/allocation_count() only ever count
// allocations that came from this arena, and rewind(mark) requires the
// mark to have been taken from this arena with LIFO scope discipline —
// enforced by POR_EXPECT in arena.cpp.
class Arena {
 public:
  /// `first_chunk_bytes` sizes the initial chunk request; subsequent
  /// chunks double.  No upstream call happens until the first
  /// allocation.
  explicit Arena(std::size_t first_chunk_bytes = 64 * 1024,
                 ArenaUpstream* upstream = nullptr);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;

  /// Bump-allocate `bytes` aligned to `align` (a power of two).
  [[nodiscard]] void* allocate(std::size_t bytes,
                               std::size_t align = alignof(std::max_align_t));

  /// Typed array allocation; elements are NOT constructed.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destructed");
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// A rewind point.  Opaque; only meaningful for the arena it came
  /// from.
  struct Mark {
    void* chunk = nullptr;
    std::size_t used = 0;
    std::size_t live = 0;
    std::uint64_t allocs = 0;
  };
  [[nodiscard]] Mark mark() const;
  void rewind(const Mark& m);

  /// Rewind to empty.  Chunks are kept warm.
  void reset();

  /// Release every chunk back to the upstream.
  void release();

  // --- tracking (always on; a handful of adds per allocation) -------
  [[nodiscard]] std::size_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] std::size_t peak_bytes() const { return peak_bytes_; }
  [[nodiscard]] std::uint64_t allocation_count() const { return allocs_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t capacity_bytes() const { return capacity_; }

 private:
  struct Chunk;  // header; payload follows in the same upstream block

  /// Grow: pull a chunk with >= `min_payload` payload bytes from the
  /// upstream (the exhaustion fallback path).
  Chunk* grow(std::size_t min_payload);

  ArenaUpstream* upstream_;
  Chunk* head_ = nullptr;     ///< most recently carved chunk (bump target)
  Chunk* reserve_ = nullptr;  ///< rewound chunks kept warm for reuse
  std::size_t next_chunk_bytes_;
  std::size_t live_bytes_ = 0;
  std::size_t peak_bytes_ = 0;
  std::size_t capacity_ = 0;
  std::size_t chunk_count_ = 0;
  std::uint64_t allocs_ = 0;
};

/// RAII mark/rewind over an arena (strictly LIFO).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_->rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// The calling thread's frame arena.  Created on first use, released
/// when the thread exits.  Scope it with ArenaScope around each
/// hot-path frame.
[[nodiscard]] Arena& frame_arena();

/// Minimal growth buffer over an arena for trivially copyable types.
/// Growth allocates a doubled block and abandons the old one (monotonic
/// arenas reclaim it at the enclosing rewind, so transient waste is
/// bounded by 2x the final size).
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector memcpy-moves its elements");

 public:
  explicit ArenaVector(Arena& arena, std::size_t initial_capacity = 0)
      : arena_(&arena) {
    if (initial_capacity > 0) reserve(initial_capacity);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    POR_BOUNDS(i, size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    POR_BOUNDS(i, size_);
    return data_[i];
  }

  void clear() { size_ = 0; }

  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    T* grown = arena_->alloc_array<T>(want);
    for (std::size_t i = 0; i < size_; ++i) grown[i] = data_[i];
    data_ = grown;
    capacity_ = want;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) reserve(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = value;
  }

  /// size() = count; newly exposed elements are value-initialized.
  void assign_default(std::size_t count) {
    reserve(count);
    for (std::size_t i = 0; i < count; ++i) data_[i] = T{};
    size_ = count;
  }

  /// size() = count without initializing elements (callers overwrite).
  void resize_uninit(std::size_t count) {
    reserve(count);
    size_ = count;
  }

 private:
  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace por::util
