// por/stream/view_source.hpp
//
// ViewSource — the one interface the refinement core reads views
// through (DESIGN.md §14).  Two backings, one per input kind:
//
//   MemoryViewSource   in-core vector<Image> (parallel_refine wraps
//                      its input in one)
//   ShardedViewSource  the on-disk stack via stream::ShardedStack
//                      (mmap, LRU resident budget, quarantine)
//
// Both produce bitwise-identical pixels for the same logical stack;
// the streaming tests assert it.  fetch() copies into the
// caller's buffer — sources never hand out interior pointers, so the
// mmap lifetime rule stays inside ShardedStack.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "por/em/grid.hpp"
#include "por/stream/sharded_stack.hpp"

namespace por::stream {

class ViewSource {
 public:
  virtual ~ViewSource() = default;

  [[nodiscard]] virtual std::uint64_t count() const = 0;
  [[nodiscard]] virtual std::size_t ny() const = 0;
  [[nodiscard]] virtual std::size_t nx() const = 0;
  [[nodiscard]] std::size_t view_pixels() const { return ny() * nx(); }

  /// Copy view `index` (ny*nx doubles, row-major) into `dst`.  A
  /// quarantined view arrives NaN-filled (the refiner's finiteness
  /// gate then skips it); anything else throws.  Every driver calls
  /// it on the rank thread that refines or ships the view, so a
  /// stream's counters land in that rank's registry.  Implementations
  /// must be safe to call from several threads at once.
  virtual void fetch(std::uint64_t index, double* dst) = 0;

  /// Advisory: the caller will fetch [first, first + n) soon.
  virtual void will_need(std::uint64_t first, std::size_t n) {
    (void)first;
    (void)n;
  }
};

/// Borrows an in-memory stack (must outlive the source).  Every view
/// must have the first view's shape; the constructor throws
/// std::invalid_argument otherwise.
class MemoryViewSource final : public ViewSource {
 public:
  explicit MemoryViewSource(const std::vector<em::Image<double>>& views);

  [[nodiscard]] std::uint64_t count() const override;
  [[nodiscard]] std::size_t ny() const override { return ny_; }
  [[nodiscard]] std::size_t nx() const override { return nx_; }
  void fetch(std::uint64_t index, double* dst) override;

 private:
  const std::vector<em::Image<double>>* views_;
  std::size_t ny_ = 0, nx_ = 0;
};

/// Sharded stack (owns the ShardedStack reader).
class ShardedViewSource final : public ViewSource {
 public:
  explicit ShardedViewSource(const std::string& base,
                             const ShardedStackOptions& options = {});

  [[nodiscard]] std::uint64_t count() const override;
  [[nodiscard]] std::size_t ny() const override;
  [[nodiscard]] std::size_t nx() const override;
  void fetch(std::uint64_t index, double* dst) override;
  void will_need(std::uint64_t first, std::size_t n) override;

  [[nodiscard]] ShardedStack& shards() { return shards_; }

 private:
  ShardedStack shards_;
};

/// Open the sharded stack whose manifest is `path` as a
/// ShardedViewSource with `options`.  Throws kTransient when the
/// manifest cannot be opened and kCorrupt when it is not a stack
/// manifest.
[[nodiscard]] std::unique_ptr<ViewSource> open_view_source(
    const std::string& path, const ShardedStackOptions& options = {});

}  // namespace por::stream
