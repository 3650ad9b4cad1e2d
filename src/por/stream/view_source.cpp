#include "por/stream/view_source.hpp"

#include <cstring>
#include <stdexcept>

namespace por::stream {

// ---------------------------------------------------------------------------
// MemoryViewSource
// ---------------------------------------------------------------------------

MemoryViewSource::MemoryViewSource(const std::vector<em::Image<double>>& views)
    : views_(&views) {
  if (!views.empty()) {
    ny_ = views.front().ny();
    nx_ = views.front().nx();
  }
  for (const em::Image<double>& view : views) {
    if (view.ny() != ny_ || view.nx() != nx_) {
      throw std::invalid_argument(
          "MemoryViewSource: views differ in shape from the first view");
    }
  }
}

std::uint64_t MemoryViewSource::count() const { return views_->size(); }

void MemoryViewSource::fetch(std::uint64_t index, double* dst) {
  const em::Image<double>& view = views_->at(static_cast<std::size_t>(index));
  std::memcpy(dst, view.data(), view.size() * sizeof(double));
}

// ---------------------------------------------------------------------------
// ShardedViewSource
// ---------------------------------------------------------------------------

ShardedViewSource::ShardedViewSource(const std::string& base,
                                     const ShardedStackOptions& options)
    : shards_(base, options) {}

std::uint64_t ShardedViewSource::count() const { return shards_.count(); }
std::size_t ShardedViewSource::ny() const { return shards_.ny(); }
std::size_t ShardedViewSource::nx() const { return shards_.nx(); }

void ShardedViewSource::fetch(std::uint64_t index, double* dst) {
  (void)shards_.read_view(index, dst);  // quarantined views arrive as NaN
}

void ShardedViewSource::will_need(std::uint64_t first, std::size_t n) {
  shards_.will_need(first, n);
}

// ---------------------------------------------------------------------------
// open_view_source
// ---------------------------------------------------------------------------

std::unique_ptr<ViewSource> open_view_source(
    const std::string& path, const ShardedStackOptions& options) {
  return std::make_unique<ShardedViewSource>(path, options);
}

}  // namespace por::stream
