#include "por/stream/view_source.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "por/resilience/error.hpp"

namespace por::stream {

em::Image<double> ViewSource::fetch_image(std::uint64_t index) {
  em::Image<double> view(ny(), nx());
  fetch(index, view.data());
  return view;
}

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
// StackViewSource
// ---------------------------------------------------------------------------

StackViewSource::StackViewSource(std::string path,
                                 resilience::RetryPolicy retry)
    : path_(std::move(path)), retry_(retry) {
  reader_ = resilience::with_retry(retry_, "StackViewSource.open", [&] {
    return std::make_unique<io::StackReader>(path_);
  });
}

std::uint64_t StackViewSource::count() const { return reader_->count(); }
std::size_t StackViewSource::ny() const { return reader_->ny(); }
std::size_t StackViewSource::nx() const { return reader_->nx(); }

void StackViewSource::fetch(std::uint64_t index, double* dst) {
  std::lock_guard<std::mutex> lock(mutex_);
  resilience::with_retry(retry_, "StackViewSource.fetch", [&] {
    try {
      reader_->read_view(index, dst);
    } catch (const resilience::Error&) {
      // Reopen before the retry layer re-invokes us: a stale handle
      // stays stale, a fresh one may see the healthy mount again.
      reader_ = std::make_unique<io::StackReader>(path_);
      throw;
    }
  });
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw resilience::transient_error("open_view_source: cannot open " +
                                      path);
  }
  char magic[4] = {};
  in.read(magic, 4);
  in.close();
  if (std::memcmp(magic, "PORM", 4) == 0) {
    return std::make_unique<ShardedViewSource>(path, options);
  }
  return std::make_unique<StackViewSource>(path);
}

}  // namespace por::stream
