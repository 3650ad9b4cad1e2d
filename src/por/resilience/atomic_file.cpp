#include "por/resilience/atomic_file.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#include "por/obs/registry.hpp"
#include "por/obs/span.hpp"
#include "por/resilience/error.hpp"
#include "por/resilience/sync_hooks.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define POR_HAVE_FSYNC 1
#else
#define POR_HAVE_FSYNC 0
#endif

namespace por::resilience {

namespace {

/// Directory part of `path` ("." when the path has no slash).
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

std::string make_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  // por-atomic: stat — temp-name uniqueness counter, atomicity only
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
#if POR_HAVE_FSYNC
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path + ".tmp." + std::to_string(pid) + "." + std::to_string(n);
}

}  // namespace

// Best effort off-POSIX: the stream flush is all we get.
bool fsync_path(const std::string& path) {
#if POR_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  // One span over the whole durable write, fsyncs included: on a
  // filesystem that discards freed blocks synchronously the directory
  // fsync after replacing a large file is the slow step (DESIGN.md §10).
  const obs::ScopedSpan span("resilience.atomic_write");
  const std::string temp = make_temp_path(path);
  // The whole sequence runs under one remove-on-unwind guard: the
  // injection seam (sync_hook_point, see sync_hooks.hpp) may throw at
  // any step to simulate ENOSPC / EINTR / short writes, and every such
  // unwind must leave no temp file behind and the destination
  // untouched — a reader only ever sees the old complete artifact or
  // the new complete one.
  try {
    {
      sync_hook_point(SyncOp::kOpen, temp);
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw transient_error("atomic_write_file: cannot open temp file " +
                              temp);
      }
      sync_hook_point(SyncOp::kWrite, temp);
      writer(out);
      sync_hook_point(SyncOp::kFlush, temp);
      out.flush();
      if (!out) {
        out.close();
        throw transient_error("atomic_write_file: write failed for " + temp);
      }
    }
    // Durability before visibility: the temp's bytes must be on stable
    // storage before the rename makes them the official artifact.
    sync_hook_point(SyncOp::kFsync, temp);
    if (!fsync_path(temp)) {
      throw transient_error("atomic_write_file: fsync failed for " + temp);
    }
    sync_hook_point(SyncOp::kRename, temp);
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
      throw transient_error("atomic_write_file: rename " + temp + " -> " +
                            path + " failed");
    }
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
  // And the directory entry itself, so the rename survives a crash.
  sync_hook_point(SyncOp::kDirFsync, parent_dir(path));
  (void)fsync_path(parent_dir(path));
  obs::current_registry().counter("resilience.io.atomic_writes").add();
}

}  // namespace por::resilience
