#include "por/resilience/atomic_file.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <ostream>
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

#if defined(__linux__)
#include <sys/stat.h>
#define POR_HAVE_EXCHANGE 1
#else
#define POR_HAVE_EXCHANGE 0
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

/// The one place the spare's name is decided.
std::string spare_path(const std::string& path) { return path + ".spare"; }

/// A filebuf that remembers the furthest byte written through it, so a
/// reused spare is cut to the artifact's length even when the writer
/// seeks back (to patch a header, say) and leaves the stream there.
/// The position is sampled before every seek and once at the end.
class HighWaterFilebuf : public std::filebuf {
 public:
  [[nodiscard]] std::streamoff high_water() {
    note();
    return high_;
  }

 protected:
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    note();
    return std::filebuf::seekoff(off, dir, which);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    note();
    return std::filebuf::seekpos(pos, which);
  }

 private:
  void note() {
    const pos_type here =
        std::filebuf::seekoff(0, std::ios_base::cur, std::ios_base::out);
    if (here != pos_type(off_type(-1))) {
      high_ = std::max<std::streamoff>(high_, here);
    }
  }

  std::streamoff high_ = 0;
};

/// Claim the spare by renaming it to `temp`.  True when the claimed
/// file may be overwritten in place: a regular file that no other name
/// links and that no descriptor or mapping holds open (the kernel
/// grants a write lease only then).  A refused spare is unlinked — its
/// blocks stay with whoever still reads it — and false is returned, as
/// it is when there is no spare.
bool claim_spare(const std::string& spare, const std::string& temp) {
#if POR_HAVE_EXCHANGE
  if (std::rename(spare.c_str(), temp.c_str()) != 0) return false;
  bool reusable = false;
  // O_NONBLOCK: a lease someone else holds fails the open at once
  // instead of waiting for the lease to break.
  const int fd = ::open(temp.c_str(), O_RDWR | O_NOFOLLOW | O_NONBLOCK);
  if (fd >= 0) {
    struct stat st{};
    reusable = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
               st.st_nlink == 1 && ::fcntl(fd, F_SETLEASE, F_WRLCK) == 0;
    ::close(fd);  // releases the lease: the check was all it was for
  }
  if (!reusable) {
    sync_hook_point(SyncOp::kRemove, temp);
    std::remove(temp.c_str());
  }
  return reusable;
#else
  (void)spare;
  (void)temp;
  return false;
#endif
}

/// Swap `temp` and `path` in one renameat2(RENAME_EXCHANGE).  False
/// when `path` is not a regular file to swap with, or the filesystem
/// or OS cannot exchange (ENOENT, EINVAL, ENOSYS): the caller then
/// renames as it would without a spare.  Any other failure throws.
bool exchange(const std::string& temp, const std::string& path) {
#if POR_HAVE_EXCHANGE
  struct stat st{};
  if (::lstat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) return false;
  if (::renameat2(AT_FDCWD, temp.c_str(), AT_FDCWD, path.c_str(),
                  RENAME_EXCHANGE) == 0) {
    return true;
  }
  if (errno == ENOENT || errno == EINVAL || errno == ENOSYS) return false;
  throw transient_error("atomic_write_file: exchange " + temp + " <-> " +
                        path + " failed");
#else
  (void)temp;
  (void)path;
  return false;
#endif
}

}  // namespace

void remove_artifact(const std::string& path) {
  sync_hook_point(SyncOp::kRemove, path);
  remove_spare(path);
  std::remove(path.c_str());
}

void remove_spare(const std::string& path) {
  std::remove(spare_path(path).c_str());
}

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
  // One span over the whole durable write, fsyncs included: where a
  // replace cannot recycle the old file and the filesystem discards
  // freed blocks synchronously, freeing the old file is the slow step
  // (DESIGN.md §10).
  const obs::ScopedSpan span("resilience.atomic_write");
  const std::string temp = make_temp_path(path);
  const std::string spare = spare_path(path);
  bool recycled = false;
  // The whole sequence runs under one remove-on-unwind guard: the
  // injection seam (sync_hook_point, see sync_hooks.hpp) may throw at
  // any step to simulate ENOSPC / EINTR / short writes, and every such
  // unwind must leave no temp file behind and the destination
  // untouched — a reader only ever sees the old complete artifact or
  // the new complete one.
  try {
    {
      sync_hook_point(SyncOp::kOpen, temp);
      // A reused spare is overwritten in place, not truncated: keeping
      // its blocks is the point, and only the tail past the new bytes
      // is cut below.
      const bool reused = claim_spare(spare, temp);
      HighWaterFilebuf buf;
      if (buf.open(temp, reused ? std::ios::binary | std::ios::in |
                                      std::ios::out
                                : std::ios::binary | std::ios::out |
                                      std::ios::trunc) == nullptr) {
        throw transient_error("atomic_write_file: cannot open temp file " +
                              temp);
      }
      std::ostream out(&buf);
      sync_hook_point(SyncOp::kWrite, temp);
      writer(out);
      sync_hook_point(SyncOp::kFlush, temp);
      out.flush();
      if (!out) {
        buf.close();
        throw transient_error("atomic_write_file: write failed for " + temp);
      }
#if POR_HAVE_EXCHANGE
      if (reused && ::truncate(temp.c_str(), buf.high_water()) != 0) {
        throw transient_error("atomic_write_file: truncate failed for " +
                              temp);
      }
#endif
    }
    // Durability before visibility: the temp's bytes must be on stable
    // storage before the rename makes them the official artifact.
    sync_hook_point(SyncOp::kFsync, temp);
    if (!fsync_path(temp)) {
      throw transient_error("atomic_write_file: fsync failed for " + temp);
    }
    sync_hook_point(SyncOp::kRename, temp);
    if (exchange(temp, path)) {
      // `temp` now names the replaced artifact; it becomes the spare
      // whose blocks the next write to `path` reuses.
      recycled = true;
      if (std::rename(temp.c_str(), spare.c_str()) != 0) {
        std::remove(temp.c_str());
      }
    } else if (std::rename(temp.c_str(), path.c_str()) != 0) {
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
  obs::MetricsRegistry& registry = obs::current_registry();
  registry.counter("resilience.io.atomic_writes").add();
  registry.counter("resilience.io.recycled_writes").add(recycled ? 1 : 0);
}

}  // namespace por::resilience
