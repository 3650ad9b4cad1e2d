// por/resilience/sync_hooks.hpp
//
// Injectable syscall seam for the durable-write paths (DESIGN.md §15).
// atomic_write_file and the por::journal segment writer call
// sync_hook_point() immediately BEFORE each step of their write
// sequences (open temp, stream write, flush, fsync, rename, directory
// fsync, unlink).  In production the seam is a single relaxed flag
// test — no hook installed, no work.  Tests install a hook to
//
//   * simulate I/O failure (throw transient_error for ENOSPC / EINTR /
//     short-write scenarios and verify no reader ever observes a
//     partial artifact), or
//   * crash the process (raise(SIGKILL)) at a chosen point INSIDE a
//     journal/checkpoint write syscall sequence — the chaos harness
//     (tests/chaos/) drives hundreds of seeded kills through here and
//     verifies the recovery invariants afterwards.
//
// The hook is process-global and test-only: install/clear it only
// while no other thread is inside a durable write.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace por::resilience {

/// The step about to be performed when a hook fires.
enum class SyncOp {
  kOpen,      ///< claiming a spare / opening a temp or segment file
  kWrite,     ///< streaming payload bytes into the file
  kFlush,     ///< flushing user-space buffers into the kernel
  kFsync,     ///< fsync of the file's bytes
  kRename,    ///< rename(temp -> final), or exchange + temp -> spare
  kDirFsync,  ///< fsync of the containing directory entry
  kRemove,    ///< unlinking a refused spare or a retired segment
};

[[nodiscard]] const char* to_string(SyncOp op);

/// Called with the step and the path it is about to touch.  May throw
/// (the write path classifies and unwinds exactly as it would for the
/// real failure) or terminate the process (the crash-injection case).
using SyncHook = std::function<void(SyncOp op, const std::string& path)>;

/// Install (or, with nullptr/empty, clear) the process-wide hook.
/// Test-only; not safe to race against in-flight durable writes.
void set_sync_hook(SyncHook hook);

/// Fire the hook for `op` on `path`.  No-op (one relaxed load) when no
/// hook is installed.
void sync_hook_point(SyncOp op, const std::string& path);

/// RAII installer: sets the hook for a test scope, restores "none" on
/// exit so a failed test cannot leak fault injection into the next.
class ScopedSyncHook {
 public:
  explicit ScopedSyncHook(SyncHook hook) { set_sync_hook(std::move(hook)); }
  ScopedSyncHook(const ScopedSyncHook&) = delete;
  ScopedSyncHook& operator=(const ScopedSyncHook&) = delete;
  ~ScopedSyncHook() { set_sync_hook(nullptr); }
};

}  // namespace por::resilience
