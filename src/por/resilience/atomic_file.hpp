// por/resilience/atomic_file.hpp
//
// Crash-safe file replacement: write a temporary file in the target's
// directory, flush + fsync it, then rename() over the destination.
// POSIX rename is atomic within a filesystem, so a reader — including
// a restarted run resuming from a checkpoint — sees either the old
// complete artifact or the new complete artifact, never a half-written
// one.  All the writers in por::io (stacks, maps, orientation files)
// and the checkpoint log go through here.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace por::resilience {

/// Atomically replace `path` with the bytes `writer` streams out.
/// The writer receives a binary ofstream positioned at offset 0 of a
/// temp file `<path>.tmp.<pid>.<n>` in the same directory; on success
/// the temp is fsync'd and renamed onto `path` (and the directory
/// entry is fsync'd as well).  On any failure the temp file is removed
/// and an Error is thrown: kTransient for OS-level write/rename
/// failures (a retry may succeed on a flaky mount), while exceptions
/// thrown by `writer` itself propagate unchanged.  Increments the
/// "resilience.io.atomic_writes" counter on success; the whole write,
/// fsyncs included, is timed as the span "resilience.atomic_write".
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// fsync an already-written file (or a directory entry) by path.
/// Returns false when the open or fsync fails; best-effort true on
/// platforms without fsync.  Shared by the checkpoint and journal
/// writers so every durability point goes through one audited helper.
bool fsync_path(const std::string& path);

}  // namespace por::resilience
