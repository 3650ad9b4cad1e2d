// por/resilience/atomic_file.hpp
//
// Crash-safe file replacement: write a temporary file in the target's
// directory, flush + fsync it, then swap it in for the destination.
// POSIX rename (and Linux's renameat2 RENAME_EXCHANGE) is atomic
// within a filesystem, so a reader — including a restarted run
// resuming from a checkpoint — sees either the old complete artifact
// or the new complete artifact, never a half-written one.  All the
// writers in por::io (stacks, maps, orientation files), the checkpoint
// log and the journal's heal and compaction go through here.
#pragma once

#include <functional>
#include <ostream>
#include <string>

namespace por::resilience {

/// Atomically replace `path` with the bytes `writer` streams out.
/// The writer receives a binary stream positioned at offset 0 of a
/// temp file `<path>.tmp.<pid>.<n>` in the same directory; it may seek
/// (to patch a header, say), and the artifact ends at the furthest byte
/// the stream reached.  On success the temp is fsync'd and swapped in
/// for `path` (and the directory entry is fsync'd as well).  On any
/// failure the temp file is removed and an Error is thrown: kTransient
/// for OS-level write/rename failures (a retry may succeed on a flaky
/// mount), while exceptions thrown by `writer` itself propagate
/// unchanged.  Increments the "resilience.io.atomic_writes" counter on
/// success, and "resilience.io.recycled_writes" when the replaced file
/// was kept as the spare; the whole write, fsyncs included, is timed
/// as the span "resilience.atomic_write".
///
/// The spare.  Replacing a file frees no blocks (DESIGN.md §10): where
/// the filesystem supports renameat2(RENAME_EXCHANGE) (Linux), the temp
/// is exchanged with `path`, and the replaced file stays on disk as
/// `<path>.spare`.  The next write to `path` claims the spare as its
/// temp and overwrites it in place, then cuts it to the new length
/// (the furthest byte written, wherever the writer left the stream) —
/// but only when it is a regular file with one link that no descriptor
/// or mapping holds open (a write lease proves that); otherwise the
/// spare is unlinked and a fresh temp is written, as without one.
///   * Footprint: at most one extra copy per replaced path — one per
///     map or orientation file a loop rewrites, one per multi-view
///     serve job's checkpoint until the job ends.  A path written
///     once has no spare.  Delete an artifact with remove_artifact,
///     which takes the spare with it, and call remove_spare once a path
///     will not be replaced again (por::serve does, when a job ends).
///     The blocks a replace no longer frees are freed when the files
///     are deleted, so on a filesystem that discards freed blocks
///     synchronously the deleter pays what the writes saved — once
///     per path instead of once per replace.
///   * Readers: a reader that holds the old file open or mapped, or a
///     hard link to it, keeps the old bytes across any number of later
///     writes — such a spare is never written into.
///   * Fallback: when `path` does not exist or is not a regular file,
///     or the exchange fails with ENOENT, EINVAL or ENOSYS, the temp is
///     renamed over `path` as a plain rename always did, and no spare
///     is kept.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Delete the artifact at `path` and its spare, spare first (a crash
/// in between leaves the artifact, not an orphaned spare).  Fires the
/// kRemove hook point for `path` first; unlink failures are ignored, as
/// std::remove's always were here.
void remove_artifact(const std::string& path);

/// Unlink `path`'s spare, if it has one: the artifact stays, and the
/// next write to `path` writes a fresh temp.  For a path that will not
/// be replaced again, whose spare would only hold disk.  Best effort,
/// like remove_artifact, and without a hook point: nothing a reader
/// sees depends on it.
void remove_spare(const std::string& path);

/// fsync an already-written file (or a directory entry) by path.
/// Returns false when the open or fsync fails; best-effort true on
/// platforms without fsync.  Shared by the checkpoint and journal
/// writers so every durability point goes through one audited helper.
bool fsync_path(const std::string& path);

}  // namespace por::resilience
