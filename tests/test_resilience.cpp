// Resilience-layer tests (DESIGN.md §10): error taxonomy, retry,
// atomic replacement, CRC-tagged checkpoints, the corrupt-input corpus
// for every por::io reader, deterministic vmpi fault injection, and
// the acceptance properties of the recovering parallel refiner —
// a killed rank's views are reassigned and the output is
// bitwise-identical to a fault-free run; a resumed run refines only
// the views missing from the checkpoint.
//
// Every test here carries the "fault" ctest label (plus "tsan": the
// rank-death and timeout paths are exactly the code the thread
// sanitizer should watch).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "por/core/parallel_refiner.hpp"
#include "por/core/refiner.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/atomic_file.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/resilience/crc32.hpp"
#include "por/resilience/error.hpp"
#include "por/resilience/retry.hpp"
#include "por/resilience/sync_hooks.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::core;
using namespace por::em;
using namespace std::chrono_literals;
namespace fs = std::filesystem;
using por::test::small_phantom;

// The work-protocol result tag of parallel_refiner.cpp; referenced
// here to aim drop rules at in-flight result messages.
constexpr vmpi::Tag kResultTag = 202;

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("por_resilience_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_raw(const fs::path& path, const void* data, std::size_t bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

template <typename Fn>
void expect_error_kind(resilience::ErrorKind kind, Fn&& fn) {
  try {
    fn();
    FAIL() << "expected resilience::Error{" << resilience::to_string(kind)
           << "}";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), kind) << error.what();
  }
}

// ---- error taxonomy -------------------------------------------------------

TEST(ResilienceError, CarriesKindAndPrefix) {
  const auto err = resilience::transient_error("mount flapped");
  EXPECT_EQ(err.kind(), resilience::ErrorKind::kTransient);
  EXPECT_TRUE(err.retryable());
  EXPECT_NE(std::string(err.what()).find("[transient]"), std::string::npos);
  EXPECT_FALSE(resilience::corrupt_error("x").retryable());
  EXPECT_FALSE(resilience::fatal_error("x").retryable());
}

TEST(ResilienceError, IsARuntimeError) {
  // Legacy catch sites must keep working.
  EXPECT_THROW(throw resilience::corrupt_error("bad"), std::runtime_error);
}

// ---- retry ----------------------------------------------------------------

resilience::RetryPolicy fast_retry(int attempts) {
  resilience::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_delay = 1ms;
  policy.max_delay = 2ms;
  return policy;
}

TEST(Retry, RetriesTransientUntilSuccess) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  int calls = 0;
  const int value = resilience::with_retry(fast_retry(5), "flaky", [&] {
    if (++calls < 3) throw resilience::transient_error("hiccup");
    return 7;
  });
  EXPECT_EQ(value, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(registry.snapshot().counters.at("resilience.io.retries"), 2u);
}

TEST(Retry, DoesNotRetryCorrupt) {
  int calls = 0;
  expect_error_kind(resilience::ErrorKind::kCorrupt, [&] {
    (void)resilience::with_retry(fast_retry(5), "corrupt", [&]() -> int {
      ++calls;
      throw resilience::corrupt_error("bad bytes");
    });
  });
  EXPECT_EQ(calls, 1);
}

TEST(Retry, ExhaustsAttemptsAndRethrows) {
  int calls = 0;
  expect_error_kind(resilience::ErrorKind::kTransient, [&] {
    (void)resilience::with_retry(fast_retry(3), "hopeless", [&]() -> int {
      ++calls;
      throw resilience::transient_error("still down");
    });
  });
  EXPECT_EQ(calls, 3);
}

TEST(Retry, DeterministicScheduleUnchangedByDefault) {
  // jitter defaults off: existing tuned configs keep the exact
  // base * multiplier^k (capped) schedule.
  resilience::RetryPolicy policy;
  policy.base_delay = 10ms;
  policy.multiplier = 2.0;
  policy.max_delay = 65ms;
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 0, 10ms), 10ms);
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 1, 10ms), 20ms);
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 2, 20ms), 40ms);
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 3, 40ms), 65ms);  // cap
}

TEST(Retry, DecorrelatedJitterFollowsRecurrence) {
  // With an injected uniform source the whole schedule is pinned:
  // sleep_k = min(cap, base + u_k * (3 * sleep_{k-1} - base)).
  resilience::RetryPolicy policy;
  policy.jitter = true;
  policy.base_delay = 10ms;
  policy.max_delay = 1000ms;
  std::vector<double> draws = {0.0, 1.0, 0.5};
  std::size_t next = 0;
  policy.rand01 = [&] { return draws[next++]; };

  // u = 0 collapses to the base delay.
  const auto d0 = resilience::detail::backoff_delay(policy, 0, 10ms);
  EXPECT_EQ(d0, 10ms);
  // u = 1 reaches the full 3 * prev span: 10 + (3*10 - 10) = 30.
  const auto d1 = resilience::detail::backoff_delay(policy, 1, d0);
  EXPECT_EQ(d1, 30ms);
  // u = 0.5 lands mid-span: 10 + 0.5 * (90 - 10) = 50.
  const auto d2 = resilience::detail::backoff_delay(policy, 2, d1);
  EXPECT_EQ(d2, 50ms);
}

TEST(Retry, JitterIsCappedAndBoundedBelow) {
  resilience::RetryPolicy policy;
  policy.jitter = true;
  policy.base_delay = 10ms;
  policy.max_delay = 40ms;
  policy.rand01 = [] { return 0.999; };
  // A huge previous sleep caps at max_delay...
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 5, 500ms), 40ms);
  // ...and a draw of zero never dips below the base.
  policy.rand01 = [] { return 0.0; };
  EXPECT_EQ(resilience::detail::backoff_delay(policy, 5, 500ms), 10ms);
}

TEST(Retry, JitteredWithRetryConsumesInjectedDraws) {
  // End-to-end through with_retry: the recurrence feeds each sleep back
  // as the next prev, and the injected source is consumed once per
  // performed retry (not per attempt).
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  resilience::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter = true;
  policy.base_delay = 0ms;  // keep the test sleepless
  policy.max_delay = 0ms;
  int draws = 0;
  policy.rand01 = [&] {
    ++draws;
    return 0.5;
  };
  int calls = 0;
  const int value = resilience::with_retry(policy, "jittered", [&] {
    if (++calls < 4) throw resilience::transient_error("hiccup");
    return 11;
  });
  EXPECT_EQ(value, 11);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(draws, 3);  // one per retry, none for the final success
  EXPECT_EQ(registry.snapshot().counters.at("resilience.io.retries"), 3u);
}

// ---- atomic file replacement ---------------------------------------------

TEST(AtomicFile, ReplacesWholeFileOrNothing) {
  const fs::path dir = test_dir("atomic");
  const fs::path path = dir / "artifact.txt";
  resilience::atomic_write_file(path.string(),
                                [](std::ostream& out) { out << "first"; });
  EXPECT_EQ(slurp(path), "first");

  // A writer that throws must leave the previous artifact untouched
  // and clean up its temp file.
  EXPECT_THROW(resilience::atomic_write_file(
                   path.string(),
                   [](std::ostream& out) {
                     out << "half-writ";
                     throw std::logic_error("crash mid-write");
                   }),
               std::logic_error);
  EXPECT_EQ(slurp(path), "first");
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temp file leaked";

  resilience::atomic_write_file(path.string(),
                                [](std::ostream& out) { out << "second"; });
  EXPECT_EQ(slurp(path), "second");
}

// ---- recycled replacement: the spare (atomic_file.hpp) -------------------
//
// Replacing a file keeps the replaced one as `<path>.spare`, and the
// next write to the path overwrites it in place — unless a hard link,
// an open descriptor or a mapping still reads it.

void write_file(const fs::path& path, const std::string& bytes) {
  resilience::atomic_write_file(path.string(),
                                [&](std::ostream& out) { out << bytes; });
}

ino_t inode_of(const fs::path& path) {
  struct stat st{};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

/// `bytes` bytes no two writes below share at any offset.
std::string pattern(std::size_t bytes, unsigned seed) {
  std::string out(bytes, '\0');
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>((i * 31u + seed * 101u + (i >> 12)) & 0xff);
  }
  return out;
}

fs::path spare_of(const fs::path& path) {
  return fs::path(path.string() + ".spare");
}

TEST(AtomicFile, ThirdWriteReusesTheFirstWritesInode) {
  const fs::path dir = test_dir("recycle");
  const fs::path path = dir / "artifact.bin";
  const std::string mib = pattern(1u << 20, 1);
  write_file(path, mib);
  const ino_t first = inode_of(path);
  write_file(path, "second");
  EXPECT_NE(inode_of(path), first);
  EXPECT_EQ(slurp(spare_of(path)), mib) << "the replaced file is the spare";

  // A 3-byte payload into the recycled 1 MiB file: the tail is cut.
  write_file(path, "abc");
  EXPECT_EQ(inode_of(path), first);
  EXPECT_EQ(fs::file_size(path), 3u);
  EXPECT_EQ(slurp(path), "abc");
  EXPECT_EQ(slurp(spare_of(path)), "second");
}

TEST(AtomicFile, CountsRecycledWrites) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  const fs::path path = test_dir("recycle_count") / "artifact.bin";
  write_file(path, "first");
  EXPECT_EQ(registry.snapshot().counters.at("resilience.io.recycled_writes"),
            0u);
  write_file(path, "second");
  const auto counters = registry.snapshot().counters;
  EXPECT_EQ(counters.at("resilience.io.recycled_writes"), 1u);
  EXPECT_EQ(counters.at("resilience.io.atomic_writes"), 2u);
}

TEST(AtomicFile, HardLinkKeepsItsBytesAcrossLaterWrites) {
  const fs::path dir = test_dir("recycle_link");
  const fs::path path = dir / "artifact.bin";
  const fs::path link = dir / "linked.bin";
  write_file(path, "original");
  fs::create_hard_link(path, link);
  write_file(path, "second!!");
  write_file(path, "third!!!");
  EXPECT_EQ(slurp(link), "original");
  EXPECT_EQ(slurp(path), "third!!!");
}

TEST(AtomicFile, OpenReaderKeepsItsBytesAcrossLaterWrites) {
  const fs::path path = test_dir("recycle_reader") / "artifact.bin";
  const std::string original = pattern(64u << 10, 1);
  write_file(path, original);
  std::ifstream reader(path, std::ios::binary);
  ASSERT_TRUE(reader);
  write_file(path, pattern(64u << 10, 2));
  write_file(path, pattern(64u << 10, 3));
  const std::string seen((std::istreambuf_iterator<char>(reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(seen == original) << "a later write reached an open file";
  EXPECT_EQ(slurp(path), pattern(64u << 10, 3));
}

TEST(AtomicFile, MappingKeepsItsBytesAcrossLaterWrites) {
  const fs::path path = test_dir("recycle_mmap") / "artifact.bin";
  const std::size_t bytes = 1u << 20;
  const std::string original = pattern(bytes, 1);
  write_file(path, original);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping alone keeps the file open
  ASSERT_NE(map, MAP_FAILED);
  write_file(path, pattern(bytes, 2));
  write_file(path, pattern(bytes, 3));
  const char* mapped = static_cast<const char*>(map);
  for (const std::size_t offset :
       {std::size_t{0}, std::size_t{4095}, std::size_t{4096}, bytes / 2 + 1,
        bytes - 1}) {
    EXPECT_EQ(mapped[offset], original[offset]) << "offset " << offset;
  }
  EXPECT_EQ(std::memcmp(mapped, original.data(), bytes), 0);
  ::munmap(map, bytes);
}

TEST(AtomicFile, WriterThatSeeksBackKeepsItsWholePayload) {
  // A writer that patches its header last and leaves the stream there:
  // the artifact still ends at its furthest byte, whether the write
  // starts a fresh temp or reuses a longer spare.
  const fs::path path = test_dir("recycle_seek") / "artifact.bin";
  const std::string payload = pattern(1000, 4);
  const auto patch_header_last = [&](std::ostream& out) {
    out << "????" << payload;
    out.seekp(0);
    out << "HDR!";
  };
  const std::string expected = "HDR!" + payload;
  resilience::atomic_write_file(path.string(), patch_header_last);
  EXPECT_EQ(slurp(path), expected);
  write_file(path, pattern(4000, 5));
  write_file(path, pattern(4000, 6));
  ASSERT_EQ(fs::file_size(spare_of(path)), 4000u);
  const ino_t spare = inode_of(spare_of(path));
  resilience::atomic_write_file(path.string(), patch_header_last);
  EXPECT_EQ(inode_of(path), spare) << "the write did not reuse the spare";
  EXPECT_EQ(slurp(path), expected);
}

TEST(AtomicFile, RemovalTakesTheSpareWithTheArtifact) {
  const fs::path dir = test_dir("recycle_remove");
  const fs::path path = dir / "artifact.bin";
  write_file(path, "first");
  write_file(path, "second");
  ASSERT_TRUE(fs::exists(spare_of(path)));

  // remove_spare keeps the artifact; the next replace keeps a new spare.
  resilience::remove_spare(path.string());
  EXPECT_FALSE(fs::exists(spare_of(path)));
  EXPECT_EQ(slurp(path), "second");
  resilience::remove_spare(path.string());  // no spare: a no-op
  write_file(path, "third");
  EXPECT_EQ(slurp(path), "third");
  EXPECT_EQ(slurp(spare_of(path)), "second");

  std::vector<std::string> removed;
  {
    resilience::ScopedSyncHook hook(
        [&removed](resilience::SyncOp op, const std::string& target) {
          if (op == resilience::SyncOp::kRemove) removed.push_back(target);
        });
    resilience::remove_artifact(path.string());
  }
  EXPECT_EQ(removed, std::vector<std::string>{path.string()});
  EXPECT_TRUE(fs::is_empty(dir));
}

resilience::CheckpointRecord make_record(std::uint64_t index) {
  resilience::CheckpointRecord rec;
  rec.view_index = index;
  rec.theta = 10.0 + static_cast<double>(index);
  rec.phi = 20.0 + static_cast<double>(index);
  rec.omega = 30.0 + static_cast<double>(index);
  rec.center_x = 0.5;
  rec.center_y = -0.5;
  rec.final_distance = 0.25;
  rec.matchings = 100 + index;
  return rec;
}

// ---- sync-hook fault injection (DESIGN.md §15) ----------------------------
//
// The SyncHooks seam fires immediately before every step of a durable
// write sequence.  These tests throw a transient error at each step in
// turn — the ENOSPC / EINTR / short-write shapes — and verify the
// atomicity contract: the destination always holds the OLD complete
// artifact, and no temp file survives the unwind.

TEST(SyncHooks, InjectedFailureAtEveryStepLeavesOldArtifact) {
  const fs::path dir = test_dir("hooks_steps");
  const fs::path path = dir / "artifact.bin";
  resilience::atomic_write_file(path.string(),
                                [](std::ostream& out) { out << "old"; });

  const resilience::SyncOp steps[] = {
      resilience::SyncOp::kOpen, resilience::SyncOp::kWrite,
      resilience::SyncOp::kFlush, resilience::SyncOp::kFsync,
      resilience::SyncOp::kRename};
  for (const resilience::SyncOp failing : steps) {
    {
      resilience::ScopedSyncHook hook(
          [failing](resilience::SyncOp op, const std::string&) {
            if (op == failing) {
              throw resilience::transient_error("injected ENOSPC");
            }
          });
      expect_error_kind(resilience::ErrorKind::kTransient, [&] {
        resilience::atomic_write_file(
            path.string(), [](std::ostream& out) { out << "new-half"; });
      });
    }
    EXPECT_EQ(slurp(path), "old")
        << "partial artifact after failure at "
        << resilience::to_string(failing);
    std::size_t entries = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      (void)entry;
      ++entries;
    }
    EXPECT_EQ(entries, 1u) << "temp leaked after failure at "
                           << resilience::to_string(failing);
  }

  // The hook gone, the same write succeeds.
  resilience::atomic_write_file(path.string(),
                                [](std::ostream& out) { out << "new"; });
  EXPECT_EQ(slurp(path), "new");
}

TEST(SyncHooks, InjectedFailureWithASpareLeavesOldArtifact) {
  // The same faults while the path has a spare to recycle.  A failure
  // before the swap leaves the old artifact; kDirFsync fires after it,
  // so there the new artifact is complete and already in place.  No
  // case leaves a temp file, and the spare is kept or dropped, never
  // multiplied.
  const resilience::SyncOp steps[] = {
      resilience::SyncOp::kOpen,     resilience::SyncOp::kWrite,
      resilience::SyncOp::kFlush,    resilience::SyncOp::kFsync,
      resilience::SyncOp::kRename,   resilience::SyncOp::kDirFsync,
      resilience::SyncOp::kRemove};
  for (const resilience::SyncOp failing : steps) {
    const std::string name = resilience::to_string(failing);
    const fs::path dir = test_dir("hooks_spare_" + name);
    const fs::path path = dir / "artifact.bin";
    write_file(path, "older");
    write_file(path, "old");
    ASSERT_TRUE(fs::exists(spare_of(path)));
    // A reader on the spare makes the claim refuse and unlink it, which
    // is the only kRemove of a write.
    std::ifstream spare_reader;
    if (failing == resilience::SyncOp::kRemove) {
      spare_reader.open(spare_of(path), std::ios::binary);
    }
    int fired = 0;
    {
      resilience::ScopedSyncHook hook(
          [failing, &fired](resilience::SyncOp op, const std::string&) {
            if (op == failing) {
              ++fired;
              throw resilience::transient_error("injected ENOSPC");
            }
          });
      expect_error_kind(resilience::ErrorKind::kTransient,
                        [&] { write_file(path, "new-whole"); });
    }
    EXPECT_EQ(fired, 1) << name;
    const bool swapped = failing == resilience::SyncOp::kDirFsync;
    EXPECT_EQ(slurp(path), swapped ? "new-whole" : "old")
        << "wrong artifact after failure at " << name;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string file = entry.path().filename().string();
      EXPECT_TRUE(file == "artifact.bin" || file == "artifact.bin.spare")
          << file << " left after failure at " << name;
    }
  }
}

TEST(SyncHooks, IntermittentFailureIsRetryable) {
  // EINTR shape: the first two attempts die inside the sequence, the
  // third goes through — with_retry turns the burst into one artifact.
  const fs::path path = test_dir("hooks_eintr") / "artifact.bin";
  int failures = 2;
  resilience::ScopedSyncHook hook(
      [&failures](resilience::SyncOp op, const std::string&) {
        if (op == resilience::SyncOp::kFsync && failures > 0) {
          --failures;
          throw resilience::transient_error("injected EINTR");
        }
      });
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  resilience::with_retry(fast_retry(5), "hooked_write", [&] {
    resilience::atomic_write_file(path.string(),
                                  [](std::ostream& out) { out << "payload"; });
  });
  EXPECT_EQ(slurp(path), "payload");
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(registry.snapshot().counters.at("resilience.io.retries"), 2u);
}

TEST(SyncHooks, CheckpointWriterNeverExposesPartialState) {
  // A checkpoint flush that dies mid-sequence must leave the previous
  // checkpoint fully intact; once the fault clears, a re-flush
  // persists everything appended so far (nothing was dropped).
  const fs::path path = test_dir("hooks_ckpt") / "run.porc";
  resilience::CheckpointWriter writer(path.string(), /*flush_every=*/1);
  writer.append(make_record(0));
  ASSERT_EQ(resilience::load_checkpoint(path.string()).size(), 1u);

  {
    resilience::ScopedSyncHook hook(
        [](resilience::SyncOp op, const std::string&) {
          if (op == resilience::SyncOp::kWrite) {
            throw resilience::transient_error("injected short write");
          }
        });
    expect_error_kind(resilience::ErrorKind::kTransient,
                      [&] { writer.append(make_record(1)); });
  }
  // The on-disk checkpoint is still the old, provably-intact one.
  const auto during = resilience::load_checkpoint(path.string());
  ASSERT_EQ(during.size(), 1u);
  EXPECT_EQ(during[0], make_record(0));

  // Fault cleared: the failed record was retained in the buffer, and
  // the next flush lands both.
  writer.flush();
  const auto after = resilience::load_checkpoint(path.string());
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1], make_record(1));
}

// ---- crc32 ----------------------------------------------------------------

TEST(Crc32, MatchesKnownVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(resilience::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(resilience::crc32("", 0), 0u);
}

// ---- checkpoint -----------------------------------------------------------

TEST(Checkpoint, RoundTripsRecords) {
  const fs::path path = test_dir("ckpt") / "run.porc";
  {
    resilience::CheckpointWriter writer(path.string(), 2);
    writer.append(make_record(0));
    writer.append(make_record(1));
    writer.append(make_record(2));
  }  // destructor flushes the odd record
  const auto loaded = resilience::load_checkpoint(path.string());
  ASSERT_EQ(loaded.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(loaded[i], make_record(i));
}

// The one ViewResult <-> CheckpointRecord conversion: every field set
// to a distinct non-default value survives the round trip.
TEST(Checkpoint, ViewResultRecordRoundTripKeepsEveryField) {
  ViewResult result;
  result.orientation = Orientation{12.5, 234.25, 301.125};
  result.center_x = -1.75;
  result.center_y = 2.5;
  result.final_distance = 0.375;
  result.matchings = 4321;
  result.cache_hits = 987;
  result.center_evals = 55;
  result.window_slides = 7;
  result.quarantined = 3;

  const resilience::CheckpointRecord record = to_record(42, result);
  EXPECT_EQ(record.view_index, 42u);
  EXPECT_EQ(record.theta, 12.5);
  EXPECT_EQ(record.phi, 234.25);
  EXPECT_EQ(record.omega, 301.125);
  EXPECT_EQ(record.center_x, -1.75);
  EXPECT_EQ(record.center_y, 2.5);
  EXPECT_EQ(record.final_distance, 0.375);
  EXPECT_EQ(record.matchings, 4321u);
  EXPECT_EQ(record.cache_hits, 987u);
  EXPECT_EQ(record.center_evals, 55u);
  EXPECT_EQ(record.window_slides, 7);
  EXPECT_EQ(record.quarantined, 3u);

  const ViewResult back = from_record(record);
  EXPECT_EQ(back.orientation, result.orientation);
  EXPECT_EQ(back.center_x, result.center_x);
  EXPECT_EQ(back.center_y, result.center_y);
  EXPECT_EQ(back.final_distance, result.final_distance);
  EXPECT_EQ(back.matchings, result.matchings);
  EXPECT_EQ(back.cache_hits, result.cache_hits);
  EXPECT_EQ(back.center_evals, result.center_evals);
  EXPECT_EQ(back.window_slides, result.window_slides);
  EXPECT_EQ(back.quarantined, result.quarantined);
  EXPECT_EQ(to_record(42, back), record);
}

TEST(Checkpoint, MissingFileIsFreshRun) {
  EXPECT_TRUE(
      resilience::load_checkpoint("/nonexistent/por/run.porc").empty());
}

TEST(Checkpoint, BadMagicIsCorrupt) {
  const fs::path path = test_dir("ckpt_magic") / "bad.porc";
  write_raw(path, "JUNKJUNKJUNK", 12);
  expect_error_kind(resilience::ErrorKind::kCorrupt, [&] {
    (void)resilience::load_checkpoint(path.string());
  });
}

TEST(Checkpoint, TornTailIsDroppedNotTrusted) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  const fs::path path = test_dir("ckpt_torn") / "run.porc";
  {
    resilience::CheckpointWriter writer(path.string(), 1);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(make_record(i));
  }
  // Simulate a crash mid-append: tear bytes off the last record.
  fs::resize_file(path, fs::file_size(path) - 5);
  const auto loaded = resilience::load_checkpoint(path.string());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[1], make_record(1));
  EXPECT_EQ(registry.snapshot().counters.at("resilience.checkpoint.crc_dropped"),
            1u);
}

TEST(Checkpoint, FlippedBitFailsCrc) {
  const fs::path path = test_dir("ckpt_flip") / "run.porc";
  {
    resilience::CheckpointWriter writer(path.string(), 1);
    writer.append(make_record(0));
    writer.append(make_record(1));
  }
  // Flip one bit inside the second record's payload.
  std::string bytes = slurp(path);
  bytes[bytes.size() - 20] ^= 0x01;
  write_raw(path, bytes.data(), bytes.size());
  const auto loaded = resilience::load_checkpoint(path.string());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], make_record(0));
}

// ---- corrupt-input corpus: every reader yields typed errors ---------------

// A map header and a stack manifest are both a magic, a version and
// u64 dimensions, so a one-view 1x3 stack's manifest is byte-plausible
// as a 1x1x3 map.  Each reader must reject the other's file on the
// magic, before parsing any field.
TEST(CorruptCorpus, MapAndStackManifestRejectEachOtherOnMagic) {
  const fs::path dir = test_dir("corpus_cross_format");
  const auto expect_bad_magic = [](const auto& read) {
    try {
      read();
      FAIL() << "expected a bad-magic error";
    } catch (const resilience::Error& error) {
      EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
      EXPECT_NE(std::string(error.what()).find("magic"), std::string::npos)
          << error.what();
    }
  };
  const std::string stack = (dir / "one.shards").string();
  stream::write_sharded_stack(stack, {Image<double>(1, 3, 1.0)});
  expect_bad_magic([&] { (void)io::read_map(stack); });

  const std::string map = (dir / "map.porm").string();
  io::write_map(map, Volume<double>(1, 1, 3, 1.0));
  expect_bad_magic([&] { (void)stream::open_view_source(map); });
}

TEST(CorruptCorpus, MapReaderRejectsEveryMalformation) {
  const fs::path dir = test_dir("corpus_map");
  using resilience::ErrorKind;

  expect_error_kind(ErrorKind::kTransient, [&] {
    (void)io::read_map((dir / "absent.porm").string());
  });
  {  // bad magic
    const fs::path p = dir / "magic.porm";
    write_raw(p, "NOPE\x01\x00\x00\x00", 8);
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_map(p.string()); });
  }
  {  // implausible dimensions
    const fs::path p = dir / "dims.porm";
    std::ofstream out(p, std::ios::binary);
    out.write("PORM", 4);
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    const std::uint64_t dims[3] = {0, 4, 4};
    out.write(reinterpret_cast<const char*>(dims), sizeof dims);
    out.close();
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_map(p.string()); });
  }
  {  // truncated payload
    const fs::path p = dir / "payload.porm";
    std::ofstream out(p, std::ios::binary);
    out.write("PORM", 4);
    const std::uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    const std::uint64_t dims[3] = {4, 4, 4};
    out.write(reinterpret_cast<const char*>(dims), sizeof dims);
    const double few[5] = {1, 2, 3, 4, 5};
    out.write(reinterpret_cast<const char*>(few), sizeof few);
    out.close();
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_map(p.string()); });
  }
  {  // round trip still works
    const fs::path p = dir / "good.porm";
    Volume<double> vol(4);
    vol.storage().assign(64, 3.0);
    io::write_map(p.string(), vol);
    EXPECT_EQ(io::read_map(p.string()).storage(), vol.storage());
  }
}

TEST(CorruptCorpus, OrientationReaderRejectsEveryMalformation) {
  const fs::path dir = test_dir("corpus_orient");
  using resilience::ErrorKind;

  expect_error_kind(ErrorKind::kTransient, [&] {
    (void)io::read_orientations((dir / "absent.txt").string());
  });
  {  // malformed line
    const fs::path p = dir / "malformed.txt";
    write_raw(p, "# header\n0 1 2 three 4 5\n", 25);
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_orientations(p.string()); });
  }
  {  // non-finite value
    const fs::path p = dir / "nonfinite.txt";
    const std::string text = "0 nan 0 0 0 0\n";
    write_raw(p, text.data(), text.size());
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_orientations(p.string()); });
  }
  {  // record index out of place: view 0 would start from view 1's pose
    const fs::path p = dir / "swapped.txt";
    const std::string text = "1 10 20 30 0 0\n0 40 50 60 0 0\n";
    write_raw(p, text.data(), text.size());
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_orientations(p.string()); });
  }
  {  // a seventh field
    const fs::path p = dir / "trailing.txt";
    const std::string text = "0 10 20 30 0 0 7\n";
    write_raw(p, text.data(), text.size());
    expect_error_kind(ErrorKind::kCorrupt,
                      [&] { (void)io::read_orientations(p.string()); });
  }
}

// ---- vmpi fault injection -------------------------------------------------

TEST(FaultInjection, DropLosesExactlyTheMatchedMessage) {
  vmpi::FaultPlan plan;
  plan.drop(0, 1, /*tag=*/5, /*seq=*/0);  // first 0->1 tag-5 send is lost
  vmpi::FaultStats stats;
  vmpi::run(
      2, plan,
      [&](vmpi::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value(1, 5, 111);
          comm.send_value(1, 5, 222);
        } else {
          // The dropped message never arrives; the next one on the
          // channel is delivered in its place.
          EXPECT_EQ(comm.recv_value<int>(0, 5), 222);
        }
      },
      &stats);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.injected(), 1u);
}

TEST(FaultInjection, CorruptXorsPayloadBytes) {
  vmpi::FaultPlan plan;
  plan.corrupt(0, 1, /*tag=*/5, /*seq=*/0);
  vmpi::FaultStats stats;
  vmpi::run(
      2, plan,
      [&](vmpi::Comm& comm) {
        const std::vector<unsigned char> sent{0x00, 0xFF, 0x5A};
        if (comm.rank() == 0) {
          comm.send(1, 5, sent);
        } else {
          const auto got = comm.recv<unsigned char>(0, 5);
          ASSERT_EQ(got.size(), sent.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], static_cast<unsigned char>(sent[i] ^ 0x5A));
          }
        }
      },
      &stats);
  EXPECT_EQ(stats.corrupted, 1u);
}

TEST(FaultInjection, DelayDeliversIntactLater) {
  vmpi::FaultPlan plan;
  plan.delay(0, 1, /*tag=*/5, /*seq=*/0, 20ms);
  vmpi::FaultStats stats;
  vmpi::run(
      2, plan,
      [&](vmpi::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value(1, 5, 42);
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 5), 42);
        }
      },
      &stats);
  EXPECT_EQ(stats.delayed, 1u);
}

TEST(FaultInjection, DeadlineRecvThrowsCommTimeout) {
  vmpi::FaultStats stats;
  vmpi::run(
      2, vmpi::FaultPlan{},
      [&](vmpi::Comm& comm) {
        if (comm.rank() == 1) {
          comm.set_deadline(50ms);
          bool timed_out = false;
          try {
            (void)comm.recv_value<int>(0, 9);  // never sent
          } catch (const vmpi::CommTimeout& timeout) {
            timed_out = true;
            EXPECT_EQ(timeout.dst(), 1);
            EXPECT_EQ(timeout.src(), 0);
            EXPECT_EQ(timeout.tag(), 9);
          }
          EXPECT_TRUE(timed_out);
          comm.set_deadline(0ms);  // back to block-forever
        }
      },
      &stats);
  EXPECT_GE(stats.timeouts, 1u);
}

TEST(FaultInjection, TryRecvAnyDistinguishesSilenceFromMessage) {
  vmpi::run(2, [&](vmpi::Comm& comm) {
    if (comm.rank() == 0) {
      int src = -1;
      // Nothing can have been sent yet: the poll must report silence.
      EXPECT_EQ(comm.try_recv_any_value<int>(7, src, 0ms), std::nullopt);
      comm.barrier();
      const auto value = comm.try_recv_any_value<int>(7, src, 2000ms);
      ASSERT_TRUE(value.has_value());
      EXPECT_EQ(*value, 42);
      EXPECT_EQ(src, 1);
    } else {
      comm.barrier();
      comm.send_value(0, 7, 42);
    }
  });
}

TEST(FaultInjection, KillRuleRaisesRankKilledAtStep) {
  vmpi::FaultPlan plan;
  plan.kill_rank_at_step(1, 2);
  vmpi::FaultStats stats;
  vmpi::run(
      2, plan,
      [&](vmpi::Comm& comm) {
        if (comm.rank() == 1) {
          comm.fault_point(0);
          comm.fault_point(1);
          EXPECT_THROW(comm.fault_point(2), vmpi::RankKilled);
        } else {
          comm.fault_point(0);  // no rule for rank 0
        }
      },
      &stats);
  EXPECT_EQ(stats.kills, 1u);
}

// ---- recovering parallel refiner ------------------------------------------

// ThreadSanitizer slows the per-view refinement ~10-20x, so a 100 ms
// heartbeat would false-declare slow-but-alive ranks dead (recovery
// still yields bitwise-identical results — that's the design — but
// exact dead/reassigned counts become nondeterministic).  Scale the
// timeout up under TSan so the counts stay exact.
#if defined(__SANITIZE_THREAD__)
constexpr int kTimingScale = 30;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTimingScale = 30;
#else
constexpr int kTimingScale = 1;
#endif
#else
constexpr int kTimingScale = 1;
#endif

RefinerConfig fast_config() {
  RefinerConfig config;
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                     SearchLevel{0.25, 5, 0.25, 3}};
  config.match.r_map = 8.0;
  config.refine_centers = false;
  config.resilience.heartbeat_timeout = 100ms * kTimingScale;
  return config;
}

struct Workload {
  std::size_t l;
  BlobModel model;
  Volume<double> map;
  std::vector<Image<double>> views;
  std::vector<Orientation> initials;
  std::vector<std::pair<double, double>> centers;

  explicit Workload(int m = 10, std::size_t edge = 16)
      : l(edge), model(small_phantom(edge, 10)), map(model.rasterize(edge)) {
    util::Rng rng(97);
    for (int i = 0; i < m; ++i) {
      const Orientation truth = por::test::random_orientation(rng);
      views.push_back(model.project_analytic(l, truth));
      initials.push_back({truth.theta + rng.uniform(-1, 1),
                          truth.phi + rng.uniform(-1, 1),
                          truth.omega + rng.uniform(-1, 1)});
      centers.emplace_back(0.0, 0.0);
    }
  }
};

ParallelRefineReport run_refine(int ranks, const vmpi::FaultPlan& plan,
                                const Workload& w,
                                const RefinerConfig& config) {
  ParallelRefineReport report;
  vmpi::run(ranks, plan, [&](vmpi::Comm& comm) {
    auto r = parallel_refine(comm, w.map, w.l, w.views, w.initials, w.centers,
                             config);
    if (comm.is_root()) report = std::move(r);
  });
  return report;
}

void expect_identical_results(const std::vector<ViewResult>& a,
                              const std::vector<ViewResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise identity, not tolerance: recovery re-runs the identical
    // deterministic per-view refinement.
    EXPECT_EQ(a[i].orientation, b[i].orientation) << "view " << i;
    EXPECT_EQ(a[i].center_x, b[i].center_x) << "view " << i;
    EXPECT_EQ(a[i].center_y, b[i].center_y) << "view " << i;
    EXPECT_EQ(a[i].final_distance, b[i].final_distance) << "view " << i;
    EXPECT_EQ(a[i].quarantined, b[i].quarantined) << "view " << i;
  }
}

TEST(FaultRecovery, KilledRankViewsAreReassignedBitIdentical) {
  const Workload w;
  const RefinerConfig config = fast_config();

  const ParallelRefineReport clean =
      run_refine(4, vmpi::FaultPlan{}, w, config);
  ASSERT_EQ(clean.results.size(), w.views.size());
  EXPECT_EQ(clean.dead_ranks, 0u);
  EXPECT_EQ(clean.reassigned_views, 0u);

  // Rank 2 dies after refining exactly one view (mid steps d-l); the
  // master's heartbeat detector must reassign the remainder.
  vmpi::FaultPlan plan;
  plan.kill_rank_at_step(2, 1);
  const ParallelRefineReport recovered = run_refine(4, plan, w, config);
  EXPECT_EQ(recovered.dead_ranks, 1u);
  EXPECT_GT(recovered.reassigned_views, 0u);
  expect_identical_results(clean.results, recovered.results);

  // The injected faults surface in the merged obs report.
  EXPECT_GE(recovered.obs.merged.counters.at("resilience.faults.kills"), 1u);
  EXPECT_GE(recovered.obs.merged.counters.at("resilience.dead_ranks"), 1u);
}

TEST(FaultRecovery, RankDeadFromTheStartStillCompletes) {
  const Workload w(8);
  const RefinerConfig config = fast_config();
  const ParallelRefineReport clean =
      run_refine(2, vmpi::FaultPlan{}, w, config);

  vmpi::FaultPlan plan;
  plan.kill_rank_at_step(1, 0);  // dies before refining anything
  const ParallelRefineReport recovered = run_refine(2, plan, w, config);
  EXPECT_EQ(recovered.dead_ranks, 1u);
  EXPECT_EQ(recovered.reassigned_views,
            static_cast<std::uint64_t>(w.views.size()) -
                recovered.results.size() / 2);  // rank 1's whole block
  expect_identical_results(clean.results, recovered.results);
}

TEST(FaultRecovery, DroppedResultMessageIsRecovered) {
  const Workload w(6);
  const RefinerConfig config = fast_config();
  const ParallelRefineReport clean =
      run_refine(2, vmpi::FaultPlan{}, w, config);

  // Lose rank 1's first refined-view message on the wire.  The done
  // marker then closes the batch with one view unaccounted for, which
  // the master treats exactly like a dead rank's leftovers.
  vmpi::FaultPlan plan;
  plan.drop(1, 0, kResultTag, /*seq=*/0);
  const ParallelRefineReport recovered = run_refine(2, plan, w, config);
  EXPECT_EQ(recovered.reassigned_views, 1u);
  expect_identical_results(clean.results, recovered.results);
}

TEST(FaultRecovery, OrientationFileBitwiseIdenticalAfterRankDeath) {
  const fs::path dir = test_dir("file_recovery");
  const Workload w;
  const RefinerConfig config = fast_config();

  const std::string map_path = (dir / "map.porm").string();
  const std::string stack_path = (dir / "views.shards").string();
  const std::string orient_in = (dir / "orient_in.txt").string();
  io::write_map(map_path, w.map);
  stream::write_sharded_stack(stack_path, w.views);
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < w.views.size(); ++i) {
    records.push_back(io::ViewOrientation{i, w.initials[i], 0.0, 0.0});
  }
  io::write_orientations(orient_in, records, "initial");

  const std::string out_clean = (dir / "out_clean.txt").string();
  vmpi::run(4, [&](vmpi::Comm& comm) {
    (void)parallel_refine_files(comm, map_path, stack_path, orient_in,
                                out_clean, config);
  });

  const std::string out_faulty = (dir / "out_faulty.txt").string();
  vmpi::FaultPlan plan;
  plan.kill_rank_at_step(3, 1);
  vmpi::run(4, plan, [&](vmpi::Comm& comm) {
    (void)parallel_refine_files(comm, map_path, stack_path, orient_in,
                                out_faulty, config);
  });

  // The acceptance bar: the recovered run's orientation file is
  // byte-for-byte the fault-free file.
  EXPECT_EQ(slurp(out_clean), slurp(out_faulty));
}

// ---- scheduler workers inside the ranks -----------------------------------

void expect_identical_statistics(const std::vector<ViewResult>& a,
                                 const std::vector<ViewResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].matchings, b[i].matchings) << "view " << i;
    EXPECT_EQ(a[i].cache_hits, b[i].cache_hits) << "view " << i;
    EXPECT_EQ(a[i].center_evals, b[i].center_evals) << "view " << i;
    EXPECT_EQ(a[i].window_slides, b[i].window_slides) << "view " << i;
  }
}

// refine_workers != 1 runs each rank's share on the Scheduler's worker
// pool in groups of refine_workers views, the master's own block
// and each worker rank's assignments alike.  Neither may change a bit
// of the per-view results or statistics.  l = 18 keeps the padded edge (36)
// divisible by 3 ranks.
TEST(ParallelRefineWorkers, BitwiseEqualToOneWorkerOnOneAndThreeRanks) {
  const Workload w(10, 18);
  const RefinerConfig serial = fast_config();
  for (const int ranks : {1, 3}) {
    const ParallelRefineReport reference =
        run_refine(ranks, vmpi::FaultPlan{}, w, serial);
    ASSERT_EQ(reference.results.size(), w.views.size());
    for (const int workers : {2, 4}) {
      SCOPED_TRACE(testing::Message()
                   << ranks << " ranks, " << workers << " workers");
      RefinerConfig config = fast_config();
      config.refine_workers = workers;
      const ParallelRefineReport report =
          run_refine(ranks, vmpi::FaultPlan{}, w, config);
      expect_identical_results(reference.results, report.results);
      expect_identical_statistics(reference.results, report.results);
      // Every rank — the master's own block and each worker rank's
      // assignments — really ran on its scheduler.
      ASSERT_EQ(report.obs.per_rank.size(), static_cast<std::size_t>(ranks));
      for (const obs::Snapshot& rank : report.obs.per_rank) {
        const auto tasks = rank.counters.find("serve.sched.tasks");
        ASSERT_NE(tasks, rank.counters.end());
        EXPECT_GT(tasks->second, 0u);
      }
    }
  }
}

TEST(ParallelRefineWorkers, KilledRankRecoversBitwiseWithTwoWorkers) {
  const Workload w;
  const ParallelRefineReport clean =
      run_refine(4, vmpi::FaultPlan{}, w, fast_config());

  // With a scheduler the worker rank passes the fault points of a
  // whole group before refining it, so the kill lands before any of
  // that group's results is sent and the master must reassign them.
  RefinerConfig config = fast_config();
  config.refine_workers = 2;
  vmpi::FaultPlan plan;
  plan.kill_rank_at_step(2, 1);
  const ParallelRefineReport recovered = run_refine(4, plan, w, config);
  EXPECT_GE(recovered.dead_ranks, 1u);
  EXPECT_GT(recovered.reassigned_views, 0u);
  expect_identical_results(clean.results, recovered.results);
  expect_identical_statistics(clean.results, recovered.results);
}

TEST(ParallelRefineWorkers, NegativeWorkerCountIsRejected) {
  const Workload w(2);
  RefinerConfig config = fast_config();
  config.refine_workers = -1;
  EXPECT_THROW((void)OrientationRefiner(w.map, config), std::invalid_argument);
  EXPECT_THROW(run_refine(1, vmpi::FaultPlan{}, w, config),
               std::invalid_argument);
}

// ---- checkpoint / restart -------------------------------------------------

TEST(CheckpointRestart, ResumeRefinesOnlyMissingViews) {
  const fs::path dir = test_dir("restart");
  const Workload w(8);
  RefinerConfig config = fast_config();

  // Full run, recording a checkpoint as it goes.
  config.resilience.checkpoint_path = (dir / "full.porc").string();
  const ParallelRefineReport full =
      run_refine(2, vmpi::FaultPlan{}, w, config);
  const auto all_records =
      resilience::load_checkpoint(config.resilience.checkpoint_path);
  ASSERT_EQ(all_records.size(), w.views.size());

  // Simulate an interrupted run: a checkpoint holding only the first
  // half of the records.
  const std::string partial = (dir / "partial.porc").string();
  {
    resilience::CheckpointWriter writer(partial, 1);
    for (std::size_t i = 0; i < all_records.size() / 2; ++i) {
      writer.append(all_records[i]);
    }
  }

  // Resume: restored views must be taken from the checkpoint, the
  // rest refined, and the final results identical to the full run.
  config.resilience.checkpoint_path = partial;
  config.resilience.resume = true;
  const ParallelRefineReport resumed =
      run_refine(2, vmpi::FaultPlan{}, w, config);
  EXPECT_EQ(resumed.restored_views, all_records.size() / 2);
  EXPECT_EQ(resumed.obs.merged.counters.at(
                "resilience.checkpoint.restored_views"),
            all_records.size() / 2);
  expect_identical_results(full.results, resumed.results);
  // Only the remainder was refined.
  EXPECT_LT(resumed.total_matchings, full.total_matchings);

  // After the resumed run the checkpoint is complete again.
  EXPECT_EQ(resilience::load_checkpoint(partial).size(), w.views.size());

  // Resuming a finished run refines nothing at all.
  const ParallelRefineReport noop = run_refine(2, vmpi::FaultPlan{}, w, config);
  EXPECT_EQ(noop.restored_views, w.views.size());
  EXPECT_EQ(noop.total_matchings, 0u);
  expect_identical_results(full.results, noop.results);
}

// ---- per-view quarantine --------------------------------------------------

TEST(Quarantine, NonFiniteViewIsFlaggedNotPoisonous) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  const Workload w(2);
  const OrientationRefiner refiner(w.map, fast_config());

  Image<double> poisoned = w.views[0];
  poisoned.storage()[5] = std::numeric_limits<double>::quiet_NaN();
  const Orientation initial = w.initials[0];
  const ViewResult result = refiner.refine_view(poisoned, initial, 0.25, -0.5);
  EXPECT_EQ(result.quarantined, 1u);
  EXPECT_EQ(result.orientation, initial);  // untouched
  EXPECT_EQ(result.center_x, 0.25);
  EXPECT_EQ(result.center_y, -0.5);
  EXPECT_EQ(registry.snapshot().counters.at("resilience.views.quarantined"),
            1u);
}

TEST(Quarantine, ParallelRunCountsAndSkipsBadViews) {
  Workload w(6);
  w.views[3].storage()[0] = std::numeric_limits<double>::infinity();
  const ParallelRefineReport report =
      run_refine(2, vmpi::FaultPlan{}, w, fast_config());
  ASSERT_EQ(report.results.size(), 6u);
  EXPECT_EQ(report.quarantined_views, 1u);
  EXPECT_EQ(report.results[3].quarantined, 1u);
  EXPECT_EQ(report.results[3].orientation, w.initials[3]);
  EXPECT_EQ(report.obs.merged.counters.at("resilience.views.quarantined"),
            1u);
  for (std::size_t i = 0; i < 6; ++i) {
    if (i != 3) {
      EXPECT_EQ(report.results[i].quarantined, 0u);
    }
  }
}

}  // namespace
