// por::journal tests (DESIGN.md §15): segment framing and CRC
// round-trips, torn-tail tolerance (final segment only) with
// self-healing on reopen, loud kCorrupt for non-crash damage,
// rotation, crash-safe compaction via the snapshot flag, and the
// job_record codec the RefineService layers on top.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "por/journal/journal.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/error.hpp"
#include "por/resilience/sync_hooks.hpp"
#include "por/serve/job_record.hpp"

namespace {

using namespace por;
namespace fs = std::filesystem;

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("por_journal_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir.parent_path());
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_raw(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<fs::path> segment_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".porj") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

template <typename Fn>
void expect_corrupt(Fn&& fn) {
  try {
    fn();
    FAIL() << "expected resilience::Error{corrupt}";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt) << error.what();
  }
}

// ---- append / replay ------------------------------------------------------

TEST(Journal, AppendsReplayInOrderAcrossReopen) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  const fs::path dir = test_dir("roundtrip");
  {
    journal::Journal journal(dir.string());
    EXPECT_TRUE(journal.replayed().records.empty());
    journal.append(1, "alpha");
    journal.append(2, std::string("beta"), /*durable=*/false);
    journal.append(3, std::string("\x00\xff\x7f", 3));  // binary-safe
  }
  {
    journal::Journal journal(dir.string());
    const journal::ReplayResult& replayed = journal.replayed();
    ASSERT_EQ(replayed.records.size(), 3u);
    EXPECT_EQ(replayed.records[0].type, 1u);
    EXPECT_EQ(replayed.records[0].payload, "alpha");
    EXPECT_EQ(replayed.records[1].type, 2u);
    EXPECT_EQ(replayed.records[1].payload, "beta");
    EXPECT_EQ(replayed.records[2].payload, std::string("\x00\xff\x7f", 3));
    EXPECT_EQ(replayed.torn_bytes, 0u);
    // Reopened journals keep appending after the replayed tail.
    journal.append(4, "gamma");
  }
  const journal::ReplayResult replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.records[3].payload, "gamma");
  EXPECT_GE(registry.snapshot().counters.at("journal.appends"), 4u);
  EXPECT_GE(registry.snapshot().counters.at("journal.fsyncs"), 1u);
}

TEST(Journal, EmptyPayloadAndEmptyDirAreFine) {
  const fs::path dir = test_dir("empty");
  {
    journal::Journal journal(dir.string());
    journal.append(9, "");
  }
  const auto replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].type, 9u);
  EXPECT_TRUE(replay.records[0].payload.empty());
}

// ---- torn tails -----------------------------------------------------------

TEST(Journal, TornFinalTailIsDroppedAndHealed) {
  obs::MetricsRegistry registry;
  obs::RegistryScope scope(registry);
  const fs::path dir = test_dir("torn");
  {
    journal::Journal journal(dir.string());
    journal.append(1, "kept-one");
    journal.append(2, "kept-two");
    journal.append(3, "torn-away");
  }
  // Crash mid-append: shear bytes off the last record.
  const fs::path segment = segment_files(dir).back();
  fs::resize_file(segment, fs::file_size(segment) - 3);

  {
    journal::Journal journal(dir.string());
    const journal::ReplayResult& replayed = journal.replayed();
    ASSERT_EQ(replayed.records.size(), 2u);
    EXPECT_EQ(replayed.records[1].payload, "kept-two");
    EXPECT_GT(replayed.torn_bytes, 0u);
    // Self-healed: appends resume cleanly after the valid prefix.
    journal.append(4, "after-heal");
  }
  const auto replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].payload, "after-heal");
  EXPECT_EQ(replay.torn_bytes, 0u) << "heal left damage behind";
  EXPECT_EQ(registry.snapshot().counters.at("journal.torn_tails"), 1u);
}

TEST(Journal, FlippedBitInFinalTailDropsOnlyTheBadSuffix) {
  const fs::path dir = test_dir("flip");
  {
    journal::Journal journal(dir.string());
    journal.append(1, "one");
    journal.append(2, "two");
  }
  const fs::path segment = segment_files(dir).back();
  std::string bytes = slurp(segment);
  bytes[bytes.size() - 2] ^= 0x40;  // inside the last record's CRC
  write_raw(segment, bytes);

  journal::Journal journal(dir.string());
  ASSERT_EQ(journal.replayed().records.size(), 1u);
  EXPECT_EQ(journal.replayed().records[0].payload, "one");
}

TEST(Journal, DamageInNonFinalSegmentIsLoudCorruption) {
  const fs::path dir = test_dir("nonfinal");
  journal::JournalOptions options;
  options.max_segment_bytes = 64;  // force rotations
  {
    journal::Journal journal(dir.string(), options);
    for (int i = 0; i < 8; ++i) {
      journal.append(1, "payload-" + std::to_string(i));
    }
  }
  const std::vector<fs::path> segments = segment_files(dir);
  ASSERT_GE(segments.size(), 2u);
  // A flipped bit in a NON-final segment cannot be a crash tail.
  std::string bytes = slurp(segments.front());
  bytes[bytes.size() - 2] ^= 0x01;
  write_raw(segments.front(), bytes);
  expect_corrupt([&] { (void)journal::Journal::replay_dir(dir.string()); });
}

TEST(Journal, BadMagicIsLoudEvenInFinalSegment) {
  const fs::path dir = test_dir("magic");
  { journal::Journal journal(dir.string()); }
  const fs::path segment = segment_files(dir).back();
  std::string bytes = slurp(segment);
  bytes[0] = 'X';
  write_raw(segment, bytes);
  expect_corrupt([&] { (void)journal::Journal::replay_dir(dir.string()); });
}

// ---- rotation -------------------------------------------------------------

TEST(Journal, RotatesSegmentsAndReplaysAcrossAll) {
  const fs::path dir = test_dir("rotate");
  journal::JournalOptions options;
  options.max_segment_bytes = 128;
  const int n = 32;
  {
    journal::Journal journal(dir.string(), options);
    for (int i = 0; i < n; ++i) {
      journal.append(static_cast<std::uint32_t>(i), "record");
    }
    EXPECT_GT(journal.active_segment(), 1u) << "never rotated";
  }
  EXPECT_GE(segment_files(dir).size(), 2u);
  const auto replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(replay.records[static_cast<std::size_t>(i)].type,
              static_cast<std::uint32_t>(i));
  }
}

// ---- compaction -----------------------------------------------------------

TEST(Journal, RewriteCompactsToOneSnapshotSegment) {
  const fs::path dir = test_dir("rewrite");
  journal::JournalOptions options;
  options.max_segment_bytes = 96;
  journal::Journal journal(dir.string(), options);
  for (int i = 0; i < 16; ++i) journal.append(1, "old-record");
  ASSERT_GE(segment_files(dir).size(), 2u);

  journal.rewrite({{7, "snap-a"}, {8, "snap-b"}});
  // Old segments are gone; only the snapshot (and any segment the
  // follow-up appends opened) remain.
  journal.append(9, "post-compact");

  const auto replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].payload, "snap-a");
  EXPECT_EQ(replay.records[1].payload, "snap-b");
  EXPECT_EQ(replay.records[2].payload, "post-compact");
}

TEST(Journal, CrashBetweenSnapshotAndUnlinkStillReplaysOnce) {
  // Simulate the rewrite() crash window: the snapshot segment exists,
  // the retired segments were never unlinked.  The snapshot flag must
  // keep replay from double-counting the old records — and the next
  // constructor sweeps the stale files.
  const fs::path dir = test_dir("rewrite_crash");
  journal::JournalOptions options;
  options.max_segment_bytes = 96;
  std::uintmax_t pre_segments = 0;
  {
    journal::Journal journal(dir.string(), options);
    for (int i = 0; i < 16; ++i) journal.append(1, "old-record");
    pre_segments = segment_files(dir).size();
    journal.rewrite({{7, "the-snapshot"}});
  }
  ASSERT_GE(pre_segments, 2u);

  // Resurrect a retired segment as it would look if the unlink pass
  // never ran: a fresh journal, rotated once, gives us a valid
  // lower-seq segment file to copy in.
  const fs::path scratch = test_dir("rewrite_crash_scratch");
  {
    journal::Journal donor(scratch.string(), options);
    for (int i = 0; i < 16; ++i) donor.append(1, "old-record");
  }
  fs::copy_file(segment_files(scratch).front(),
                dir / segment_files(scratch).front().filename(),
                fs::copy_options::overwrite_existing);

  const auto replay = journal::Journal::replay_dir(dir.string());
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "the-snapshot");

  {
    journal::Journal journal(dir.string(), options);
    ASSERT_EQ(journal.replayed().records.size(), 1u);
  }
  // The constructor unlinked the superseded straggler.
  for (const fs::path& segment : segment_files(dir)) {
    const auto replayed = journal::Journal::replay_dir(dir.string());
    EXPECT_EQ(replayed.records.size(), 1u) << segment;
  }
}

TEST(Journal, NoSpareOutlivesItsSegment) {
  // Healing a torn tail replaces the final segment, which keeps the
  // replaced file as `<segment>.spare` (resilience::atomic_write_file).
  // Compaction retires it with its segment; so does the next open's
  // stale pass when a compaction died before its unlinks.
  const fs::path dir = test_dir("spares");
  const auto spares = [&] {
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.path().extension() == ".spare") ++count;
    }
    return count;
  };
  const auto tear_and_heal = [&] {
    const fs::path segment = segment_files(dir).back();
    fs::resize_file(segment, fs::file_size(segment) - 3);
    journal::Journal journal(dir.string());
    EXPECT_GT(journal.replayed().torn_bytes, 0u);
  };
  {
    journal::Journal journal(dir.string());
    journal.append(1, "kept");
    journal.append(2, "torn-away");
  }
  tear_and_heal();
  ASSERT_EQ(spares(), 1u) << "the heal kept no spare";
  {
    journal::Journal journal(dir.string());
    journal.rewrite({{3, "snapshot"}});
    journal.append(4, "torn-away");
  }
  EXPECT_EQ(spares(), 0u) << "compaction left a spare behind";

  // Again, but the compaction dies at its first unlink.
  tear_and_heal();
  ASSERT_EQ(spares(), 1u);
  {
    journal::Journal journal(dir.string());
    resilience::ScopedSyncHook hook(
        [](resilience::SyncOp op, const std::string&) {
          if (op == resilience::SyncOp::kRemove) {
            throw resilience::transient_error("injected crash");
          }
        });
    EXPECT_THROW(journal.rewrite({{5, "second-snapshot"}}), resilience::Error);
  }
  EXPECT_EQ(spares(), 1u);
  {
    journal::Journal journal(dir.string());
    ASSERT_EQ(journal.replayed().records.size(), 1u);
    EXPECT_EQ(journal.replayed().records[0].payload, "second-snapshot");
  }
  EXPECT_EQ(spares(), 0u) << "the stale pass left a spare behind";
}

// ---- job_record codec -----------------------------------------------------

serve::SubmittedJob sample_job() {
  serve::SubmittedJob job;
  job.job = 42;
  job.tenant = "tenant-a";
  job.model = "phantom";
  job.idempotency_key = "key-123";
  job.deadline_ns = 5'000'000'000ull;
  em::Image<double> view(3, 3);
  for (std::size_t i = 0; i < view.size(); ++i) {
    view.data()[i] = 0.5 * static_cast<double>(i);
  }
  job.views = {view, view};
  job.initial = {{10.0, 20.0, 30.0}, {40.0, 50.0, 60.0}};
  job.centers = {{0.25, -0.25}, {1.0, 2.0}};
  return job;
}

TEST(JobRecord, SubmittedRoundTripsBitwise) {
  const serve::SubmittedJob job = sample_job();
  const serve::SubmittedJob back =
      serve::decode_submitted(serve::encode_submitted(job));
  EXPECT_EQ(back.job, job.job);
  EXPECT_EQ(back.tenant, job.tenant);
  EXPECT_EQ(back.model, job.model);
  EXPECT_EQ(back.idempotency_key, job.idempotency_key);
  EXPECT_EQ(back.deadline_ns, job.deadline_ns);
  ASSERT_EQ(back.views.size(), job.views.size());
  EXPECT_EQ(back.views[0], job.views[0]);  // bitwise: doubles raw-copied
  EXPECT_EQ(back.views[1], job.views[1]);
  ASSERT_EQ(back.initial.size(), 2u);
  EXPECT_EQ(back.initial[1], job.initial[1]);
  ASSERT_EQ(back.centers.size(), 2u);
  EXPECT_EQ(back.centers[0], job.centers[0]);
}

TEST(JobRecord, LifecycleRoundTrips) {
  serve::LifecycleEvent event;
  event.job = 7;
  event.views_done = 128;
  event.error = "deadline exceeded";
  const serve::LifecycleEvent back =
      serve::decode_lifecycle(serve::encode_lifecycle(event));
  EXPECT_EQ(back.job, 7u);
  EXPECT_EQ(back.views_done, 128u);
  EXPECT_EQ(back.error, "deadline exceeded");
}

TEST(JobRecord, DecoderRejectsMalformedPayloads) {
  const std::string good = serve::encode_submitted(sample_job());
  // Truncations at every boundary must throw kCorrupt, never read past
  // the payload or allocate from a hostile length.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{4}, std::size_t{11},
        good.size() / 2, good.size() - 1}) {
    expect_corrupt([&] {
      (void)serve::decode_submitted(good.substr(0, keep));
    });
  }
  // Trailing garbage is as corrupt as missing bytes.
  expect_corrupt([&] { (void)serve::decode_submitted(good + "x"); });
  // A hostile view-count / dimension field must be caught by the
  // bytes-available check, not by a giant allocation.
  std::string hostile = good;
  // view count lives after: u32 version | u64 job | 3 length-prefixed
  // strings | u64 deadline.
  const std::size_t count_offset = 4 + 8 + (4 + 8) + (4 + 7) + (4 + 7) + 8;
  hostile[count_offset] = '\xff';
  hostile[count_offset + 1] = '\xff';
  hostile[count_offset + 2] = '\xff';
  hostile[count_offset + 3] = '\x7f';
  expect_corrupt([&] { (void)serve::decode_submitted(hostile); });
}

}  // namespace
