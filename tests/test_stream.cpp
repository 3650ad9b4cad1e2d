// por::stream suite (DESIGN.md §14): shard round trips (mmap ==
// read(), write -> read -> write byte identity), the corrupt-shard
// torture corpus (truncated / torn / bit-flipped / wrong-version bytes
// are detected and either throw kCorrupt or quarantine under the
// DESIGN.md §10 error taxonomy), end-to-end bitwise identity of the
// streamed refinement drivers against their in-core equivalents —
// including single- vs multi-shard stacks and resume-from-checkpoint
// over shards — and the stream counters reaching the run report.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "por/core/parallel_refiner.hpp"
#include "por/core/refiner.hpp"
#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/obs/registry.hpp"
#include "por/resilience/checkpoint.hpp"
#include "por/resilience/crc32.hpp"
#include "por/resilience/error.hpp"
#include "por/stream/shard_mapping.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/stream/view_source.hpp"
#include "por/util/rng.hpp"
#include "por/vmpi/runtime.hpp"
#include "test_helpers.hpp"

namespace {

using namespace por;
using namespace por::core;
using namespace por::em;
using namespace por::stream;
namespace fs = std::filesystem;
using por::test::small_phantom;

fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("por_stream_" + std::to_string(::getpid())) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spew(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<Image<double>> random_views(std::size_t count, std::size_t l,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Image<double>> views;
  views.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Image<double> view(l, l);
    for (auto& p : view.storage()) p = rng.uniform(-1.0, 1.0);
    views.push_back(std::move(view));
  }
  return views;
}

bool images_bitwise_equal(const Image<double>& a, const Image<double>& b) {
  return a.ny() == b.ny() && a.nx() == b.nx() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- ShardMapping ----------------------------------------------------------

TEST(ShardMapping, MmapAndReadPathsAreBitwiseIdentical) {
  const fs::path dir = test_dir("mapping");
  util::Rng rng(3);
  std::string payload(10000, '\0');
  for (auto& c : payload) c = static_cast<char>(rng.uniform(0, 256));
  spew(dir / "blob.bin", payload);

  ShardMapping via_mmap((dir / "blob.bin").string(), /*prefer_mmap=*/true);
  ShardMapping via_read((dir / "blob.bin").string(), /*prefer_mmap=*/false);
  ASSERT_EQ(via_mmap.size(), payload.size());
  ASSERT_EQ(via_read.size(), payload.size());
  EXPECT_FALSE(via_read.mapped());
  EXPECT_EQ(std::memcmp(via_mmap.data(), payload.data(), payload.size()), 0);
  EXPECT_EQ(std::memcmp(via_read.data(), payload.data(), payload.size()), 0);
  // Advisory calls never fail, whatever the backing.
  via_mmap.will_need(0, payload.size());
  via_read.will_need(4096, 100);
}

TEST(ShardMapping, MissingFileIsTransientEmptyFileIsCorrupt) {
  const fs::path dir = test_dir("mapping_err");
  try {
    ShardMapping missing((dir / "absent.bin").string());
    FAIL() << "expected transient error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kTransient);
  }
  spew(dir / "empty.bin", "");
  try {
    ShardMapping empty((dir / "empty.bin").string());
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

// ---- sharded stack round trips ---------------------------------------------

class ShardRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(ShardRoundTrip, BitwiseEqualToSourceViews) {
  const bool use_mmap = GetParam();
  const fs::path dir =
      test_dir(std::string("roundtrip_") + (use_mmap ? "m" : "h"));
  const auto views = random_views(23, 12, 17);

  ShardedStackOptions options;
  options.views_per_shard = 5;
  options.use_mmap = use_mmap;
  const std::string base = (dir / "views.shards").string();
  write_sharded_stack(base, views, options);

  ShardedStack stack(base, options);
  ASSERT_EQ(stack.count(), views.size());
  ASSERT_EQ(stack.ny(), 12u);
  ASSERT_EQ(stack.nx(), 12u);
  EXPECT_EQ(stack.shard_count(), 5u);  // ceil(23 / 5)

  std::vector<double> pixels(stack.view_pixels());
  for (std::uint64_t i = 0; i < stack.count(); ++i) {
    ASSERT_TRUE(stack.read_view(i, pixels.data()));
    EXPECT_EQ(std::memcmp(pixels.data(), views[i].data(),
                          pixels.size() * sizeof(double)),
              0)
        << "view " << i;
  }
}

// The parameter picks the reader's mmap or read() path.
INSTANTIATE_TEST_SUITE_P(Modes, ShardRoundTrip, ::testing::Bool(),
                         [](const auto& param_info) {
                           return std::string(param_info.param ? "Mmap"
                                                               : "Heap");
                         });

// The writer is byte-deterministic: views read back from a stack and
// written again reproduce the manifest and every shard byte for byte
// (the committed fuzz corpus relies on it).
TEST(ShardedStack, StackFileRoundTripIsByteIdentical) {
  const fs::path dir = test_dir("stack_roundtrip");
  const auto views = random_views(17, 10, 29);
  ShardedStackOptions options;
  options.views_per_shard = 6;
  const std::string base = (dir / "views.shards").string();
  write_sharded_stack(base, views, options);

  ShardedStack stack(base);
  const std::string back = (dir / "back.shards").string();
  write_sharded_stack(back, stack.read_range(0, stack.count()), options);
  EXPECT_EQ(slurp(base), slurp(back));
  ASSERT_EQ(stack.shard_count(), 3u);
  for (std::size_t k = 0; k < stack.shard_count(); ++k) {
    EXPECT_EQ(slurp(shard_path(base, k)), slurp(shard_path(back, k)))
        << "shard " << k;
  }
}

TEST(ShardedStack, ResidencyBudgetEvictsButStaysCorrect) {
  const fs::path dir = test_dir("budget");
  const std::size_t l = 16;
  const auto views = random_views(32, l, 41);
  ShardedStackOptions options;
  options.views_per_shard = 4;  // 8 shards of 4 * 16 * 16 * 8 = 8 KiB pixels
  const std::string base = (dir / "views.shards").string();
  write_sharded_stack(base, views, options);

  // Budget of ~2 shards; strided access pattern forces constant
  // eviction and re-mapping.
  options.max_resident_bytes = 2 * fs::file_size(shard_path(base, 0));
  ShardedStack stack(base, options);
  std::vector<double> pixels(stack.view_pixels());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < stack.count(); i += 7) {
      ASSERT_TRUE(stack.read_view(i, pixels.data()));
      EXPECT_EQ(std::memcmp(pixels.data(), views[i].data(),
                            pixels.size() * sizeof(double)),
                0);
      EXPECT_LE(stack.resident_bytes(), options.max_resident_bytes);
    }
  }
  EXPECT_LE(stack.resident_shards(), 2u);
}

TEST(ShardedStack, ReadRangeAndSubsetAndBounds) {
  const fs::path dir = test_dir("ranges");
  const auto views = random_views(13, 8, 53);
  const std::string base = (dir / "v").string();
  write_sharded_stack(base, views, {});
  ShardedStack stack(base);

  const auto middle = stack.read_range(4, 6);
  ASSERT_EQ(middle.size(), 6u);
  for (std::size_t i = 0; i < middle.size(); ++i) {
    EXPECT_TRUE(images_bitwise_equal(middle[i], views[4 + i]));
  }

  std::vector<double> scratch(stack.view_pixels());
  EXPECT_THROW((void)stack.read_view(13, scratch.data()), std::out_of_range);
  EXPECT_THROW((void)stack.read_range(10, 4), std::out_of_range);
}

// ---- corruption torture ----------------------------------------------------

struct TortureStack {
  fs::path dir;
  std::vector<Image<double>> views;
  std::string base;

  explicit TortureStack(const std::string& name)
      : dir(test_dir(name)), views(random_views(12, 8, 67)) {
    ShardedStackOptions options;
    options.views_per_shard = 4;
    base = (dir / "v").string();
    write_sharded_stack(base, views, options);
  }
};

// `body` must throw resilience::Error{kCorrupt} whose message names
// `why`.
template <typename Body>
void expect_corrupt(const Body& body, const std::string& why) {
  try {
    body();
    FAIL() << "expected corrupt error: " << why;
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
    EXPECT_NE(std::string(error.what()).find(why), std::string::npos)
        << error.what();
  }
}

// Overwrite the u32 format version at byte 4 of a manifest or shard.
void set_version(std::string& bytes, std::uint32_t version) {
  std::memcpy(bytes.data() + 4, &version, sizeof version);
}

// Manifest fields (sharded_stack.hpp): u64 count, ny, nx,
// views_per_shard, shard_count at bytes 8..47, their CRC at 48.
enum ManifestField : std::size_t {
  kCount = 8,
  kNy = 16,
  kViewsPerShard = 32,
  kShardCount = 40
};

// Set one manifest field and recompute the CRC, so only the value is
// wrong.
void set_field(std::string& manifest, ManifestField at, std::uint64_t value) {
  std::memcpy(manifest.data() + at, &value, sizeof value);
  const std::uint32_t crc = resilience::crc32(manifest.data() + 8, 40);
  std::memcpy(manifest.data() + 48, &crc, sizeof crc);
}

void flip_byte(const fs::path& path, std::size_t offset_from_end) {
  std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), offset_from_end);
  bytes[bytes.size() - 1 - offset_from_end] ^= 0x40;
  spew(path, bytes);
}

TEST(ShardTorture, BitFlippedPayloadThrowsCorruptByDefault) {
  TortureStack t("flip_throw");
  // Last byte of shard 1's file is inside view 7's payload.
  flip_byte(shard_path(t.base, 1), 0);
  ShardedStack stack(t.base);
  std::vector<double> pixels(stack.view_pixels());
  ASSERT_TRUE(stack.read_view(0, pixels.data()));  // shard 0 untouched
  try {
    (void)stack.read_view(7, pixels.data());
    FAIL() << "expected corrupt error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kCorrupt);
  }
}

TEST(ShardTorture, BitFlippedPayloadQuarantinesJustThatView) {
  TortureStack t("flip_quarantine");
  flip_byte(shard_path(t.base, 1), 0);
  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack stack(t.base, options);
  std::vector<double> pixels(stack.view_pixels());

  // The flipped view NaN-fills and reports failure...
  EXPECT_FALSE(stack.read_view(7, pixels.data()));
  for (const double p : pixels) EXPECT_TRUE(std::isnan(p));
  EXPECT_EQ(stack.quarantined_views(), 1u);
  // ...its shard-mates and every other shard still read bitwise clean.
  for (const std::uint64_t i : {0ull, 4ull, 5ull, 6ull, 11ull}) {
    ASSERT_TRUE(stack.read_view(i, pixels.data())) << "view " << i;
    EXPECT_EQ(std::memcmp(pixels.data(), t.views[i].data(),
                          pixels.size() * sizeof(double)),
              0);
  }
  EXPECT_EQ(stack.quarantined_shards(), 0u);
}

TEST(ShardTorture, TruncatedShardQuarantinesTheWholeShard) {
  TortureStack t("truncated");
  const fs::path victim = shard_path(t.base, 2);
  std::string bytes = slurp(victim);
  spew(victim, bytes.substr(0, bytes.size() / 2));

  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack stack(t.base, options);
  std::vector<double> pixels(stack.view_pixels());
  for (std::uint64_t i = 8; i < 12; ++i) {
    EXPECT_FALSE(stack.read_view(i, pixels.data())) << "view " << i;
    for (const double p : pixels) EXPECT_TRUE(std::isnan(p));
  }
  EXPECT_EQ(stack.quarantined_shards(), 1u);
  EXPECT_EQ(stack.quarantined_views(), 4u);
  // Healthy shards unaffected.
  ASSERT_TRUE(stack.read_view(0, pixels.data()));
  EXPECT_EQ(std::memcmp(pixels.data(), t.views[0].data(),
                        pixels.size() * sizeof(double)),
            0);
}

TEST(ShardTorture, TornShardHeaderThrowsWithoutQuarantine) {
  // A flipped byte in the per-view CRC table (bytes 40.. of the header,
  // covered by the header CRC), and a version-1 shard from before the
  // fixed-offset layout.
  const std::vector<std::pair<std::string, void (*)(std::string&)>> tears = {
      {"header CRC mismatch", [](std::string& b) { b[44] ^= 0x01; }},
      {"unsupported shard version", [](std::string& b) { set_version(b, 1); }},
  };
  for (const auto& [why, tear] : tears) {
    SCOPED_TRACE(why);
    TortureStack t("torn_header");
    std::string bytes = slurp(shard_path(t.base, 0));
    tear(bytes);
    spew(shard_path(t.base, 0), bytes);

    ShardedStack stack(t.base);
    std::vector<double> pixels(stack.view_pixels());
    expect_corrupt([&] { (void)stack.read_view(0, pixels.data()); }, why);
  }
}

TEST(ShardTorture, MissingShardFileQuarantinesOrThrowsTransient) {
  TortureStack t("missing_shard");
  fs::remove(shard_path(t.base, 1));
  try {
    ShardedStack absent((t.dir / "absent").string());
    FAIL() << "expected transient error for a missing manifest";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kTransient);
  }

  // Default: the open failure propagates as transient (an NFS flap
  // and a deleted file are indistinguishable at open time).
  ShardedStack strict(t.base);
  std::vector<double> pixels(strict.view_pixels());
  try {
    (void)strict.read_view(5, pixels.data());
    FAIL() << "expected transient error";
  } catch (const resilience::Error& error) {
    EXPECT_EQ(error.kind(), resilience::ErrorKind::kTransient);
  }

  // Quarantine mode: the run survives minus that shard.
  ShardedStackOptions options;
  options.quarantine_corrupt = true;
  ShardedStack forgiving(t.base, options);
  EXPECT_FALSE(forgiving.read_view(5, pixels.data()));
  EXPECT_EQ(forgiving.quarantined_shards(), 1u);
}

TEST(ShardTorture, CorruptManifestNeverOpens) {
  const std::vector<std::pair<std::string, void (*)(std::string&)>> tears = {
      // a flipped byte inside the CRC-covered field block
      {"manifest CRC mismatch", [](std::string& b) { b[12] ^= 0x10; }},
      {"unsupported version", [](std::string& b) { set_version(b, 1); }},
      {"truncated manifest", [](std::string& b) { b.resize(8); }},
      {"implausible manifest fields",
       [](std::string& b) { set_field(b, kNy, std::uint64_t{1} << 20); }},
      // 12 views at 4 per shard need 3 shards
      {"implausible manifest fields",
       [](std::string& b) { set_field(b, kShardCount, 4); }},
      // one shard of 2^62 views: its header and payload sizes overflow
      {"implausible manifest fields",
       [](std::string& b) {
         set_field(b, kCount, std::uint64_t{1} << 62);
         set_field(b, kViewsPerShard, std::uint64_t{1} << 62);
         set_field(b, kShardCount, 1);
       }},
  };
  for (const auto& [why, tear] : tears) {
    SCOPED_TRACE(why);
    TortureStack t("bad_manifest");
    std::string bytes = slurp(t.base);
    tear(bytes);
    spew(t.base, bytes);
    expect_corrupt([&] { ShardedStack stack(t.base); }, why);
  }
}

TEST(ShardTorture, AbandonedWriterLeavesNoManifest) {
  const fs::path dir = test_dir("abandoned");
  const auto views = random_views(6, 8, 71);
  const std::string base = (dir / "v").string();
  {
    ShardedStackWriter writer(base, 8, 8);
    for (const auto& view : views) writer.append(view);
    // No finish(): simulates a crash mid-conversion.
  }
  EXPECT_FALSE(fs::exists(base));  // no manifest => readers never trust it
}

// ---- view sources ----------------------------------------------------------

TEST(ViewSource, AllBackingsProduceIdenticalPixels) {
  const fs::path dir = test_dir("sources");
  const auto views = random_views(9, 10, 79);
  const std::string base = (dir / "v.shards").string();
  ShardedStackOptions options;
  options.views_per_shard = 4;
  write_sharded_stack(base, views, options);

  MemoryViewSource memory(views);
  const auto mapped = open_view_source(base);
  options.use_mmap = false;
  ShardedViewSource heap(base, options);
  ASSERT_TRUE(dynamic_cast<ShardedViewSource*>(mapped.get()) != nullptr);
  ASSERT_EQ(mapped->count(), views.size());
  ASSERT_EQ(heap.count(), views.size());

  std::vector<double> a(memory.view_pixels()), b(a.size()), c(a.size());
  for (std::uint64_t i = 0; i < memory.count(); ++i) {
    memory.fetch(i, a.data());
    mapped->fetch(i, b.data());
    heap.fetch(i, c.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(a.data(), c.data(), a.size() * sizeof(double)), 0);
  }
}

// ---- streamed refinement == in-core refinement -----------------------------

RefinerConfig fast_config() {
  RefinerConfig config;
  config.schedule = {SearchLevel{1.0, 3, 1.0, 3},
                     SearchLevel{0.25, 5, 0.25, 3}};
  config.match.r_map = 8.0;
  config.refine_centers = false;
  return config;
}

struct Workload {
  std::size_t l = 16;
  BlobModel model = small_phantom(16, 10);
  Volume<double> map;
  std::vector<Image<double>> views;
  std::vector<Orientation> initials;
  std::vector<std::pair<double, double>> centers;

  explicit Workload(int m = 10) : map(model.rasterize(16)) {
    util::Rng rng(41);
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

void expect_identical_results(const std::vector<ViewResult>& a,
                              const std::vector<ViewResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].orientation, b[i].orientation) << "view " << i;
    EXPECT_EQ(a[i].center_x, b[i].center_x) << "view " << i;
    EXPECT_EQ(a[i].center_y, b[i].center_y) << "view " << i;
    EXPECT_EQ(a[i].final_distance, b[i].final_distance) << "view " << i;
  }
}

TEST(RefineStream, BitwiseIdenticalToInCoreRefine) {
  const Workload w(6);
  RefinerConfig config = fast_config();
  const OrientationRefiner serial(w.map, config);
  const auto in_core = serial.refine(w.views, w.initials, w.centers);

  const fs::path dir = test_dir("refine_stream");
  const std::string base = (dir / "v").string();
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 2;
  write_sharded_stack(base, w.views, stack_options);
  ShardedViewSource source(base, stack_options);
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    config.refine_workers = workers;
    const OrientationRefiner refiner(w.map, config);
    const auto streamed =
        refiner.refine_stream(source, 0, w.views.size(), w.initials, w.centers);
    expect_identical_results(in_core, streamed);

    // A sub-range: initials[i] describes view first + i.
    const std::vector<Orientation> mid_initials(w.initials.begin() + 1,
                                                w.initials.begin() + 5);
    const auto mid = refiner.refine_stream(source, 1, 4, mid_initials);
    expect_identical_results(
        std::vector<ViewResult>(in_core.begin() + 1, in_core.begin() + 5),
        mid);
    EXPECT_THROW((void)refiner.refine_stream(source, 3, 4, mid_initials),
                 std::invalid_argument);
  }
}

// A corrupt view read through refine_stream (no quarantine) throws on
// the calling thread, whichever worker count refines the views.
TEST(RefineStream, CorruptViewThrowsOnTheCallingThread) {
  const Workload w(8);
  const fs::path dir = test_dir("refine_stream_corrupt");
  const std::string base = (dir / "v").string();
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 4;
  write_sharded_stack(base, w.views, stack_options);
  flip_byte(shard_path(base, 1), 0);  // view 7's payload
  ShardedViewSource source(base);
  RefinerConfig config = fast_config();
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(testing::Message() << workers << " workers");
    config.refine_workers = workers;
    const OrientationRefiner refiner(w.map, config);
    expect_corrupt(
        [&] {
          (void)refiner.refine_stream(source, 0, w.views.size(), w.initials);
        },
        "view CRC mismatch for view 7");
  }
}

void write_initials(const std::string& path, const Workload& w) {
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < w.views.size(); ++i) {
    records.push_back(io::ViewOrientation{i, w.initials[i], 0.0, 0.0});
  }
  io::write_orientations(path, records, "initial");
}

// The rank count is the test parameter; each case also runs at one and
// three refine workers, where the master fetches its block in groups
// of three.  The "monolithic" stack is a
// single shard holding every view; the sharded one splits them three
// to a shard.
class StreamedDrivers : public ::testing::TestWithParam<int> {};

TEST_P(StreamedDrivers, ShardedMonolithicAndInMemoryAgreeBitwise) {
  const int p = GetParam();
  const fs::path dir = test_dir("drivers_p" + std::to_string(p));
  const Workload w(8);
  RefinerConfig config = fast_config();
  config.stream.max_resident_mb = 1;

  const std::string map_path = (dir / "map.porm").string();
  const std::string stack_path = (dir / "v1.shards").string();
  const std::string base = (dir / "v.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  io::write_map(map_path, w.map);
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = w.views.size();
  write_sharded_stack(stack_path, w.views, stack_options);
  ASSERT_EQ(ShardedStack(stack_path).shard_count(), 1u);
  stack_options.views_per_shard = 3;
  write_sharded_stack(base, w.views, stack_options);
  write_initials(orient_in, w);

  // The orientation text file keeps 10 digits, so feed the in-memory
  // run the same post-round-trip initials the file drivers will read —
  // the bitwise comparison is then about the storage formats only.
  std::vector<Orientation> initials;
  std::vector<std::pair<double, double>> centers;
  for (const auto& record : io::read_orientations(orient_in)) {
    initials.push_back(record.orientation);
    centers.emplace_back(record.center_x, record.center_y);
  }

  std::vector<ViewResult> reference;
  std::string reference_file;
  for (const int workers : {1, 3}) {
    SCOPED_TRACE(testing::Message() << p << " ranks, " << workers
                                    << " workers");
    config.refine_workers = workers;
    std::vector<ViewResult> in_memory;
    vmpi::run(p, [&](vmpi::Comm& comm) {
      auto report = parallel_refine(comm, w.map, w.l, w.views, initials,
                                    centers, config);
      if (comm.is_root()) in_memory = report.results;
    });

    const std::string out_mono = (dir / "out_mono.txt").string();
    std::vector<ViewResult> monolithic;
    vmpi::run(p, [&](vmpi::Comm& comm) {
      auto report = parallel_refine_files(comm, map_path, stack_path,
                                          orient_in, out_mono, config);
      if (comm.is_root()) monolithic = report.results;
    });

    const std::string out_shard = (dir / "out_shard.txt").string();
    std::vector<ViewResult> sharded;
    vmpi::run(p, [&](vmpi::Comm& comm) {
      auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                          out_shard, config);
      if (comm.is_root()) sharded = report.results;
    });

    expect_identical_results(in_memory, monolithic);
    expect_identical_results(in_memory, sharded);
    // The written orientation files are the acceptance artifact: byte
    // identical across the storage formats and the worker counts.
    EXPECT_EQ(slurp(out_mono), slurp(out_shard));
    if (workers == 1) {
      reference = in_memory;
      reference_file = slurp(out_shard);
    } else {
      expect_identical_results(reference, in_memory);
      EXPECT_EQ(reference_file, slurp(out_shard));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, StreamedDrivers, ::testing::Values(1, 4));

// Resume over shards at one and three refine workers.  Keeping the
// first half of the log leaves the master a contiguous block; keeping
// every other record leaves it a scattered one.
TEST(StreamedDrivers, ResumeFromCheckpointOverShardsIsIdentical) {
  const fs::path dir = test_dir("shard_resume");
  const Workload w(8);
  RefinerConfig config = fast_config();

  const std::string map_path = (dir / "map.porm").string();
  const std::string base = (dir / "v.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  io::write_map(map_path, w.map);
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 3;
  write_sharded_stack(base, w.views, stack_options);
  write_initials(orient_in, w);

  // Full run over shards, checkpointing as it goes.
  config.resilience.checkpoint_path = (dir / "full.porc").string();
  const std::string out_full = (dir / "out_full.txt").string();
  std::vector<ViewResult> full;
  vmpi::run(2, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                        out_full, config);
    if (comm.is_root()) full = report.results;
  });
  const auto all_records =
      resilience::load_checkpoint(config.resilience.checkpoint_path);
  ASSERT_EQ(all_records.size(), w.views.size());

  for (const int workers : {1, 3}) {
    for (const bool scattered : {false, true}) {
      SCOPED_TRACE(testing::Message() << workers << " workers, "
                                      << (scattered ? "scattered" : "prefix")
                                      << " checkpoint");
      // Interrupt simulation: keep half of the records, resume over
      // the same shards.
      const std::string partial = (dir / "partial.porc").string();
      std::uint64_t kept = 0;
      {
        resilience::CheckpointWriter writer(partial, 1);
        for (std::size_t i = 0; i < all_records.size(); ++i) {
          const bool keep = scattered ? all_records[i].view_index % 2 == 0
                                      : i < all_records.size() / 2;
          if (!keep) continue;
          writer.append(all_records[i]);
          ++kept;
        }
      }
      RefinerConfig resume = config;
      resume.refine_workers = workers;
      resume.resilience.checkpoint_path = partial;
      resume.resilience.resume = true;
      const std::string out_resumed = (dir / "out_resumed.txt").string();
      std::vector<ViewResult> resumed;
      std::uint64_t restored = 0;
      vmpi::run(2, [&](vmpi::Comm& comm) {
        auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                            out_resumed, resume);
        if (comm.is_root()) {
          resumed = report.results;
          restored = report.restored_views;
        }
      });
      EXPECT_EQ(restored, kept);
      expect_identical_results(full, resumed);
      EXPECT_EQ(slurp(out_full), slurp(out_resumed));
    }
  }
}

// Every view is read on the thread of the rank that refines or ships
// it, so the shard counters land in the rank registries the run report
// merges and none leak into the process-global registry.
class StreamReport : public ::testing::TestWithParam<int> {};

TEST_P(StreamReport, ShardCountersLandInTheRunReport) {
  const int p = GetParam();
  const fs::path dir = test_dir("report_p" + std::to_string(p));
  const Workload w(8);
  const std::string map_path = (dir / "map.porm").string();
  const std::string base = (dir / "v.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  io::write_map(map_path, w.map);
  ShardedStackOptions stack_options;
  stack_options.views_per_shard = 4;
  write_sharded_stack(base, w.views, stack_options);
  write_initials(orient_in, w);
  const std::uint64_t shards = ShardedStack(base).shard_count();
  ASSERT_EQ(shards, 2u);

  const auto global_mapped = [] {
    return obs::global_registry().snapshot().counters["stream.shards_mapped"];
  };
  const std::uint64_t global_before = global_mapped();
  std::uint64_t merged = 0;
  vmpi::run(p, [&](vmpi::Comm& comm) {
    auto report = parallel_refine_files(comm, map_path, base, orient_in,
                                        (dir / "out.txt").string(),
                                        fast_config());
    if (comm.is_root()) {
      merged = report.obs.merged.counters["stream.shards_mapped"];
    }
  });
  EXPECT_EQ(merged, shards);
  EXPECT_EQ(global_mapped(), global_before);
}

INSTANTIATE_TEST_SUITE_P(Ranks, StreamReport, ::testing::Values(1, 2));

// Every view buffer is map-edge sized: a stack of another edge must be
// rejected before the first fetch, not matched on a prefix of each view
// (one rank) or written past its buffer (two ranks).
TEST(StreamedDrivers, ViewEdgeMustMatchMapEdge) {
  const fs::path dir = test_dir("edge_mismatch");
  const Workload w(4);  // 16 x 16 views
  const Volume<double> small_map = w.model.rasterize(8);
  const std::string map_path = (dir / "map8.porm").string();
  const std::string stack_path = (dir / "v16.shards").string();
  const std::string orient_in = (dir / "in.txt").string();
  const std::string out = (dir / "out.txt").string();
  io::write_map(map_path, small_map);
  write_sharded_stack(stack_path, w.views);
  write_initials(orient_in, w);

  RefinerConfig config = fast_config();
  // Two ranks: root rejects the stack before the first collective and
  // its peer throws on hearing the verdict; vmpi::run rethrows root's
  // error, the lowest-ranked one.  The deadline turns a peer left
  // waiting into a failure instead of a hang.
  config.resilience.comm_deadline = std::chrono::milliseconds{500};
  for (const int p : {1, 2}) {
    SCOPED_TRACE(testing::Message() << p << " ranks");
    EXPECT_THROW(vmpi::run(p,
                           [&](vmpi::Comm& comm) {
                             (void)parallel_refine_files(comm, map_path,
                                                         stack_path, orient_in,
                                                         out, config);
                           }),
                 std::invalid_argument);
  }
  EXPECT_FALSE(fs::exists(out));

  EXPECT_THROW(vmpi::run(1,
                         [&](vmpi::Comm& comm) {
                           (void)parallel_refine(comm, small_map, 8, w.views,
                                                 w.initials, w.centers,
                                                 config);
                         }),
               std::invalid_argument);
}

TEST(ViewSource, MemorySourceRejectsMixedShapes) {
  const std::vector<Image<double>> mixed{Image<double>(8, 8),
                                         Image<double>(16, 16)};
  EXPECT_THROW(MemoryViewSource{mixed}, std::invalid_argument);
  const std::vector<Image<double>> wide{Image<double>(8, 8),
                                        Image<double>(8, 9)};
  EXPECT_THROW(MemoryViewSource{wide}, std::invalid_argument);
  const std::vector<Image<double>> same{Image<double>(8, 8),
                                        Image<double>(8, 8)};
  EXPECT_EQ(MemoryViewSource{same}.count(), 2u);
}

}  // namespace
