#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>

#include "por/io/map_io.hpp"
#include "por/io/orientation_io.hpp"
#include "por/resilience/error.hpp"
#include "por/stream/sharded_stack.hpp"
#include "por/util/rng.hpp"

namespace {

using namespace por;
namespace fs = std::filesystem;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("por_io_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

em::Volume<double> random_map(std::size_t l, std::uint64_t seed) {
  util::Rng rng(seed);
  em::Volume<double> vol(l);
  for (double& v : vol.storage()) v = rng.uniform(-1, 1);
  return vol;
}

em::Image<double> random_image(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  em::Image<double> img(n, n);
  for (double& v : img.storage()) v = rng.uniform(-1, 1);
  return img;
}

// ---- map -------------------------------------------------------------------

TEST_F(IoTest, MapRoundTrip) {
  const em::Volume<double> vol = random_map(9, 3);
  io::write_map(path("a.porm"), vol);
  EXPECT_EQ(io::read_map(path("a.porm")), vol);
}

TEST_F(IoTest, MapNonCubicRoundTrip) {
  em::Volume<double> vol(2, 5, 3);
  for (std::size_t i = 0; i < vol.size(); ++i) {
    vol.storage()[i] = static_cast<double>(i);
  }
  io::write_map(path("b.porm"), vol);
  const auto back = io::read_map(path("b.porm"));
  EXPECT_EQ(back.nz(), 2u);
  EXPECT_EQ(back.ny(), 5u);
  EXPECT_EQ(back.nx(), 3u);
  EXPECT_EQ(back, vol);
}

TEST_F(IoTest, MapRejectsMissingFile) {
  EXPECT_THROW((void)io::read_map(path("missing.porm")), std::runtime_error);
}

TEST_F(IoTest, MapRejectsBadMagic) {
  std::ofstream out(path("junk.porm"), std::ios::binary);
  out << "NOTAMAPFILE and some more bytes to get past the header";
  out.close();
  EXPECT_THROW((void)io::read_map(path("junk.porm")), std::runtime_error);
}

TEST_F(IoTest, MapRejectsTruncatedFile) {
  const em::Volume<double> vol = random_map(8, 4);
  io::write_map(path("t.porm"), vol);
  fs::resize_file(path("t.porm"), fs::file_size(path("t.porm")) / 2);
  EXPECT_THROW((void)io::read_map(path("t.porm")), std::runtime_error);
}

// ---- stack -----------------------------------------------------------------
// The view stack on disk is the sharded store (por/stream): a manifest
// plus shard files.  These cover its file-level contract; the shard
// layout, corruption and streaming live in test_stream.

TEST_F(IoTest, StackRoundTrip) {
  std::vector<em::Image<double>> stack;
  for (int i = 0; i < 5; ++i) stack.push_back(random_image(7, 10 + i));
  stream::write_sharded_stack(path("s.shards"), stack);
  stream::ShardedStack reader(path("s.shards"));
  const auto back = reader.read_range(0, reader.count());
  ASSERT_EQ(back.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(back[i], stack[i]);
}

TEST_F(IoTest, StackCountWithoutPixelData) {
  std::vector<em::Image<double>> stack(3, random_image(4, 1));
  stream::ShardedStackOptions options;
  options.views_per_shard = 2;
  stream::write_sharded_stack(path("c.shards"), stack, options);
  // The manifest alone answers count and shape: opening the stack
  // touches no shard file.
  fs::remove(stream::shard_path(path("c.shards"), 0));
  fs::remove(stream::shard_path(path("c.shards"), 1));
  stream::ShardedStack reader(path("c.shards"));
  EXPECT_EQ(reader.count(), 3u);
  EXPECT_EQ(reader.ny(), 4u);
  EXPECT_EQ(reader.nx(), 4u);
}

TEST_F(IoTest, StackRangeReadsMiddleSlice) {
  std::vector<em::Image<double>> stack;
  for (int i = 0; i < 7; ++i) stack.push_back(random_image(5, 100 + i));
  stream::ShardedStackOptions options;
  options.views_per_shard = 3;  // the slice straddles a shard boundary
  stream::write_sharded_stack(path("r.shards"), stack, options);
  stream::ShardedStack reader(path("r.shards"));
  const auto middle = reader.read_range(2, 3);
  ASSERT_EQ(middle.size(), 3u);
  EXPECT_EQ(middle[0], stack[2]);
  EXPECT_EQ(middle[2], stack[4]);
}

TEST_F(IoTest, StackRangeRejectsOutOfBounds) {
  std::vector<em::Image<double>> stack(2, random_image(4, 2));
  stream::write_sharded_stack(path("o.shards"), stack);
  stream::ShardedStack reader(path("o.shards"));
  EXPECT_THROW((void)reader.read_range(1, 2), std::out_of_range);
}

TEST_F(IoTest, StackRejectsMixedSizes) {
  std::vector<em::Image<double>> stack{random_image(4, 1), random_image(5, 2)};
  EXPECT_THROW(stream::write_sharded_stack(path("m.shards"), stack),
               resilience::Error);
  EXPECT_FALSE(fs::exists(path("m.shards")));  // no manifest, no stack
}

TEST_F(IoTest, EmptyStackRoundTrip) {
  stream::ShardedStackWriter writer(path("e.shards"), 4, 4);
  writer.finish();
  stream::ShardedStack reader(path("e.shards"));
  EXPECT_EQ(reader.count(), 0u);
  EXPECT_EQ(reader.shard_count(), 0u);
}

// ---- orientations ------------------------------------------------------------

TEST_F(IoTest, OrientationRoundTrip) {
  std::vector<io::ViewOrientation> records;
  for (std::size_t i = 0; i < 4; ++i) {
    records.push_back(io::ViewOrientation{
        i, em::Orientation{10.5 * i, 20.25 * i, 0.125 * i},
        0.5 * static_cast<double>(i), -0.25 * static_cast<double>(i)});
  }
  io::write_orientations(path("o.txt"), records, "unit test");
  const auto back = io::read_orientations(path("o.txt"));
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i], records[i]) << "record " << i;
  }
}

TEST_F(IoTest, OrientationPreservesPrecision) {
  // The finest schedule step is 0.002 degrees; files must keep it.
  std::vector<io::ViewOrientation> records{
      io::ViewOrientation{0, em::Orientation{89.998, 0.002, 123.456789},
                          0.002, -0.002}};
  io::write_orientations(path("p.txt"), records);
  const auto back = io::read_orientations(path("p.txt"));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_NEAR(back[0].orientation.theta, 89.998, 1e-9);
  EXPECT_NEAR(back[0].orientation.phi, 0.002, 1e-9);
  EXPECT_NEAR(back[0].center_x, 0.002, 1e-9);
}

TEST_F(IoTest, OrientationSkipsCommentsAndBlankLines) {
  std::ofstream out(path("c.txt"));
  out << "# header comment\n\n  \n0 1 2 3 0.5 0.5\n# tail\n1 4 5 6 0 0\n";
  out.close();
  const auto back = io::read_orientations(path("c.txt"));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].view_index, 1u);
  EXPECT_DOUBLE_EQ(back[1].orientation.theta, 4.0);
}

TEST_F(IoTest, OrientationRejectsMalformedLine) {
  std::ofstream out(path("bad.txt"));
  out << "0 1 2\n";  // too few fields
  out.close();
  EXPECT_THROW((void)io::read_orientations(path("bad.txt")),
               std::runtime_error);
}

TEST_F(IoTest, OrientationRejectsMissingFile) {
  EXPECT_THROW((void)io::read_orientations(path("nope.txt")),
               std::runtime_error);
}

}  // namespace
