#include <gtest/gtest.h>

#include "por/em/grid.hpp"
#include "por/em/pad.hpp"

namespace {

using namespace por::em;

TEST(Image, ConstructionAndIndexing) {
  Image<double> img(3, 5, 1.5);
  EXPECT_EQ(img.ny(), 3u);
  EXPECT_EQ(img.nx(), 5u);
  EXPECT_EQ(img.size(), 15u);
  EXPECT_FALSE(img.empty());
  EXPECT_DOUBLE_EQ(img(2, 4), 1.5);
  img(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(img(1, 2), 7.0);
  // Row-major layout.
  EXPECT_DOUBLE_EQ(img.storage()[1 * 5 + 2], 7.0);
}

TEST(Image, CheckedAccessThrows) {
  Image<double> img(2, 2);
  EXPECT_THROW((void)img.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)img.at(1, 1));
}

TEST(Image, DefaultIsEmpty) {
  Image<double> img;
  EXPECT_TRUE(img.empty());
  EXPECT_EQ(img.size(), 0u);
}

TEST(Image, EqualityAndFill) {
  Image<int> a(2, 2, 3), b(2, 2, 3);
  EXPECT_EQ(a, b);
  b.fill(4);
  EXPECT_NE(a, b);
}

TEST(Volume, ConstructionAndIndexing) {
  Volume<double> vol(2, 3, 4, 0.0);
  EXPECT_EQ(vol.nz(), 2u);
  EXPECT_EQ(vol.ny(), 3u);
  EXPECT_EQ(vol.nx(), 4u);
  EXPECT_FALSE(vol.is_cube());
  vol(1, 2, 3) = 9.0;
  EXPECT_DOUBLE_EQ(vol.storage()[(1 * 3 + 2) * 4 + 3], 9.0);
}

TEST(Volume, CubeConstructor) {
  Volume<double> vol(5);
  EXPECT_TRUE(vol.is_cube());
  EXPECT_EQ(vol.size(), 125u);
}

TEST(Volume, CheckedAccessThrows) {
  Volume<double> vol(2);
  EXPECT_THROW((void)vol.at(2, 0, 0), std::out_of_range);
  EXPECT_THROW((void)vol.at(0, 2, 0), std::out_of_range);
  EXPECT_THROW((void)vol.at(0, 0, 2), std::out_of_range);
}

TEST(Conversions, ToComplexAndBack) {
  Image<double> img(2, 2);
  img(0, 0) = 1.0;
  img(1, 1) = -2.0;
  const Image<cdouble> c = to_complex(img);
  EXPECT_EQ(c(0, 0), cdouble(1.0, 0.0));
  const Image<double> back = real_part(c);
  EXPECT_EQ(back, img);
}

TEST(Conversions, VolumeToComplexAndBack) {
  Volume<double> vol(2, 0.0);
  vol(1, 0, 1) = 3.5;
  const Volume<double> back = real_part(to_complex(vol));
  EXPECT_EQ(back, vol);
}

// ---- padding ----------------------------------------------------------------

TEST(Pad, ImageCentersContent) {
  Image<double> img(4, 4, 0.0);
  img(2, 2) = 1.0;  // the center voxel floor(4/2)
  const Image<double> padded = pad_image(img, 2);
  ASSERT_EQ(padded.nx(), 8u);
  // Center voxel must land on floor(8/2) = 4.
  EXPECT_DOUBLE_EQ(padded(4, 4), 1.0);
  double total = 0.0;
  for (double v : padded.storage()) total += v;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(Pad, CropInvertsPad) {
  Image<double> img(6, 6);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.storage()[i] = static_cast<double>(i);
  }
  // Edge 6 padded by 3 is edge 18; floor(6/2) = 3 lands on floor(18/2) =
  // 9, so every pixel moves by off = 6 and the rest is zero.
  const Image<double> padded = pad_image(img, 3);
  ASSERT_EQ(padded.ny(), 18u);
  ASSERT_EQ(padded.nx(), 18u);
  const std::size_t off = 6;
  for (std::size_t y = 0; y < 18; ++y) {
    for (std::size_t x = 0; x < 18; ++x) {
      const bool inside = y >= off && y < off + 6 && x >= off && x < off + 6;
      const double expected = inside ? img(y - off, x - off) : 0.0;
      EXPECT_EQ(padded(y, x), expected) << "(" << y << ", " << x << ")";
    }
  }
}

TEST(Pad, VolumeCentersContent) {
  Volume<double> vol(4, 0.0);
  vol(2, 2, 2) = 1.0;
  const Volume<double> padded = pad_volume(vol, 2);
  EXPECT_DOUBLE_EQ(padded(4, 4, 4), 1.0);
}

TEST(Pad, VolumeCropInvertsPad) {
  Volume<double> vol(5);
  for (std::size_t i = 0; i < vol.size(); ++i) {
    vol.storage()[i] = static_cast<double>(i) * 0.5;
  }
  EXPECT_EQ(crop_volume(pad_volume(vol, 2), 5), vol);
}

TEST(Pad, OddSizesAlignCenters) {
  Image<double> img(5, 5, 0.0);
  img(2, 2) = 1.0;  // floor(5/2) = 2
  const Image<double> padded = pad_image(img, 2);  // edge 10, center 5
  EXPECT_DOUBLE_EQ(padded(5, 5), 1.0);
}

TEST(Pad, FactorOneIsIdentity) {
  Image<double> img(3, 3, 2.0);
  EXPECT_EQ(pad_image(img, 1), img);
}

TEST(Pad, RejectsBadArguments) {
  EXPECT_THROW((void)pad_image(Image<double>(2, 3), 2), std::invalid_argument);
  EXPECT_THROW((void)pad_volume(Volume<double>(2, 3, 4), 2),
               std::invalid_argument);
}

}  // namespace
