#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <regex>
#include <set>
#include <thread>
#include <vector>

#include "por/util/cli.hpp"
#include "por/util/log.hpp"
#include "por/util/rng.hpp"
#include "por/util/table.hpp"
#include "por/util/timer.hpp"

namespace {

using namespace por::util;

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.millis(), 5.0);
  timer.reset();
  EXPECT_LT(timer.millis(), 5.0);
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(9);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, UniformIndexIsBounded) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, SpherePointCoversBothHemispheres) {
  Rng rng(17);
  int north = 0, south = 0;
  for (int i = 0; i < 2000; ++i) {
    double theta, phi;
    rng.sphere_point(theta, phi);
    ASSERT_GE(theta, 0.0);
    ASSERT_LE(theta, M_PI);
    ASSERT_GE(phi, 0.0);
    ASSERT_LT(phi, 2.0 * M_PI);
    (theta < M_PI / 2 ? north : south)++;
  }
  EXPECT_GT(north, 800);
  EXPECT_GT(south, 800);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// ---- Table / formatting -----------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table t({"step", "time"});
  t.add_row({"3D DFT", "311"});
  t.add_row({"Orientation refinement", "14053"});
  const std::string out = t.render();
  EXPECT_NE(out.find("3D DFT"), std::string::npos);
  EXPECT_NE(out.find("Orientation refinement"), std::string::npos);
  // Header rule present.
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_NO_THROW((void)t.render());
}

TEST(Formatting, FixedAndScientific) {
  EXPECT_EQ(por::util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(por::util::fmt(2.0, 0), "2");
  EXPECT_EQ(por::util::fmt_sci(5.12e11, 1), "5.1e+11");
}

TEST(Formatting, GroupedThousands) {
  EXPECT_EQ(fmt_grouped(0), "0");
  EXPECT_EQ(fmt_grouped(999), "999");
  EXPECT_EQ(fmt_grouped(4053), "4,053");
  EXPECT_EQ(fmt_grouped(143786), "143,786");
  EXPECT_EQ(fmt_grouped(-26910), "-26,910");
}

// ---- CLI --------------------------------------------------------------------

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--views=100", "--size", "64", "--verbose"};
  CliParser cli(5, argv);
  EXPECT_EQ(cli.get_int("views", 0), 100);
  EXPECT_EQ(cli.get_int("size", 0), 64);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_EQ(cli.get_int("absent", 9), 9);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.map", "--flag", "output.map"};
  CliParser cli(4, argv);
  // "--flag output.map" consumes output.map as the flag's value.
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.map");
  EXPECT_EQ(cli.get("flag", ""), "output.map");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--n=abc", "--views", "300x", "--r_map=6,5"};
  CliParser cli(5, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  // A valid prefix followed by garbage is not a number either.
  EXPECT_THROW((void)cli.get_int("views", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("r_map", 0.0), std::invalid_argument);
}

TEST(Cli, AssertAllConsumedCatchesTypos) {
  const char* argv[] = {"prog", "--vews=3"};
  CliParser cli(2, argv);
  (void)cli.get_int("views", 0);
  EXPECT_THROW(cli.assert_all_consumed(), std::invalid_argument);
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=1"};
  CliParser cli(4, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
}

// ---- Logging ----------------------------------------------------------------

TEST(Log, LinePrefixHasIso8601TimestampAndLevelTag) {
  // [por 2026-08-06T12:34:56.789Z INFO ] message
  const std::regex pattern(
      R"(^\[por \d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z INFO \] hello$)");
  const std::string line = format_log_line(LogLevel::kInfo, "hello");
  EXPECT_TRUE(std::regex_match(line, pattern)) << line;
}

TEST(Log, LevelTagsAreFixedWidth) {
  const std::regex tag(R"(\] x$)");
  const std::vector<std::pair<LogLevel, std::string>> levels = {
      {LogLevel::kDebug, "DEBUG"},
      {LogLevel::kInfo, "INFO "},
      {LogLevel::kWarn, "WARN "},
      {LogLevel::kError, "ERROR"}};
  for (const auto& [level, name] : levels) {
    const std::string line = format_log_line(level, "x");
    EXPECT_NE(line.find(" " + name + "] "), std::string::npos) << line;
    EXPECT_TRUE(std::regex_search(line, tag)) << line;
  }
}

TEST(Log, AppendAllFoldsHeterogeneousArguments) {
  std::ostringstream os;
  por::util::detail::append_all(os, "views=", 42, " snr=", 1.5, ' ', true);
  EXPECT_EQ(os.str(), "views=42 snr=1.5 1");
  std::ostringstream empty;
  por::util::detail::append_all(empty);  // zero arguments is fine
  EXPECT_EQ(empty.str(), "");
}

}  // namespace
