// bench_fft — the v2 FFT engine vs the seed-era transform path.
//
// The seed engine rebuilt row/column Fft1D plans on every multi-
// dimensional call and walked columns and z-lines one strided gather
// at a time (a fresh std::vector per line).  The v2 engine acquires
// plans from the process-wide PlanCache, batches strided lines through
// a cache-blocked transpose into contiguous scratch, and exposes
// real-to-complex forward transforms that exploit Hermitian symmetry.
// This bench reproduces the seed path verbatim (fresh plans +
// forward_strided, below) and races it against the v2 paths:
//
//   3D c2c  l x l x l   seed  vs  v2
//   2D c2c  n x n       seed  vs  v2
//   2D r2c  n x n       v2 c2c  vs  v2 rfft2d_forward
//
// for n in {64, l2d} (l2d defaults to 331, the paper's Sindbis view
// edge — a prime length, so the seed path pays two Bluestein chirp
// setups per call).  Every v2 result is checked against the seed
// result; a max relative difference above 1e-12 makes the process
// exit 1, so CI can gate on silent divergence.
//
// The "pruned" section races the transforms that compute only what
// matching reads against the full paths they replace, at map and view
// edge l3d/2 with pad 2 (padded edge l3d) and r_map = edge/8:
//
//   3D  fft::parallel_padded_fft3d at P = 1 and P = 4  vs
//       centered_crop(fft3d_forward(to_complex(pad_volume(map))))
//   2D  FourierMatcher::prepare_view (Wiener CTF)  vs
//       correct_ctf(centered_fft2(pad_image(view)))
//
// It records lines transformed (the pruned ones from fft.nd.points)
// and microseconds per call, and exits 1 on ANY differing bit: every
// rank's ball, and the view spectrum on the disk box (zero outside).
//
// Timing protocol: each path runs --reps times, interleaved so slow
// machine phases hit all paths; the reported seconds are the minimum
// over reps (the standard noise-robust estimator on shared hardware).
//
// Flags: --l3d <edge>  (default 128)   --l2d <edge> (default 331)
//        --reps <n>    (default 5)
//        --paper_sizes (also bench the paper's 2D view edges, 331 and
//                       511 — opt-in so the CI smoke run stays fast)
//        --out <path>  (default BENCH_fft.json)

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "por/core/matcher.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/fft/fft1d.hpp"
#include "por/fft/fftnd.hpp"
#include "por/fft/parallel_fft3d.hpp"
#include "por/fft/plan_cache.hpp"
#include "por/obs/export.hpp"
#include "por/obs/registry.hpp"
#include "por/util/cli.hpp"
#include "por/util/rng.hpp"
#include "por/util/timer.hpp"
#include "por/vmpi/runtime.hpp"

namespace {

using namespace por;
using fft::cdouble;

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  return buffer;
}

// ---- the seed-era reference path (seed fft1d.cpp + fftnd.cpp, verbatim) ---
//
// A frozen copy of the v0 transform: the same bit-reversed radix-2 /
// Bluestein math with std::complex operator arithmetic (which the
// compiler lowers to __muldc3 libcalls), plans rebuilt on every
// multi-dimensional call, and columns walked one strided gather at a
// time with a fresh std::vector per line.  Kept verbatim here so the
// bench races the *actual* seed code, independent of later kernel work
// in por::fft.

class SeedFft1D {
 public:
  explicit SeedFft1D(std::size_t n) : n_(n), pow2_((n & (n - 1)) == 0) {
    if (pow2_) {
      bitrev_.resize(n);
      std::size_t bits = 0;
      while ((std::size_t{1} << bits) < n) ++bits;
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = 0;
        for (std::size_t b = 0; b < bits; ++b) {
          if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
        }
        bitrev_[i] = r;
      }
      roots_.resize(n / 2);
      for (std::size_t k = 0; k < n / 2; ++k) {
        const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                             static_cast<double>(n);
        roots_[k] = {std::cos(angle), std::sin(angle)};
      }
      return;
    }
    m_ = std::size_t{1};
    while (m_ < 2 * n_ - 1) m_ <<= 1;
    inner_ = std::make_unique<SeedFft1D>(m_);
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      const std::size_t k2 = (k * k) % (2 * n_);
      const double angle =
          std::numbers::pi * static_cast<double>(k2) / static_cast<double>(n_);
      chirp_[k] = {std::cos(angle), std::sin(angle)};
    }
    std::vector<cdouble> b(m_, cdouble{0.0, 0.0});
    b[0] = chirp_[0];
    for (std::size_t k = 1; k < n_; ++k) {
      b[k] = chirp_[k];
      b[m_ - k] = chirp_[k];
    }
    inner_->forward(b.data());
    chirp_fft_ = std::move(b);
  }

  void forward(cdouble* data) const {
    if (n_ == 1) return;
    if (pow2_) {
      pow2_forward(data);
    } else {
      bluestein_forward(data);
    }
  }

  void forward_strided(cdouble* base, std::size_t stride) const {
    std::vector<cdouble> line(n_);
    for (std::size_t i = 0; i < n_; ++i) line[i] = base[i * stride];
    forward(line.data());
    for (std::size_t i = 0; i < n_; ++i) base[i * stride] = line[i];
  }

 private:
  void pow2_forward(cdouble* data) const {
    const std::size_t n = n_;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = bitrev_[i];
      if (i < j) std::swap(data[i], data[j]);
    }
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const std::size_t half = len >> 1;
      const std::size_t step = n / len;
      for (std::size_t block = 0; block < n; block += len) {
        for (std::size_t k = 0; k < half; ++k) {
          const cdouble w = roots_[k * step];
          const cdouble even = data[block + k];
          const cdouble odd = data[block + k + half] * w;
          data[block + k] = even + odd;
          data[block + k + half] = even - odd;
        }
      }
    }
  }

  void bluestein_forward(cdouble* data) const {
    std::vector<cdouble> a(m_, cdouble{0.0, 0.0});
    for (std::size_t k = 0; k < n_; ++k) a[k] = data[k] * std::conj(chirp_[k]);
    inner_->forward(a.data());
    for (std::size_t k = 0; k < m_; ++k) a[k] *= chirp_fft_[k];
    // inverse(x) = conj(forward(conj(x))) / m, as in the seed transform().
    for (std::size_t k = 0; k < m_; ++k) a[k] = std::conj(a[k]);
    inner_->forward(a.data());
    const double scale = 1.0 / static_cast<double>(m_);
    for (std::size_t k = 0; k < m_; ++k) a[k] = std::conj(a[k]) * scale;
    for (std::size_t k = 0; k < n_; ++k) data[k] = a[k] * std::conj(chirp_[k]);
  }

  std::size_t n_;
  bool pow2_;
  std::vector<std::size_t> bitrev_;
  std::vector<cdouble> roots_;
  std::size_t m_ = 0;
  std::unique_ptr<SeedFft1D> inner_;
  std::vector<cdouble> chirp_;
  std::vector<cdouble> chirp_fft_;
};

void seed_fft2d_forward(cdouble* data, std::size_t ny, std::size_t nx) {
  const SeedFft1D row_plan(nx);  // rebuilt every call, like the seed
  const SeedFft1D col_plan(ny);
  for (std::size_t y = 0; y < ny; ++y) row_plan.forward(data + y * nx);
  for (std::size_t x = 0; x < nx; ++x) {
    col_plan.forward_strided(data + x, nx);
  }
}

void seed_fft3d_forward(cdouble* data, std::size_t nz, std::size_t ny,
                        std::size_t nx) {
  for (std::size_t z = 0; z < nz; ++z) {
    seed_fft2d_forward(data + z * ny * nx, ny, nx);
  }
  const SeedFft1D z_plan(nz);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      z_plan.forward_strided(data + y * nx + x, ny * nx);
    }
  }
}

// ---- helpers ---------------------------------------------------------------

std::vector<cdouble> random_field(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cdouble> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  return x;
}

/// max |a-b| / (1 + max |b|): relative to the spectrum's scale, robust
/// near zero.
double rel_divergence(const std::vector<cdouble>& a,
                      const std::vector<cdouble>& b) {
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  return worst / (1.0 + scale);
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

std::string rep_list(const std::vector<double>& seconds) {
  std::string list = "[";
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    if (i) list += ", ";
    list += json_number(seconds[i]);
  }
  return list + "]";
}

/// Points the calling thread's transforms add to fft.nd.points while
/// `fn` runs, through a private registry.
template <typename Fn>
std::uint64_t nd_points_of(Fn&& fn) {
  obs::MetricsRegistry registry;
  const obs::RegistryScope scope(registry);
  fn();
  return registry.counter("fft.nd.points").value();
}

/// The pruned section (see the header): JSON object text, and the
/// number of differing bits found in `differing`.
std::string bench_pruned(std::size_t l3d, std::size_t reps,
                         std::uint64_t& differing) {
  const std::size_t l = std::max<std::size_t>(2, l3d / 2), pad = 2;
  const std::size_t n = l * pad;
  core::MatchOptions options;
  options.pad = pad;
  options.r_map = static_cast<double>(l) / 8.0;
  options.ctf = em::CtfParams{};
  options.ctf_correction = em::CtfCorrection::kWiener;
  const fft::CubeCrop ball = core::FourierMatcher::ball(l, options);

  // ---- 3D: the padded-ball collective vs the full padded transform ----
  em::Volume<double> map(l);
  map.storage() = random_real(l * l * l, 301);
  const auto full_ball = [&] {
    em::Volume<cdouble> padded = em::to_complex(em::pad_volume(map, pad));
    fft::fft3d_forward(padded.data(), n, n, n);
    return fft::centered_crop(padded.data(), n, ball);
  };
  const auto collective = [&](int p) {
    std::vector<std::vector<cdouble>> per_rank(static_cast<std::size_t>(p));
    vmpi::run(p, [&](vmpi::Comm& comm) {
      const std::vector<double> none;
      per_rank[static_cast<std::size_t>(comm.rank())] =
          fft::parallel_padded_fft3d(comm,
                                     comm.is_root() ? map.storage() : none, l,
                                     pad, ball);
    });
    return per_rank;
  };
  const std::vector<cdouble> reference = full_ball();
  for (const int p : {1, 4}) {
    for (const auto& got : collective(p)) {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        differing += i < got.size() &&
                             std::memcmp(&got[i], &reference[i],
                                         sizeof(cdouble)) == 0
                         ? 0
                         : 1;
      }
    }
  }
  std::uint64_t points_3d = 0;
  vmpi::run(1, [&](vmpi::Comm& comm) {
    points_3d = nd_points_of([&] {
      (void)fft::parallel_padded_fft3d(comm, map.storage(), l, pad, ball);
    });
  });
  std::vector<double> full3_s(reps), p1_s(reps), p4_s(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::WallTimer t0;
    (void)full_ball();
    full3_s[rep] = t0.seconds();
    util::WallTimer t1;
    (void)collective(1);
    p1_s[rep] = t1.seconds();
    util::WallTimer t2;
    (void)collective(4);
    p4_s[rep] = t2.seconds();
  }

  // ---- 2D: prepare_view vs the full padded view transform -------------
  const core::FourierMatcher matcher(em::Volume<cdouble>(ball.edge), l,
                                     options);
  em::Image<double> view(l, l);
  view.storage() = random_real(l * l, 302);
  const auto full_view = [&] {
    em::Image<cdouble> spectrum = em::centered_fft2(em::pad_image(view, pad));
    em::correct_ctf(spectrum, *options.ctf, options.ctf_correction,
                    options.wiener_snr);
    return spectrum;
  };
  const em::Image<cdouble> full_spectrum = full_view();
  const fft::CubeCrop box = matcher.view_box();
  em::Image<cdouble> pruned_spectrum;
  const std::uint64_t points_2d =
      nd_points_of([&] { pruned_spectrum = matcher.prepare_view(view); });
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      const bool inside = y >= box.origin && y < box.origin + box.edge &&
                          x >= box.origin && x < box.origin + box.edge;
      const cdouble want = inside ? full_spectrum(y, x) : cdouble{};
      differing +=
          std::memcmp(&pruned_spectrum(y, x), &want, sizeof(cdouble)) == 0 ? 0
                                                                           : 1;
    }
  }
  std::vector<double> full2_s(reps), view_s(reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    util::WallTimer t0;
    (void)full_view();
    full2_s[rep] = t0.seconds();
    util::WallTimer t1;
    (void)matcher.prepare_view(view);
    view_s[rep] = t1.seconds();
  }

  // Full-path line counts: three passes of n^2 lines in 3D; in 2D the
  // r2c row stage (two rows per line) plus the n/2 + 1 column lines.
  const std::uint64_t lines_full_3d = 3 * n * n;
  const std::uint64_t lines_full_2d = (n + 1) / 2 + n / 2 + 1;
  std::printf(
      "  pruned 3D l=%zu pad=%zu ball=%zu   lines %llu vs %llu   P=1: %.1f us"
      "   P=4: %.1f us   full: %.1f us\n",
      l, pad, ball.edge, static_cast<unsigned long long>(points_3d / n),
      static_cast<unsigned long long>(lines_full_3d), min_of(p1_s) * 1e6,
      min_of(p4_s) * 1e6, min_of(full3_s) * 1e6);
  std::printf(
      "  pruned 2D view %zu box=%zu   lines %llu vs %llu   prepare_view: %.1f"
      " us   full: %.1f us   differing samples: %llu\n",
      l, box.edge, static_cast<unsigned long long>(points_2d / n),
      static_cast<unsigned long long>(lines_full_2d), min_of(view_s) * 1e6,
      min_of(full2_s) * 1e6, static_cast<unsigned long long>(differing));

  std::string json = "  \"pruned\": {\n";
  json += "    \"edge\": " + std::to_string(l) + ",\n";
  json += "    \"pad\": " + std::to_string(pad) + ",\n";
  json += "    \"ball_edge\": " + std::to_string(ball.edge) + ",\n";
  json += "    \"dft3d\": {\"lines_pruned\": " + std::to_string(points_3d / n) +
          ", \"lines_full\": " + std::to_string(lines_full_3d) +
          ", \"us_pruned_p1\": " + json_number(min_of(p1_s) * 1e6) +
          ", \"us_pruned_p4\": " + json_number(min_of(p4_s) * 1e6) +
          ", \"us_full\": " + json_number(min_of(full3_s) * 1e6) + "},\n";
  json += "    \"view\": {\"box_edge\": " + std::to_string(box.edge) +
          ", \"lines_pruned\": " + std::to_string(points_2d / n) +
          ", \"lines_full\": " + std::to_string(lines_full_2d) +
          ", \"us_pruned\": " + json_number(min_of(view_s) * 1e6) +
          ", \"us_full\": " + json_number(min_of(full2_s) * 1e6) + "},\n";
  json += "    \"differing_samples\": " + std::to_string(differing) + "\n";
  json += "  },\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(argc, argv);
  const std::size_t l3d = static_cast<std::size_t>(cli.get_int("l3d", 128));
  const std::size_t l2d = static_cast<std::size_t>(cli.get_int("l2d", 331));
  const std::size_t reps = static_cast<std::size_t>(cli.get_int("reps", 5));
  const bool paper_sizes = cli.get_bool("paper_sizes", false);
  const std::string out = cli.get("out", "BENCH_fft.json");
  cli.assert_all_consumed();

  std::printf("bench_fft: l3d=%zu l2d=%zu reps=%zu\n", l3d, l2d, reps);

  double worst_divergence = 0.0;
  std::string json = "{\n";
  json += "  \"l3d\": " + std::to_string(l3d) + ",\n";
  json += "  \"l2d\": " + std::to_string(l2d) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";

  // ---- 3D: seed vs v2 ------------------------------------------------------
  {
    const auto input = random_field(l3d * l3d * l3d, 101);
    auto seed_out = input;
    seed_fft3d_forward(seed_out.data(), l3d, l3d, l3d);  // warm + reference
    auto v2_out = input;
    fft::fft3d_forward(v2_out.data(), l3d, l3d, l3d);  // warms the plan cache
    const double div_serial = rel_divergence(v2_out, seed_out);
    worst_divergence = std::max(worst_divergence, div_serial);

    std::vector<double> seed_s(reps), serial_s(reps);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      auto work = input;
      util::WallTimer t0;
      seed_fft3d_forward(work.data(), l3d, l3d, l3d);
      seed_s[rep] = t0.seconds();
      work = input;
      util::WallTimer t1;
      fft::fft3d_forward(work.data(), l3d, l3d, l3d);
      serial_s[rep] = t1.seconds();
    }
    const double speedup =
        min_of(serial_s) > 0.0 ? min_of(seed_s) / min_of(serial_s) : 0.0;
    std::printf(
        "  fft3d %zu^3   seed: %.1f ms   v2: %.1f ms   speedup: %.2fx   "
        "maxreldiff: %.3g\n",
        l3d, min_of(seed_s) * 1e3, min_of(serial_s) * 1e3, speedup,
        div_serial);

    json += "  \"fft3d\": {\n";
    json += "    \"seed_seconds\": " + json_number(min_of(seed_s)) + ",\n";
    json += "    \"v2_serial_seconds\": " + json_number(min_of(serial_s)) +
            ",\n";
    json += "    \"seed_seconds_reps\": " + rep_list(seed_s) + ",\n";
    json += "    \"v2_serial_seconds_reps\": " + rep_list(serial_s) + ",\n";
    json += "    \"speedup_vs_seed\": " + json_number(speedup) + ",\n";
    json += "    \"max_rel_diff\": " + json_number(div_serial) + "\n";
    json += "  },\n";
  }

  // ---- 2D: seed vs v2 (c2c) and c2c vs r2c, per size ----------------------
  // --paper_sizes appends the paper's two view edges (331 Sindbis, 511
  // reovirus) to whatever --l2d selected; the default run stays the CI
  // smoke size.
  json += "  \"fft2d\": [\n";
  std::vector<std::size_t> sizes = {64, l2d};
  if (paper_sizes) {
    for (const std::size_t edge : {std::size_t{331}, std::size_t{511}}) {
      if (std::find(sizes.begin(), sizes.end(), edge) == sizes.end()) {
        sizes.push_back(edge);
      }
    }
  }
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::size_t n = sizes[s];
    const auto real = random_real(n * n, 200 + n);
    std::vector<cdouble> input(n * n);
    for (std::size_t i = 0; i < input.size(); ++i) input[i] = {real[i], 0.0};

    auto seed_out = input;
    seed_fft2d_forward(seed_out.data(), n, n);
    auto v2_out = input;
    fft::fft2d_forward(v2_out.data(), n, n);  // warms the cache
    std::vector<cdouble> r2c_out(n * n);
    fft::rfft2d_forward(real.data(), r2c_out.data(), n, n);
    const double div_c2c = rel_divergence(v2_out, seed_out);
    const double div_r2c = rel_divergence(r2c_out, seed_out);
    worst_divergence = std::max({worst_divergence, div_c2c, div_r2c});

    std::vector<double> seed_s(reps), serial_s(reps), r2c_s(reps);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      auto work = input;
      util::WallTimer t0;
      seed_fft2d_forward(work.data(), n, n);
      seed_s[rep] = t0.seconds();
      work = input;
      util::WallTimer t1;
      fft::fft2d_forward(work.data(), n, n);
      serial_s[rep] = t1.seconds();
      util::WallTimer t2;
      fft::rfft2d_forward(real.data(), r2c_out.data(), n, n);
      r2c_s[rep] = t2.seconds();
    }
    const double speedup_seed =
        min_of(serial_s) > 0.0 ? min_of(seed_s) / min_of(serial_s) : 0.0;
    const double speedup_r2c =
        min_of(r2c_s) > 0.0 ? min_of(serial_s) / min_of(r2c_s) : 0.0;
    std::printf(
        "  fft2d %zux%zu   seed: %.3f ms   v2 c2c: %.3f ms (%.2fx)   v2 r2c: "
        "%.3f ms (%.2fx vs c2c)   maxreldiff: %.3g\n",
        n, n, min_of(seed_s) * 1e3, min_of(serial_s) * 1e3, speedup_seed,
        min_of(r2c_s) * 1e3, speedup_r2c, std::max(div_c2c, div_r2c));

    json += "    {\n";
    json += "      \"n\": " + std::to_string(n) + ",\n";
    json += "      \"seed_seconds\": " + json_number(min_of(seed_s)) + ",\n";
    json += "      \"v2_serial_seconds\": " + json_number(min_of(serial_s)) +
            ",\n";
    json += "      \"v2_r2c_seconds\": " + json_number(min_of(r2c_s)) + ",\n";
    json += "      \"speedup_vs_seed\": " + json_number(speedup_seed) + ",\n";
    json += "      \"speedup_r2c_vs_c2c\": " + json_number(speedup_r2c) +
            ",\n";
    json += "      \"max_rel_diff\": " +
            json_number(std::max(div_c2c, div_r2c)) + "\n";
    json += s + 1 < sizes.size() ? "    },\n" : "    }\n";
  }
  json += "  ],\n";

  // ---- pruned transforms vs the full paths (bitwise gate) ------------------
  std::uint64_t differing_samples = 0;
  json += bench_pruned(l3d, reps, differing_samples);

  // ---- plan cache accounting ----------------------------------------------
  const auto snapshot_counter = [](const char* name) {
    return obs::current_registry().counter(name).value();
  };
  json += "  \"plan_cache\": {\n";
  json += "    \"resident_plans\": " +
          std::to_string(fft::PlanCache::instance().size()) + ",\n";
  json += "    \"hits\": " +
          std::to_string(snapshot_counter("fft.plan_cache.hits")) + ",\n";
  json += "    \"misses\": " +
          std::to_string(snapshot_counter("fft.plan_cache.misses")) + "\n";
  json += "  },\n";
  json += "  \"max_rel_diff\": " + json_number(worst_divergence) + "\n";
  json += "}\n";
  obs::write_text_file(out, json);
  std::printf("  wrote %s\n", out.c_str());

  if (worst_divergence > 1e-12) {
    std::fprintf(stderr,
                 "bench_fft: FAIL max relative divergence %.3g > 1e-12\n",
                 worst_divergence);
    return 1;
  }
  if (differing_samples != 0) {
    std::fprintf(stderr,
                 "bench_fft: FAIL %llu samples of the pruned transforms differ "
                 "from the full paths\n",
                 static_cast<unsigned long long>(differing_samples));
    return 1;
  }
  return 0;
}
