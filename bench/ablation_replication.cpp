// ablation_replication — puts numbers on the paper's central parallel-
// design decision (§6): "we choose to replicate the electron density
// map and its 3D DFT on every node because we wanted to reduce the
// communication costs.  The alternative is to implement a shared
// virtual memory where 3D bricks of the electron density or its DFT
// are brought on demand."
//
// Design A, replication, runs for real: one bcast of the spectrum's
// r_map ball (the only part of the padded spectrum a matching reads),
// then communication-free matching with FourierMatcher.
//
// Design B, the shared virtual memory, is modelled, not run.  Its
// cost is a pure function of which 8^3 bricks each cut touches, so the
// model replays that trace: the padded centered spectrum is cut into
// bricks owned round-robin by the ranks, every matching samples its
// full r_map disk trilinearly, and each corner a sample reads is a
// local hit, a hit in the rank's LRU cache of remote bricks, or a miss
// (an 8 B request and one brick in reply).  Bytes and messages follow
// vmpi's accounting: sends only, self-sends included, barriers free.
// Both designs cover the identical matching workload.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <list>
#include <unordered_map>

#include "bench_helpers.hpp"
#include "por/core/matcher.hpp"
#include "por/core/search_domain.hpp"
#include "por/em/pad.hpp"
#include "por/em/projection.hpp"
#include "por/io/master_io.hpp"
#include "por/util/table.hpp"
#include "por/vmpi/runtime.hpp"

using namespace por;

namespace {

constexpr std::size_t kBrickEdge = 8;
constexpr std::uint64_t kBrickBytes =
    kBrickEdge * kBrickEdge * kBrickEdge * sizeof(em::cdouble);
/// A brick request and a shutdown token are one std::uint64_t each.
constexpr std::uint64_t kTokenBytes = sizeof(std::uint64_t);

/// One rank's bounded LRU cache of remote bricks.
class BrickLru {
 public:
  explicit BrickLru(std::size_t capacity) : capacity_(capacity) {}

  /// True when `brick` is cached (it becomes the most recent); false
  /// on a miss, after which it is cached, evicting the least recent
  /// brick when the cache is full.
  bool touch(std::size_t brick) {
    const auto it = position_.find(brick);
    if (it != position_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return true;
    }
    if (position_.size() >= capacity_ && !lru_.empty()) {
      position_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(brick);
    position_[brick] = lru_.begin();
    return false;
  }

 private:
  std::size_t capacity_;
  std::list<std::size_t> lru_;  // front = most recent
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator>
      position_;
};

/// Calls `visit(brick)` for every voxel read, in order, by a full-disk
/// trilinear cut at `o` through the big^3 padded centered spectrum:
/// each disk pixel samples 8 corners, skipping exact-zero weights, and
/// a corner outside the volume reads zero without touching a brick.
template <typename Visit>
void for_each_cut_brick(long big, double padded_r_min, double padded_r_map,
                        const em::Orientation& o, Visit&& visit) {
  const em::Mat3 r = em::rotation_matrix(o);
  const em::Vec3 eu = r * em::Vec3{1, 0, 0};
  const em::Vec3 ev = r * em::Vec3{0, 1, 0};
  const double c = std::floor(static_cast<double>(big) / 2.0);
  const long lo =
      std::max<long>(0, static_cast<long>(std::floor(c - padded_r_map)));
  const long hi = std::min<long>(
      big - 1, static_cast<long>(std::ceil(c + padded_r_map)));
  const long grid = big / static_cast<long>(kBrickEdge);
  const auto corner = [&](long z, long y, long x) {
    if (z < 0 || y < 0 || x < 0 || z >= big || y >= big || x >= big) return;
    const long be = static_cast<long>(kBrickEdge);
    visit(static_cast<std::size_t>(((z / be) * grid + y / be) * grid +
                                   x / be));
  };
  for (long y = lo; y <= hi; ++y) {
    const double kv = static_cast<double>(y) - c;
    for (long x = lo; x <= hi; ++x) {
      const double ku = static_cast<double>(x) - c;
      const double radius = std::sqrt(ku * ku + kv * kv);
      if (radius > padded_r_map || radius < padded_r_min) continue;
      const em::Vec3 q = ku * eu + kv * ev;
      const double z = q.z + c, yy = q.y + c, xx = q.x + c;
      const double fz = std::floor(z), fy = std::floor(yy),
                   fx = std::floor(xx);
      const long iz = static_cast<long>(fz), iy = static_cast<long>(fy),
                 ix = static_cast<long>(fx);
      const double tz = z - fz, ty = yy - fy, tx = xx - fx;
      for (int dz = 0; dz < 2; ++dz) {
        // por-lint: allow(float-eq) exact-zero weight skip, as in
        // por/em/interp.hpp; also both below.
        if ((dz ? tz : 1.0 - tz) == 0.0) continue;
        for (int dy = 0; dy < 2; ++dy) {
          // por-lint: allow(float-eq) exact-zero weight skip
          if ((dy ? ty : 1.0 - ty) == 0.0) continue;
          for (int dx = 0; dx < 2; ++dx) {
            // por-lint: allow(float-eq) exact-zero weight skip
            if ((dx ? tx : 1.0 - tx) == 0.0) continue;
            corner(iz + dz, iy + dy, ix + dx);
          }
        }
      }
    }
  }
}

struct BrickTraffic {
  std::uint64_t setup_bytes = 0;
  std::uint64_t bytes = 0;  ///< setup included
  std::uint64_t messages = 0;
  std::uint64_t matchings = 0;
};

/// The brick store's traffic for `p` ranks matching their block of
/// views over each view's 5^3 `domain`, with `cache_bricks` remote
/// bricks cached per rank.
BrickTraffic model_brick_store(const bench::Workload& w,
                               const core::MatchOptions& options, int p,
                               std::size_t cache_bricks, double grid_step,
                               int grid_width) {
  const long big = static_cast<long>(w.l * options.pad);
  const double padded_r_map =
      std::min(options.r_map * static_cast<double>(options.pad),
               static_cast<double>(big) / 2.0 - 1.0);
  const double padded_r_min =
      options.r_min * static_cast<double>(options.pad);
  const std::size_t grid = static_cast<std::size_t>(big) / kBrickEdge;
  const auto owner = [p](std::size_t brick) {
    return static_cast<int>(brick % static_cast<std::size_t>(p));
  };

  BrickTraffic t;
  // Setup: the root deals out every brick it does not own.
  for (std::size_t brick = 0; brick < grid * grid * grid; ++brick) {
    if (owner(brick) != 0) {
      t.setup_bytes += kBrickBytes;
      ++t.messages;
    }
  }
  t.bytes = t.setup_bytes;

  for (int rank = 0; rank < p; ++rank) {
    BrickLru cache(cache_bricks);
    // Re-reading the brick just read changes no state: it is local, or
    // already the cache's most recent entry.
    std::size_t last = ~std::size_t{0};
    const auto read = [&](std::size_t brick) {
      if (brick == last) return;
      last = brick;
      if (owner(brick) == rank || cache.touch(brick)) return;
      t.bytes += kTokenBytes + kBrickBytes;
      t.messages += 2;
    };
    const std::size_t begin = io::block_begin(w.views.size(), p, rank);
    const std::size_t share = io::block_share(w.views.size(), p, rank);
    for (std::size_t i = begin; i < begin + share; ++i) {
      const core::SearchDomain domain{w.initial[i], grid_step, grid_width};
      for (const auto& o : domain.enumerate()) {
        for_each_cut_brick(big, padded_r_min, padded_r_map, o, read);
        ++t.matchings;
      }
    }
  }
  // Shutdown: every rank sends a stop token to every server, its own
  // included.  Then the matchings allreduce both designs end with: a
  // reduce and a bcast of one std::uint64_t over P - 1 links each.
  const auto ranks = static_cast<std::uint64_t>(p);
  t.messages += ranks * ranks + 2 * (ranks - 1);
  t.bytes += (ranks * ranks + 2 * (ranks - 1)) * kTokenBytes;
  return t;
}

}  // namespace

int main() {
  std::printf("ablation_replication: replicated 3D DFT vs shared-virtual-"
              "memory brick store (paper §6)\n\n");

  bench::WorkloadSpec spec;
  spec.l = 32;
  spec.view_count = 12;
  spec.snr = 0.0;
  spec.quantize_deg = 1.0;
  spec.seed = 777;
  bench::Workload w = bench::asymmetric_workload(spec);

  core::MatchOptions options;
  options.r_map = 12.0;
  const std::size_t big = w.l * options.pad;
  const double spectrum_mb =
      static_cast<double>(big * big * big) * 16.0 / 1e6;
  const fft::CubeCrop ball = core::FourierMatcher::ball(w.l, options);
  const em::Volume<em::cdouble> ball_spectrum =
      em::centered_fft3(em::pad_volume(w.map, options.pad), ball);
  const double ball_mb =
      static_cast<double>(ball_spectrum.size()) * 16.0 / 1e6;

  // Each rank searches a 5^3 grid around its views' initial
  // orientations — one level-2 window of the schedule.
  const int grid_width = 5;
  const double grid_step = 0.25;

  util::Table table({"design", "P", "setup MB", "matching MB",
                     "resident MB/rank", "messages", "matchings"});

  for (int p : {2, 4}) {
    // ---- design A: replication ----
    {
      std::uint64_t matchings = 0;
      const vmpi::RunReport report = vmpi::run(p, [&](vmpi::Comm& comm) {
        // Replicate: root broadcasts the spectrum's r_map ball.
        std::vector<em::cdouble> flat = comm.is_root()
                                            ? ball_spectrum.storage()
                                            : std::vector<em::cdouble>{};
        comm.bcast(0, flat);
        em::Volume<em::cdouble> mine(ball.edge);
        mine.storage() = std::move(flat);
        const core::FourierMatcher matcher(std::move(mine), w.l, options);
        // Match my block of views (communication-free).
        const std::size_t begin =
            io::block_begin(w.views.size(), p, comm.rank());
        const std::size_t share =
            io::block_share(w.views.size(), p, comm.rank());
        for (std::size_t i = begin; i < begin + share; ++i) {
          const auto vs = matcher.prepare_view(w.views[i]);
          const core::SearchDomain domain{w.initial[i], grid_step, grid_width};
          for (const auto& o : domain.enumerate()) {
            (void)matcher.distance(vs, o);
          }
        }
        const std::uint64_t mine_count = matcher.matchings();
        matchings += comm.allreduce_value(mine_count, vmpi::ReduceOp::kSum) *
                     (comm.is_root() ? 1 : 0);
      });
      table.add_row({"replicated", std::to_string(p),
                     util::fmt(static_cast<double>(report.bytes) / 1e6, 1),
                     "0.0", util::fmt(ball_mb, 1),
                     util::fmt_grouped(static_cast<long long>(report.messages)),
                     util::fmt_grouped(static_cast<long long>(matchings))});
    }

    // ---- design B: shared virtual memory (brick store), modelled ----
    for (std::size_t cache_bricks : {32u, 256u}) {
      const BrickTraffic t = model_brick_store(w, options, p, cache_bricks,
                                               grid_step, grid_width);
      const double resident_mb =
          (static_cast<double>(big * big * big) / static_cast<double>(p) +
           static_cast<double>(cache_bricks * kBrickEdge * kBrickEdge *
                               kBrickEdge)) *
          16.0 / 1e6;
      table.add_row(
          {"brick store (cache " + std::to_string(cache_bricks) + ")",
           std::to_string(p),
           util::fmt(static_cast<double>(t.setup_bytes) / 1e6, 1),
           util::fmt(static_cast<double>(t.bytes - t.setup_bytes) / 1e6, 1),
           util::fmt(resident_mb, 1),
           util::fmt_grouped(static_cast<long long>(t.messages)),
           util::fmt_grouped(static_cast<long long>(t.matchings))});
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "shape: replication pays ~(P-1) x %.1f MB (the r_map ball of the\n"
      "%.1f MB padded spectrum) ONCE and then matches for free; the brick\n"
      "store keeps only 1/P of the volume (+cache) per rank but keeps\n"
      "paying per matching — with thousands of matchings per view\n"
      "(Tables 1/2) the paper's choice of replication follows.  The brick\n"
      "store wins only when memory, not communication, is the binding\n"
      "constraint (the paper's TByte-scale discussion in §3).\n",
      ball_mb, spectrum_mb);
  return 0;
}
