#include "por/core/brick_store.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace por::core {

namespace {

constexpr vmpi::Tag kBrickRequestTag = 300;
constexpr vmpi::Tag kBrickReplyTag = 301;
constexpr vmpi::Tag kBrickScatterTag = 302;

// Request payload: brick index, or kStopToken for shutdown.
constexpr std::uint64_t kStopToken = ~std::uint64_t{0};

}  // namespace

BrickStore::BrickStore(vmpi::Comm& comm,
                       const em::Volume<em::cdouble>& full_on_root,
                       std::size_t edge, const BrickStoreConfig& config)
    : comm_(comm), config_(config), edge_(edge) {
  if (config_.brick_edge == 0 || edge_ % config_.brick_edge != 0) {
    throw std::invalid_argument(
        "BrickStore: brick edge must divide the volume edge");
  }
  grid_ = edge_ / config_.brick_edge;
  const std::size_t brick_count = grid_ * grid_ * grid_;
  const std::size_t be = config_.brick_edge;
  const std::size_t brick_voxels = be * be * be;

  // Root slices the volume into bricks and deals them out; every rank
  // keeps only its own share (that is the whole point of the design).
  if (comm_.is_root()) {
    if (full_on_root.nx() != edge_ || !full_on_root.is_cube()) {
      throw std::invalid_argument("BrickStore: root volume edge mismatch");
    }
    for (std::size_t index = 0; index < brick_count; ++index) {
      const std::size_t bz = index / (grid_ * grid_);
      const std::size_t by = (index / grid_) % grid_;
      const std::size_t bx = index % grid_;
      std::vector<em::cdouble> payload;
      payload.reserve(brick_voxels);
      for (std::size_t z = 0; z < be; ++z) {
        for (std::size_t y = 0; y < be; ++y) {
          for (std::size_t x = 0; x < be; ++x) {
            payload.push_back(
                full_on_root(bz * be + z, by * be + y, bx * be + x));
          }
        }
      }
      const int owner = owner_of(index);
      if (owner == comm_.rank()) {
        local_bricks_.emplace(index, std::move(payload));
      } else {
        comm_.send(owner, kBrickScatterTag, payload);
      }
    }
  } else {
    for (std::size_t index = 0; index < brick_count; ++index) {
      if (owner_of(index) == comm_.rank()) {
        local_bricks_.emplace(index,
                              comm_.recv<em::cdouble>(0, kBrickScatterTag));
      }
    }
  }
  comm_.barrier();
}

BrickStore::~BrickStore() {
  // stop_server() is collective and must be called explicitly; a live
  // server here means a protocol bug, but avoid deadlocking the whole
  // process on teardown.
  if (server_.joinable()) server_.detach();
}

void BrickStore::start_server() {
  if (server_running_) throw std::logic_error("BrickStore: server running");
  server_running_ = true;
  // por-lint: allow(thread-spawn) answers peers' brick requests while
  // this rank blocks on its own (the §6 alternative, kept to measure it)
  server_ = std::thread([this] { server_loop(); });
}

void BrickStore::stop_server() {
  if (!server_running_) throw std::logic_error("BrickStore: server not running");
  // Every rank tells every server it is done; a server exits after
  // collecting P tokens, so it keeps serving until ALL clients finish.
  for (int r = 0; r < comm_.size(); ++r) {
    comm_.send_value(r, kBrickRequestTag, kStopToken);
  }
  server_.join();
  server_running_ = false;
  comm_.barrier();
}

void BrickStore::server_loop() {
  int stops_seen = 0;
  while (stops_seen < comm_.size()) {
    int requester = -1;
    const auto raw = comm_.recv_any_bytes(kBrickRequestTag, requester);
    std::uint64_t index = 0;
    std::memcpy(&index, raw.data(), sizeof index);
    if (index == kStopToken) {
      ++stops_seen;
      continue;
    }
    const auto local = local_bricks_.find(static_cast<std::size_t>(index));
    if (local == local_bricks_.end()) {
      throw std::logic_error("BrickStore: asked for a brick I do not own");
    }
    comm_.send(requester, kBrickReplyTag, local->second);
  }
}

const em::cdouble* BrickStore::brick(std::size_t index) {
  // Local bricks are free.
  const auto local = local_bricks_.find(index);
  if (local != local_bricks_.end()) {
    ++local_hits_;
    return local->second.data();
  }
  // Cached remote bricks: refresh LRU position.
  auto cached = cache_.find(index);
  if (cached != cache_.end()) {
    ++cache_hits_;
    lru_.erase(lru_pos_[index]);
    lru_.push_front(index);
    lru_pos_[index] = lru_.begin();
    return cached->second.data();
  }
  // Remote fetch.
  const int owner = owner_of(index);
  comm_.send_value(owner, kBrickRequestTag, static_cast<std::uint64_t>(index));
  std::vector<em::cdouble> payload = comm_.recv<em::cdouble>(owner, kBrickReplyTag);
  ++remote_fetches_;
  bytes_fetched_ += payload.size() * sizeof(em::cdouble);
  // Insert with eviction.
  if (cache_.size() >= config_.cache_bricks && !lru_.empty()) {
    const std::size_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    cache_.erase(victim);
    ++evictions_;
  }
  auto [it, inserted] = cache_.emplace(index, std::move(payload));
  lru_.push_front(index);
  lru_pos_[index] = lru_.begin();
  return it->second.data();
}

em::cdouble BrickStore::voxel(long z, long y, long x) {
  if (z < 0 || y < 0 || x < 0 || z >= static_cast<long>(edge_) ||
      y >= static_cast<long>(edge_) || x >= static_cast<long>(edge_)) {
    return {0.0, 0.0};
  }
  const std::size_t be = config_.brick_edge;
  const std::size_t bz = static_cast<std::size_t>(z) / be;
  const std::size_t by = static_cast<std::size_t>(y) / be;
  const std::size_t bx = static_cast<std::size_t>(x) / be;
  const std::size_t index = (bz * grid_ + by) * grid_ + bx;
  const em::cdouble* data = brick(index);
  const std::size_t lz = static_cast<std::size_t>(z) % be;
  const std::size_t ly = static_cast<std::size_t>(y) % be;
  const std::size_t lx = static_cast<std::size_t>(x) % be;
  return data[(lz * be + ly) * be + lx];
}

em::cdouble BrickStore::sample(double z, double y, double x) {
  const double fz = std::floor(z), fy = std::floor(y), fx = std::floor(x);
  const long iz = static_cast<long>(fz), iy = static_cast<long>(fy),
             ix = static_cast<long>(fx);
  const double tz = z - fz, ty = y - fy, tx = x - fx;
  em::cdouble acc{0.0, 0.0};
  for (int dz = 0; dz < 2; ++dz) {
    const double wz = dz ? tz : 1.0 - tz;
    // por-lint: allow(float-eq) exact-zero weight skip, bit-exact
    // no-op (same convention as por/em/interp.hpp); also both below.
    if (wz == 0.0) continue;
    for (int dy = 0; dy < 2; ++dy) {
      const double wy = dy ? ty : 1.0 - ty;
      if (wy == 0.0) continue;  // por-lint: allow(float-eq) exact-zero skip
      for (int dx = 0; dx < 2; ++dx) {
        const double wx = dx ? tx : 1.0 - tx;
        if (wx == 0.0) continue;  // por-lint: allow(float-eq) exact-zero skip
        acc += wz * wy * wx * voxel(iz + dz, iy + dy, ix + dx);
      }
    }
  }
  return acc;
}

}  // namespace por::core
