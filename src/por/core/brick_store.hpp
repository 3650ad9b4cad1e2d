// por/core/brick_store.hpp
//
// The paper's rejected design alternative, built for real so it can be
// measured (§6): "On a distributed memory system we choose to
// replicate the electron density map and its 3D DFT on every node
// because we wanted to reduce the communication costs.  The
// alternative is to implement a shared virtual memory where 3D bricks
// of the electron density or its DFT are brought on demand in each
// node when they are needed, a strategy presented in [6]."
//
// BrickStore partitions the padded centered 3D spectrum into cubic
// bricks distributed round-robin across the ranks.  Each rank runs a
// small server thread answering brick requests; a client samples the
// spectrum through a bounded LRU brick cache, fetching remote bricks
// on demand.  TrafficStats plus the per-store counters give the
// communication cost the paper traded replication against.
#pragma once

#include <cstdint>
#include <list>
#include <thread>
#include <unordered_map>
#include <vector>

#include "por/em/grid.hpp"
#include "por/vmpi/comm.hpp"

namespace por::core {

struct BrickStoreConfig {
  std::size_t brick_edge = 8;    ///< voxels per brick edge (must divide edge)
  std::size_t cache_bricks = 64; ///< max non-local bricks kept per rank
};

/// Distributed, demand-paged complex volume.
///
/// SPMD lifecycle (all ranks):
///   BrickStore store(comm, full_on_root, edge, config);  // scatter bricks
///   store.start_server();
///   ... store.sample(z, y, x) from the rank's own compute thread ...
///   store.stop_server();    // collective; all ranks must call it
class BrickStore {
 public:
  /// Collective: rank 0 supplies the full edge^3 volume; bricks are
  /// scattered round-robin by brick index.
  BrickStore(vmpi::Comm& comm, const em::Volume<em::cdouble>& full_on_root,
             std::size_t edge, const BrickStoreConfig& config);
  BrickStore(const BrickStore&) = delete;
  BrickStore& operator=(const BrickStore&) = delete;
  ~BrickStore();

  /// Launch this rank's request server.
  void start_server();

  /// Collective shutdown: sends a stop token to every server and joins
  /// the local one (each server exits after P stop tokens).
  void stop_server();

  /// Trilinear sample at fractional (z, y, x); zero outside the volume.
  /// Fetches any non-resident bricks from their owners.
  [[nodiscard]] em::cdouble sample(double z, double y, double x);

  [[nodiscard]] std::size_t edge() const { return edge_; }
  [[nodiscard]] std::size_t brick_edge() const { return config_.brick_edge; }
  [[nodiscard]] std::size_t bricks_per_axis() const { return grid_; }

  // ---- accounting --------------------------------------------------------
  [[nodiscard]] std::uint64_t local_hits() const { return local_hits_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t remote_fetches() const { return remote_fetches_; }
  [[nodiscard]] std::uint64_t bytes_fetched() const { return bytes_fetched_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// Rank that owns a brick (round-robin by flat brick index).
  [[nodiscard]] int owner_of(std::size_t brick_index) const {
    return static_cast<int>(brick_index % static_cast<std::size_t>(comm_.size()));
  }

 private:
  void server_loop();
  /// Pointer to the brick's voxels (brick_edge^3 cdoubles).  Valid
  /// until the next brick() call (a remote fetch may evict the cache
  /// entry it pointed into) — callers consume it immediately.
  [[nodiscard]] const em::cdouble* brick(std::size_t index);
  [[nodiscard]] em::cdouble voxel(long z, long y, long x);

  vmpi::Comm& comm_;
  BrickStoreConfig config_;
  std::size_t edge_ = 0;
  std::size_t grid_ = 0;  ///< bricks per axis

  std::unordered_map<std::size_t, std::vector<em::cdouble>> local_bricks_;

  // LRU cache of remote bricks.
  std::unordered_map<std::size_t, std::vector<em::cdouble>> cache_;
  std::list<std::size_t> lru_;  // front = most recent
  std::unordered_map<std::size_t, std::list<std::size_t>::iterator> lru_pos_;

  std::thread server_;
  bool server_running_ = false;

  std::uint64_t local_hits_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t remote_fetches_ = 0;
  std::uint64_t bytes_fetched_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace por::core
