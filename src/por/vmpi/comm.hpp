// por/vmpi/comm.hpp
//
// vmpi: an in-process message-passing runtime with MPI semantics.
//
// The paper targets a distributed-memory machine (a 64-node IBM SP2,
// MPI); this host has one core and no MPI installation, so the runtime
// executes the *identical* communication structure in-process: ranks
// are threads, every rank owns private buffers, and ALL data sharing
// happens through explicit, byte-copied messages.  Nothing is shared by
// pointer, so an algorithm written against vmpi is a distributed-memory
// algorithm — the paper's slab exchanges, all-gathers and master-node
// I/O map one-to-one, and TrafficStats records exactly what a wire
// would carry.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <type_traits>
#include <vector>

#include "por/util/contracts.hpp"
#include "por/vmpi/fault.hpp"
#include "por/vmpi/traffic.hpp"

namespace por::vmpi {

/// Reduction operators understood by reduce/allreduce.
enum class ReduceOp { kSum, kMin, kMax };

namespace detail {

/// Shared state for the ranks of one Runtime: mailboxes, a barrier and
/// the installed fault-injection plan.  Not part of the public API.
struct Context {
  explicit Context(int nranks, FaultPlan fault_plan = {})
      : size(nranks), plan(std::move(fault_plan)), traffic(nranks) {}

  struct Key {
    int src;
    int dst;
    Tag tag;
    auto operator<=>(const Key&) const = default;
  };

  const int size;
  std::mutex mutex;
  std::condition_variable message_arrived;
  std::map<Key, std::deque<std::vector<std::byte>>> mailboxes;

  // Sense-reversing barrier.
  std::condition_variable barrier_cv;
  int barrier_count = 0;
  std::uint64_t barrier_generation = 0;

  // Fault injection (por/vmpi/fault.hpp): the plan is immutable for
  // the runtime's life; the per-channel send ordinals live under
  // `mutex` (the send path already holds it); the injected-fault
  // counters are relaxed atomics read after join (same policy as
  // TrafficStats).
  const FaultPlan plan;
  std::map<Key, std::uint64_t> send_seq;
  std::atomic<std::uint64_t> faults_dropped{0};
  std::atomic<std::uint64_t> faults_delayed{0};
  std::atomic<std::uint64_t> faults_corrupted{0};
  std::atomic<std::uint64_t> faults_killed{0};
  std::atomic<std::uint64_t> recv_timeouts{0};

  TrafficStats traffic;
};

}  // namespace detail

// Reserved internal tags; user tags should be non-negative.
// kBarrierTag never travels in a message; it only labels barrier
// timeouts in CommTimeout.
inline constexpr Tag kBarrierTag = -7;
inline constexpr Tag kBcastTag = -1;
inline constexpr Tag kScatterTag = -2;
inline constexpr Tag kGatherTag = -3;
inline constexpr Tag kAllgatherTag = -4;
inline constexpr Tag kAlltoallTag = -5;
inline constexpr Tag kReduceTag = -6;

/// A rank's handle to the communicator.  One Comm per rank; methods are
/// called only from that rank's thread (like an MPI communicator).
///
/// CONTRACT: ranks passed to send/recv lie in [0, size()) and tags are
/// either user tags (>= 0) or one of the reserved collective tags in
/// [kReduceTag, -1] — checked by POR_EXPECT in comm.cpp; typed
/// payload/element-size agreement is additionally enforced in every
/// build via throw_payload_mismatch.
class Comm {
 public:
  Comm(detail::Context& context, int rank) : context_(context), rank_(rank) {}

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return context_.size; }
  [[nodiscard]] bool is_root() const { return rank_ == 0; }
  [[nodiscard]] TrafficStats& traffic() { return context_.traffic; }

  // ---- resilience -------------------------------------------------------

  /// Default deadline applied to every blocking receive on this rank
  /// (and therefore to every collective, which is built from receives).
  /// Zero means "block forever" — the pre-resilience behavior and the
  /// default.  When set, a receive that waits longer throws CommTimeout
  /// instead of hanging on a dead peer.
  void set_deadline(std::chrono::milliseconds deadline) {
    deadline_ = deadline;
  }
  [[nodiscard]] std::chrono::milliseconds deadline() const {
    return deadline_;
  }

  /// Fault-plan kill hook: drivers call this between work items (the
  /// paper's per-view steps d-l); throws RankKilled when the installed
  /// plan kills this rank at or before `step`.  No-op without a plan.
  void fault_point(std::uint64_t step);

  /// Totals of faults injected so far across the whole runtime.
  [[nodiscard]] FaultStats fault_stats() const {
    // por-atomic: monitor — diagnostics snapshot; each counter may lag
    return FaultStats{
        context_.faults_dropped.load(std::memory_order_relaxed),
        context_.faults_delayed.load(std::memory_order_relaxed),
        context_.faults_corrupted.load(std::memory_order_relaxed),
        context_.faults_killed.load(std::memory_order_relaxed),
        context_.recv_timeouts.load(std::memory_order_relaxed)};
  }

  // ---- point-to-point ---------------------------------------------------

  /// Copy `bytes` into rank `dst`'s mailbox under `tag`.  Buffered,
  /// non-blocking (like MPI_Bsend); self-sends are allowed.
  void send_bytes(int dst, Tag tag, const void* data, std::size_t bytes);

  /// Block until a message from `src` with `tag` arrives; return its
  /// payload.  Messages between a fixed (src, dst, tag) triple are
  /// delivered in send order.  Honors the rank's default deadline
  /// (set_deadline): throws CommTimeout once it expires.
  [[nodiscard]] std::vector<std::byte> recv_bytes(int src, Tag tag);

  /// Wait up to `timeout` for a message with `tag` from ANY source (the
  /// MPI_ANY_SOURCE pattern; `src` receives the sender's rank); returns
  /// std::nullopt on expiry instead of throwing.  `timeout`
  /// <= 0 is a non-blocking mailbox poll.  This is the master's
  /// heartbeat listen primitive: silence is an observable outcome, not
  /// an error.
  [[nodiscard]] std::optional<std::vector<std::byte>> try_recv_any_bytes(
      Tag tag, int& src, std::chrono::milliseconds timeout);

  /// Typed convenience wrappers (trivially copyable element types).
  template <typename T>
  void send(int dst, Tag tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, data.data(), data.size() * sizeof(T));
  }

  template <typename T>
  void send_value(int dst, Tag tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, &value, sizeof(T));
  }

  template <typename T>
  [[nodiscard]] std::vector<T> recv(int src, Tag tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = recv_bytes(src, tag);
    if (raw.size() % sizeof(T) != 0) {
      throw_payload_mismatch(src, tag, raw.size(), sizeof(T));
    }
    std::vector<T> out(raw.size() / sizeof(T));
    // Guard the empty-message case: memcpy with null src/dst is UB
    // even at zero length.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  template <typename T>
  [[nodiscard]] T recv_value(int src, Tag tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = recv_bytes(src, tag);
    if (raw.size() != sizeof(T)) {
      throw_payload_mismatch(src, tag, raw.size(), sizeof(T));
    }
    T value{};
    std::memcpy(&value, raw.data(), sizeof(T));
    return value;
  }

  /// Typed try_recv_any_bytes: one value of T from any source, or
  /// std::nullopt after `timeout` of silence.
  template <typename T>
  [[nodiscard]] std::optional<T> try_recv_any_value(
      Tag tag, int& src, std::chrono::milliseconds timeout) {
    static_assert(std::is_trivially_copyable_v<T>);
    auto raw = try_recv_any_bytes(tag, src, timeout);
    if (!raw) return std::nullopt;
    if (raw->size() != sizeof(T)) {
      throw_payload_mismatch(src, tag, raw->size(), sizeof(T));
    }
    T value{};
    std::memcpy(&value, raw->data(), sizeof(T));
    return value;
  }

  // ---- collectives (all built on the point-to-point layer) --------------

  /// Block until every rank has entered the barrier.
  void barrier();

  /// Root's `data` is copied to every rank (root fan-out, like a flat
  /// MPI_Bcast tree of depth 1 — matches the paper's master-node model).
  template <typename T>
  void bcast(int root, std::vector<T>& data);

  /// Root splits `all` into `size()` contiguous chunks, chunk r holding
  /// counts[r] elements (the counts must sum to all.size(); only root
  /// reads them), and sends chunk r to rank r; returns this rank's
  /// chunk.  This is the paper's step (a.2): the master distributes one
  /// z-slab of the density map to each node.
  template <typename T>
  [[nodiscard]] std::vector<T> scatter(int root, const std::vector<T>& all,
                                       const std::vector<std::size_t>& counts);

  /// Root receives every rank's `mine` concatenated in rank order.
  /// Non-root ranks get an empty vector.
  template <typename T>
  [[nodiscard]] std::vector<T> gather(int root, const std::vector<T>& mine);

  /// Every rank receives the concatenation of all contributions in rank
  /// order.  This is the paper's step (a.6): "each node broadcasts its
  /// y-slab; after the all-gather each node has a copy of the entire
  /// 3D DFT".  Ring algorithm: P-1 rounds, each rank forwarding blocks.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const std::vector<T>& mine);

  /// Personalized all-to-all: `outgoing[r]` goes to rank r; returns the
  /// incoming blocks in rank order.  This is the paper's step (a.4)
  /// global exchange turning z-slabs into y-slabs mid-3D-FFT.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoall(
      const std::vector<std::vector<T>>& outgoing);

  /// Element-wise reduction to the root (vector lengths must match on
  /// every rank).  Non-root ranks get an empty vector.
  template <typename T>
  [[nodiscard]] std::vector<T> reduce(int root, const std::vector<T>& mine,
                                      ReduceOp op);

  /// Element-wise reduction delivered to every rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allreduce(const std::vector<T>& mine,
                                         ReduceOp op);

  /// Scalar convenience allreduce.
  template <typename T>
  [[nodiscard]] T allreduce_value(const T& mine, ReduceOp op) {
    return allreduce(std::vector<T>{mine}, op).at(0);
  }

 private:
  /// A typed receive saw a payload whose byte count does not fit the
  /// element type — a malformed message that recv<T> used to truncate
  /// silently.  Throws std::runtime_error with src/tag context.
  [[noreturn]] void throw_payload_mismatch(int src, Tag tag,
                                           std::size_t payload_bytes,
                                           std::size_t element_bytes) const;

  template <typename T>
  static void apply_op(std::vector<T>& acc, const std::vector<T>& in,
                       ReduceOp op);

  detail::Context& context_;
  const int rank_;
  std::chrono::milliseconds deadline_{0};  ///< 0 = block forever
};

// ---- template implementations --------------------------------------------

template <typename T>
void Comm::bcast(int root, std::vector<T>& data) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (rank_ == root) {
    for (int r = 0; r < size(); ++r) {
      if (r != root) send(r, kBcastTag, data);
    }
  } else {
    data = recv<T>(root, kBcastTag);
  }
}

template <typename T>
std::vector<T> Comm::scatter(int root, const std::vector<T>& all,
                             const std::vector<std::size_t>& counts) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (rank_ == root) {
    POR_EXPECT(counts.size() == static_cast<std::size_t>(size()),
               "scatter needs one count per rank:", counts.size());
    std::vector<T> mine;
    std::size_t begin = 0;
    for (int r = 0; r < size(); ++r) {
      const std::size_t count = counts[static_cast<std::size_t>(r)];
      POR_EXPECT(begin + count <= all.size(), "scatter counts exceed",
                 all.size(), "elements");
      if (r == root) {
        mine.assign(all.begin() + begin, all.begin() + begin + count);
      } else {
        send_bytes(r, kScatterTag, all.data() + begin, count * sizeof(T));
      }
      begin += count;
    }
    return mine;
  }
  return recv<T>(root, kScatterTag);
}

template <typename T>
std::vector<T> Comm::gather(int root, const std::vector<T>& mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (rank_ == root) {
    std::vector<T> all;
    for (int r = 0; r < size(); ++r) {
      if (r == root) {
        all.insert(all.end(), mine.begin(), mine.end());
      } else {
        auto piece = recv<T>(r, kGatherTag);
        all.insert(all.end(), piece.begin(), piece.end());
      }
    }
    return all;
  }
  send(root, kGatherTag, mine);
  return {};
}

template <typename T>
std::vector<T> Comm::allgather(const std::vector<T>& mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  if (p == 1) return mine;
  // Ring all-gather: in round k each rank sends the block it received
  // k rounds ago to its right neighbour.  P-1 rounds, total traffic per
  // rank = (P-1) * block, the classic bandwidth-optimal schedule.
  std::vector<std::vector<T>> blocks(p);
  blocks[rank_] = mine;
  const int right = (rank_ + 1) % p;
  const int left = (rank_ + p - 1) % p;
  int have = rank_;  // index of the newest block we hold
  for (int round = 0; round < p - 1; ++round) {
    send(right, kAllgatherTag, blocks[have]);
    const int incoming = (left - round % p + p) % p;
    blocks[incoming] = recv<T>(left, kAllgatherTag);
    have = incoming;
  }
  std::vector<T> all;
  for (int r = 0; r < p; ++r) {
    all.insert(all.end(), blocks[r].begin(), blocks[r].end());
  }
  return all;
}

template <typename T>
std::vector<std::vector<T>> Comm::alltoall(
    const std::vector<std::vector<T>>& outgoing) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = size();
  std::vector<std::vector<T>> incoming(p);
  incoming[rank_] = outgoing[rank_];
  // Pairwise exchange schedule to avoid mailbox ordering hazards.
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    send(r, kAlltoallTag, outgoing[r]);
  }
  for (int r = 0; r < p; ++r) {
    if (r == rank_) continue;
    incoming[r] = recv<T>(r, kAlltoallTag);
  }
  return incoming;
}

template <typename T>
void Comm::apply_op(std::vector<T>& acc, const std::vector<T>& in,
                    ReduceOp op) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case ReduceOp::kSum: acc[i] = acc[i] + in[i]; break;
      case ReduceOp::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
      case ReduceOp::kMax: acc[i] = acc[i] < in[i] ? in[i] : acc[i]; break;
    }
  }
}

template <typename T>
std::vector<T> Comm::reduce(int root, const std::vector<T>& mine,
                            ReduceOp op) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (rank_ == root) {
    std::vector<T> acc = mine;
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      auto piece = recv<T>(r, kReduceTag);
      apply_op(acc, piece, op);
    }
    return acc;
  }
  send(root, kReduceTag, mine);
  return {};
}

template <typename T>
std::vector<T> Comm::allreduce(const std::vector<T>& mine, ReduceOp op) {
  std::vector<T> result = reduce(0, mine, op);
  bcast(0, result);
  return result;
}

}  // namespace por::vmpi
