#include "por/vmpi/comm.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "por/util/contracts.hpp"

namespace por::vmpi {

void Comm::send_bytes(int dst, Tag tag, const void* data, std::size_t bytes) {
  POR_EXPECT(dst >= 0 && dst < size(), "destination rank out of range:", dst,
             "of", size());
  // Typed-message tag contract: user tags are non-negative; the only
  // negative tags are the reserved collective tags in [kReduceTag, -1].
  POR_EXPECT(tag >= kReduceTag, "tag below the reserved range:", tag);
  POR_EXPECT(bytes == 0 || data != nullptr,
             "non-empty send with null payload: bytes =", bytes);
  std::vector<std::byte> payload(bytes);
  if (bytes > 0) std::memcpy(payload.data(), data, bytes);

  // Fault-injection hook: look up the first rule matching this
  // message's (src, dst, tag, seq).  The per-channel ordinal lives
  // under the context mutex, which the enqueue takes anyway.
  const FaultRule* rule = nullptr;
  if (!context_.plan.rules.empty()) {
    std::lock_guard<std::mutex> lock(context_.mutex);
    const std::uint64_t seq = context_.send_seq[{rank_, dst, tag}]++;
    rule = context_.plan.match(rank_, dst, tag, seq);
  }
  // The wire carries the message whether or not it is later lost, so
  // traffic accounting happens before the drop decision.
  context_.traffic.record_send(rank_, bytes);
  if (rule != nullptr) {
    switch (rule->kind) {
      case FaultKind::kDrop:
        // por-atomic: stat — fault-injection counter
        context_.faults_dropped.fetch_add(1, std::memory_order_relaxed);
        return;  // never enqueued: the receiver sees only silence
      case FaultKind::kDelay:
        // por-atomic: stat — fault-injection counter
        context_.faults_delayed.fetch_add(1, std::memory_order_relaxed);
        // Simulate a congested link by postponing delivery (the sender
        // thread stalls, which upper layers observe identically).
        std::this_thread::sleep_for(rule->delay);
        break;
      case FaultKind::kCorrupt:
        // por-atomic: stat — fault-injection counter
        context_.faults_corrupted.fetch_add(1, std::memory_order_relaxed);
        for (std::byte& b : payload) b ^= std::byte{0x5A};
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(context_.mutex);
    context_.mailboxes[{rank_, dst, tag}].push_back(std::move(payload));
  }
  context_.message_arrived.notify_all();
}

void Comm::fault_point(std::uint64_t step) {
  if (context_.plan.kills.empty()) return;
  if (context_.plan.kills_at(rank_, step)) {
    // por-atomic: stat — fault-injection counter
    context_.faults_killed.fetch_add(1, std::memory_order_relaxed);
    throw RankKilled(rank_, step);
  }
}

void Comm::throw_payload_mismatch(int src, Tag tag, std::size_t payload_bytes,
                                  std::size_t element_bytes) const {
  throw std::runtime_error(
      "vmpi: typed recv on rank " + std::to_string(rank_) + " from rank " +
      std::to_string(src) + " tag " + std::to_string(tag) + ": payload of " +
      std::to_string(payload_bytes) +
      " bytes does not fit element size " + std::to_string(element_bytes));
}

std::vector<std::byte> Comm::recv_bytes(int src, Tag tag) {
  POR_EXPECT(src >= 0 && src < size(), "source rank out of range:", src, "of",
             size());
  POR_EXPECT(tag >= kReduceTag, "tag below the reserved range:", tag);
  std::unique_lock<std::mutex> lock(context_.mutex);
  const detail::Context::Key key{src, rank_, tag};
  const auto ready = [&] {
    auto it = context_.mailboxes.find(key);
    return it != context_.mailboxes.end() && !it->second.empty();
  };
  if (deadline_.count() <= 0) {
    context_.message_arrived.wait(lock, ready);
  } else if (!context_.message_arrived.wait_for(lock, deadline_, ready)) {
    // por-atomic: stat — timeout counter
    context_.recv_timeouts.fetch_add(1, std::memory_order_relaxed);
    throw CommTimeout(src, rank_, tag, deadline_);
  }
  auto& queue = context_.mailboxes[key];
  std::vector<std::byte> payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

std::optional<std::vector<std::byte>> Comm::try_recv_any_bytes(
    Tag tag, int& src, std::chrono::milliseconds timeout) {
  POR_EXPECT(tag >= kReduceTag, "tag below the reserved range:", tag);
  std::unique_lock<std::mutex> lock(context_.mutex);
  auto find_ready = [&]() -> std::deque<std::vector<std::byte>>* {
    for (int candidate = 0; candidate < context_.size; ++candidate) {
      auto it = context_.mailboxes.find({candidate, rank_, tag});
      if (it != context_.mailboxes.end() && !it->second.empty()) {
        src = candidate;
        return &it->second;
      }
    }
    return nullptr;
  };
  std::deque<std::vector<std::byte>>* queue = find_ready();
  if (queue == nullptr && timeout.count() > 0) {
    context_.message_arrived.wait_for(lock, timeout, [&] {
      queue = find_ready();
      return queue != nullptr;
    });
  }
  if (queue == nullptr) return std::nullopt;
  std::vector<std::byte> payload = std::move(queue->front());
  queue->pop_front();
  return payload;
}

void Comm::barrier() {
  std::unique_lock<std::mutex> lock(context_.mutex);
  const std::uint64_t generation = context_.barrier_generation;
  if (++context_.barrier_count == context_.size) {
    context_.barrier_count = 0;
    ++context_.barrier_generation;
    context_.traffic.record_barrier();
    context_.barrier_cv.notify_all();
    return;
  }
  const auto released = [&] {
    return context_.barrier_generation != generation;
  };
  if (deadline_.count() <= 0) {
    context_.barrier_cv.wait(lock, released);
  } else if (!context_.barrier_cv.wait_for(lock, deadline_, released)) {
    // Withdraw this rank's arrival so a later retry (or a failure
    // handler re-entering the barrier) still counts correctly.
    --context_.barrier_count;
    // por-atomic: stat — timeout counter
    context_.recv_timeouts.fetch_add(1, std::memory_order_relaxed);
    throw CommTimeout(kAnyRank, rank_, kBarrierTag, deadline_);
  }
}

}  // namespace por::vmpi
