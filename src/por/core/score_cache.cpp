// POR_HOT_PATH
//
// Probed once per candidate; the table only allocates when it doubles
// (hot-path-alloc lint enforces the zero-allocation steady state).
#include "por/core/score_cache.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "por/util/contracts.hpp"

namespace por::core {

namespace {

/// Round `capacity` up to a power of two (min 16).
std::size_t round_up_pow2(std::size_t capacity) {
  std::size_t p = 16;
  while (p < capacity) p <<= 1;
  return p;
}

/// splitmix64 finalizer — cheap, well-mixed avalanche for table keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ScoreCache::ScoreCache(double quantum_deg, std::size_t initial_capacity)
    : quantum_deg_(quantum_deg) {
  if (!(quantum_deg > 0.0)) {
    throw std::invalid_argument("ScoreCache: quantum must be positive");
  }
  entries_.resize(round_up_pow2(initial_capacity));
}

ScoreCache::Key ScoreCache::quantize(const em::Orientation& o) const {
  const double inv = 1.0 / quantum_deg_;
  return Key{std::llround(o.theta * inv), std::llround(o.phi * inv),
             std::llround(o.omega * inv)};
}

std::size_t ScoreCache::hash(const Key& k) {
  std::uint64_t h = mix64(static_cast<std::uint64_t>(k.qt));
  h = mix64(h ^ static_cast<std::uint64_t>(k.qp));
  h = mix64(h ^ static_cast<std::uint64_t>(k.qo));
  return static_cast<std::size_t>(h);
}

std::size_t ScoreCache::probe(const Key& key) const {
  // CONTRACT: the probe loop terminates only if the table has at least
  // one free slot; insert() grows at 0.7 load so this always holds,
  // but a future resize bug would otherwise spin forever.
  POR_EXPECT(size_ < entries_.size(),
             "open-addressing probe requires a free slot: size =", size_,
             "capacity =", entries_.size());
  const std::size_t mask = entries_.size() - 1;
  const contracts::checked_span<const Entry> entries(entries_);
  std::size_t slot = hash(key) & mask;
  while (entries[slot].used && !(entries[slot].key == key)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::optional<double> ScoreCache::lookup(const em::Orientation& o) const {
  const std::size_t slot = probe(quantize(o));
  if (entries_[slot].used) {
    ++hits_;
    return entries_[slot].value;
  }
  ++misses_;
  return std::nullopt;
}

void ScoreCache::insert(const em::Orientation& o, double distance) {
  const Key key = quantize(o);
  const std::size_t slot = probe(key);
  if (!entries_[slot].used) {
    entries_[slot].used = true;
    entries_[slot].key = key;
    ++size_;
    // Keep the load factor under ~0.7 so probe chains stay short.
    if (size_ * 10 >= entries_.size() * 7) grow();
  }
  // Post-insert load-factor invariant: the grow above restores
  // size/capacity < 0.7, which is what keeps probe chains short AND
  // guarantees probe() termination (a free slot always exists).
  POR_ENSURE(size_ * 10 < entries_.size() * 7,
             "load factor invariant violated: size =", size_,
             "capacity =", entries_.size());
  // Re-probe after a potential grow (slot indices change).
  entries_[probe(key)].value = distance;
}

void ScoreCache::clear() {
  for (Entry& e : entries_) e.used = false;
  size_ = 0;
}

void ScoreCache::grow() {
  // por-lint: allow(hot-path-alloc) amortized doubling; clear() keeps it
  const std::vector<Entry> old =
      std::exchange(entries_, std::vector<Entry>(entries_.size() * 2));
  // Power-of-two capacity is what makes `hash & (capacity - 1)` a
  // valid slot map; doubling preserves it.
  POR_ENSURE((entries_.size() & (entries_.size() - 1)) == 0,
             "capacity must stay a power of two:", entries_.size());
  for (const Entry& e : old) {
    if (!e.used) continue;
    entries_[probe(e.key)] = e;
  }
}

}  // namespace por::core
