// por/core/score_cache.hpp
//
// Memoization of matching scores by orientation.
//
// The sliding window re-scores every orientation shared between the
// pre-slide and post-slide domains (a width^2 * (width-1) overlap per
// slide), and refine_view's orientation<->center alternation re-runs
// the whole w^3 window against an unchanged view spectrum whenever a
// pass leaves the center where it was.  ScoreCache turns both into
// O(1) table hits.
//
// Key quantization: orientations are hashed by llround(angle/quantum).
// Search-grid orientations are center + k*step with step >= 4*quantum
// (callers pass quantum = step/4), so distinct grid points always land
// >= 4 quanta apart — no two different candidates can collide on one
// key.  Recomputing "the same" grid point after a slide produces a
// double within ~1e-11 deg of the original ((a+s)-s vs a), i.e. many
// orders of magnitude under half a quantum, so re-encounters hit the
// same key except in the measure-zero case where the true angle sits
// exactly on a rounding boundary — which degrades to a harmless extra
// miss, never to a wrong score.  That is why the cache is *exact* for
// grid orientations: a hit can only ever return the score of the very
// same grid point.
//
// Lifetime: one cache per (view spectrum, angular step) pair.  The
// refiner clears it whenever the center correction changes the
// matching spectrum; sliding_window_search keeps filling it across
// slides within one search.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "por/em/orientation.hpp"

namespace por::core {

/// Open-addressing (linear-probe, power-of-two capacity) map from a
/// quantized (theta, phi, omega) key to a matching distance.
///
/// CONTRACT: the table always keeps at least one free slot (load
/// factor < 0.7 after every insert) and its capacity stays a power of
/// two — both enforced by POR_EXPECT / POR_ENSURE in score_cache.cpp;
/// probe termination and the `hash & mask` slot map depend on them.
class ScoreCache {
 public:
  /// `quantum_deg` must be positive and at most 1/4 of the angular
  /// grid step the cached search uses (see file comment).
  explicit ScoreCache(double quantum_deg, std::size_t initial_capacity = 2048);

  /// Score previously inserted for `o`, if any.  Counts a hit or miss.
  [[nodiscard]] std::optional<double> lookup(const em::Orientation& o) const;

  /// Record the score for `o` (last write wins on re-insert).
  void insert(const em::Orientation& o, double distance);

  /// Drop every entry (hit/miss statistics survive).  Called when the
  /// view spectrum the scores were computed against changes.
  void clear();

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }
  [[nodiscard]] double quantum_deg() const { return quantum_deg_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }

 private:
  struct Key {
    std::int64_t qt = 0, qp = 0, qo = 0;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Key key;
    double value = 0.0;
    bool used = false;
  };

  [[nodiscard]] Key quantize(const em::Orientation& o) const;
  [[nodiscard]] static std::size_t hash(const Key& k);
  /// Probe slot of `key`: its entry if present, else the first free
  /// slot of its probe chain.
  [[nodiscard]] std::size_t probe(const Key& key) const;
  void grow();

  double quantum_deg_;
  /// The table; its size is the capacity, always a power of two.
  /// grow() doubles it and clear() keeps it, so a cache re-used across
  /// warmed searches never touches the heap.
  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
};

}  // namespace por::core
