// por/obs/registry.hpp
//
// The metrics registry at the heart of the por::obs observability
// subsystem.  Named counters, gauges, fixed-bucket histograms and span
// series live in a registry; the *hot path* (increment / observe /
// record) touches only pre-resolved atomic cells and is lock-free, the
// *registration* path (name -> handle) takes a mutex once.
//
// Registries are rank-aware: the in-process vmpi runtime maps MPI
// ranks to threads, so "per-rank metrics" means "per-thread
// registries".  `current_registry()` returns the thread's installed
// registry (see RegistryScope) and falls back to the process-wide
// `global_registry()`.  Instrumented objects resolve their handles at
// construction time, which naturally binds them to the registry of the
// rank that constructed them.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace por::obs {

// Memory-order policy (TSan audit, PR 3): every instrument cell below
// uses relaxed atomics ON PURPOSE, and this is race-free by
// construction, not by suppression:
//
//  * Counters/gauges/histogram buckets are independent monotone
//    aggregates.  No thread ever derives an ordering or a pointer from
//    their values, so there is no acquire/release edge to establish —
//    the atomicity alone removes the data race.
//  * Readers are snapshot paths (RunReport, exporters, tests) that run
//    either after the worker threads joined (thread::join provides the
//    happens-before that makes the final values visible) or
//    mid-flight for *approximate* live dashboards, where a stale value
//    is explicitly acceptable.
//  * The CAS loops (atomic_add / atomic_max) only need the RMW to be
//    atomic; relaxed failure order is fine because the loop re-reads.
//
// Anything that IS publication — registration maps, per-thread trace
// buffers (trace_detail.hpp), the scheduler's queue — stays behind a
// mutex.  If you add an instrument whose readers act on the value
// (e.g. a back-pressure threshold), do NOT copy this pattern; give it
// acquire/release semantics instead.  Every relaxed site below is
// annotated `stat` (tools/lint/atomics_policies.json), and the
// concurrent tests in test_obs.cpp (labelled tsan) check the exact
// totals after a join.

namespace detail {

/// fetch_add for an atomic<double> via CAS (portable pre-C++20-TS
/// toolchains; the loop is contention-free in practice).  Relaxed
/// failure order is fine: the loop re-reads.
inline void atomic_add(std::atomic<double>& cell, double delta) {
  // por-atomic: stat — an independent sum; the CAS re-reads on failure
  double cur = cell.load(std::memory_order_relaxed);
  // por-atomic: stat — an independent sum; the CAS re-reads on failure
  while (!cell.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

template <typename T>
inline void atomic_max(std::atomic<T>& cell, T value) {
  // por-atomic: stat — an independent maximum; the CAS re-reads
  T cur = cell.load(std::memory_order_relaxed);
  // por-atomic: stat — an independent maximum; the CAS re-reads
  while (cur < value &&
         !cell.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotonically increasing event count (messages sent, matchings
/// performed, FFT transforms executed, ...).  add() is one relaxed
/// fetch_add.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    // por-atomic: stat — an independent event count
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    // por-atomic: stat — snapshot read of an independent count
    return value_.load(std::memory_order_relaxed);
  }
  // por-atomic: stat — an independent event count
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value instrument (queue depth, FSC crossing radius, ...).
class Gauge {
 public:
  // por-atomic: stat — an independent last value
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// Keep the maximum of the current and the offered value.
  void record_max(double value) { detail::atomic_max(value_, value); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  [[nodiscard]] double value() const {
    // por-atomic: stat — snapshot read of an independent value
    return value_.load(std::memory_order_relaxed);
  }
  // por-atomic: stat — an independent last value
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the
/// first N buckets; one implicit +inf overflow bucket follows.  The
/// bucket layout is chosen at registration and never changes.
/// observe() is lock-free: bucket selection plus three relaxed atomic
/// adds.  Geometric (log-spaced) ladders — the constructor detects
/// them — index the bucket in O(1) from one logarithm instead of
/// scanning, so wide latency ladders (decades of dynamic range) cost
/// the same as narrow ones.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  /// Geometric bucket ladder for latency-style data: bounds start at
  /// `min_bound` and multiply by 10^(1/buckets_per_decade) until they
  /// reach (at least) `max_bound`.  Values above the ladder land in
  /// the +inf overflow bucket as usual.
  static std::vector<double> log_bounds(double min_bound, double max_bound,
                                        int buckets_per_decade);

  void observe(double value) {
    // por-atomic: stat — independent bucket, count and sum aggregates
    buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    // por-atomic: stat — independent bucket, count and sum aggregates
    count_.fetch_add(1, std::memory_order_relaxed);
    detail::atomic_add(sum_, value);
  }

  /// Interpolated quantile estimate (q in [0, 1]) from the bucket
  /// cumulative counts: linear within the containing bucket, the last
  /// finite bound for ranks that fall in the overflow bucket, NaN when
  /// the histogram is empty.  Resolution is the bucket width — for a
  /// log ladder, a constant relative error.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::size_t bucket_index(double value) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // O(1) index for geometric ladders: i ≈ ceil(log(v / b0) / log(r)),
  // nudged by at most one step to absorb floating-point error at the
  // boundaries.  Zero/false for irregular ladders (linear scan).
  bool geometric_ = false;
  double inv_log_ratio_ = 0.0;
};

/// Aggregated timing series for one span name: how often the span ran,
/// the total and the worst duration.  The raw per-occurrence trace
/// records live in the per-thread buffers (por/obs/span.hpp); this is
/// the always-cheap aggregate that survives in every snapshot.
class SpanSeries {
 public:
  explicit SpanSeries(std::string name) : name_(std::move(name)) {}

  void record(std::uint64_t duration_ns) {
    // por-atomic: stat — independent count and total aggregates
    count_.fetch_add(1, std::memory_order_relaxed);
    // por-atomic: stat — independent count and total aggregates
    total_ns_.fetch_add(duration_ns, std::memory_order_relaxed);
    detail::atomic_max(max_ns_, duration_ns);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t count() const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_ns() const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return total_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t max_ns() const {
    // por-atomic: stat — snapshot read of an independent aggregate
    return max_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double total_seconds() const {
    return static_cast<double>(total_ns()) * 1e-9;
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// One completed trace span: raw record with nesting information.
/// `parent` indexes into the same thread's record vector (-1 = root).
struct SpanRecord {
  const std::string* name = nullptr;  ///< points at the SpanSeries name
  std::uint64_t start_ns = 0;         ///< steady-clock, process-relative
  std::uint64_t duration_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t thread = 0;  ///< registry-local thread ordinal
};

/// Immutable copy of a registry's state, suitable for export, wire
/// transfer and cross-rank merging.
struct Snapshot {
  struct HistogramData {
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 entries
    std::uint64_t count = 0;
    double sum = 0.0;
    bool operator==(const HistogramData&) const = default;
  };
  struct SpanData {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    bool operator==(const SpanData&) const = default;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;
  std::map<std::string, SpanData> spans;

  bool operator==(const Snapshot&) const = default;
};

/// Histogram::quantile over exported/merged data: same estimator, same
/// edge cases (NaN when empty, last finite bound in overflow).
[[nodiscard]] double histogram_quantile(const Snapshot::HistogramData& data,
                                        double q);

namespace detail {
struct ThreadTrace;  // defined in span.cpp
}

/// Thread-safe named-instrument registry.  Handles returned by the
/// registration methods stay valid for the registry's lifetime (the
/// instruments live in deques, which never relocate elements).
class MetricsRegistry {
 public:
  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;
  ~MetricsRegistry();

  /// Find-or-create by name.  O(log n) under a mutex — resolve once,
  /// keep the reference, then the hot path is lock-free.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` must be sorted ascending; it is fixed at first
  /// registration (later calls with the same name ignore the bounds).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds);
  /// histogram() with Histogram::log_bounds(min, max, per_decade) —
  /// the natural ladder for latency metrics (O(1) observe, quantiles
  /// with constant relative error).
  Histogram& log_histogram(const std::string& name, double min_bound,
                           double max_bound, int buckets_per_decade);
  SpanSeries& span_series(const std::string& name);

  /// Point-in-time copy of every instrument.
  [[nodiscard]] Snapshot snapshot() const;

  /// Move every completed raw trace record out of the per-thread
  /// buffers (oldest first per thread).  Open spans stay buffered.
  [[nodiscard]] std::vector<SpanRecord> drain_trace();

  /// Raw trace records currently buffered (completed only).
  [[nodiscard]] std::size_t trace_size() const;

  /// Unique id distinguishing registry instances even across reuse of
  /// the same address (thread-local caches key on this).
  [[nodiscard]] std::uint64_t id() const { return id_; }

  // Internal: span.cpp attaches per-thread trace buffers here.
  std::shared_ptr<detail::ThreadTrace> attach_thread_trace();

 private:
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
  std::map<std::string, SpanSeries*> spans_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::deque<SpanSeries> span_storage_;
  std::vector<std::shared_ptr<detail::ThreadTrace>> thread_traces_;
};

/// The process-wide default registry.
MetricsRegistry& global_registry();

/// The registry instrumentation resolves against: the innermost
/// RegistryScope installed on this thread, else global_registry().
MetricsRegistry& current_registry();

/// RAII: install `registry` as this thread's current registry.  The
/// vmpi drivers use one scope per rank thread so per-rank metrics stay
/// separate even though ranks share the address space.
class RegistryScope {
 public:
  explicit RegistryScope(MetricsRegistry& registry);
  RegistryScope(const RegistryScope&) = delete;
  RegistryScope& operator=(const RegistryScope&) = delete;
  ~RegistryScope();

 private:
  MetricsRegistry* previous_;
};

/// Global on/off switch for the *timing* hot paths (ScopedSpan /
/// SpanTimer).  Counters and gauges are single relaxed atomics and are
/// not gated.  Defaults to enabled.
void set_enabled(bool on);
[[nodiscard]] bool enabled();

}  // namespace por::obs
