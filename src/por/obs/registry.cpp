#include "por/obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "por/obs/trace_detail.hpp"

namespace por::obs {

namespace {

std::atomic<std::uint64_t> g_next_registry_id{1};
std::atomic<bool> g_enabled{true};
thread_local MetricsRegistry* t_current_registry = nullptr;

/// Shared quantile estimator over cumulative bucket counts.
/// `bucket_at(i)` for i in [0, bounds.size()] (last = overflow).
template <typename BucketAt>
double quantile_impl(const std::vector<double>& bounds, std::size_t n_buckets,
                     const BucketAt& bucket_at, double q) {
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) total += bucket_at(i);
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  // Rank of the q-th sample, 1-based, clamped so q=0 picks the first
  // and q=1 the last.
  const double target = std::max(1.0, q * static_cast<double>(total));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < n_buckets; ++i) {
    const std::uint64_t in_bucket = bucket_at(i);
    if (static_cast<double>(cumulative + in_bucket) < target) {
      cumulative += in_bucket;
      continue;
    }
    if (i >= bounds.size()) {
      // Overflow bucket has no finite upper edge; the last finite
      // bound is the best (under-)estimate we can defend.
      return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : bounds.back();
    }
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double frac = in_bucket == 0
                            ? 1.0
                            : (target - static_cast<double>(cumulative)) /
                                  static_cast<double>(in_bucket);
    return lo + frac * (hi - lo);
  }
  return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : bounds.back();
}

}  // namespace

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() +
                                                               1)) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    // por-atomic: init — pre-publication, not shared yet
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bounds must be sorted ascending");
  }
  // Detect a geometric ladder (what log_bounds produces): positive
  // bounds with a consistent ratio.  Enables the O(1) observe path.
  if (bounds_.size() >= 2 && bounds_.front() > 0.0) {
    const double ratio = bounds_[1] / bounds_[0];
    bool geometric = ratio > 1.0;
    for (std::size_t i = 1; geometric && i < bounds_.size(); ++i) {
      const double step = bounds_[i] / bounds_[i - 1];
      geometric = std::abs(step - ratio) <= 1e-9 * ratio;
    }
    if (geometric) {
      geometric_ = true;
      inv_log_ratio_ = 1.0 / std::log(ratio);
    }
  }
}

std::vector<double> Histogram::log_bounds(double min_bound, double max_bound,
                                          int buckets_per_decade) {
  if (!(min_bound > 0.0) || !(max_bound > min_bound) ||
      buckets_per_decade < 1) {
    throw std::invalid_argument(
        "Histogram::log_bounds: need 0 < min < max and >= 1 bucket/decade");
  }
  const double ratio = std::pow(10.0, 1.0 / buckets_per_decade);
  std::vector<double> bounds;
  // Generate multiplicatively from min_bound: i-th bound is exactly
  // min * ratio^i up to rounding, which the geometric detector and the
  // O(1) indexer both tolerate.
  double bound = min_bound;
  while (true) {
    bounds.push_back(bound);
    if (bound >= max_bound) break;
    bound *= ratio;
  }
  return bounds;
}

std::size_t Histogram::bucket_index(double value) const {
  if (bounds_.empty()) return 0;
  if (geometric_) {
    // !(value > front) also catches NaN (no ordering) — pin it to the
    // first bucket rather than feeding log() garbage.
    if (!(value > bounds_.front())) return 0;
    if (value > bounds_.back()) return bounds_.size();
    double estimate =
        std::ceil(std::log(value / bounds_.front()) * inv_log_ratio_);
    std::size_t i = static_cast<std::size_t>(std::max(0.0, estimate));
    if (i >= bounds_.size()) i = bounds_.size() - 1;
    // One-step nudge absorbs floating-point error at bucket edges.
    while (i > 0 && value <= bounds_[i - 1]) --i;
    while (i < bounds_.size() && value > bounds_[i]) ++i;
    return i;
  }
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (value <= bounds_[i]) return i;
  }
  return bounds_.size();
}

double Histogram::quantile(double q) const {
  return quantile_impl(
      bounds_, bounds_.size() + 1,
      [this](std::size_t i) { return bucket(i); }, q);
}

double histogram_quantile(const Snapshot::HistogramData& data, double q) {
  return quantile_impl(
      data.bounds, data.buckets.size(),
      [&data](std::size_t i) { return data.buckets[i]; }, q);
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::MetricsRegistry()
    // por-atomic: stat — unique-id allocation, atomicity alone suffices
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  counter_storage_.emplace_back();
  Counter* cell = &counter_storage_.back();
  counters_.emplace(name, cell);
  return *cell;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  gauge_storage_.emplace_back();
  Gauge* cell = &gauge_storage_.back();
  gauges_.emplace(name, cell);
  return *cell;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  histogram_storage_.emplace_back(std::move(upper_bounds));
  Histogram* cell = &histogram_storage_.back();
  histograms_.emplace(name, cell);
  return *cell;
}

Histogram& MetricsRegistry::log_histogram(const std::string& name,
                                          double min_bound, double max_bound,
                                          int buckets_per_decade) {
  return histogram(
      name, Histogram::log_bounds(min_bound, max_bound, buckets_per_decade));
}

SpanSeries& MetricsRegistry::span_series(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = spans_.find(name);
  if (it != spans_.end()) return *it->second;
  span_storage_.emplace_back(name);
  SpanSeries* cell = &span_storage_.back();
  spans_.emplace(name, cell);
  return *cell;
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (const auto& [name, cell] : counters_) {
    snap.counters.emplace(name, cell->value());
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace(name, cell->value());
  }
  for (const auto& [name, cell] : histograms_) {
    Snapshot::HistogramData data;
    data.bounds = cell->bounds();
    data.buckets.reserve(data.bounds.size() + 1);
    for (std::size_t i = 0; i <= data.bounds.size(); ++i) {
      data.buckets.push_back(cell->bucket(i));
    }
    data.count = cell->count();
    data.sum = cell->sum();
    snap.histograms.emplace(name, std::move(data));
  }
  for (const auto& [name, cell] : spans_) {
    snap.spans.emplace(name, Snapshot::SpanData{cell->count(), cell->total_ns(),
                                                cell->max_ns()});
  }
  return snap;
}

std::shared_ptr<detail::ThreadTrace> MetricsRegistry::attach_thread_trace() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto trace = std::make_shared<detail::ThreadTrace>();
  trace->ordinal = static_cast<std::uint32_t>(thread_traces_.size());
  thread_traces_.push_back(trace);
  return trace;
}

std::vector<SpanRecord> MetricsRegistry::drain_trace() {
  std::vector<std::shared_ptr<detail::ThreadTrace>> traces;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    traces = thread_traces_;
  }
  std::vector<SpanRecord> out;
  for (const auto& trace : traces) {
    std::lock_guard<std::mutex> lock(trace->mutex);
    // Buffers with spans still open keep their records (parent indices
    // must stay stable until the whole batch is complete).
    if (!trace->stack.empty()) continue;
    const std::int32_t offset = static_cast<std::int32_t>(out.size());
    for (SpanRecord record : trace->records) {
      if (record.parent >= 0) record.parent += offset;
      out.push_back(record);
    }
    trace->records.clear();
  }
  return out;
}

std::size_t MetricsRegistry::trace_size() const {
  std::vector<std::shared_ptr<detail::ThreadTrace>> traces;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    traces = thread_traces_;
  }
  std::size_t total = 0;
  for (const auto& trace : traces) {
    std::lock_guard<std::mutex> lock(trace->mutex);
    total += trace->records.size();
  }
  return total;
}

// ---- globals ---------------------------------------------------------------

MetricsRegistry& global_registry() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry& current_registry() {
  return t_current_registry != nullptr ? *t_current_registry
                                       : global_registry();
}

RegistryScope::RegistryScope(MetricsRegistry& registry)
    : previous_(t_current_registry) {
  t_current_registry = &registry;
}

RegistryScope::~RegistryScope() { t_current_registry = previous_; }

// por-atomic: monitor — recording gate; samplers may observe it late
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

// por-atomic: monitor — best-effort gate read, staleness acceptable
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace por::obs
