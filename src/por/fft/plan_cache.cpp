#include "por/fft/plan_cache.hpp"

#include "por/fft/obs_handles.hpp"
#include "por/util/contracts.hpp"

namespace por::fft {

PlanCache& PlanCache::instance() {
  // Never destroyed: plans may be referenced from thread_local caches /
  // static destructors of arbitrary order.
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::shared_ptr<const Fft1D> PlanCache::get(std::size_t n, PlanKind kind) {
  detail::ObsHandles& obs = detail::obs_handles();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = plans_.find({n, kind});
    if (it != plans_.end()) {
      obs.plan_hits->add();
      return it->second;
    }
  }
  // Build outside the lock: Bluestein setup for large odd n is orders
  // of magnitude more expensive than the map operations, and holding
  // the mutex across it would serialize unrelated lengths.  A racing
  // builder of the same length just loses its copy.
  obs.plan_misses->add();
  auto plan = std::make_shared<const Fft1D>(n);
  POR_ENSURE(plan->size() == n, "plan cache built wrong length:", plan->size(),
             "!=", n);
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = plans_.try_emplace({n, kind}, std::move(plan));
  (void)inserted;
  return it->second;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  plans_.clear();
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return plans_.size();
}

std::shared_ptr<const Fft1D> cached_plan(std::size_t n, PlanKind kind) {
  return PlanCache::instance().get(n, kind);
}

}  // namespace por::fft
