#include "orchestrator/plan_cache.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace ao::orchestrator {

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const std::vector<ExperimentJob>> PlanCache::checkout(
    const std::string& key,
    const std::function<std::vector<ExperimentJob>()>& compile) {
  AO_REQUIRE(!key.empty(), "plan-cache key must not be empty");
  {
    std::lock_guard lock(mutex_);
    const auto found = index_.find(key);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
      ++stats_.hits;
      return found->second->compiled;
    }
    ++stats_.misses;
  }
  // Compile outside the lock: expansion walks the whole sweep. A concurrent
  // miss on the same key compiles redundantly but deterministically; the
  // loser's insert below is dropped in favor of the resident entry.
  auto compiled = std::make_shared<const std::vector<ExperimentJob>>(compile());
  std::lock_guard lock(mutex_);
  const auto found = index_.find(key);
  if (found != index_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    return found->second->compiled;
  }
  lru_.push_front(Entry{key, compiled, {}});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return compiled;
}

std::shared_ptr<const std::vector<std::vector<std::size_t>>>
PlanCache::shard_partition(
    const std::string& key, std::size_t shard_count,
    const std::function<std::vector<std::vector<std::size_t>>()>& plan) {
  {
    std::lock_guard lock(mutex_);
    const auto found = index_.find(key);
    if (found == index_.end()) {
      return nullptr;
    }
    const auto memo = found->second->partitions.find(shard_count);
    if (memo != found->second->partitions.end()) {
      return memo->second;
    }
  }
  auto partition =
      std::make_shared<const std::vector<std::vector<std::size_t>>>(plan());
  std::lock_guard lock(mutex_);
  const auto found = index_.find(key);
  if (found == index_.end()) {
    // Evicted while planning: hand the caller its partition anyway, but
    // don't resurrect the entry.
    return partition;
  }
  const auto [memo, inserted] =
      found->second->partitions.emplace(shard_count, partition);
  return memo->second;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.size = lru_.size();
  return out;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace ao::orchestrator
