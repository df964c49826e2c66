#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "orchestrator/campaign.hpp"

namespace ao::orchestrator {

/// Content-keyed LRU cache of compiled campaign expansions (the job list
/// Campaign::jobs() returns) — the orchestration twin of the ResultCache:
/// repeated campaigns skip the (chips × impls × sizes) expansion walk the
/// same way repeated measurements skip the simulator.
///
/// Keys are the FULL canonical text of every request field that can change
/// the expansion (service::plan_key()); the map compares them by string
/// equality, so two distinct option sets can never collide — there is no
/// hash to collide on. Requests that differ only in identity or scheduling
/// fields (client, priority, worker/shard counts, deadline) intentionally
/// share a compilation: those fields cannot change jobs().
///
/// Each entry also memoizes full-set LPT shard partitions per shard count
/// (shard_partition()): job-index lists over the WHOLE job list, valid only
/// when every job is pending — the caller must fall back to planning when a
/// warm result cache already settled some jobs.
///
/// Thread-safe; compile callbacks run OUTSIDE the lock (expansion can be
/// slow), so two concurrent misses on one key may both compile — benign,
/// expansion is deterministic and the second insert is dropped.
class PlanCache {
 public:
  struct Stats {
    std::size_t hits = 0;       ///< checkouts served from the cache
    std::size_t misses = 0;     ///< checkouts that compiled
    std::size_t evictions = 0;  ///< entries dropped by the LRU bound
    std::size_t size = 0;       ///< entries currently retained
  };

  /// `capacity` = maximum retained compilations; at least 1.
  explicit PlanCache(std::size_t capacity = 64);

  /// Returns the compiled expansion for `key`, refreshing its recency;
  /// compiles via `compile` on a miss (outside the lock) and retains the
  /// result, evicting the least recently used entry when full. The returned
  /// pointer stays valid past an eviction — holders share the immutable
  /// compilation and rebuild JobQueues from it with
  /// push_jobs()/push_job_subset() instead of re-expanding the request.
  std::shared_ptr<const std::vector<ExperimentJob>> checkout(
      const std::string& key,
      const std::function<std::vector<ExperimentJob>()>& compile);

  /// The memoized full-set shard partition for (key, shard_count): per-shard
  /// sorted job-index lists over the compiled job list. Computes via `plan`
  /// on the first request (outside the lock) and remembers it on the entry.
  /// Returns nullptr when `key` is not resident (checkout() first) — the
  /// partition memo never resurrects an evicted compilation.
  std::shared_ptr<const std::vector<std::vector<std::size_t>>> shard_partition(
      const std::string& key, std::size_t shard_count,
      const std::function<std::vector<std::vector<std::size_t>>()>& plan);

  Stats stats() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  void clear();

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const std::vector<ExperimentJob>> compiled;
    /// shard_count → full-set partition (job indices per shard).
    std::map<std::size_t,
             std::shared_ptr<const std::vector<std::vector<std::size_t>>>>
        partitions;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace ao::orchestrator
