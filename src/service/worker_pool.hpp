#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace ao::service {

/// Executes one shard of a campaign in this process: expands the named
/// jobs (indices into `request.to_campaign().jobs()`), runs them on a
/// private scheduler with `request.workers` threads, and write-throughs
/// every record into a fresh store at `store_path`. Returns "" on success,
/// the error message otherwise. This is the whole body of the `ao_worker`
/// binary — the disk store is the only exchange format between a worker and
/// the service that spawned it.
std::string run_shard(const CampaignRequest& request,
                      const std::vector<std::size_t>& groups,
                      const std::string& store_path);

/// Farms a campaign's shards out to workers.
///
/// Two execution modes:
///  - process mode (a worker binary path is configured): each shard is a
///    spawned `ao_worker` process handed the request block as a file plus
///    its job-index list (`--groups`); crash isolation and true
///    multi-process parallelism.
///  - in-process mode (empty binary path): each shard runs run_shard() on a
///    std::thread — same store contract, no process boundary (tests and
///    environments without the binary).
///
/// Either way every shard produces an independent result store the caller
/// tails for streaming and merges (conflict-free, by CacheKey) afterwards.
class WorkerPool {
 public:
  struct ShardTask {
    std::size_t shard_index = 0;
    std::vector<std::size_t> groups;  ///< campaign job indices
    std::string store_path;           ///< fresh write-through store target
  };

  struct ShardOutcome {
    std::size_t shard_index = 0;
    int exit_code = 0;    ///< 0 = success (thread mode: 0/1)
    std::string error;    ///< thread-mode failures and lost processes;
                          ///< exiting processes report via stderr
  };

  /// `worker_binary` "" selects in-process mode.
  explicit WorkerPool(std::string worker_binary = {});
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Launches every shard and returns immediately. In process mode the
  /// request block is written to `request_file` for the workers to read.
  /// Empty shards are skipped. Must not be called while busy().
  void start(const CampaignRequest& request, const std::string& request_file,
             std::vector<ShardTask> tasks);

  /// True while any shard is still executing.
  bool busy();

  /// Blocks until every shard finishes; returns outcomes sorted by shard
  /// index. Idempotent.
  std::vector<ShardOutcome> wait();

 private:
  struct Running;

  std::string worker_binary_;
  std::vector<std::unique_ptr<Running>> running_;
  std::vector<ShardOutcome> outcomes_;
};

}  // namespace ao::service
