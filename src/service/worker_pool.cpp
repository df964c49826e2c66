#include "service/worker_pool.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>

#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "util/error.hpp"

namespace ao::service {

std::string run_shard(const CampaignRequest& request,
                      const std::vector<std::size_t>& groups,
                      const std::string& store_path) {
  try {
    AO_REQUIRE(!store_path.empty(), "shard needs a store path");
    // A fresh store per shard: remove leftovers so a stale file from an
    // earlier campaign can never leak records into this one.
    std::remove(store_path.c_str());
    orchestrator::ResultCache cache;
    // The store is a streaming exchange file: the service tails it by byte
    // offset while this shard runs, so it must stay strictly append-only —
    // no automatic rewrites. The service settles every line it reads.
    cache.set_compaction_policy(0.0);
    cache.persist_to(store_path);

    orchestrator::Campaign campaign = request.to_campaign();
    orchestrator::JobQueue queue;
    campaign.expand_subset(queue, groups);

    orchestrator::CampaignScheduler::Options scheduler_options;
    scheduler_options.concurrency = request.workers;
    orchestrator::CampaignScheduler scheduler(request.options(),
                                              scheduler_options, &cache);
    scheduler.run(queue);
    return {};
  } catch (const std::exception& e) {
    return e.what();
  }
}

struct WorkerPool::Running {
  ShardTask task;
  // Process mode.
  pid_t pid = -1;
  // Thread mode.
  std::thread thread;
  std::atomic<bool> done{false};
  int exit_code = 0;
  std::string error;  ///< written by the thread before `done` is set
};

WorkerPool::WorkerPool(std::string worker_binary)
    : worker_binary_(std::move(worker_binary)) {}

WorkerPool::~WorkerPool() { wait(); }

void WorkerPool::start(const CampaignRequest& request,
                       const std::string& request_file,
                       std::vector<ShardTask> tasks) {
  AO_REQUIRE(running_.empty(), "WorkerPool is already running a campaign");
  outcomes_.clear();

  const bool process_mode = !worker_binary_.empty();
  if (process_mode) {
    AO_REQUIRE(!request_file.empty(), "process mode needs a request file");
    std::ofstream out(request_file, std::ios::trunc);
    if (!out) {
      throw util::Error("cannot write worker request file: " + request_file);
    }
    for (const std::string& line : request.to_lines()) {
      out << line << '\n';
    }
    if (!out) {
      throw util::Error("short write to worker request file: " + request_file);
    }
  }

  for (ShardTask& task : tasks) {
    if (task.groups.empty()) {
      continue;  // nothing to run; no store is produced
    }
    auto running = std::make_unique<Running>();
    running->task = std::move(task);

    if (process_mode) {
      std::string groups_csv;
      for (const std::size_t g : running->task.groups) {
        if (!groups_csv.empty()) {
          groups_csv += ',';
        }
        groups_csv += std::to_string(g);
      }
      const pid_t pid = fork();
      if (pid < 0) {
        throw util::Error("fork() failed spawning a shard worker");
      }
      if (pid == 0) {
        // Child: exec the worker binary; _exit on failure so no destructors
        // of the half-copied parent state run.
        const char* argv[] = {worker_binary_.c_str(),
                              "--request",
                              request_file.c_str(),
                              "--groups",
                              groups_csv.c_str(),
                              "--store",
                              running->task.store_path.c_str(),
                              nullptr};
        execv(worker_binary_.c_str(), const_cast<char* const*>(argv));
        std::perror("execv ao_worker");
        _exit(127);
      }
      running->pid = pid;
    } else {
      Running* state = running.get();
      const CampaignRequest request_copy = request;
      state->thread = std::thread([state, request_copy] {
        state->error = run_shard(request_copy, state->task.groups,
                                 state->task.store_path);
        state->exit_code = state->error.empty() ? 0 : 1;
        state->done.store(true, std::memory_order_release);
      });
    }
    running_.push_back(std::move(running));
  }
}

bool WorkerPool::busy() {
  for (const auto& running : running_) {
    if (running->pid >= 0) {
      int status = 0;
      const pid_t reaped = waitpid(running->pid, &status, WNOHANG);
      if (reaped == 0) {
        return true;  // still executing
      }
      if (reaped > 0) {
        running->exit_code =
            WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      } else {
        // waitpid failed (e.g. the child was auto-reaped under an
        // inherited SIGCHLD=SIG_IGN): the worker is lost, which must never
        // read as success — its store may be incomplete.
        running->exit_code = 255;
        running->error = "worker process lost (waitpid failed)";
      }
      running->pid = -1;
      running->done.store(true, std::memory_order_release);
    } else if (!running->done.load(std::memory_order_acquire)) {
      return true;
    }
  }
  return false;
}

std::vector<WorkerPool::ShardOutcome> WorkerPool::wait() {
  for (auto& running : running_) {
    if (running->pid >= 0) {
      int status = 0;
      if (waitpid(running->pid, &status, 0) > 0) {
        running->exit_code =
            WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
      } else {
        running->exit_code = 255;  // lost worker: never report success
        running->error = "worker process lost (waitpid failed)";
      }
      running->pid = -1;
    }
    if (running->thread.joinable()) {
      running->thread.join();
    }
    ShardOutcome outcome;
    outcome.shard_index = running->task.shard_index;
    outcome.exit_code = running->exit_code;
    outcome.error = running->error;
    outcomes_.push_back(outcome);
  }
  running_.clear();
  std::sort(outcomes_.begin(), outcomes_.end(),
            [](const ShardOutcome& a, const ShardOutcome& b) {
              return a.shard_index < b.shard_index;
            });
  return outcomes_;
}

}  // namespace ao::service
