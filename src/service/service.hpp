#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "orchestrator/plan_cache.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "service/campaign_queue.hpp"
#include "service/outbox.hpp"
#include "service/protocol.hpp"
#include "service/worker_pool.hpp"
#include "service/worker_registry.hpp"

namespace ao::service {

/// The long-running campaign engine: accepts declarative sweep requests
/// over a line protocol (docs/service.md), schedules them through the
/// CampaignQueue against one warm, thread-safe ResultCache, and streams
/// each MeasurementRecord back the moment it settles — the client reads
/// results while the campaign is still running.
///
/// The service is multi-tenant: serve() is safe to call from one thread per
/// client session (`ao_campaignd` spawns one per accepted connection), and
/// campaigns whose resource classes (CPU/AMX vs GPU vs ANE, derived from
/// the JobKinds the request enables) are disjoint execute *concurrently*,
/// each on its own checked-out CampaignScheduler, all sharing the one warm
/// cache. Conflicting campaigns queue — higher `priority` first, FIFO
/// within a priority — and per-client quotas bound queue depth and
/// concurrency (quota violations get structured `error` replies).
///
/// Requests with `shards > 1` are partitioned by the ShardPlanner and run
/// over one of two transports:
///  - **remote workers** (preferred when any are connected, mandatory with
///    `remote_only`): `ao_worker --connect` processes — on this machine or
///    any other — that announced themselves with a `worker` hello and sit
///    parked in the WorkerRegistry. Each shard is shipped as a `task` frame
///    and the worker streams `records` frames back, closed by a `store`
///    frame carrying its full result store; no shared filesystem anywhere
///    (docs/service.md#wire-format-frames).
///  - **local workers**: WorkerPool-spawned `ao_worker` processes (or
///    in-process threads) exchanging results through per-shard disk stores
///    the service tails.
/// Either way the client observes records live, shards merge back into the
/// warm cache conflict-free by CacheKey, and the merged result is
/// bit-identical to a single-process run.
///
/// Transport-agnostic: serve() speaks the protocol over any istream/ostream
/// pair. `ao_campaignd` runs it over a unix socket; the tests run it over
/// stringstreams. Sessions are stateless between campaigns, so sequential
/// clients share every previously measured point.
class CampaignService {
 public:
  struct Config {
    std::size_t cache_capacity = 4096;
    /// When set: the warm cache loads this store at startup and
    /// write-throughs (and auto-compacts) every new point to it.
    std::string store_path;
    /// Directory for per-campaign shard stores and worker request files.
    std::string shard_dir = ".";
    /// Path of the `ao_worker` binary; "" runs shards in-process.
    std::string worker_binary;
    /// Never run shards locally: every sharded campaign waits up to
    /// `remote_wait_ms` for a connected remote worker and fails otherwise.
    /// Off, shards prefer remote workers when any are idle and fall back
    /// to the local WorkerPool when none are.
    bool remote_only = false;
    /// How long a remote-only sharded campaign waits for its first remote
    /// worker before failing.
    int remote_wait_ms = 15000;
    /// Admission limits: global concurrency, per-client running and queued
    /// quotas (see CampaignQueue::Limits).
    CampaignQueue::Limits limits;
    /// When set: one JSON timeline artifact (obs::timeline_json) is written
    /// here per completed campaign, as `<name>-c<id>.profile.json`. The
    /// directory must exist (ao_campaignd --profile-dir creates it).
    std::string profile_dir;
    /// Clock for the built-in timeline profiler; {} = steady_clock. Tests
    /// inject a counter for deterministic timelines. Campaign deadlines
    /// (`deadline <ms>`) are measured on this clock too.
    obs::TimelineProfiler::ClockFn profile_clock;
    /// Heartbeat interval for parked remote workers: an idle worker not
    /// heard from for this long is pinged (and retired when it fails to
    /// pong) by WorkerRegistry::heartbeat() — the daemon drives the sweep
    /// from a background thread, and the service sweeps once before leasing
    /// shard workers. 0 disables liveness probing.
    std::uint64_t heartbeat_interval_ns = 0;
    /// Clock for the worker registry's last-seen bookkeeping;
    /// {} = steady_clock. Tests inject a counter.
    WorkerRegistry::ClockFn worker_clock;
    /// Per-campaign outbound line queue depth: record/progress producers
    /// block once this many lines wait on a slow client (see
    /// SessionOutbox). Protocol events and replies are exempt.
    std::size_t outbox_capacity = 1024;
    /// Retained compiled campaign expansions (orchestrator::PlanCache):
    /// repeated campaigns skip the jobs() walk at checkout. At least 1.
    std::size_t plan_cache_capacity = 64;
  };

  explicit CampaignService(Config config);

  /// Handles one protocol session until the stream ends or a `shutdown`
  /// command arrives; returns true on shutdown. Malformed lines get an
  /// `error` reply (stable code + the offending input line) and the session
  /// continues — a bad request never takes the service down. Thread-safe:
  /// concurrent sessions share the queue, the cache and the totals.
  bool serve(std::istream& in, std::ostream& out);

  /// One completed campaign's retained span timeline — what the `profile`
  /// command replays. The service keeps the most recent kMaxTimelines.
  struct CampaignTimeline {
    std::uint64_t id = 0;
    std::string name;
    std::string client;
    std::vector<obs::Span> spans;  ///< id order (parents before children)
  };

  orchestrator::ResultCache& cache() { return cache_; }
  /// The compiled-expansion cache consulted at every campaign checkout.
  orchestrator::PlanCache& plan_cache() { return plan_cache_; }
  CampaignQueue& queue() { return queue_; }
  /// The pool of connected remote shard workers (`worker` hello sessions).
  WorkerRegistry& workers() { return registry_; }
  /// The built-in timeline profiler (tests inspect spans through it).
  obs::TimelineProfiler& profiler() { return profiler_; }
  /// Retained per-campaign timelines, oldest first.
  std::vector<CampaignTimeline> timelines() const;
  /// Campaign names in the order the queue admitted them (most recent
  /// kStartLogCapacity entries) — the observable start order the queue
  /// tests assert on.
  std::vector<std::string> start_log() const;

 private:
  /// A CampaignScheduler checked out of the idle pool (or freshly built)
  /// for the duration of one campaign; returned on destruction so its warm
  /// SystemPool serves the next campaign with the same options/concurrency.
  class SchedulerLease;

  /// One in-flight campaign's cancellation handle, shared between its
  /// session thread and the `abort` command. `abort <name>` flips `abort`
  /// and cancels the outbox; the deadline is an absolute instant on the
  /// profiler clock, checked wherever the campaign can stop cooperatively
  /// (queue wait, between scheduler jobs, between remote shards).
  struct CancelState {
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t deadline_ns = 0;  ///< profiler-clock instant; 0 = none
    std::atomic<bool> abort{false};
    SessionOutbox* outbox = nullptr;  ///< guarded by active_mutex_
  };

  /// "aborted" / "deadline-exceeded" when the campaign must stop, "" while
  /// it may continue. Abort wins when both apply.
  std::string cancel_code(const CancelState& state) const;
  /// Folds one cancelled campaign into the totals.
  void note_cancelled(const std::string& code);
  /// Adds each delta to its lifetime counter, under one lock.
  void count(
      std::initializer_list<std::pair<obs::Metric, std::uint64_t>> deltas);
  /// The lifetime counters plus the queue, registry, cache and plan-cache
  /// state sampled now: every value a `stats` or `metrics` reply renders.
  obs::MetricValues snapshot() const;

  struct CampaignJournal;  // defined below, next to its helpers

  void run_campaign(const CampaignRequest& request, std::ostream& session_out);
  /// Both execution paths receive the campaign's compiled expansion (a
  /// PlanCache checkout made in run_campaign) instead of re-expanding the
  /// request; run_sharded also gets the plan key so it can consult the
  /// shard-partition memo.
  /// `journal` (may be null) records every streamed CacheKey for `follow`.
  void run_in_process(
      const CampaignRequest& request,
      const std::shared_ptr<const std::vector<orchestrator::ExperimentJob>>&
          compiled,
      std::uint64_t id, std::size_t expected_records, std::uint64_t root_span,
      const orchestrator::StopFn& should_stop, CampaignJournal* journal,
      std::ostream& out);
  void run_sharded(
      const CampaignRequest& request,
      const std::shared_ptr<const std::vector<orchestrator::ExperimentJob>>&
          compiled,
      const std::string& plan_cache_key, std::uint64_t id,
      std::size_t shard_count, std::size_t expected_records,
      std::uint64_t root_span, const orchestrator::StopFn& should_stop,
      CampaignJournal* journal, std::ostream& out);
  /// Runs the planned shard tasks on checked-out remote workers (one driver
  /// thread per lease draining a shared work queue). Returns false when no
  /// worker could be leased and local fallback is allowed; true when remote
  /// execution happened (or remote-only failed), with `streamed`, `merged`,
  /// `remote_executed` (shards a worker completed), `retries_used` and
  /// `failure` updated. A shard whose endpoint dies mid-conversation is
  /// re-dispatched to a *different* worker while the request's per-campaign
  /// retry budget lasts; `seen` dedupes the entry lines a retry replays so
  /// the client never reads a record twice. Shards that exhausted the
  /// budget (or never ran) land in `leftover`: the caller reruns them
  /// locally — or, under remote_only, reports them as a structured failure.
  bool run_shards_remote(const CampaignRequest& request,
                         const std::vector<WorkerPool::ShardTask>& tasks,
                         std::size_t expected_records, std::uint64_t root_span,
                         const orchestrator::StopFn& should_stop,
                         CampaignJournal* journal,
                         std::unordered_set<std::string>* seen,
                         std::size_t* streamed, std::size_t* merged,
                         std::size_t* remote_executed,
                         std::size_t* retries_used,
                         std::vector<WorkerPool::ShardTask>* leftover,
                         std::string* failure, std::ostream& out);

  /// Settles one finished campaign's telemetry: drains the profiler, pulls
  /// the root's subtree out (spans of still-running concurrent campaigns go
  /// back to the orphan pool), observes every span in the per-phase
  /// duration histogram, retains the timeline for the `profile` command,
  /// and — with Config::profile_dir set — writes the JSON artifact. The
  /// campaign's root span must already be closed.
  void finish_campaign_profile(std::uint64_t root_span, std::uint64_t id,
                               const std::string& name,
                               const std::string& client);
  /// Handles the `profile [name]` command: replays the newest retained
  /// timeline (newest of that campaign name, with one given).
  void reply_profile(const std::string& name, std::ostream& out) const;
  /// Handles the `metrics` command: refreshes the counter/gauge samples
  /// from snapshot() (already monotone where Prometheus requires it) and
  /// streams the text exposition, terminated by the `# EOF` marker.
  void reply_metrics(std::ostream& out);

  /// The record stream of one campaign, retained for `follow` replays: the
  /// CacheKeys of every record the campaign streamed (or would have
  /// streamed), in emission order, deduplicated exactly like the live
  /// stream. The records themselves stay in the result store; a replay
  /// re-reads them through ResultCache::fetch_entry().
  struct CampaignJournal {
    std::uint64_t id = 0;
    std::string name;
    std::vector<orchestrator::CacheKey> keys;  ///< guarded by journal_mutex_
    bool complete = false;  ///< the campaign finished (vs died / was cut)
  };

  /// Registers a fresh journal for a starting campaign (old ones roll off
  /// beyond kMaxJournals) and returns it.
  std::shared_ptr<CampaignJournal> open_journal(std::uint64_t id,
                                                const std::string& name);
  void journal_append(CampaignJournal* journal,
                      const orchestrator::CacheKey& key);
  /// Newest retained journal named `name`; nullptr when none survives.
  std::shared_ptr<CampaignJournal> find_journal(const std::string& name) const;

  /// Handles `query [filters...]`: an indexed, snapshot-isolated page of
  /// store entries (docs/service.md#queries).
  void reply_query(const std::vector<std::string>& words,
                   const std::string& line, std::ostream& out);
  /// Handles `follow <name> [from <cursor>]`: replays a campaign's record
  /// stream from the store, resuming after the cursor.
  void reply_follow(const std::vector<std::string>& words,
                    const std::string& line, std::ostream& out);
  /// Settles one read-path command's telemetry: the kQuery span plus its
  /// histogram observation (read spans have no campaign root to ride).
  void note_query_span(std::uint64_t started_ns, const std::string& label);

  Config config_;
  orchestrator::ResultCache cache_;
  orchestrator::PlanCache plan_cache_;
  CampaignQueue queue_;
  WorkerRegistry registry_;
  std::atomic<std::uint64_t> next_campaign_id_{1};
  std::atomic<std::uint64_t> next_worker_id_{1};

  /// Idle schedulers keyed by (options fingerprint, concurrency): a
  /// campaign checks one out exclusively and returns it, so concurrent
  /// campaigns never share a scheduler while SystemPools stay warm across
  /// sequential campaigns that agree on their options.
  std::mutex scheduler_pool_mutex_;
  std::multimap<std::uint64_t,
                std::unique_ptr<orchestrator::CampaignScheduler>>
      idle_schedulers_;

  /// Retained start_log() depth; old entries roll off.
  static constexpr std::size_t kStartLogCapacity = 64;

  mutable std::mutex totals_mutex_;
  /// Lifetime counters, one slot per obs::Metric; the sampled gauges'
  /// slots stay 0 here and are filled by snapshot().
  obs::MetricValues totals_;
  std::vector<std::string> start_log_;

  /// Every in-flight campaign's cancellation handle — what `abort <name>`
  /// scans. Entries are registered after admission and removed before the
  /// campaign's outbox closes.
  std::mutex active_mutex_;
  std::vector<std::shared_ptr<CancelState>> active_;

  /// Timeline telemetry. The profiler drains after every campaign, so a
  /// long-running daemon's span memory is bounded by kMaxTimelines retained
  /// timelines plus kMaxOrphanSpans spans of still-running campaigns.
  static constexpr std::size_t kMaxTimelines = 8;
  static constexpr std::size_t kMaxOrphanSpans = 4096;
  obs::TimelineProfiler profiler_;
  mutable std::mutex profile_mutex_;
  std::deque<CampaignTimeline> timelines_;
  std::vector<obs::Span> orphan_spans_;  ///< drained, not yet rooted

  /// The Prometheus exposition surface behind the `metrics` command.
  /// Histograms accumulate as spans settle (the per-phase histogram is also
  /// the `stats-phase` feed); counters and gauges are restated from
  /// snapshot() at scrape time.
  obs::MetricsRegistry metrics_;

  /// Recent campaigns' record streams for `follow` (bounded, oldest first).
  static constexpr std::size_t kMaxJournals = 8;
  mutable std::mutex journal_mutex_;
  std::deque<std::shared_ptr<CampaignJournal>> journals_;
};

}  // namespace ao::service
