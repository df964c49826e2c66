#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <iosfwd>
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
/// each on its own shard endpoints, all sharing the one warm cache.
/// Conflicting campaigns queue — higher `priority` first, FIFO within a
/// priority — and per-client quotas bound queue depth and concurrency
/// (quota violations get structured `error` replies).
///
/// Every campaign runs one path: the warm pass streams what the cache
/// holds, and the pending jobs run as shards — partitioned by the
/// ShardPlanner — over one transport, the frame conversation
/// (docs/service.md#wire-format-frames): a `task` frame out, `records`
/// frames back, closed by a `done` frame counting them. The daemon runs no
/// numeric kernel of its own. A shard's endpoint is
///  - a **local endpoint**: a campaign-private `ao_worker --stdio-frames`
///    child (or thread) on a socketpair, spawned for the campaign and
///    reaped before its last line. A `shards 1` request always runs on one.
///  - a **remote worker** (`shards > 1` only; preferred when any are idle,
///    mandatory with `remote_only`): an `ao_worker --connect` process — on
///    this machine or any other — parked in the WorkerRegistry after its
///    `worker` hello; no shared filesystem anywhere.
/// Either way each record settles once, as it arrives: into the warm cache
/// (and its store), the follow journal and the client stream, deduplicated
/// by CacheKey — so the settled result is bit-identical whatever the shard
/// count and the endpoints.
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
    /// Path of the `ao_worker` binary local shard endpoints exec
    /// (`--stdio-frames`); "" runs each local endpoint's worker session on a
    /// thread.
    std::string worker_binary;
    /// Never run shards locally: every sharded campaign waits up to
    /// `remote_wait_ms` for a connected remote worker and fails otherwise.
    /// Off, shards prefer remote workers when any are idle and run on local
    /// endpoints when none are.
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
  /// One in-flight campaign's cancellation handle, shared between its
  /// session thread and the `abort` command. `abort <name>` flips `abort`
  /// and cancels the outbox; the deadline is an absolute instant on the
  /// profiler clock, checked wherever the campaign can stop cooperatively
  /// (queue wait, the warm pass, each record a shard ships, between
  /// shards).
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
  /// The one execution path of every admitted campaign: the warm pass, then
  /// the pending jobs planned into at most `shard_count` shards and run by
  /// run_shards(), then the `done` line (or the stop / failure reply). It
  /// receives the campaign's compiled expansion (a PlanCache checkout made
  /// in run_campaign) instead of re-expanding the request, and the plan key
  /// so it can consult the shard-partition memo. `journal` (may be null)
  /// records every streamed CacheKey for `follow`.
  void run_sharded(
      const CampaignRequest& request,
      const std::shared_ptr<const std::vector<orchestrator::ExperimentJob>>&
          compiled,
      const std::string& plan_cache_key, std::uint64_t id,
      std::size_t shard_count, std::size_t expected_records,
      std::uint64_t root_span, const orchestrator::StopFn& should_stop,
      CampaignJournal* journal, std::ostream& out);
  /// The keys a campaign has streamed (its exactly-once set).
  using KeySet =
      std::unordered_set<orchestrator::CacheKey, orchestrator::CacheKeyHash>;
  /// What the warm pass leaves for an execution path.
  struct WarmPass {
    std::vector<std::size_t> pending;  ///< job indices the cache lacks
    std::size_t hits = 0;              ///< records streamed from the cache
    std::string stop_code;  ///< non-empty: the campaign stopped mid-pass
  };
  /// The warm pass every campaign starts with, outside any shard:
  /// every job whose entry line the warm cache (or the store behind it)
  /// holds streams verbatim as a `record` line, with its journal entry and
  /// `progress` line; the other jobs' indices are returned as pending.
  /// `should_stop` is polled before each job; a stop ends the pass with its
  /// code. Streamed keys also go into `seen`. Recorded as one `schedule`
  /// span labelled `warm`.
  WarmPass serve_warm(const std::vector<orchestrator::ExperimentJob>& jobs,
                      std::uint64_t options_fp, std::size_t expected_records,
                      const orchestrator::StopFn& should_stop,
                      CampaignJournal* journal, KeySet& seen,
                      std::ostream& out);
  /// Ends a campaign stopped by `code` (an abort or an expired deadline):
  /// the `abort` span, the cancellation count, and the `<code> campaign`
  /// event and `error` reply reporting how many records it streamed.
  void report_stopped(const std::string& code, std::uint64_t id,
                      std::size_t streamed, std::size_t expected_records,
                      std::uint64_t root_span, std::ostream& out);
  /// The one settle step of a record a shard shipped: its entry line goes
  /// into the warm cache, which writes it through to the store before
  /// returning, then the key into the journal, then the line onto the
  /// client stream with its `progress` line (`streamed` counts it). The
  /// caller holds the campaign's stream lock, so a `follow` replays the
  /// records in the order the stream wrote them.
  void settle_record(const orchestrator::CacheKey& key,
                     const std::string& line, CampaignJournal* journal,
                     std::size_t& streamed, std::size_t expected_records,
                     std::ostream& out);
  /// The campaign's settlement point for one shipped entry line: parses it
  /// and settle_record()s its first arrival, and returns false for a
  /// malformed line or a key the campaign already settled. Locks the
  /// campaign's stream mutex itself.
  using SettleFn = std::function<bool(const std::string& entry_line)>;
  /// One planned shard: its index and the campaign job indices it runs.
  struct ShardTask {
    std::size_t shard_index = 0;
    std::vector<std::size_t> groups;
  };
  /// What running a campaign's shards leaves for its verdict.
  struct ShardRun {
    bool leased = false;  ///< a registry worker took part (`remote <n>`)
    std::size_t remote_executed = 0;  ///< shards registry workers completed
    std::size_t retries = 0;          ///< retry budget spent
    /// Entry lines the endpoints shipped, over all attempts (a retry's
    /// replays included) — the campaign's `executed` count.
    std::size_t executed = 0;
    std::string failure;  ///< "" = every shard settled, or the campaign stopped
  };
  /// Runs the planned shard tasks over frame conversations, one driver
  /// thread per endpoint draining a shared work queue, handing every entry
  /// line to `settle` as its frame arrives; shard events go to `out` under
  /// `out_mutex`. A `shards 1` request runs on one local endpoint. A
  /// `shards > 1` request runs on idle remote workers (waited for up to
  /// `remote_wait_ms` under remote_only) or, when none is idle and
  /// remote_only is off, on local endpoints, one per task. `should_stop`
  /// is checked on each arriving record — after it fires nothing settles,
  /// and a local endpoint is abandoned mid-shard — and between shards. A
  /// shard whose endpoint dies mid-conversation is re-dispatched to a
  /// *different* endpoint — a surviving driver, a fresh lease, or a fresh
  /// local endpoint — while the request's per-campaign retry budget lasts;
  /// `settle` drops the records a retry replays. Every endpoint is released
  /// (local ones reaped) before this returns.
  ShardRun run_shards(const CampaignRequest& request,
                      const std::vector<ShardTask>& tasks,
                      std::uint64_t root_span,
                      const orchestrator::StopFn& should_stop,
                      const SettleFn& settle, std::mutex& out_mutex,
                      std::ostream& out);

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
