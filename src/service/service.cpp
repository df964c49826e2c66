#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "orchestrator/store_index.hpp"
#include "service/shard_planner.hpp"
#include "service/worker_link.hpp"
#include "service/worker_pool.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace ao::service {

using obs::Metric;

namespace {

using orchestrator::CampaignScheduler;
using orchestrator::ExperimentJob;
using orchestrator::JobKind;
using orchestrator::JobQueue;
using orchestrator::MeasurementRecord;

/// Replies must stay line-oriented; exception text is folded onto one line.
std::string one_line(std::string text) {
  std::replace(text.begin(), text.end(), '\n', ' ');
  std::replace(text.begin(), text.end(), '\r', ' ');
  return text;
}

/// The structured error reply: stable code, message, and — when the failure
/// is about a specific input line — that line echoed back, so the client
/// can report exactly which of its request lines was rejected.
void reply_error(std::ostream& out, const std::string& code,
                 const std::string& message, const std::string& input = {}) {
  out << "error " << code << ' ' << one_line(message);
  if (!input.empty()) {
    out << " | line: " << one_line(input);
  }
  out << '\n';
}

/// Incremental reader over one shard's write-through store: consumes the
/// complete lines appended since the last poll (a half-flushed tail line is
/// left for the next round), skipping the version header.
struct StoreTail {
  std::string path;
  std::streamoff offset = 0;
  std::size_t shard_index = 0;
  std::size_t records = 0;  ///< entries streamed from this shard so far

  template <typename LineFn>
  void poll(LineFn&& on_line) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return;  // the worker has not created the store yet
    }
    in.seekg(offset);
    std::ostringstream chunk;
    chunk << in.rdbuf();
    const std::string buffered = chunk.str();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t newline = buffered.find('\n', pos);
      if (newline == std::string::npos) {
        break;
      }
      const std::string line = buffered.substr(pos, newline - pos);
      pos = newline + 1;
      if (!line.empty() && line != orchestrator::store_header_line()) {
        on_line(line);
      }
    }
    offset += static_cast<std::streamoff>(pos);
  }
};

}  // namespace

/// Checks a scheduler out of the idle pool (or builds one) for exactly one
/// campaign. Concurrent campaigns each hold their own scheduler — run() is
/// not reentrant per instance — while sequential campaigns that agree on
/// options and concurrency reuse a warm SystemPool.
class CampaignService::SchedulerLease {
 public:
  SchedulerLease(CampaignService& service, const CampaignRequest& request)
      : service_(&service) {
    key_ = orchestrator::options_fingerprint(request.options());
    key_ = util::fnv1a_mix(key_, request.workers);
    {
      std::lock_guard lock(service.scheduler_pool_mutex_);
      const auto it = service.idle_schedulers_.find(key_);
      if (it != service.idle_schedulers_.end()) {
        scheduler_ = std::move(it->second);
        service.idle_schedulers_.erase(it);
      }
    }
    if (scheduler_ == nullptr) {
      CampaignScheduler::Options options;
      options.concurrency = request.workers;
      scheduler_ = std::make_unique<CampaignScheduler>(request.options(),
                                                       options,
                                                       &service.cache_);
    }
  }

  ~SchedulerLease() {
    std::lock_guard lock(service_->scheduler_pool_mutex_);
    if (service_->idle_schedulers_.size() < kMaxIdle) {
      service_->idle_schedulers_.emplace(key_, std::move(scheduler_));
    }
    // Beyond the cap the scheduler (and its SystemPool) is simply dropped —
    // bounded memory beats a marginally warmer pool.
  }

  CampaignScheduler& scheduler() { return *scheduler_; }

 private:
  static constexpr std::size_t kMaxIdle = 8;
  CampaignService* service_;
  std::uint64_t key_ = 0;
  std::unique_ptr<CampaignScheduler> scheduler_;
};

CampaignService::CampaignService(Config config)
    : config_(std::move(config)),
      cache_(config_.cache_capacity),
      plan_cache_(config_.plan_cache_capacity),
      queue_(config_.limits),
      profiler_(config_.profile_clock) {
  if (!config_.store_path.empty()) {
    // Attach by indexing only: the store is the cache's second level, so a
    // point is read back on its first lookup instead of being parsed into
    // an LRU that would evict most of a large store again.
    cache_.persist_to(config_.store_path);
  }
  // The warm cache records its own serialize/merge spans — the service never
  // wraps cache calls itself, so shard merges are counted exactly once.
  cache_.set_profiler(&profiler_);
  registry_.configure({config_.heartbeat_interval_ns, config_.worker_clock});
}

std::string CampaignService::cancel_code(const CancelState& state) const {
  if (state.abort.load(std::memory_order_acquire)) {
    return "aborted";
  }
  if (state.deadline_ns != 0 && profiler_.now() >= state.deadline_ns) {
    return "deadline-exceeded";
  }
  return {};
}

void CampaignService::note_cancelled(const std::string& code) {
  count({{code == "deadline-exceeded" ? Metric::kCampaignsDeadlineExpiredTotal
                                      : Metric::kCampaignsAbortedTotal,
          1}});
}

void CampaignService::count(
    std::initializer_list<std::pair<Metric, std::uint64_t>> deltas) {
  std::lock_guard lock(totals_mutex_);
  for (const auto& [metric, delta] : deltas) {
    totals_[metric] += delta;
  }
}

obs::MetricValues CampaignService::snapshot() const {
  obs::MetricValues values;
  {
    std::lock_guard lock(totals_mutex_);
    values = totals_;
  }
  values[Metric::kCacheEntries] = cache_.size();
  values[Metric::kStoreEntries] = cache_.store_entries();
  values[Metric::kCampaignsRunning] = queue_.running_count();
  values[Metric::kQueueDepth] = queue_.queued_count();
  values[Metric::kPeakRunning] = queue_.peak_running();
  values[Metric::kQueueRejectedTotal] = queue_.rejections();
  values[Metric::kWorkersConnected] = registry_.connected_count();
  values[Metric::kWorkersIdle] = registry_.idle_count();
  const orchestrator::PlanCache::Stats plans = plan_cache_.stats();
  values[Metric::kPlanCacheHitsTotal] = plans.hits;
  values[Metric::kPlanCacheMissesTotal] = plans.misses;
  values[Metric::kPlanCacheEntries] = plans.size;
  return values;
}

std::vector<CampaignService::CampaignTimeline> CampaignService::timelines()
    const {
  std::lock_guard lock(profile_mutex_);
  return {timelines_.begin(), timelines_.end()};
}

std::vector<std::string> CampaignService::start_log() const {
  std::lock_guard lock(totals_mutex_);
  return start_log_;
}

bool CampaignService::serve(std::istream& in, std::ostream& out) {
  RequestBuilder builder;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const std::vector<std::string> words = split_words(line);
    if (words.empty()) {
      continue;
    }
    try {
      if (builder.open()) {
        if (words[0] == "run") {
          const CampaignRequest request = builder.take();
          if (request.chips.empty()) {
            reply_error(out, "bad-request", "campaign needs a 'chips' line",
                        line);
          } else if (!request.has_work()) {
            reply_error(out, "bad-request",
                        "empty campaign: no job family requested", line);
          } else {
            run_campaign(request, out);
          }
        } else if (words[0] == "abort") {
          builder.discard();
          out << "ok abort\n";
        } else if (words[0] == "begin") {
          reply_error(out, "bad-state",
                      "nested begin (finish the open request with 'run' or "
                      "'abort')",
                      line);
        } else if (const auto error = builder.apply(line)) {
          reply_error(out, error->code, error->message, line);
        }
      } else if (words[0] == "begin") {
        if (const auto error =
                builder.begin(words.size() > 1 ? words[1] : "")) {
          reply_error(out, error->code, error->message, line);
        }
      } else if (words[0] == "worker") {
        // A remote shard worker announcing itself. The session converts
        // into a parked worker endpoint: park() blocks until the worker
        // dies (failure or shutdown), and campaign threads run frame
        // conversations over the connection in the meantime.
        const std::string requested = words.size() > 1 ? words[1] : "";
        if (!requested.empty() && !valid_campaign_name(requested)) {
          reply_error(out, "bad-name",
                      "invalid worker name (use [A-Za-z0-9._-], at most 64 "
                      "chars)",
                      line);
        } else {
          const std::string name =
              requested.empty()
                  ? "worker-" + std::to_string(next_worker_id_.fetch_add(1))
                  : requested;
          out << "ok worker " << name << '\n';
          out.flush();
          registry_.park(name, in, out);
          return false;  // the connection belonged to the worker
        }
      } else if (words[0] == "queue") {
        // Waiting campaigns in admission order; the terminal `queue` line
        // is what clients stop reading at.
        const auto waiting = queue_.waiting();
        for (const auto& entry : waiting) {
          out << "queue-entry " << entry.position << " name " << entry.name
              << " client " << entry.client << " priority " << entry.priority
              << " resources " << resources_to_string(entry.resources)
              << '\n';
        }
        out << "queue waiting " << waiting.size() << " running "
            << queue_.running_count() << '\n';
      } else if (words[0] == "abort") {
        // Cancel campaigns by name: queued ones are evicted before they ever
        // claim resources, running ones stop cooperatively at their next
        // between-jobs / between-shards check. The reply counts handles
        // flipped *now*; already-aborted campaigns are not counted twice.
        if (words.size() < 2) {
          reply_error(out, "bad-request", "abort needs a campaign name", line);
        } else {
          std::size_t cancelled = 0;
          {
            std::lock_guard lock(active_mutex_);
            for (const auto& state : active_) {
              if (state->name == words[1] &&
                  !state->abort.exchange(true, std::memory_order_acq_rel)) {
                ++cancelled;
                if (state->outbox != nullptr) {
                  // Discard queued records and unblock producers stalled on
                  // a slow client — abort must cut the campaign loose even
                  // from a session that stopped reading.
                  state->outbox->cancel();
                }
              }
            }
          }
          queue_.poke();  // queued tickets re-check their cancel predicate
          out << "ok abort " << words[1] << " cancelled " << cancelled << '\n';
        }
      } else if (words[0] == "ping") {
        out << "pong\n";
      } else if (words[0] == "stats") {
        // Connected workers and per-client queue depth/concurrency first;
        // the aggregate `stats` line is the terminal reply clients stop
        // reading at.
        for (const auto& worker : registry_.snapshot()) {
          // rtt-ns and clock-offset-ns are heartbeat estimates; both read 0
          // until the first sweep pings the endpoint (and the offset stays 0
          // for a worker whose pongs carry no clock reading).
          out << "stats-worker " << worker.name << ' '
              << (worker.idle ? "idle" : "busy") << " shards " << worker.shards
              << " busy-ns " << worker.busy_ns << " last-seen-ns "
              << worker.last_seen_age_ns << " rtt-ns " << worker.rtt_ns
              << " clock-offset-ns "
              << (worker.has_clock_offset ? worker.clock_offset_ns : 0)
              << '\n';
        }
        for (const auto& [client, s] : queue_.client_stats()) {
          out << "stats-client " << client << " queued " << s.queued
              << " running " << s.running << '\n';
        }
        // Lifetime per-phase time aggregates: the count and sum of the
        // phase's duration histogram — only phases that ever recorded a
        // span.
        const auto phases = metrics_.histograms(Metric::kPhaseDurationNs);
        for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
          const auto it =
              phases.find(obs::phase_name(static_cast<obs::Phase>(i)));
          if (it != phases.end()) {
            out << "stats-phase " << it->first << " count "
                << it->second.count << " total-ns " << it->second.sum << '\n';
          }
        }
        out << obs::render_stats_line(snapshot());
      } else if (words[0] == "query") {
        reply_query(words, line, out);
      } else if (words[0] == "follow") {
        reply_follow(words, line, out);
      } else if (words[0] == "profile") {
        reply_profile(words.size() > 1 ? words[1] : "", out);
      } else if (words[0] == "metrics") {
        reply_metrics(out);
      } else if (words[0] == "compact") {
        if (cache_.persist_path().empty()) {
          reply_error(out, "no-store", "no write-through store attached",
                      line);
        } else {
          out << "ok compact " << cache_.compact() << " entries\n";
        }
      } else if (words[0] == "shutdown") {
        // Wake every parked worker session (they send their `bye` frames
        // and end) before telling the caller to stop accepting.
        registry_.shutdown();
        out << "ok shutdown\n";
        out.flush();
        return true;
      } else {
        reply_error(out, "unknown-command", "unknown command: " + words[0],
                    line);
      }
    } catch (const std::exception& e) {
      reply_error(out, "exec-failed", e.what(), line);
    }
    out.flush();
  }
  return false;
}

void CampaignService::reply_profile(const std::string& name,
                                    std::ostream& out) const {
  CampaignTimeline timeline;
  bool found = false;
  {
    std::lock_guard lock(profile_mutex_);
    for (auto it = timelines_.rbegin(); it != timelines_.rend(); ++it) {
      if (name.empty() || it->name == name) {
        timeline = *it;  // newest retained (of that name, when given)
        found = true;
        break;
      }
    }
  }
  if (!found) {
    out << "profile campaign 0 name - client - spans 0\n";
    return;
  }
  // Span lines first (id order = parents before children), then the
  // per-phase aggregates, then the terminal `profile` line clients stop
  // reading at. The origin is one token (`-` for local spans); the
  // free-text label goes last so spaces survive.
  for (const obs::Span& span : timeline.spans) {
    out << "profile-span " << span.id << ' ' << span.parent << ' '
        << obs::phase_name(span.phase) << ' ' << span.start_ns << ' '
        << span.duration_ns << ' '
        << (span.origin.empty() ? "-" : span.origin) << ' '
        << (span.label.empty() ? "-" : one_line(span.label)) << '\n';
  }
  for (const auto& [phase, stats] : obs::phase_stats(timeline.spans)) {
    out << "profile-phase " << obs::phase_name(phase) << " count "
        << stats.count << " total-ns " << stats.total_ns << " p50-ns "
        << stats.p50_ns << " p95-ns " << stats.p95_ns << " max-ns "
        << stats.max_ns << '\n';
  }
  out << "profile campaign " << timeline.id << " name " << timeline.name
      << " client " << timeline.client << " spans " << timeline.spans.size()
      << '\n';
}

void CampaignService::reply_metrics(std::ostream& out) {
  // Counters restate the lifetime totals (already monotone — two scrapes
  // can only go up); gauges restate the current queue/registry state.
  metrics_.set_unlabelled(snapshot());
  // Per-endpoint gauges are rebuilt from scratch: a retired worker's series
  // must vanish from the exposition, not linger at its last value. Each
  // family is swapped atomically — sessions run on their own threads, and a
  // concurrent scrape must never see the rebuild half-done.
  std::map<std::string, std::int64_t> rtt_by_worker;
  std::map<std::string, std::int64_t> offset_by_worker;
  for (const auto& worker : registry_.snapshot()) {
    if (worker.rtt_ns != 0) {
      rtt_by_worker[worker.name] = static_cast<std::int64_t>(worker.rtt_ns);
    }
    if (worker.has_clock_offset) {
      offset_by_worker[worker.name] = worker.clock_offset_ns;
    }
  }
  metrics_.replace(Metric::kWorkerRttNs, std::move(rtt_by_worker));
  metrics_.replace(Metric::kWorkerClockOffsetNs, std::move(offset_by_worker));
  out << metrics_.render();
}

void CampaignService::finish_campaign_profile(std::uint64_t root_span,
                                              std::uint64_t id,
                                              const std::string& name,
                                              const std::string& client) {
  std::vector<obs::Span> spans = profiler_.drain();
  std::lock_guard lock(profile_mutex_);
  // Re-adopt the orphan pool: spans drained by earlier finishes while this
  // campaign was still running live there.
  spans.insert(spans.end(), orphan_spans_.begin(), orphan_spans_.end());
  std::sort(spans.begin(), spans.end(),
            [](const obs::Span& a, const obs::Span& b) { return a.id < b.id; });
  std::vector<obs::Span> mine = obs::span_subtree(spans, root_span);

  // Everything outside this campaign's subtree belongs to a concurrent
  // campaign that has not finished yet — keep it (newest first under the
  // cap) for that campaign's own finish.
  std::unordered_set<std::uint64_t> mine_ids;
  mine_ids.reserve(mine.size());
  for (const obs::Span& span : mine) {
    mine_ids.insert(span.id);
  }
  orphan_spans_.clear();
  for (obs::Span& span : spans) {
    if (mine_ids.count(span.id) == 0) {
      orphan_spans_.push_back(std::move(span));
    }
  }
  if (orphan_spans_.size() > kMaxOrphanSpans) {
    orphan_spans_.erase(orphan_spans_.begin(),
                        orphan_spans_.end() -
                            static_cast<std::ptrdiff_t>(kMaxOrphanSpans));
  }

  // Feed the per-phase duration histograms of the `metrics` exposition
  // and the `stats-phase` lines — incremental, so a scrape between two
  // campaigns stays monotone.
  for (const obs::Span& span : mine) {
    metrics_.observe(Metric::kPhaseDurationNs, span.duration_ns,
                     obs::phase_name(span.phase));
  }

  if (!config_.profile_dir.empty()) {
    const std::string path = config_.profile_dir + "/" + name + "-c" +
                             std::to_string(id) + ".profile.json";
    std::ofstream artifact(path, std::ios::trunc);
    if (artifact) {
      artifact << obs::timeline_json(id, name, client, mine);
    }
    // An unwritable profile dir only costs the artifact, never the campaign.
  }

  timelines_.push_back({id, name, client, std::move(mine)});
  if (timelines_.size() > kMaxTimelines) {
    timelines_.pop_front();
  }
}

void CampaignService::run_campaign(const CampaignRequest& request,
                                   std::ostream& session_out) {
  // The campaign's root span: every phase of its lifecycle — admission,
  // queue wait, scheduling, shards, merges — nests under it, by thread-local
  // inheritance on this session thread and by explicit parent id on shard
  // driver and scheduler worker threads.
  obs::TimelineProfiler::Scope root(&profiler_, obs::Phase::kCampaign,
                                    /*parent=*/0, request.name);

  // Admission first: the queue decides whether this campaign may run now
  // (disjoint resource classes), must wait (conflict / quota / global
  // concurrency), or is rejected outright (queued-campaign quota).
  const ResourceMask resources = resources_for(request);
  CampaignQueue::Rejection rejection;
  std::unique_ptr<CampaignQueue::Ticket> ticket;
  {
    obs::TimelineProfiler::Scope admission(&profiler_, obs::Phase::kAdmission);
    ticket = queue_.submit(request.client, request.priority, resources,
                           &rejection, request.name);
  }
  if (ticket == nullptr) {
    session_out << "preempted-by-quota client " << request.client
                << " campaign " << request.name << '\n';
    reply_error(session_out, rejection.code, rejection.message, "run");
    session_out.flush();
    return;
  }

  // From here on every line the campaign writes flows through its bounded
  // outbox: record/progress lines are subject to backpressure (and dropped
  // after an abort), events and replies always get through. The real
  // session stream is only touched by the outbox's writer thread.
  SessionOutbox outbox(session_out, config_.outbox_capacity);
  OutboxStream out(outbox);

  auto cancel = std::make_shared<CancelState>();
  cancel->name = request.name;
  cancel->deadline_ns =
      request.deadline_ms == 0
          ? 0
          : profiler_.now() + request.deadline_ms * 1'000'000ull;
  cancel->outbox = &outbox;
  {
    std::lock_guard lock(active_mutex_);
    active_.push_back(cancel);
  }
  // Unregisters the cancel handle BEFORE the outbox dies (the abort command
  // dereferences state->outbox only for registered handles, under the same
  // lock), then folds the outbox's flow-control accounting into the totals.
  struct ActiveGuard {
    CampaignService& service;
    std::shared_ptr<CancelState> state;
    SessionOutbox& outbox;
    ~ActiveGuard() {
      {
        std::lock_guard lock(service.active_mutex_);
        state->outbox = nullptr;
        auto& active = service.active_;
        active.erase(std::remove(active.begin(), active.end(), state),
                     active.end());
      }
      outbox.close();
      const SessionOutbox::Stats stats = outbox.stats();
      std::lock_guard lock(service.totals_mutex_);
      std::uint64_t& peak = service.totals_[Metric::kOutboxPeakDepth];
      peak = std::max<std::uint64_t>(peak, stats.high_water);
      service.totals_[Metric::kOutboxBlockedTotal] += stats.blocked;
      service.totals_[Metric::kOutboxDroppedTotal] += stats.dropped;
    }
  } active_guard{*this, cancel, outbox};

  const std::uint64_t id = next_campaign_id_.fetch_add(1);
  cancel->id = id;
  std::size_t expected_records = 0;  // one per job
  std::size_t shard_count = 0;
  const std::string plan_cache_key = plan_key(request);
  std::shared_ptr<const std::vector<ExperimentJob>> compiled;
  {
    // Request expansion and shard sizing — the first `schedule` span; the
    // sharded path records another around its plan proper. Nested inside it,
    // a `plan` span labelled hit/miss covers the compiled-plan checkout
    // (compile time lands inside it on a miss).
    obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                          obs::TimelineProfiler::kInheritParent,
                                          "expand");
    const std::uint64_t plan_start = profiler_.now();
    bool compiled_here = false;
    compiled = plan_cache_.checkout(plan_cache_key, [&] {
      compiled_here = true;
      return request.to_campaign().jobs();
    });
    profiler_.record(obs::Phase::kPlan, plan_start, profiler_.now(),
                     schedule.id(), compiled_here ? "miss" : "hit");
    expected_records = compiled->size();
    // Never more shards than jobs; a surplus would only spawn idle workers.
    shard_count = std::min(request.shards, expected_records);
  }

  // The header goes out before admission completes, so a queued client
  // knows its campaign id (and resource claim) while it waits.
  out << "ok campaign " << id << " jobs " << expected_records << " records "
      << expected_records << " shards "
      << std::max<std::size_t>(1, shard_count) << " resources "
      << resources_to_string(resources) << " priority " << request.priority
      << " client " << request.client << '\n';
  out.flush();

  bool started = false;
  std::string queue_cancel;
  {
    // Time spent behind conflicting campaigns / quotas. Recorded even when
    // admission was immediate (a near-zero span documents the fast path).
    obs::TimelineProfiler::Scope queue_wait(&profiler_, obs::Phase::kQueueWait);
    started = ticket->wait(
        [&](std::size_t position) {
          out << "queued " << position << '\n';
          out.flush();
        },
        [&] {
          queue_cancel = cancel_code(*cancel);
          return !queue_cancel.empty();
        });
  }
  if (!started) {
    // Cancelled while still queued: the campaign never claimed resources —
    // report the eviction and release the ticket's queue slot.
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root.id(), queue_cancel);
    note_cancelled(queue_cancel);
    out << queue_cancel << " campaign " << id << '\n';
    out << "error " << queue_cancel << " campaign " << id
        << " cancelled while queued\n";
    out.flush();
    root.close();
    finish_campaign_profile(root.id(), id, request.name, request.client);
    return;
  }
  {
    std::lock_guard lock(totals_mutex_);
    // Bounded start history (the queue tests assert admission order on it;
    // stats introspection reads it) — a long-lived daemon must not grow it
    // per campaign forever.
    if (start_log_.size() >= kStartLogCapacity) {
      start_log_.erase(start_log_.begin());
    }
    start_log_.push_back(request.name);
  }
  out << "started campaign " << id << '\n';
  out.flush();

  // The campaign's follow journal: every record key in stream order, so a
  // disconnected client can replay the stream from the store later.
  const std::shared_ptr<CampaignJournal> journal =
      open_journal(id, request.name);

  // The cooperative stop hook the execution paths poll wherever stopping is
  // safe: between scheduler jobs, between remote shards, around the local
  // fallback. It never interrupts a measurement mid-flight.
  const orchestrator::StopFn should_stop = [this, cancel] {
    return cancel_code(*cancel);
  };

  // remote_only means sharded requests NEVER execute on this host — even
  // when the job count collapses the effective shard count to 1, the
  // single shard still goes to a remote worker (an operator running a
  // fleet daemon relies on that isolation; docs/operations.md).
  if (shard_count > 1 ||
      (config_.remote_only && request.shards > 1 && expected_records != 0)) {
    run_sharded(request, compiled, plan_cache_key, id,
                std::max<std::size_t>(1, shard_count), expected_records,
                root.id(), should_stop, journal.get(), out);
  } else {
    run_in_process(request, compiled, id, expected_records, root.id(),
                   should_stop, journal.get(), out);
  }
  {
    // A journal that reaches this point replayed every record the campaign
    // settled; follow replies report it as `complete` (a cancelled campaign
    // keeps whatever it streamed before the cut, marked `partial`).
    std::lock_guard lock(journal_mutex_);
    journal->complete = cancel_code(*cancel).empty();
  }
  // The root span closes here so the drain below sees it; the timeline,
  // phase totals and (optionally) the JSON artifact settle with it.
  root.close();
  finish_campaign_profile(root.id(), id, request.name, request.client);
  // `ticket` dies here: the resource claim is released and the next
  // conflicting campaign in the queue wakes up.
}

void CampaignService::run_in_process(
    const CampaignRequest& request,
    const std::shared_ptr<const std::vector<ExperimentJob>>& compiled,
    std::uint64_t id, std::size_t expected_records, std::uint64_t root_span,
    const orchestrator::StopFn& should_stop, CampaignJournal* journal,
    std::ostream& out) {
  JobQueue queue;
  orchestrator::push_jobs(queue, *compiled);

  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(request.options());
  std::mutex out_mutex;  // workers stream concurrently
  std::size_t streamed = 0;
  orchestrator::CampaignOutputs outputs;
  SchedulerLease lease(*this, request);
  // Per-job `execute` spans, parented under this campaign's root (worker
  // threads carry no inherited scope). The sink is cleared before the lease
  // returns the scheduler to the pool — the next campaign sets its own.
  lease.scheduler().set_profile_sink(&profiler_, root_span);
  struct SinkGuard {
    CampaignScheduler& scheduler;
    ~SinkGuard() { scheduler.set_profile_sink(nullptr); }
  } sink_guard{lease.scheduler()};
  try {
    outputs = lease.scheduler().run(
        queue, [&](const ExperimentJob& job, const MeasurementRecord& record,
                   bool /*from_cache*/) {
          // Record encoding + streamed write — a `serialize` span nested
          // under the job's `execute` span (the callback runs inside it).
          obs::TimelineProfiler::Scope serialize(
              &profiler_, obs::Phase::kSerialize,
              obs::TimelineProfiler::kInheritParent, "record");
          const orchestrator::CacheKey key =
              orchestrator::key_for_job(job, options_fp);
          const std::string entry =
              orchestrator::format_store_entry(key, record);
          // Journaled under the stream's lock, so a `follow` replays the
          // records in the order this stream wrote them.
          std::lock_guard lock(out_mutex);
          journal_append(journal, key);
          out << "record " << entry << '\n';
          ++streamed;
          out << "progress " << streamed << "/" << expected_records << '\n';
          out.flush();
        },
        should_stop);
  } catch (const orchestrator::CampaignStopped& e) {
    // The stop predicate fired between jobs: settled records kept their
    // cache entries, so a resubmit completes only the remainder.
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root_span, e.code());
    note_cancelled(e.code());
    count({{Metric::kRecordsStreamedTotal, streamed}});
    out << e.code() << " campaign " << id << '\n';
    out << "error " << e.code() << " campaign " << id << " records "
        << streamed << " of " << expected_records << " streamed before stop\n";
    return;
  } catch (const std::exception& e) {
    // The scheduler is poisoned only for this run; the next campaign gets a
    // fresh run() on the same pool.
    out << "error exec-failed campaign " << id << " failed: "
        << one_line(e.what()) << '\n';
    return;
  }

  count({{Metric::kCampaignsTotal, 1},
         {Metric::kRecordsStreamedTotal, streamed},
         {Metric::kJobsExecutedTotal, outputs.stats.jobs_executed},
         {Metric::kCacheHitsTotal, outputs.stats.cache_hits}});
  out << "done campaign " << id << " records " << streamed << " executed "
      << outputs.stats.jobs_executed << " hits " << outputs.stats.cache_hits
      << '\n';
}

void CampaignService::run_sharded(
    const CampaignRequest& request,
    const std::shared_ptr<const std::vector<ExperimentJob>>& compiled,
    const std::string& plan_cache_key, std::uint64_t id,
    std::size_t shard_count, std::size_t expected_records,
    std::uint64_t root_span, const orchestrator::StopFn& should_stop,
    CampaignJournal* journal, std::ostream& out) {
  const std::vector<ExperimentJob>& jobs = *compiled;
  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(request.options());

  // Warm-cache serving + shard planning are scheduling work — one `schedule`
  // span (nested under the campaign root, still open on this thread).
  obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                        obs::TimelineProfiler::kInheritParent,
                                        "plan-shards");

  // Serve every job the warm cache already holds before planning shards: a
  // sharded rerun streams its repeated points instantly and only the
  // missing jobs cost a worker.
  std::size_t streamed = 0;
  std::size_t warm_hits = 0;
  // Every entry line this campaign has streamed. A shard retried after its
  // worker died — or rerun on the local pool — replays records its first
  // attempt already shipped; the set keeps the client's record stream
  // exactly-once (identical keys carry bit-identical records, so the line
  // itself is the dedupe key).
  std::unordered_set<std::string> seen;
  std::vector<std::size_t> pending;  // job indices the workers must run
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const orchestrator::CacheKey key =
        orchestrator::key_for_job(jobs[i], options_fp);
    const std::optional<MeasurementRecord> hit = cache_.lookup(key);
    if (hit.has_value()) {
      const std::string entry = orchestrator::format_store_entry(key, *hit);
      seen.insert(entry);
      journal_append(journal, key);
      out << "record " << entry << '\n';
      ++streamed;
      ++warm_hits;
      out << "progress " << streamed << "/" << expected_records << '\n';
    } else {
      pending.push_back(i);
    }
  }
  out.flush();

  // Plan only the pending jobs; plan indices are positions in `pending`,
  // mapped back to campaign job indices for the workers.
  const std::size_t effective_shards =
      std::max<std::size_t>(1, std::min(shard_count, pending.size()));
  const auto plan_pending = [&] {
    std::vector<ExperimentJob> pending_jobs;
    pending_jobs.reserve(pending.size());
    for (const std::size_t index : pending) {
      pending_jobs.push_back(jobs[index]);
    }
    return plan_shards(pending_jobs, request.options(), effective_shards)
        .shard_groups;
  };
  // When the warm cache served nothing, `pending` is the full ascending
  // job list — exactly the partition the PlanCache memoizes per shard
  // count. Any warm hit shrinks the pending set, and the memo no longer
  // applies; plan fresh.
  std::shared_ptr<const std::vector<std::vector<std::size_t>>> memoized;
  if (pending.size() == jobs.size()) {
    memoized =
        plan_cache_.shard_partition(plan_cache_key, effective_shards,
                                    plan_pending);
  }
  const std::vector<std::vector<std::size_t>> planned =
      memoized == nullptr ? plan_pending()
                          : std::vector<std::vector<std::size_t>>{};
  const std::vector<std::vector<std::size_t>>& shard_groups =
      memoized == nullptr ? planned : *memoized;

  // Shard work lists: campaign job indices per non-empty shard. Which
  // transport runs them — remote workers over frames, or local workers
  // over tailed disk stores — is decided below; the plan is the same.
  std::vector<WorkerPool::ShardTask> tasks;
  for (std::size_t shard = 0; shard < shard_groups.size(); ++shard) {
    if (shard_groups[shard].empty()) {
      continue;
    }
    WorkerPool::ShardTask task;
    task.shard_index = shard;
    for (const std::size_t pending_index : shard_groups[shard]) {
      task.groups.push_back(pending[pending_index]);
    }
    tasks.push_back(std::move(task));
  }
  schedule.close();

  std::size_t merged = 0;
  std::size_t remote_executed = 0;
  std::size_t retries = 0;
  std::string failure;
  bool remote = false;
  std::vector<WorkerPool::ShardTask> local_tasks = tasks;
  if (!tasks.empty() &&
      (config_.remote_only || registry_.idle_count() > 0)) {
    // Remote transport: connected `ao_worker --connect` processes exchange
    // stores over their sockets — no shared filesystem. Falls back to the
    // local path (returns false) when every worker was snatched by a
    // concurrent campaign, unless remote_only forbids it.
    std::vector<WorkerPool::ShardTask> leftover;
    remote = run_shards_remote(request, tasks, expected_records, root_span,
                               should_stop, journal, &seen, &streamed,
                               &merged, &remote_executed, &retries, &leftover,
                               &failure, out);
    if (remote) {
      if (config_.remote_only) {
        // Leftover shards may not touch this host; report them (unless the
        // campaign was cancelled — then the cancel is the story).
        if (!leftover.empty() && failure.empty() &&
            (!should_stop || should_stop().empty())) {
          failure = "shard " + std::to_string(leftover.front().shard_index) +
                    " never ran (no healthy remote worker left; remote-only)";
        }
        local_tasks.clear();
      } else {
        // Shards that produced nothing remotely (a stale dead endpoint, a
        // worker lost before its first record) rerun on the local pool —
        // a flaky worker farm degrades to the local transport instead of
        // failing a campaign this daemon could run itself.
        local_tasks = std::move(leftover);
      }
    }
  }
  // Cancellation observed between the transports: leftover shards stay
  // unrun — the local pool has no mid-flight stop hook, so the check
  // happens before it launches anything.
  std::string stop_code = should_stop ? should_stop() : std::string{};
  if (!stop_code.empty()) {
    local_tasks.clear();
  }
  if (!local_tasks.empty()) {
    // Local transport: spawned processes (or threads) write per-shard disk
    // stores the service tails. The campaign id keeps concurrent sharded
    // campaigns' scratch files apart even when they share a name.
    const std::string base =
        config_.shard_dir + "/" + request.name + "-c" + std::to_string(id);
    std::vector<StoreTail> tails;
    for (WorkerPool::ShardTask& task : local_tasks) {
      task.store_path =
          base + "-shard" + std::to_string(task.shard_index) + ".aocache";
      std::remove(task.store_path.c_str());  // never tail a stale store
      tails.push_back({task.store_path, 0, task.shard_index, 0});
      out << "shard " << task.shard_index << " start local\n";
    }
    out.flush();
    const auto drain = [&] {
      for (StoreTail& tail : tails) {
        tail.poll([&](const std::string& line) {
          // Only structurally sound entries are streamed (the merge below
          // re-validates through ResultCache::load anyway), and only lines
          // no remote attempt of this shard already shipped.
          const auto parsed = orchestrator::parse_store_entry(line);
          if (parsed.has_value() && seen.insert(line).second) {
            journal_append(journal, parsed->first);
            out << "record " << line << '\n';
            ++streamed;
            ++tail.records;
            out << "progress " << streamed << "/" << expected_records
                << '\n';
          }
        });
      }
      out.flush();
    };

    WorkerPool pool(config_.worker_binary);
    const std::uint64_t shards_start_ns = profiler_.now();
    pool.start(request, base + ".request", local_tasks);
    while (pool.busy()) {
      drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const std::vector<WorkerPool::ShardOutcome> outcomes = pool.wait();
    const std::uint64_t shards_end_ns = profiler_.now();
    drain();  // the final records written between the last poll and exit
    // One `shard` span per local shard, measured manually: the pool's
    // workers run in their own processes, so start/end are observed from
    // this tail loop, not from inside the shard.
    for (const auto& task : local_tasks) {
      profiler_.record(obs::Phase::kShard, shards_start_ns, shards_end_ns,
                       root_span,
                       "shard-" + std::to_string(task.shard_index) + " local");
    }

    // Merge every produced store into the warm cache (merge_store
    // propagates the entries to the service's own persistent store) —
    // conflict-free by CacheKey (two shards never run the same job, and
    // identical keys carry bit-identical records). A failed shard's partial
    // store still merges: its finished points are real measurements.
    for (const auto& task : local_tasks) {
      merged += cache_.merge_store(task.store_path);
    }
    for (const auto& outcome : outcomes) {
      std::size_t records = 0;
      for (const StoreTail& tail : tails) {
        if (tail.shard_index == outcome.shard_index) {
          records = tail.records;
        }
      }
      if (outcome.exit_code == 0) {
        out << "shard " << outcome.shard_index << " done records " << records
            << " worker local\n";
      } else {
        out << "shard " << outcome.shard_index << " error exit "
            << outcome.exit_code;
        if (!outcome.error.empty()) {
          out << ' ' << one_line(outcome.error);
        }
        out << '\n';
        if (failure.empty()) {
          failure = "shard " + std::to_string(outcome.shard_index) +
                    " failed (exit " + std::to_string(outcome.exit_code) +
                    ")" + (outcome.error.empty() ? "" : ": " + outcome.error);
        }
      }
    }
    out.flush();
  }

  count({{Metric::kCampaignsTotal, 1},
         {Metric::kCampaignsShardedTotal, 1},
         {Metric::kRecordsStreamedTotal, streamed},
         {Metric::kCacheHitsTotal, warm_hits},
         {Metric::kMergedEntriesTotal, merged},
         {Metric::kRemoteShardsTotal, remote_executed},
         {Metric::kShardRetriesTotal, retries}});
  if (!failure.empty()) {
    out << "error exec-failed campaign " << id << " " << one_line(failure)
        << '\n';
    return;
  }
  if (!stop_code.empty()) {
    // Cancelled mid-campaign: everything streamed/merged so far is real and
    // kept (the warm cache makes a resubmit finish only the remainder).
    const std::uint64_t now = profiler_.now();
    profiler_.record(obs::Phase::kAbort, now, now, root_span, stop_code);
    note_cancelled(stop_code);
    out << stop_code << " campaign " << id << '\n';
    out << "error " << stop_code << " campaign " << id << " records "
        << streamed << " of " << expected_records << " streamed before stop\n";
    return;
  }
  out << "done campaign " << id << " records " << streamed << " merged "
      << merged << " hits " << warm_hits << " shards " << tasks.size();
  if (remote) {
    out << " remote " << remote_executed;
  }
  out << '\n';
}

bool CampaignService::run_shards_remote(
    const CampaignRequest& request,
    const std::vector<WorkerPool::ShardTask>& tasks,
    std::size_t expected_records, std::uint64_t root_span,
    const orchestrator::StopFn& should_stop, CampaignJournal* journal,
    std::unordered_set<std::string>* seen, std::size_t* streamed,
    std::size_t* merged, std::size_t* remote_executed,
    std::size_t* retries_used, std::vector<WorkerPool::ShardTask>* leftover,
    std::string* failure, std::ostream& out) {
  // Retire endpoints that stopped answering before handing out leases: a
  // worker that died while parked must not cost a shard its first attempt.
  registry_.heartbeat();

  // Check out one lease per shard when possible; fewer leases simply run
  // the task list sequentially per worker. remote_only waits for the first
  // worker to connect (a launch race is normal operations); otherwise only
  // already-idle workers are taken.
  std::vector<std::unique_ptr<WorkerRegistry::Lease>> leases;
  auto first = registry_.acquire(config_.remote_only ? config_.remote_wait_ms
                                                     : 0);
  if (first == nullptr) {
    if (!config_.remote_only) {
      return false;  // all workers got snatched; run the shards locally
    }
    *failure = "no remote workers connected (remote-only mode; waited " +
               std::to_string(config_.remote_wait_ms) + " ms)";
    return true;
  }
  leases.push_back(std::move(first));
  while (leases.size() < tasks.size()) {
    auto lease = registry_.acquire(0);
    if (lease == nullptr) {
      break;
    }
    leases.push_back(std::move(lease));
  }

  // Shared work state, guarded by work_mutex: the undispatched work list
  // (a shard enters more than once only after its endpoint died), the
  // per-campaign retry budget, and each shard's settlement. partial_lines
  // banks the entry lines every lost attempt managed to ship — they merge
  // below even when no retry succeeds.
  struct Work {
    std::size_t task = 0;
    std::size_t attempt = 0;
  };
  std::mutex work_mutex;
  std::deque<Work> work;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    work.push_back({i, 0});
  }
  std::size_t retries_left = request.shard_retries;
  std::vector<char> settled(tasks.size(), 0);
  std::vector<RemoteShardOutcome> outcomes(tasks.size());
  std::vector<std::vector<std::string>> partial_lines(tasks.size());

  // All client writes (records, progress, shard events) synchronize on
  // out_mutex; `seen` is guarded by it too.
  std::mutex out_mutex;
  const auto stream_line = [&](const std::string& line) {
    // Stream each entry the moment its frame arrives — unless an earlier
    // attempt of a retried shard already shipped it. The merge below
    // re-validates everything through merge_buffer anyway.
    const auto parsed = orchestrator::parse_store_entry(line);
    if (!parsed.has_value()) {
      return;
    }
    obs::TimelineProfiler::Scope serialize(
        &profiler_, obs::Phase::kSerialize,
        obs::TimelineProfiler::kInheritParent, "record");
    std::lock_guard lock(out_mutex);
    if (!seen->insert(line).second) {
      return;
    }
    journal_append(journal, parsed->first);
    out << "record " << line << '\n';
    ++*streamed;
    out << "progress " << *streamed << "/" << expected_records << '\n';
    out.flush();
  };

  // One driver per leased worker drains the work list. A driver whose
  // endpoint dies requeues the shard (budget permitting), retires the lease
  // and exits — the retry runs on a DIFFERENT worker: a surviving driver,
  // or a fresh lease from the round loop below.
  const auto drive = [&](WorkerRegistry::Lease* lease) {
    for (;;) {
      if (should_stop && !should_stop().empty()) {
        return;  // cancelled: leave the remaining work unrun
      }
      Work item;
      {
        std::lock_guard lock(work_mutex);
        if (work.empty()) {
          return;
        }
        item = work.front();
        work.pop_front();
      }
      const std::size_t i = item.task;
      {
        std::lock_guard lock(out_mutex);
        out << "shard " << tasks[i].shard_index
            << (item.attempt == 0 ? " start" : " retry") << " worker "
            << lease->name() << '\n';
        out.flush();
      }
      if (item.attempt != 0) {
        // A `retry` marker span under the campaign root: when and where the
        // shard was re-dispatched (the attempt's own time is its `shard`
        // span, as always).
        const std::uint64_t now = profiler_.now();
        profiler_.record(obs::Phase::kRetry, now, now, root_span,
                         "shard-" + std::to_string(tasks[i].shard_index) +
                             " worker " + lease->name());
      }
      // One `shard` span per remote round-trip, parented explicitly under
      // the campaign root (this driver thread has no inherited scope); the
      // conversation's `transport` span nests under it inside
      // run_remote_shard.
      obs::TimelineProfiler::Scope shard_span(
          &profiler_, obs::Phase::kShard, root_span,
          "shard-" + std::to_string(tasks[i].shard_index) + " worker " +
              lease->name());
      // The graft context stamps this endpoint's name on the worker spans
      // its `spans` frame ships and aligns their clocks with the registry's
      // heartbeat offset estimate (start-aligned when none exists yet).
      ShardGraft graft;
      graft.origin = lease->name();
      graft.has_clock_offset = lease->clock_offset(&graft.clock_offset_ns);
      RemoteShardOutcome outcome = run_remote_shard(
          lease->in(), lease->out(), request, tasks[i].shard_index,
          tasks[i].groups, stream_line, &profiler_, &graft);
      shard_span.close();
      if (!outcome.connection_lost) {
        // Done, or a clean shard-error over a healthy connection: the shard
        // is settled either way and this worker keeps serving.
        if (outcome.ok) {
          lease->note_shard_done();
        }
        {
          std::lock_guard lock(out_mutex);
          if (outcome.ok) {
            out << "shard " << outcome.shard_index << " done records "
                << outcome.records << " worker " << lease->name() << '\n';
          } else {
            out << "shard " << outcome.shard_index << " error "
                << one_line(outcome.error) << '\n';
          }
          out.flush();
        }
        std::lock_guard lock(work_mutex);
        settled[i] = 1;
        outcomes[i] = std::move(outcome);
        continue;
      }
      // The endpoint died mid-conversation. Bank the lines that made it
      // across, then spend one retry if the budget allows — otherwise the
      // shard settles as lost.
      bool retrying = false;
      {
        std::lock_guard lock(work_mutex);
        auto& bank = partial_lines[i];
        bank.insert(bank.end(), outcome.lines.begin(), outcome.lines.end());
        if (retries_left > 0) {
          --retries_left;
          ++*retries_used;
          work.push_back({i, item.attempt + 1});
          retrying = true;
        } else {
          settled[i] = 1;
          outcomes[i] = std::move(outcome);
        }
      }
      {
        std::lock_guard lock(out_mutex);
        out << "shard " << tasks[i].shard_index << " lost worker "
            << lease->name()
            << (retrying ? " rescheduling" : " retry-budget-exhausted")
            << '\n';
        out.flush();
      }
      lease->mark_failed();
      return;  // this endpoint (and driver) is done
    }
  };

  // Rounds: run the current leases to completion, then — when dead
  // endpoints left requeued work and no driver survived — lease whatever
  // healthy workers remain and go again. No healthy worker left ends the
  // loop with the work unrun (it surfaces through `leftover`).
  for (;;) {
    std::vector<std::thread> drivers;
    drivers.reserve(leases.size());
    for (auto& lease_ptr : leases) {
      drivers.emplace_back(drive, lease_ptr.get());
    }
    for (std::thread& driver : drivers) {
      driver.join();
    }
    leases.clear();  // healthy workers return to the idle pool
    std::size_t remaining = 0;
    {
      std::lock_guard lock(work_mutex);
      remaining = work.size();
    }
    if (remaining == 0 || (should_stop && !should_stop().empty())) {
      break;
    }
    registry_.heartbeat();  // don't lease an endpoint that just died parked
    while (leases.size() < remaining) {
      auto lease = registry_.acquire(0);
      if (lease == nullptr) {
        break;
      }
      leases.push_back(std::move(lease));
    }
    if (leases.empty()) {
      break;  // nobody left to run the remaining shards
    }
  }

  // Merge what each shard shipped. A completed shard's final `store` frame
  // is authoritative (byte-for-byte the store a local worker would have
  // written) and already covers any banked partial lines — merges are
  // idempotent by CacheKey, identical keys carry bit-identical records.
  // For everything else the banked partials merge (real measurements are
  // never discarded) and the shard either lands in `leftover` or reports a
  // structured failure.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto merge_lines = [&](const std::vector<std::string>& lines) {
      if (lines.empty()) {
        return;
      }
      std::string partial = orchestrator::store_header_line();
      partial += '\n';
      for (const std::string& line : lines) {
        partial += line;
        partial += '\n';
      }
      *merged += cache_.merge_buffer(partial);
    };
    if (!settled[i]) {
      // Never dispatched, or still requeued when the drivers ran out (or
      // the campaign was cancelled): the caller decides what happens next.
      merge_lines(partial_lines[i]);
      leftover->push_back(tasks[i]);
      continue;
    }
    const RemoteShardOutcome& outcome = outcomes[i];
    if (outcome.ok) {
      ++*remote_executed;
      *merged += cache_.merge_buffer(outcome.store);
      continue;
    }
    if (outcome.connection_lost) {
      // Every attempt's endpoint died and the retry budget is spent. Under
      // remote_only that is a structured failure — never a hang, never a
      // local run; otherwise the local pool gets the shard (the `seen` set
      // keeps its replayed records off the client stream).
      merge_lines(partial_lines[i]);
      if (config_.remote_only) {
        if (failure->empty()) {
          *failure = "shard " + std::to_string(outcome.shard_index) +
                     " failed (retry budget exhausted): " +
                     one_line(outcome.error);
        }
      } else {
        leftover->push_back(tasks[i]);
      }
      continue;
    }
    // The shard itself failed — a shard-error frame over a healthy
    // connection. A clean failure is deterministic, so rerunning it (on any
    // transport) would only fail again with a worse diagnostic: merge what
    // arrived and report the real error.
    merge_lines(partial_lines[i]);
    merge_lines(outcome.lines);
    if (failure->empty()) {
      *failure = "shard " + std::to_string(outcome.shard_index) +
                 " failed: " + one_line(outcome.error);
    }
  }
  return true;
}

// ----------------------------------------------------------- read path ----

namespace {

/// Query replies default to one modest page; the cap bounds what a single
/// command can make the daemon read back from disk.
constexpr std::size_t kDefaultQueryLimit = 64;
constexpr std::size_t kMaxQueryLimit = 4096;

/// Strict decimal parse (the query grammar's size/limit values); rejects
/// empty strings, signs and any non-digit.
bool parse_decimal_u64(const std::string& text, std::uint64_t* value) {
  if (text.empty() || text.size() > 20) {
    return false;
  }
  std::uint64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *value = parsed;
  return true;
}

/// Reverse of orchestrator::to_string(JobKind) — the `kind` filter values
/// are the documented job-kind names ("gemm-measure", "sme-gemm", ...).
std::optional<JobKind> job_kind_from_name(const std::string& name) {
  for (const JobKind kind : orchestrator::kAllJobKinds) {
    if (orchestrator::to_string(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

}  // namespace

std::shared_ptr<CampaignService::CampaignJournal> CampaignService::open_journal(
    std::uint64_t id, const std::string& name) {
  auto journal = std::make_shared<CampaignJournal>();
  journal->id = id;
  journal->name = name;
  std::lock_guard lock(journal_mutex_);
  journals_.push_back(journal);
  while (journals_.size() > kMaxJournals) {
    journals_.pop_front();
  }
  return journal;
}

void CampaignService::journal_append(CampaignJournal* journal,
                                     const orchestrator::CacheKey& key) {
  if (journal == nullptr) {
    return;
  }
  std::lock_guard lock(journal_mutex_);
  journal->keys.push_back(key);
}

std::shared_ptr<CampaignService::CampaignJournal> CampaignService::find_journal(
    const std::string& name) const {
  std::lock_guard lock(journal_mutex_);
  for (auto it = journals_.rbegin(); it != journals_.rend(); ++it) {
    if ((*it)->name == name) {
      return *it;
    }
  }
  return nullptr;
}

void CampaignService::note_query_span(std::uint64_t started_ns,
                                      const std::string& label) {
  // Read-path spans have no campaign root to ride into a timeline, so their
  // histogram observation settles here, directly.
  const std::uint64_t now = profiler_.now();
  profiler_.record(obs::Phase::kQuery, started_ns, now, 0, label);
  metrics_.observe(Metric::kPhaseDurationNs, now - started_ns, "query");
}

void CampaignService::reply_query(const std::vector<std::string>& words,
                                  const std::string& line, std::ostream& out) {
  const std::uint64_t started_ns = profiler_.now();
  orchestrator::QueryFilter filter;
  std::size_t limit = kDefaultQueryLimit;
  std::string cursor;
  for (std::size_t i = 1; i < words.size(); i += 2) {
    if (i + 1 >= words.size()) {
      reply_error(out, "bad-query", "filter '" + words[i] + "' needs a value",
                  line);
      return;
    }
    const std::string& keyword = words[i];
    const std::string& value = words[i + 1];
    std::uint64_t number = 0;
    if (keyword == "kind") {
      const auto kind = job_kind_from_name(value);
      if (!kind.has_value()) {
        reply_error(out, "bad-query", "unknown job kind: " + value, line);
        return;
      }
      filter.kind = *kind;
    } else if (keyword == "chip") {
      try {
        filter.chip = soc::chip_model_from_string(value);
      } catch (const std::exception&) {
        reply_error(out, "bad-query", "unknown chip: " + value, line);
        return;
      }
    } else if (keyword == "impl") {
      try {
        filter.impl = gemm_impl_from_string(value);
      } catch (const std::exception&) {
        reply_error(out, "bad-query", "unknown impl: " + value, line);
        return;
      }
    } else if (keyword == "size") {
      if (!parse_decimal_u64(value, &number)) {
        reply_error(out, "bad-query", "bad size: " + value, line);
        return;
      }
      filter.n_min = filter.n_max = number;
    } else if (keyword == "size-min") {
      if (!parse_decimal_u64(value, &number)) {
        reply_error(out, "bad-query", "bad size-min: " + value, line);
        return;
      }
      filter.n_min = number;
    } else if (keyword == "size-max") {
      if (!parse_decimal_u64(value, &number)) {
        reply_error(out, "bad-query", "bad size-max: " + value, line);
        return;
      }
      filter.n_max = number;
    } else if (keyword == "limit") {
      if (!parse_decimal_u64(value, &number) || number < 1 ||
          number > kMaxQueryLimit) {
        reply_error(out, "bad-query",
                    "limit must be in [1, " +
                        std::to_string(kMaxQueryLimit) + "]: " + value,
                    line);
        return;
      }
      limit = static_cast<std::size_t>(number);
    } else if (keyword == "cursor") {
      cursor = value;
    } else {
      reply_error(out, "bad-query", "unknown query filter: " + keyword, line);
      return;
    }
  }

  std::string code;
  const auto page = cache_.query(filter, limit, cursor, &code);
  if (!page.has_value()) {
    if (code == "stale-cursor") {
      count({{Metric::kStaleCursorsTotal, 1}});
    }
    reply_error(out, code,
                code == "no-store" ? "no write-through store attached"
                : code == "bad-cursor"
                    ? "unparseable cursor token"
                    : "cursor outlived a store rewrite; restart the query",
                line);
    return;
  }
  for (const std::string& entry : page->lines) {
    out << "query-record " << entry << '\n';
  }
  out << "query-page count " << page->lines.size() << " matched "
      << page->matched << " generation " << page->generation << " read "
      << page->entries_read << " cursor "
      << (page->exhausted ? std::string("end") : page->cursor) << '\n';
  count({{Metric::kQueriesTotal, 1},
         {Metric::kQueryRecordsTotal, page->lines.size()}});
  note_query_span(started_ns, "indexed read " +
                                  std::to_string(page->entries_read) + "/" +
                                  std::to_string(cache_.store_entries()) +
                                  " matched " +
                                  std::to_string(page->matched));
}

void CampaignService::reply_follow(const std::vector<std::string>& words,
                                   const std::string& line,
                                   std::ostream& out) {
  const std::uint64_t started_ns = profiler_.now();
  if (words.size() != 2 && !(words.size() == 4 && words[2] == "from")) {
    reply_error(out, "bad-request", "usage: follow <name> [from <cursor>]",
                line);
    return;
  }
  const std::string& name = words[1];
  if (!valid_campaign_name(name)) {
    reply_error(out, "bad-name", "invalid campaign name: " + name, line);
    return;
  }
  const std::shared_ptr<CampaignJournal> journal = find_journal(name);
  if (journal == nullptr) {
    reply_error(out, "unknown-campaign",
                "no retained record stream for campaign: " + name, line);
    return;
  }
  std::uint64_t journal_id = 0;
  std::vector<orchestrator::CacheKey> keys;
  bool complete = false;
  {
    // Snapshot under the lock; the replay below reads only the store, so a
    // still-running campaign keeps streaming while we serve the past.
    std::lock_guard lock(journal_mutex_);
    journal_id = journal->id;
    keys = journal->keys;
    complete = journal->complete;
  }
  std::uint64_t position = 0;
  if (words.size() == 4) {
    const auto cursor = decode_follow_cursor(words[3]);
    if (!cursor.has_value()) {
      reply_error(out, "bad-cursor", "unparseable follow cursor", line);
      return;
    }
    if (cursor->campaign_id != journal_id) {
      // A token from an older run of this name: its journal was superseded,
      // so replaying against the newer stream would duplicate or skip
      // records.
      count({{Metric::kStaleCursorsTotal, 1}});
      reply_error(out, "stale-cursor",
                  "cursor belongs to a superseded campaign run; restart the "
                  "follow",
                  line);
      return;
    }
    if (cursor->position > keys.size()) {
      reply_error(out, "bad-cursor", "cursor beyond the retained stream",
                  line);
      return;
    }
    position = cursor->position;
  }

  std::size_t sent = 0;
  for (std::size_t i = static_cast<std::size_t>(position); i < keys.size();
       ++i) {
    const auto entry = cache_.fetch_entry(keys[i]);
    if (!entry.has_value()) {
      count({{Metric::kStaleCursorsTotal, 1}});
      reply_error(out, "stale-cursor",
                  "record " + std::to_string(i) +
                      " is no longer retained (a store-less daemon evicted "
                      "it, or its store line is corrupt); restart the follow",
                  line);
      return;
    }
    // Each record carries the token that resumes AFTER it — the client
    // keeps the last token it read and never sees a record twice.
    out << "follow-record " << encode_follow_cursor(journal_id, i + 1) << ' '
        << *entry << '\n';
    ++sent;
  }
  out << "follow campaign " << journal_id << " name " << name << " records "
      << sent << " position " << keys.size() << " cursor "
      << encode_follow_cursor(journal_id, keys.size()) << " state "
      << (complete ? "complete" : "partial") << '\n';
  count({{Metric::kFollowsTotal, 1}, {Metric::kQueryRecordsTotal, sent}});
  note_query_span(started_ns,
                  "follow " + name + " records " + std::to_string(sent));
}

}  // namespace ao::service
