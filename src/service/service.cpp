#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "orchestrator/store_index.hpp"
#include "service/shard_planner.hpp"
#include "service/worker_link.hpp"
#include "util/error.hpp"

namespace ao::service {

using obs::Metric;

namespace {

using orchestrator::ExperimentJob;
using orchestrator::JobKind;

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

/// One shard attempt's settlement window: how many records it settled and
/// when the first and the last of them did — the attempt's `merge` span.
struct SettleWindow {
  std::size_t records = 0;
  std::uint64_t first_ns = 0;
  std::uint64_t last_ns = 0;

  void note(std::uint64_t now_ns) {
    if (records++ == 0) {
      first_ns = now_ns;
    }
    last_ns = now_ns;
  }

  /// Records the `merge` span under `parent`; an attempt that settled
  /// nothing merged nothing and records none.
  void record_merge(obs::TimelineProfiler& profiler, std::uint64_t parent,
                    const char* label) const {
    if (records != 0) {
      profiler.record(obs::Phase::kMerge, first_ns, last_ns, parent, label);
    }
  }
};

}  // namespace

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
  // campaign was still running live there. Both lists are in id order.
  if (!orphan_spans_.empty()) {
    const auto middle = spans.insert(
        spans.end(), std::make_move_iterator(orphan_spans_.begin()),
        std::make_move_iterator(orphan_spans_.end()));
    std::inplace_merge(
        spans.begin(), middle, spans.end(),
        [](const obs::Span& a, const obs::Span& b) { return a.id < b.id; });
  }
  std::vector<obs::Span> mine = obs::split_subtree(spans, root_span);

  // Everything left belongs to a concurrent campaign that has not finished
  // yet — keep it (newest first under the cap) for that campaign's own
  // finish, in a vector of its own size: the drained one held this
  // campaign's spans too.
  if (spans.size() > kMaxOrphanSpans) {
    spans.erase(spans.begin(), spans.end() - static_cast<std::ptrdiff_t>(
                                                 kMaxOrphanSpans));
  }
  spans.shrink_to_fit();
  orphan_spans_ = std::move(spans);

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
  // driver threads.
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

  // The cooperative stop hook, polled wherever stopping is safe: before
  // each job of the warm pass, on each record a shard ships, and between
  // shards. It never interrupts a measurement mid-flight.
  const orchestrator::StopFn should_stop = [this, cancel] {
    return cancel_code(*cancel);
  };

  // Every campaign runs as shards; a `shards 1` request is a shard of one
  // on a local endpoint (run_shards decides placement).
  run_sharded(request, compiled, plan_cache_key, id, shard_count,
              expected_records, root.id(), should_stop, journal.get(), out);
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

CampaignService::WarmPass CampaignService::serve_warm(
    const std::vector<ExperimentJob>& jobs, std::uint64_t options_fp,
    std::size_t expected_records, const orchestrator::StopFn& should_stop,
    CampaignJournal* journal, KeySet& seen, std::ostream& out) {
  obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                        obs::TimelineProfiler::kInheritParent,
                                        "warm");
  WarmPass pass;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (should_stop) {
      pass.stop_code = should_stop();
      if (!pass.stop_code.empty()) {
        break;
      }
    }
    const orchestrator::CacheKey key =
        orchestrator::key_for_job(jobs[i], options_fp);
    const std::optional<std::string> entry = cache_.lookup_entry(key);
    if (!entry.has_value()) {
      pass.pending.push_back(i);
      continue;
    }
    seen.insert(key);
    journal_append(journal, key);
    out << "record " << *entry << '\n';
    ++pass.hits;
    out << "progress " << pass.hits << "/" << expected_records << '\n';
  }
  out.flush();
  return pass;
}

void CampaignService::report_stopped(const std::string& code, std::uint64_t id,
                                     std::size_t streamed,
                                     std::size_t expected_records,
                                     std::uint64_t root_span,
                                     std::ostream& out) {
  const std::uint64_t now = profiler_.now();
  profiler_.record(obs::Phase::kAbort, now, now, root_span, code);
  note_cancelled(code);
  out << code << " campaign " << id << '\n';
  out << "error " << code << " campaign " << id << " records " << streamed
      << " of " << expected_records << " streamed before stop\n";
}

void CampaignService::settle_record(const orchestrator::CacheKey& key,
                                    const std::string& line,
                                    CampaignJournal* journal,
                                    std::size_t& streamed,
                                    std::size_t expected_records,
                                    std::ostream& out) {
  cache_.insert_entry(key, line);
  journal_append(journal, key);
  out << "record " << line << '\n';
  ++streamed;
  out << "progress " << streamed << "/" << expected_records << '\n';
  out.flush();
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

  // Serve every job the warm cache already holds before planning shards: a
  // rerun streams its repeated points instantly and only the missing jobs
  // cost a worker; a fully warm replay plans no shard at all. Every key
  // this campaign has streamed goes into `seen`: a shard retried after its
  // endpoint died replays records its first attempt already shipped; the
  // set keeps the client's record stream and the store exactly-once
  // (identical keys carry bit-identical records).
  KeySet seen;
  const WarmPass warm = serve_warm(jobs, options_fp, expected_records,
                                   should_stop, journal, seen, out);
  std::size_t streamed = warm.hits;
  if (!warm.stop_code.empty()) {
    count({{Metric::kRecordsStreamedTotal, streamed}});
    report_stopped(warm.stop_code, id, streamed, expected_records, root_span,
                   out);
    return;
  }
  const std::vector<std::size_t>& pending = warm.pending;
  std::size_t merged = 0;

  // Shard planning is scheduling work — one `schedule` span (nested under
  // the campaign root, still open on this thread).
  obs::TimelineProfiler::Scope schedule(&profiler_, obs::Phase::kSchedule,
                                        obs::TimelineProfiler::kInheritParent,
                                        "plan-shards");

  // A shard record's entry line is parsed once — the trust boundary — and
  // its first arrival settles the same bytes. Returns false for a malformed
  // line or an already settled key. All client writes synchronize on
  // out_mutex — shard drivers settle concurrently — and so does `seen`.
  std::mutex out_mutex;
  const SettleFn settle = [&](const std::string& line) {
    const auto parsed = orchestrator::parse_store_entry(line);
    if (!parsed.has_value()) {
      return false;
    }
    std::lock_guard lock(out_mutex);
    if (!seen.insert(parsed->first).second) {
      return false;
    }
    settle_record(parsed->first, line, journal, streamed, expected_records,
                  out);
    ++merged;
    return true;
  };

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

  // Shard work lists: campaign job indices per non-empty shard.
  std::vector<ShardTask> tasks;
  for (std::size_t shard = 0; shard < shard_groups.size(); ++shard) {
    if (shard_groups[shard].empty()) {
      continue;
    }
    ShardTask task;
    task.shard_index = shard;
    for (const std::size_t pending_index : shard_groups[shard]) {
      task.groups.push_back(pending[pending_index]);
    }
    tasks.push_back(std::move(task));
  }
  schedule.close();

  ShardRun run;
  if (!tasks.empty()) {
    run = run_shards(request, tasks, root_span, should_stop, settle,
                     out_mutex, out);
  }
  count({{Metric::kCampaignsTotal, 1},
         {Metric::kCampaignsShardedTotal, tasks.empty() ? 0u : 1u},
         {Metric::kRecordsStreamedTotal, streamed},
         {Metric::kCacheHitsTotal, warm.hits},
         {Metric::kJobsExecutedTotal, run.executed},
         {Metric::kMergedEntriesTotal, merged},
         {Metric::kRemoteShardsTotal, run.remote_executed},
         {Metric::kShardRetriesTotal, run.retries}});
  if (!run.failure.empty()) {
    out << "error exec-failed campaign " << id << " " << one_line(run.failure)
        << '\n';
    return;
  }
  const std::string stop_code = should_stop ? should_stop() : std::string{};
  if (!stop_code.empty()) {
    // Cancelled mid-campaign: everything streamed/merged so far is real and
    // kept (the warm cache makes a resubmit finish only the remainder).
    report_stopped(stop_code, id, streamed, expected_records, root_span, out);
    return;
  }
  out << "done campaign " << id << " records " << streamed << " merged "
      << merged << " hits " << warm.hits << " shards " << tasks.size();
  if (run.leased) {
    out << " remote " << run.remote_executed;
  }
  out << '\n';
}

CampaignService::ShardRun CampaignService::run_shards(
    const CampaignRequest& request, const std::vector<ShardTask>& tasks,
    std::uint64_t root_span, const orchestrator::StopFn& should_stop,
    const SettleFn& settle, std::mutex& out_mutex, std::ostream& out) {
  ShardRun run;
  // Placement: a `shards 1` request is a shard of one on a local endpoint —
  // it never leases a remote worker, and remote_only does not apply to it.
  // A `shards > 1` request leases, even when it collapsed to one shard: one
  // lease per shard when possible, and fewer leases simply run the task
  // list sequentially per worker. remote_only waits for the first worker to
  // connect (a launch race is normal operations); otherwise only
  // already-idle workers are taken, and none means local endpoints.
  const bool may_lease = request.shards > 1;
  const bool remote_only = may_lease && config_.remote_only;
  if (may_lease) {
    // Retire endpoints that stopped answering before handing out leases: a
    // worker that died while parked must not cost a shard its first attempt.
    registry_.heartbeat();
  }
  std::vector<std::unique_ptr<WorkerRegistry::Lease>> leases;
  for (int wait_ms = remote_only ? config_.remote_wait_ms : 0;
       may_lease && leases.size() < tasks.size(); wait_ms = 0) {
    auto lease = registry_.acquire(wait_ms);
    if (lease == nullptr) {
      break;
    }
    leases.push_back(std::move(lease));
  }
  if (leases.empty() && remote_only) {
    run.failure = "no remote workers connected (remote-only mode; waited " +
                  std::to_string(config_.remote_wait_ms) + " ms)";
    return run;
  }
  std::size_t locals = leases.empty() ? tasks.size() : 0;

  // Local endpoints with no worker binary are threads on this profiler's
  // clock, and a child process reads the same steady clock the default
  // profiler does — either way their span timestamps need no alignment.
  WorkerSessionOptions local_options;
  if (config_.worker_binary.empty()) {
    local_options.clock = config_.profile_clock;
  }
  const bool local_clock_shared =
      config_.worker_binary.empty() || !config_.profile_clock;
  std::atomic<std::size_t> next_local{0};

  // Shared work state, guarded by work_mutex: the undispatched work list
  // (a shard enters more than once only after its endpoint died), the
  // per-campaign retry budget, and each shard's settlement.
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

  // One driver per endpoint drains the work list; it returns true once the
  // list is empty (or the campaign stopped). A driver whose endpoint dies
  // requeues the shard (budget permitting), retires the endpoint and
  // returns false — the retry runs on a DIFFERENT endpoint: a surviving
  // driver, a fresh local endpoint, or a fresh lease from the round loop
  // below.
  const auto drive = [&](auto& endpoint) {
    constexpr bool kRemote = std::is_same_v<
        std::remove_reference_t<decltype(endpoint)>, WorkerRegistry::Lease>;
    for (;;) {
      if (should_stop && !should_stop().empty()) {
        return true;  // cancelled: leave the remaining work unrun
      }
      Work item;
      {
        std::lock_guard lock(work_mutex);
        if (work.empty()) {
          return true;
        }
        item = work.front();
        work.pop_front();
      }
      const std::size_t i = item.task;
      const std::string shard_label = "shard-" +
                                      std::to_string(tasks[i].shard_index) +
                                      " worker " + endpoint.name();
      {
        std::lock_guard lock(out_mutex);
        out << "shard " << tasks[i].shard_index
            << (item.attempt == 0 ? " start" : " retry") << " worker "
            << endpoint.name() << '\n';
        out.flush();
      }
      if (item.attempt != 0) {
        // A `retry` marker span under the campaign root: when and where the
        // shard was re-dispatched (the attempt's own time is its `shard`
        // span, as always).
        const std::uint64_t now = profiler_.now();
        profiler_.record(obs::Phase::kRetry, now, now, root_span, shard_label);
      }
      // One `shard` span per round-trip, parented explicitly under the
      // campaign root (this driver thread has no inherited scope); the
      // conversation's `transport` span nests under it inside
      // run_remote_shard.
      obs::TimelineProfiler::Scope shard_span(&profiler_, obs::Phase::kShard,
                                              root_span, shard_label);
      // The graft context stamps this endpoint's name on the worker spans
      // its `spans` frame ships and aligns their clocks: a remote worker by
      // the registry's heartbeat offset estimate (start-aligned when none
      // exists yet), a local one by the clock it shares with this daemon.
      ShardGraft graft;
      graft.origin = endpoint.name();
      if constexpr (kRemote) {
        graft.has_clock_offset = endpoint.clock_offset(&graft.clock_offset_ns);
      } else {
        graft.has_clock_offset = local_clock_shared;
      }
      // Each entry settles the moment its frame arrives; the attempt's
      // `merge` span covers the window they settled in. The stop is checked
      // on every arrival, so a campaign stops between jobs inside a shard:
      // once it fires nothing more settles, and a local endpoint is
      // abandoned mid-shard (a remote lease runs its conversation out and
      // stops between shards).
      SettleWindow window;
      bool stopped = false;
      const auto on_record = [&](const std::string& line) {
        if (!stopped && should_stop && !should_stop().empty()) {
          stopped = true;
          if constexpr (!kRemote) {
            endpoint.abandon();
          }
        }
        if (!stopped && settle(line)) {
          window.note(profiler_.now());
        }
      };
      RemoteShardOutcome outcome = run_remote_shard(
          endpoint.in(), endpoint.out(), request, tasks[i].shard_index,
          tasks[i].groups, on_record, &profiler_, &graft);
      shard_span.close();
      window.record_merge(profiler_, root_span, "wire");
      {
        std::lock_guard lock(work_mutex);
        run.executed += outcome.records;
      }
      if (stopped || (outcome.connection_lost && should_stop &&
                      !should_stop().empty())) {
        // A stop is never a lost worker: the shard stays unsettled, with no
        // event and no retry spent. A broken connection is retired all the
        // same.
        if (outcome.connection_lost) {
          endpoint.mark_failed();
        }
        return true;
      }
      if (!outcome.connection_lost) {
        // Done, or a clean shard-error over a healthy connection: the shard
        // is settled either way and this endpoint keeps serving.
        {
          std::lock_guard lock(out_mutex);
          if (outcome.ok) {
            out << "shard " << outcome.shard_index << " done records "
                << outcome.records << " worker " << endpoint.name() << '\n';
          } else {
            out << "shard " << outcome.shard_index << " error "
                << one_line(outcome.error) << '\n';
          }
          out.flush();
        }
        std::lock_guard lock(work_mutex);
        if constexpr (kRemote) {
          if (outcome.ok) {
            endpoint.note_shard_done();
            ++run.remote_executed;
          }
        }
        settled[i] = 1;
        outcomes[i] = std::move(outcome);
        continue;
      }
      // The endpoint died mid-conversation (the records that made it across
      // are settled already). Spend one retry if the budget allows —
      // otherwise the shard settles as lost.
      bool retrying = false;
      {
        std::lock_guard lock(work_mutex);
        if (retries_left > 0) {
          --retries_left;
          ++run.retries;
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
            << endpoint.name()
            << (retrying ? " rescheduling" : " retry-budget-exhausted")
            << '\n';
        out.flush();
      }
      endpoint.mark_failed();
      return false;  // this endpoint is done
    }
  };

  // Rounds: run the current endpoints to completion, then — when dead
  // endpoints left requeued work — lease whatever healthy remote workers
  // remain, or spawn fresh local endpoints, and go again. Local endpoints
  // live inside their driver threads: each spawns, answers the hello and is
  // reaped there, in parallel with its siblings, and a driver whose local
  // endpoint died replaces it while work is left.
  for (;;) {
    run.leased = run.leased || !leases.empty();
    std::vector<std::thread> drivers;
    drivers.reserve(leases.size() + locals);
    for (auto& lease : leases) {
      drivers.emplace_back([&drive, &lease] { drive(*lease); });
    }
    for (; locals > 0; --locals) {
      drivers.emplace_back([&] {
        for (;;) {
          LocalEndpoint endpoint(config_.worker_binary,
                                 "local-" + std::to_string(next_local++),
                                 local_options);
          if (drive(endpoint)) {
            return;
          }
          std::lock_guard lock(work_mutex);
          if (work.empty()) {
            return;
          }
        }
      });
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
    if (may_lease) {
      registry_.heartbeat();  // don't lease an endpoint that just died parked
      while (leases.size() < remaining) {
        auto lease = registry_.acquire(0);
        if (lease == nullptr) {
          break;
        }
        leases.push_back(std::move(lease));
      }
    }
    if (leases.empty()) {
      if (remote_only) {
        break;  // nobody left to run the remaining shards
      }
      locals = remaining;
    }
  }

  // Every record that arrived is settled; what remains is each shard's
  // verdict (a cancelled campaign's unrun shards are the cancel's story).
  for (std::size_t i = 0; i < tasks.size() && run.failure.empty(); ++i) {
    const RemoteShardOutcome& outcome = outcomes[i];
    if (!settled[i]) {
      if (!should_stop || should_stop().empty()) {
        run.failure =
            "shard " + std::to_string(tasks[i].shard_index) +
            " never ran (no healthy remote worker left; remote-only)";
      }
    } else if (outcome.connection_lost) {
      // Every attempt's endpoint died and the retry budget is spent: a
      // structured failure — never a hang.
      run.failure = "shard " + std::to_string(outcome.shard_index) +
                    " failed (retry budget exhausted): " +
                    one_line(outcome.error);
    } else if (!outcome.ok) {
      // The shard itself failed — a shard-error frame over a healthy
      // connection. A clean failure is deterministic, so rerunning it would
      // only fail again with a worse diagnostic: report the real error.
      run.failure = "shard " + std::to_string(outcome.shard_index) +
                    " failed: " + one_line(outcome.error);
    }
  }
  return run;
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
