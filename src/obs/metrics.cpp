#include "obs/metrics.hpp"

#include <algorithm>
#include <array>

namespace ao::obs {
namespace {

/// One exposed series: its `stats` token ("" = not on the `stats` line),
/// its Prometheus family ("" = not exposed), kind, label key ("" =
/// unlabelled) and help text.
struct MetricDef {
  Metric metric;
  const char* stats_token;
  const char* family;
  MetricKind kind;
  const char* label_key;
  const char* help;
};

using enum Metric;
using enum MetricKind;

// The one series table, in `stats` line order; the exposition renders in
// Metric order. Tokens and family names are protocol surface:
// docs/service.md lists every token in this order and
// docs/observability.md every family, and CI enforces both
// (check_markdown_links.py --glossary reads this initializer).
constexpr std::array<MetricDef, kMetricCount> kMetricTable = {{
    {kCampaignsTotal, "campaigns", "ao_campaigns_total", kCounter, "",
     "Campaigns completed since daemon start."},
    {kCampaignsShardedTotal, "sharded", "ao_campaigns_sharded_total", kCounter,
     "", "Completed campaigns that ran sharded."},
    {kRecordsStreamedTotal, "records", "ao_records_streamed_total", kCounter,
     "", "Measurement records streamed to clients."},
    {kJobsExecutedTotal, "executed", "ao_jobs_executed_total", kCounter, "",
     "Jobs executed by schedulers (local and worker-side)."},
    {kCacheHitsTotal, "hits", "ao_cache_hits_total", kCounter, "",
     "Jobs served from the warm result cache."},
    {kMergedEntriesTotal, "merged", "ao_merged_entries_total", kCounter, "",
     "Distinct shard records settled into the warm cache."},
    {kCacheEntries, "cache-entries", "", kGauge, "",
     "Entries in the warm result cache."},
    {kStoreEntries, "store-entries", "", kGauge, "",
     "Entry lines in the attached result store."},
    {kCampaignsRunning, "running", "ao_campaigns_running", kGauge, "",
     "Campaigns currently running."},
    {kQueueDepth, "queued", "ao_queue_depth", kGauge, "",
     "Campaigns waiting in the admission queue."},
    {kPeakRunning, "peak", "", kGauge, "",
     "Most campaigns ever running at once."},
    {kQueueRejectedTotal, "rejected", "ao_queue_rejected_total", kCounter, "",
     "Campaign submissions rejected at admission."},
    {kRemoteShardsTotal, "remote-shards", "ao_remote_shards_total", kCounter,
     "", "Shards executed on remote workers."},
    {kWorkersConnected, "workers", "ao_workers_connected", kGauge, "",
     "Remote worker endpoints currently connected."},
    {kWorkersIdle, "idle-workers", "ao_workers_idle", kGauge, "",
     "Connected remote workers currently idle."},
    {kCampaignsAbortedTotal, "aborted", "ao_campaigns_aborted_total", kCounter,
     "", "Campaigns cancelled by the abort command."},
    {kCampaignsDeadlineExpiredTotal, "deadline-expired",
     "ao_campaigns_deadline_expired_total", kCounter, "",
     "Campaigns cancelled by an expired deadline."},
    {kShardRetriesTotal, "shard-retries", "ao_shard_retries_total", kCounter,
     "", "Shards re-dispatched after a worker endpoint died."},
    {kOutboxPeakDepth, "outbox-peak", "ao_outbox_peak_depth", kGauge, "",
     "Largest session outbox depth seen."},
    {kOutboxBlockedTotal, "outbox-blocked", "ao_outbox_blocked_total", kCounter,
     "", "Times a session outbox filled and blocked its producer."},
    {kOutboxDroppedTotal, "outbox-dropped", "ao_outbox_dropped_total", kCounter,
     "", "Outbox lines discarded by campaign cancellation."},
    {kPlanCacheHitsTotal, "plan-hits", "ao_plan_cache_hits_total", kCounter, "",
     "Campaign checkouts served from the compiled plan cache."},
    {kPlanCacheMissesTotal, "plan-misses", "ao_plan_cache_misses_total",
     kCounter, "", "Campaign checkouts that had to compile their expansion."},
    {kPlanCacheEntries, "plan-entries", "", kGauge, "",
     "Compiled campaign expansions the plan cache retains."},
    {kQueriesTotal, "queries", "ao_queries_total", kCounter, "",
     "Store queries served through the secondary index."},
    {kQueryRecordsTotal, "query-records", "ao_query_records_total", kCounter,
     "", "Entry lines streamed by query and follow replies."},
    {kFollowsTotal, "follows", "ao_follows_total", kCounter, "",
     "Campaign record streams resumed via the follow command."},
    {kStaleCursorsTotal, "stale-cursors", "ao_stale_cursors_total", kCounter,
     "", "Reads rejected because their cursor outlived a store rewrite."},
    {kWorkerRttNs, "", "ao_worker_rtt_ns", kGauge, "worker",
     "Last heartbeat round-trip time per worker endpoint."},
    {kWorkerClockOffsetNs, "", "ao_worker_clock_offset_ns", kGauge, "worker",
     "Estimated worker-minus-daemon clock offset per endpoint."},
    {kPhaseDurationNs, "", "ao_phase_duration_ns", kHistogram, "phase",
     "Distribution of span durations per lifecycle phase."},
}};

/// kMetricTable's row index of each Metric.
constexpr std::array<std::size_t, kMetricCount> kRowOf = [] {
  std::array<std::size_t, kMetricCount> row{};
  row.fill(kMetricCount);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    row[static_cast<std::size_t>(kMetricTable[i].metric)] = i;
  }
  return row;
}();
static_assert(std::find(kRowOf.begin(), kRowOf.end(), kMetricCount) ==
                  kRowOf.end(),
              "every Metric needs exactly one kMetricTable row");

const MetricDef& def_of(Metric metric) {
  return kMetricTable[kRowOf[static_cast<std::size_t>(metric)]];
}

/// Prometheus label-value escaping: backslash, double quote, newline.
void append_label_value(std::string& out, const std::string& value) {
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

void append_sample_name(std::string& out, const char* family,
                        const char* suffix, const char* label_key,
                        const std::string& label_value,
                        const char* extra_key = nullptr,
                        const std::string& extra_value = {}) {
  out += family;
  out += suffix;
  const bool labelled = label_key[0] != '\0' && !label_value.empty();
  if (!labelled && extra_key == nullptr) {
    return;
  }
  out += '{';
  if (labelled) {
    out += label_key;
    out += "=\"";
    append_label_value(out, label_value);
    out += '"';
    if (extra_key != nullptr) {
      out += ',';
    }
  }
  if (extra_key != nullptr) {
    out += extra_key;
    out += "=\"";
    out += extra_value;
    out += '"';
  }
  out += '}';
}

}  // namespace

const char* metric_name(Metric metric) { return def_of(metric).family; }

MetricKind metric_kind(Metric metric) { return def_of(metric).kind; }

std::string render_stats_line(const MetricValues& values) {
  std::string out = "stats";
  for (const MetricDef& def : kMetricTable) {
    if (def.stats_token[0] != '\0') {
      out += ' ';
      out += def.stats_token;
      out += ' ';
      out += std::to_string(values[def.metric]);
    }
  }
  out += '\n';
  return out;
}

const std::vector<std::uint64_t>& MetricsRegistry::histogram_buckets() {
  static const std::vector<std::uint64_t> kBuckets = {
      1'000,          // 1µs
      10'000,         // 10µs
      100'000,        // 100µs
      1'000'000,      // 1ms
      10'000'000,     // 10ms
      100'000'000,    // 100ms
      1'000'000'000,  // 1s
      10'000'000'000  // 10s
  };
  return kBuckets;
}

void MetricsRegistry::set(Metric metric, std::int64_t value,
                          const std::string& label) {
  std::lock_guard lock(mutex_);
  values_[static_cast<std::size_t>(metric)][label] = value;
}

void MetricsRegistry::set_unlabelled(const MetricValues& values) {
  std::lock_guard lock(mutex_);
  for (const MetricDef& def : kMetricTable) {
    if (def.family[0] != '\0' && def.kind != kHistogram &&
        def.label_key[0] == '\0') {
      values_[static_cast<std::size_t>(def.metric)][""] =
          static_cast<std::int64_t>(values[def.metric]);
    }
  }
}

void MetricsRegistry::clear(Metric metric) {
  std::lock_guard lock(mutex_);
  values_[static_cast<std::size_t>(metric)].clear();
  histograms_[static_cast<std::size_t>(metric)].clear();
}

void MetricsRegistry::replace(Metric metric,
                              std::map<std::string, std::int64_t> samples) {
  std::lock_guard lock(mutex_);
  values_[static_cast<std::size_t>(metric)] = std::move(samples);
}

void MetricsRegistry::observe(Metric metric, std::uint64_t value,
                              const std::string& label) {
  const auto& bounds = histogram_buckets();
  std::lock_guard lock(mutex_);
  Histogram& h = histograms_[static_cast<std::size_t>(metric)][label];
  if (h.buckets.empty()) {
    h.buckets.assign(bounds.size(), 0);
  }
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (value <= bounds[i]) {
      ++h.buckets[i];
    }
  }
  ++h.count;
  h.sum += value;
}

std::map<std::string, MetricsRegistry::Histogram> MetricsRegistry::histograms(
    Metric metric) const {
  std::lock_guard lock(mutex_);
  return histograms_[static_cast<std::size_t>(metric)];
}

std::string MetricsRegistry::render() const {
  const auto& bounds = histogram_buckets();
  std::string out;
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const MetricDef& def = def_of(static_cast<Metric>(i));
    if (def.family[0] == '\0') {
      continue;
    }
    const char* name = def.family;
    const char* label_key = def.label_key;
    const MetricKind kind = def.kind;
    out += "# HELP ";
    out += name;
    out += ' ';
    out += def.help;
    out += "\n# TYPE ";
    out += name;
    out += kind == kCounter ? " counter\n"
                            : (kind == kGauge ? " gauge\n" : " histogram\n");
    if (kind == kHistogram) {
      for (const auto& [label, h] : histograms_[i]) {
        for (std::size_t b = 0; b < bounds.size(); ++b) {
          append_sample_name(out, name, "_bucket", label_key, label, "le",
                             std::to_string(bounds[b]));
          out += ' ' + std::to_string(h.buckets[b]) + '\n';
        }
        append_sample_name(out, name, "_bucket", label_key, label, "le",
                           "+Inf");
        out += ' ' + std::to_string(h.count) + '\n';
        append_sample_name(out, name, "_sum", label_key, label);
        out += ' ' + std::to_string(h.sum) + '\n';
        append_sample_name(out, name, "_count", label_key, label);
        out += ' ' + std::to_string(h.count) + '\n';
      }
      continue;
    }
    for (const auto& [label, value] : values_[i]) {
      append_sample_name(out, name, "", label_key, label);
      out += ' ' + std::to_string(value) + '\n';
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace ao::obs
