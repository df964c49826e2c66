#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ao::obs {

/// Every series the daemon exposes on its `stats` line, its Prometheus
/// exposition, or both. The enumerator order is the exposition's family
/// order; the one table in metrics.cpp (kMetricTable) holds each series'
/// `stats` token, family name, kind, label key and help text in `stats`
/// line order. Both names are protocol surface, documented in
/// docs/service.md and docs/observability.md and kept in sync by
/// check_markdown_links.py --glossary.
enum class Metric {
  // Counters — monotone lifetime totals.
  kCampaignsTotal,
  kCampaignsShardedTotal,
  kCampaignsAbortedTotal,
  kCampaignsDeadlineExpiredTotal,
  kQueueRejectedTotal,
  kJobsExecutedTotal,
  kCacheHitsTotal,
  kRecordsStreamedTotal,
  kMergedEntriesTotal,
  kRemoteShardsTotal,
  kShardRetriesTotal,
  kOutboxBlockedTotal,
  kOutboxDroppedTotal,
  kPlanCacheHitsTotal,
  kPlanCacheMissesTotal,
  kQueriesTotal,
  kQueryRecordsTotal,
  kFollowsTotal,
  kStaleCursorsTotal,
  // Gauges — point-in-time fleet state.
  kQueueDepth,
  kCampaignsRunning,
  kOutboxPeakDepth,
  kWorkersConnected,
  kWorkersIdle,
  kWorkerRttNs,          ///< labelled worker="<name>"
  kWorkerClockOffsetNs,  ///< labelled worker="<name>"
  // Histograms — observed per span.
  kPhaseDurationNs,  ///< labelled phase="<phase-name>"
  // `stats`-only gauges: no exposition family.
  kCacheEntries,
  kStoreEntries,
  kPeakRunning,
  kPlanCacheEntries,
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kPlanCacheEntries) + 1;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// The exposed family name ("ao_campaigns_total", ...); "" for a
/// `stats`-only series. Stable surface.
const char* metric_name(Metric metric);
MetricKind metric_kind(Metric metric);

/// One value per Metric: the daemon's lifetime counters, and the snapshot a
/// `stats` or `metrics` reply renders.
class MetricValues {
 public:
  std::uint64_t& operator[](Metric metric) {
    return values_[static_cast<std::size_t>(metric)];
  }
  std::uint64_t operator[](Metric metric) const {
    return values_[static_cast<std::size_t>(metric)];
  }

 private:
  std::array<std::uint64_t, kMetricCount> values_{};
};

/// The aggregate `stats` reply line: "stats" followed by one
/// "<token> <value>" pair per series that has a `stats` token, in table
/// order, newline-terminated.
std::string render_stats_line(const MetricValues& values);

/// Scrape-time metric store + Prometheus text renderer.
///
/// Counters and gauges are *set* to their current value at scrape time
/// (the daemon's lifetime counters are already monotone, so the rendered
/// counters are too); histograms accumulate observations as spans
/// complete. Labelled families (worker=..., phase=...) hold one sample per
/// label value. Thread-safe.
class MetricsRegistry {
 public:
  /// Fixed histogram bucket upper bounds in nanoseconds (1µs … 10s); an
  /// implicit +Inf bucket tops them off.
  static const std::vector<std::uint64_t>& histogram_buckets();

  /// Sets a counter/gauge sample. `label` is the label *value* (the key is
  /// implied by the family); "" addresses the unlabelled sample.
  void set(Metric metric, std::int64_t value, const std::string& label = {});

  /// Sets every unlabelled counter and gauge family from `values` in one
  /// step — what a scrape restates.
  void set_unlabelled(const MetricValues& values);

  /// Drops every sample of a labelled family — workers come and go, and a
  /// retired endpoint's gauge must not linger in the exposition.
  void clear(Metric metric);

  /// Swaps a labelled family's full sample set in one step under the
  /// registry lock. Scrape-time rebuilds of per-worker gauges go through
  /// this, not clear()+set(): concurrent scrapes on other session threads
  /// must never render the family half-rebuilt.
  void replace(Metric metric, std::map<std::string, std::int64_t> samples);

  /// Adds one observation to a histogram family sample.
  void observe(Metric metric, std::uint64_t value,
               const std::string& label = {});

  /// The full exposition: `# HELP`/`# TYPE` metadata for every family
  /// (samples only where data exists) in Prometheus/OpenMetrics text
  /// format, terminated by the OpenMetrics `# EOF` marker — the line
  /// protocol's end-of-reply sentinel for the `metrics` command.
  std::string render() const;

  struct Histogram {
    std::vector<std::uint64_t> buckets;  ///< counts per histogram_buckets()
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };

  /// A histogram family's samples by label value — `stats-phase` reads its
  /// per-phase count and sum from here.
  std::map<std::string, Histogram> histograms(Metric metric) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::int64_t> values_[kMetricCount];
  std::map<std::string, Histogram> histograms_[kMetricCount];
};

}  // namespace ao::obs
