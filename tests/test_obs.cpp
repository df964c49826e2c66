#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span_codec.hpp"
#include "util/thread_pool.hpp"

namespace ao::obs {
namespace {

/// A deterministic clock: every reading advances by `step`. With step 1 a
/// span opened at reading t and closed at reading t+k has duration exactly k.
TimelineProfiler::ClockFn counter_clock(std::uint64_t step = 1) {
  auto ticks = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [ticks, step] { return ticks->fetch_add(step); };
}

// ------------------------------------------------------------ phase names --

TEST(ObsPhase, NamesRoundTrip) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const Phase phase = static_cast<Phase>(i);
    const auto back = phase_from_name(phase_name(phase));
    ASSERT_TRUE(back.has_value()) << phase_name(phase);
    EXPECT_EQ(*back, phase);
  }
  EXPECT_FALSE(phase_from_name("no-such-phase").has_value());
  EXPECT_FALSE(phase_from_name("").has_value());
}

// ---------------------------------------------------------------- nesting --

TEST(ObsProfiler, SameThreadScopesNestAutomatically) {
  TimelineProfiler profiler(counter_clock());
  {
    TimelineProfiler::Scope outer(&profiler, Phase::kCampaign, 0, "outer");
    TimelineProfiler::Scope middle(&profiler, Phase::kShard);
    TimelineProfiler::Scope inner(&profiler, Phase::kExecute);
    EXPECT_GT(middle.id(), outer.id());
    EXPECT_GT(inner.id(), middle.id());
  }
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // snapshot() is id-ordered: outer, middle, inner.
  EXPECT_EQ(spans[0].phase, Phase::kCampaign);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].label, "outer");
  EXPECT_EQ(spans[1].phase, Phase::kShard);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].phase, Phase::kExecute);
  EXPECT_EQ(spans[2].parent, spans[1].id);
}

TEST(ObsProfiler, ClosedScopeStopsParentingSiblings) {
  TimelineProfiler profiler(counter_clock());
  TimelineProfiler::Scope root(&profiler, Phase::kCampaign, 0);
  {
    TimelineProfiler::Scope first(&profiler, Phase::kSchedule);
  }
  TimelineProfiler::Scope second(&profiler, Phase::kExecute);
  second.close();
  root.close();
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Id order: root, first, second. Both children parent to the root, not
  // to each other.
  EXPECT_EQ(spans[0].id, root.id());
  EXPECT_EQ(spans[1].parent, root.id());
  EXPECT_EQ(spans[2].parent, root.id());
}

TEST(ObsProfiler, ExplicitParentCrossesThreads) {
  TimelineProfiler profiler(counter_clock());
  TimelineProfiler::Scope root(&profiler, Phase::kCampaign, 0, "root");
  const std::uint64_t root_id = root.id();
  std::thread worker([&profiler, root_id] {
    // The cross-thread handoff: the driver parents explicitly to the root,
    // and nested scopes on this thread then inherit from it.
    TimelineProfiler::Scope shard(&profiler, Phase::kShard, root_id, "s0");
    TimelineProfiler::Scope transport(&profiler, Phase::kTransport);
    EXPECT_GT(transport.id(), shard.id());
  });
  worker.join();
  root.close();
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  std::uint64_t shard_id = 0;
  for (const Span& span : spans) {
    if (span.phase == Phase::kShard) {
      shard_id = span.id;
      EXPECT_EQ(span.parent, root_id);
    }
  }
  for (const Span& span : spans) {
    if (span.phase == Phase::kTransport) {
      EXPECT_EQ(span.parent, shard_id);
    }
  }
}

TEST(ObsProfiler, ScopesOfDifferentProfilersDoNotCrossParent) {
  TimelineProfiler a(counter_clock());
  TimelineProfiler b(counter_clock());
  TimelineProfiler::Scope outer_a(&a, Phase::kCampaign, 0);
  // b has no open scope of its own: inheriting must yield top-level, not
  // a's campaign span.
  TimelineProfiler::Scope inner_b(&b, Phase::kExecute);
  inner_b.close();
  const auto spans = b.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);
}

TEST(ObsProfiler, NullProfilerScopesAreNoOps) {
  TimelineProfiler::Scope scope(nullptr, Phase::kExecute);
  EXPECT_EQ(scope.id(), 0u);
  scope.close();  // must not crash
}

// ------------------------------------------------------------ determinism --

TEST(ObsProfiler, CounterClockGivesDeterministicDurations) {
  TimelineProfiler profiler(counter_clock());
  {
    // Readings: open=0, close=1 -> duration 1, start 0.
    TimelineProfiler::Scope scope(&profiler, Phase::kExecute, 0, "job");
  }
  {
    // Readings: open=2, close=3.
    TimelineProfiler::Scope scope(&profiler, Phase::kExecute, 0, "job");
  }
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].start_ns, 0u);
  EXPECT_EQ(spans[0].duration_ns, 1u);
  EXPECT_EQ(spans[1].start_ns, 2u);
  EXPECT_EQ(spans[1].duration_ns, 1u);
}

TEST(ObsProfiler, ManualRecordUsesGivenInterval) {
  TimelineProfiler profiler(counter_clock());
  const std::uint64_t id =
      profiler.record(Phase::kShard, 100, 250, 0, "local shard");
  EXPECT_NE(id, 0u);
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].start_ns, 100u);
  EXPECT_EQ(spans[0].duration_ns, 150u);
  EXPECT_EQ(spans[0].label, "local shard");
}

// --------------------------------------------------------- drain / bounds --

TEST(ObsProfiler, DrainHandsSpansOverExactlyOnce) {
  TimelineProfiler profiler(counter_clock());
  { TimelineProfiler::Scope scope(&profiler, Phase::kExecute, 0); }
  EXPECT_EQ(profiler.span_count(), 1u);
  EXPECT_EQ(profiler.drain().size(), 1u);
  EXPECT_EQ(profiler.span_count(), 0u);
  EXPECT_TRUE(profiler.drain().empty());
}

TEST(ObsProfiler, OverflowDropsOldestAndCounts) {
  TimelineProfiler profiler(counter_clock());
  const std::size_t extra = 7;
  for (std::size_t i = 0;
       i < TimelineProfiler::kMaxSpansPerThread + extra; ++i) {
    TimelineProfiler::Scope scope(&profiler, Phase::kFrame, 0);
  }
  EXPECT_EQ(profiler.span_count(), TimelineProfiler::kMaxSpansPerThread);
  EXPECT_EQ(profiler.dropped(), extra);
  // The oldest spans went: the smallest retained id is extra + 1.
  const auto spans = profiler.snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.front().id, extra + 1);
}

TEST(ObsProfiler, ThreadsRecordToTheirOwnBuffers) {
  TimelineProfiler profiler(counter_clock());
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&profiler] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        TimelineProfiler::Scope scope(&profiler, Phase::kExecute, 0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), kThreads * kPerThread);
  // Ids are unique and the snapshot is id-sorted.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].id, spans[i].id);
  }
  EXPECT_EQ(profiler.dropped(), 0u);
}

TEST(ObsProfiler, ExitedThreadsBuffersAreFreedByDrain) {
  // A daemon runs each campaign on a fresh pool: the buffers of its exited
  // threads must not pile up, and their spans and drop counts must survive.
  TimelineProfiler profiler(counter_clock());
  const std::size_t extra = 3;
  std::thread overflowing([&profiler] {
    for (std::size_t i = 0;
         i < TimelineProfiler::kMaxSpansPerThread + extra; ++i) {
      TimelineProfiler::Scope scope(&profiler, Phase::kFrame, 0);
    }
  });
  overflowing.join();
  EXPECT_EQ(profiler.live_buffers(), 1u);
  EXPECT_EQ(profiler.drain().size(), TimelineProfiler::kMaxSpansPerThread);
  EXPECT_EQ(profiler.live_buffers(), 0u);
  EXPECT_EQ(profiler.dropped(), extra);

  constexpr std::size_t kPools = 100;
  constexpr std::size_t kTasks = 16;
  std::set<std::uint64_t> ids;
  for (std::size_t round = 0; round < kPools; ++round) {
    {
      util::ThreadPool pool(2);
      pool.parallel_for(kTasks, [&profiler](std::size_t) {
        TimelineProfiler::Scope scope(&profiler, Phase::kExecute, 0);
      });
    }
    { TimelineProfiler::Scope scope(&profiler, Phase::kCampaign, 0); }
    const auto spans = profiler.drain();
    ASSERT_EQ(spans.size(), kTasks + 1) << "round " << round;
    for (const Span& span : spans) {
      EXPECT_TRUE(ids.insert(span.id).second) << "span " << span.id;
    }
    // Only this thread's buffer outlives the drain.
    ASSERT_EQ(profiler.live_buffers(), 1u) << "round " << round;
  }
  EXPECT_EQ(ids.size(), kPools * (kTasks + 1));
  EXPECT_TRUE(profiler.drain().empty());
  EXPECT_EQ(profiler.dropped(), extra);
}

// ------------------------------------------------------------ aggregation --

TEST(ObsStats, NearestRankPercentiles) {
  std::vector<Span> spans;
  for (std::uint64_t d = 1; d <= 100; ++d) {
    spans.push_back({d, 0, Phase::kExecute, 0, d, ""});
  }
  const auto stats = phase_stats(spans);
  ASSERT_EQ(stats.count(Phase::kExecute), 1u);
  const PhaseStats& execute = stats.at(Phase::kExecute);
  EXPECT_EQ(execute.count, 100u);
  EXPECT_EQ(execute.total_ns, 5050u);
  EXPECT_EQ(execute.p50_ns, 50u);
  EXPECT_EQ(execute.p95_ns, 95u);
  EXPECT_EQ(execute.max_ns, 100u);
}

TEST(ObsStats, SingleSpanPercentilesAreThatSpan) {
  const std::vector<Span> spans = {{1, 0, Phase::kMerge, 0, 42, ""}};
  const auto stats = phase_stats(spans);
  const PhaseStats& merge = stats.at(Phase::kMerge);
  EXPECT_EQ(merge.p50_ns, 42u);
  EXPECT_EQ(merge.p95_ns, 42u);
  EXPECT_EQ(merge.max_ns, 42u);
}

TEST(ObsStats, SplitSubtreeTakesOneTreeAndKeepsTheRest) {
  // Two campaign trees interleaved by id; the split must take exactly one
  // and leave the other in place, both in id order.
  std::vector<Span> spans = {
      {1, 0, Phase::kCampaign, 0, 10, "a"},
      {2, 0, Phase::kCampaign, 0, 10, "b"},
      {3, 1, Phase::kShard, 0, 5, "a/s0"},
      {4, 2, Phase::kShard, 0, 5, "b/s0"},
      {5, 3, Phase::kTransport, 0, 4, "a/s0/t"},
      {6, 4, Phase::kTransport, 0, 4, "b/s0/t"},
      {7, 5, Phase::kExecute, 0, 1, "a/s0/t/x"},
  };
  const auto tree_a = split_subtree(spans, 1);
  ASSERT_EQ(tree_a.size(), 4u);
  EXPECT_EQ(tree_a[0].id, 1u);
  EXPECT_EQ(tree_a[1].id, 3u);
  EXPECT_EQ(tree_a[2].id, 5u);
  EXPECT_EQ(tree_a[3].label, "a/s0/t/x");
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].label, "b");
  EXPECT_EQ(spans[1].label, "b/s0");
  EXPECT_EQ(spans[2].label, "b/s0/t");
  EXPECT_TRUE(split_subtree(spans, 99).empty());
  EXPECT_EQ(spans.size(), 3u);
  const auto tree_b = split_subtree(spans, 2);
  ASSERT_EQ(tree_b.size(), 3u);
  EXPECT_EQ(tree_b[0].label, "b");
  EXPECT_TRUE(spans.empty());
}

TEST(ObsJson, TimelineJsonCarriesSchemaAndSpans) {
  const std::vector<Span> spans = {
      {1, 0, Phase::kCampaign, 0, 10, "with \"quotes\""},
  };
  const std::string json = timeline_json(7, "sweep", "alice", spans);
  EXPECT_NE(json.find("\"schema\": \"ao-profile/1\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"sweep\""), std::string::npos);
  EXPECT_NE(json.find("\"client\": \"alice\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"campaign\""), std::string::npos);
  EXPECT_NE(json.find("with \\\"quotes\\\""), std::string::npos);
}

TEST(ObsJson, OriginAppearsOnlyOnWorkerSpans) {
  std::vector<Span> spans = {
      {1, 0, Phase::kCampaign, 0, 10, "root"},
      {2, 1, Phase::kExecute, 2, 3, "gemm", "w1"},
  };
  const std::string json = timeline_json(1, "sweep", "anon", spans);
  // Exactly one origin key: the local span omits it, so pre-distributed
  // artifacts keep their byte layout.
  EXPECT_EQ(json.find("\"origin\""), json.rfind("\"origin\""));
  EXPECT_NE(json.find("\"origin\": \"w1\""), std::string::npos);
}

// ------------------------------------------------------------- span codec --

TEST(ObsSpanCodec, PayloadRoundTripsSpansAndOrigin) {
  const std::vector<Span> spans = {
      {1, 0, Phase::kExecute, 100, 40, "gemm m1 cpu-single"},
      {2, 1, Phase::kSerialize, 120, 5, ""},
      {3, 1, Phase::kFrame, 126, 4, "records"},
  };
  const std::string payload = encode_spans("w-unix", spans);
  EXPECT_EQ(payload.rfind(kSpanPayloadVersion, 0), 0u);

  std::string origin;
  std::string error;
  const auto decoded = decode_spans(payload, &origin, &error);
  ASSERT_TRUE(decoded.has_value()) << error;
  EXPECT_EQ(origin, "w-unix");
  ASSERT_EQ(decoded->size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ((*decoded)[i].id, spans[i].id);
    EXPECT_EQ((*decoded)[i].parent, spans[i].parent);
    EXPECT_EQ((*decoded)[i].phase, spans[i].phase);
    EXPECT_EQ((*decoded)[i].start_ns, spans[i].start_ns);
    EXPECT_EQ((*decoded)[i].duration_ns, spans[i].duration_ns);
    EXPECT_EQ((*decoded)[i].label, spans[i].label);  // spaces survive
  }
}

TEST(ObsSpanCodec, MalformedPayloadsAreRejectedNotGuessed) {
  std::string origin;
  std::string error;
  // Version skew: a future payload format must not half-parse.
  EXPECT_FALSE(
      decode_spans("ao-profile/9\norigin w\n", &origin, &error).has_value());
  // Missing origin line.
  EXPECT_FALSE(decode_spans("ao-profile/1\nspan 1 0 execute 0 1\n", &origin,
                            &error)
                   .has_value());
  // Unknown phase name (a renamed enum on one side only).
  EXPECT_FALSE(decode_spans("ao-profile/1\norigin w\nspan 1 0 warp 0 1\n",
                            &origin, &error)
                   .has_value());
  EXPECT_NE(error.find("warp"), std::string::npos);
  // Truncated numeric fields.
  EXPECT_FALSE(decode_spans("ao-profile/1\norigin w\nspan 1 0 execute\n",
                            &origin, &error)
                   .has_value());
  // Negative numerics: istream >> uint64 would wrap these modulo 2^64 and
  // scramble parent remapping; the codec must reject them outright.
  EXPECT_FALSE(decode_spans("ao-profile/1\norigin w\nspan -1 0 execute -5 10\n",
                            &origin, &error)
                   .has_value());
  EXPECT_NE(error.find("malformed span line"), std::string::npos);
  // Out-of-range numerics (first value > UINT64_MAX) are malformed too.
  EXPECT_FALSE(decode_spans("ao-profile/1\norigin w\n"
                            "span 99999999999999999999 0 execute 0 1\n",
                            &origin, &error)
                   .has_value());
  // The empty timeline of an idle worker is valid.
  const auto empty = decode_spans("ao-profile/1\norigin w\n", &origin, &error);
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

// ------------------------------------------------------------------ graft --

TEST(ObsGraft, OffsetAlignedSpansKeepRelativeTimingAndNesting) {
  TimelineProfiler daemon(counter_clock());
  TimelineProfiler::Scope transport(&daemon, Phase::kTransport, 0, "shard-0");
  const std::uint64_t window_start = daemon.now();  // reading 2

  // A worker clock running 1'000'000 ahead of the daemon's: spans measured
  // at 1'000'00x land back in single digits after the offset is applied.
  const std::vector<Span> worker_spans = {
      {1, 0, Phase::kExecute, 1'000'003, 6, "gemm"},
      {2, 1, Phase::kSerialize, 1'000'005, 2, "record"},
  };
  // Burn daemon readings 3..9 so the window has room for the aligned spans.
  for (int i = 0; i < 7; ++i) {
    daemon.now();
  }
  const std::size_t grafted =
      graft_spans(daemon, worker_spans, transport.id(), window_start,
                  daemon.now(), /*has_offset=*/true,
                  /*offset_ns=*/1'000'000, "w1");
  EXPECT_EQ(grafted, 2u);
  transport.close();

  const auto spans = daemon.snapshot();
  ASSERT_EQ(spans.size(), 3u);  // transport + 2 grafted
  const Span& execute = spans[1];
  const Span& serialize = spans[2];
  // Offset arithmetic is exact: 1'000'003 − 1'000'000 = 3.
  EXPECT_EQ(execute.start_ns, 3u);
  EXPECT_EQ(execute.duration_ns, 6u);
  EXPECT_EQ(serialize.start_ns, 5u);
  EXPECT_EQ(serialize.duration_ns, 2u);
  // Re-parenting: the worker root hangs off the transport span, the child
  // keeps its (remapped) parent; ids stay topological.
  EXPECT_EQ(execute.parent, transport.id());
  EXPECT_EQ(serialize.parent, execute.id);
  EXPECT_GT(execute.id, transport.id());
  EXPECT_GT(serialize.id, execute.id);
  EXPECT_EQ(execute.origin, "w1");
  EXPECT_EQ(serialize.origin, "w1");
}

TEST(ObsGraft, SkewBeyondTheWindowIsClampedNotNegative) {
  TimelineProfiler daemon(counter_clock());
  TimelineProfiler::Scope transport(&daemon, Phase::kTransport, 0, "shard-0");
  const std::uint64_t window_start = daemon.now();
  for (int i = 0; i < 3; ++i) {
    daemon.now();
  }
  const std::uint64_t window_end = daemon.now();

  // A wildly wrong offset estimate maps the span far before the window
  // (and its end far after): both edges clamp into [start, end], so the
  // grafted span still nests inside the transport with a non-negative
  // duration — the deterministic guarantee the merged timeline leans on.
  const std::vector<Span> worker_spans = {
      {1, 0, Phase::kExecute, 10, 1'000'000, "gemm"},
  };
  graft_spans(daemon, worker_spans, transport.id(), window_start, window_end,
              /*has_offset=*/true, /*offset_ns=*/500'000, "w1");
  transport.close();

  const auto spans = daemon.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const Span& grafted = spans[1];
  EXPECT_GE(grafted.start_ns, window_start);
  EXPECT_LE(grafted.start_ns + grafted.duration_ns, window_end);
}

TEST(ObsGraft, WithoutAnOffsetTheTimelineStartAligns) {
  TimelineProfiler daemon(counter_clock());
  TimelineProfiler::Scope transport(&daemon, Phase::kTransport, 0, "shard-0");
  const std::uint64_t window_start = daemon.now();
  for (int i = 0; i < 9; ++i) {
    daemon.now();
  }
  const std::vector<Span> worker_spans = {
      {1, 0, Phase::kExecute, 777'000, 3, "gemm"},
      {2, 1, Phase::kSerialize, 777'004, 2, "record"},
  };
  graft_spans(daemon, worker_spans, transport.id(), window_start,
              daemon.now(), /*has_offset=*/false, 0, "w1");
  transport.close();

  const auto spans = daemon.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // The earliest worker span lands exactly on the window start; relative
  // spacing inside the worker timeline is preserved.
  EXPECT_EQ(spans[1].start_ns, window_start);
  EXPECT_EQ(spans[2].start_ns, window_start + 4);
  EXPECT_EQ(spans[2].duration_ns, 2u);
}

TEST(ObsGraft, AdoptKeepsReservedTopologicalIds) {
  TimelineProfiler profiler(counter_clock());
  TimelineProfiler::Scope scope(&profiler, Phase::kCampaign, 0, "root");
  const std::uint64_t first = profiler.reserve_ids(2);
  EXPECT_GT(first, scope.id());
  std::vector<Span> foreign(2);
  foreign[0] = {first, scope.id(), Phase::kExecute, 0, 4, "job", "w1"};
  foreign[1] = {first + 1, first, Phase::kFlush, 1, 2, "records", "w1"};
  profiler.adopt(std::move(foreign));
  TimelineProfiler::Scope later(&profiler, Phase::kMerge);
  EXPECT_GT(later.id(), first + 1);  // reserved ids are never reissued
  later.close();
  scope.close();
  const auto spans = profiler.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].id, first);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, first);
  EXPECT_EQ(spans[2].origin, "w1");
  EXPECT_EQ(spans[3].phase, Phase::kMerge);
}

// ---------------------------------------------------------------- metrics --

TEST(ObsMetrics, NamesAreStableSnakeCase) {
  std::size_t families = 0;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const std::string name = metric_name(static_cast<Metric>(i));
    if (name.empty()) {
      continue;  // a `stats`-only series
    }
    ++families;
    EXPECT_EQ(name.rfind("ao_", 0), 0u) << name;
    EXPECT_EQ(name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_"),
              std::string::npos)
        << name;
  }
  EXPECT_EQ(metric_kind(Metric::kCampaignsTotal), MetricKind::kCounter);
  EXPECT_EQ(metric_kind(Metric::kQueueDepth), MetricKind::kGauge);
  EXPECT_EQ(metric_kind(Metric::kPhaseDurationNs), MetricKind::kHistogram);
  EXPECT_EQ(families, 27u);
  EXPECT_STREQ(metric_name(Metric::kCacheEntries), "");
}

TEST(ObsMetrics, RenderIsPrometheusTextExposition) {
  MetricsRegistry registry;
  registry.set(Metric::kCampaignsTotal, 3);
  registry.set(Metric::kQueueDepth, 1);
  registry.set(Metric::kWorkerRttNs, 1200, "w1");
  registry.set(Metric::kWorkerClockOffsetNs, -350, "w1");
  registry.observe(Metric::kPhaseDurationNs, 5'000, "execute");
  registry.observe(Metric::kPhaseDurationNs, 50'000'000, "execute");

  const std::string text = registry.render();
  // Metadata for every family, even sample-less ones — the scrape surface
  // is stable from the first request.
  EXPECT_NE(text.find("# HELP ao_campaigns_total "), std::string::npos);
  EXPECT_NE(text.find("# TYPE ao_campaigns_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE ao_workers_idle gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ao_phase_duration_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nao_campaigns_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("\nao_queue_depth 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nao_worker_rtt_ns{worker=\"w1\"} 1200\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nao_worker_clock_offset_ns{worker=\"w1\"} -350\n"),
            std::string::npos);
  // Histogram buckets are cumulative and topped by +Inf == count.
  EXPECT_NE(text.find("ao_phase_duration_ns_bucket{phase=\"execute\","
                      "le=\"10000\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("ao_phase_duration_ns_bucket{phase=\"execute\","
                      "le=\"100000000\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ao_phase_duration_ns_bucket{phase=\"execute\","
                      "le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("ao_phase_duration_ns_sum{phase=\"execute\"} 50005000\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("ao_phase_duration_ns_count{phase=\"execute\"} 2\n"),
      std::string::npos);
  // The OpenMetrics terminator is the protocol's end-of-reply sentinel.
  EXPECT_EQ(text.rfind("# EOF\n"), text.size() - 6);

  // clear() drops a retired worker's series entirely.
  registry.clear(Metric::kWorkerRttNs);
  EXPECT_EQ(registry.render().find("ao_worker_rtt_ns{"), std::string::npos);

  // replace() swaps a labelled family's full sample set in one call: the
  // retired w1 series vanishes and the new endpoints appear together.
  registry.replace(Metric::kWorkerClockOffsetNs,
                   {{"w2", 40}, {"w3", -7}});
  const std::string swapped = registry.render();
  EXPECT_EQ(swapped.find("ao_worker_clock_offset_ns{worker=\"w1\"}"),
            std::string::npos);
  EXPECT_NE(swapped.find("\nao_worker_clock_offset_ns{worker=\"w2\"} 40\n"),
            std::string::npos);
  EXPECT_NE(swapped.find("\nao_worker_clock_offset_ns{worker=\"w3\"} -7\n"),
            std::string::npos);
}

}  // namespace
}  // namespace ao::obs
