#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ao::obs {

/// The instrumented phases of the job/shard lifecycle, one enumerator per
/// span name. The names are protocol surface (`profile-span` reply lines,
/// `stats-phase` lines, the JSON artifacts) and are documented in the phase
/// glossary of docs/observability.md — CI keeps the two in sync through
/// check_markdown_links.py --glossary.
enum class Phase {
  kCampaign,   ///< one whole campaign, submit to done (the root span)
  kQueueWait,  ///< blocked in the CampaignQueue behind conflicting work
  kAdmission,  ///< quota/resource admission decision (CampaignQueue::submit)
  kSchedule,   ///< request expansion, group planning, shard planning
  kShard,      ///< one shard's full round-trip (local or remote)
  kExecute,    ///< one job executing on a leased simulated System
  kSerialize,  ///< encoding records/stores (entry lines, store snapshots)
  kFrame,      ///< wire-frame encode + write of the shard transport
  kTransport,  ///< one remote shard conversation over its socket
  kMerge,      ///< a shard attempt settling its records into the warm cache
  kRetry,      ///< a shard re-dispatched after its worker endpoint died
  kAbort,      ///< a campaign cancelled (abort command / expired deadline)
  kPlan,       ///< plan-cache checkout: compiled-expansion lookup / compile
  kFlush,      ///< a batched records frame settling onto the wire
  kQuery,      ///< one indexed store query / follow replay (read path)
};

inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kQuery) + 1;

/// The span name ("queue-wait", "execute", ...). Stable protocol surface.
const char* phase_name(Phase phase);

/// Reverse of phase_name(); nullopt for unknown names.
std::optional<Phase> phase_from_name(std::string_view name);

/// One completed span on a profiler's timeline. Ids are campaign-unique and
/// hierarchical: `parent` is the id of the enclosing span (0 = top level),
/// and a child's id is always greater than its parent's — the id order is a
/// topological order of the span tree.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  Phase phase = Phase::kCampaign;
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  std::string label;   ///< free text: job kind, worker name, shard index...
  std::string origin;  ///< worker name for grafted remote spans; "" = local
};

/// Aggregate of every span of one phase — the `profile-phase` reply line
/// and the per-phase object of the JSON artifacts. Percentiles are
/// nearest-rank over the span durations.
struct PhaseStats {
  std::size_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Span-based timeline profiler for the campaign lifecycle.
///
/// Concurrency model: recording is contention-free in the common case —
/// every thread appends completed spans to its own registered buffer (one
/// uncontended mutex per thread, taken only by its owner and by snapshot());
/// span ids come from one atomic counter. snapshot()/drain() briefly lock
/// each buffer to collect.
///
/// Nesting: each thread keeps a stack of its open scopes. A new Scope
/// parents to the innermost open scope *of the same profiler* on its thread
/// (so a record settled inside a shard conversation nests under the
/// transport span with no plumbing), or to an explicit parent id — the
/// handoff for work that hops threads, e.g. a shard driver parenting its
/// spans under the campaign root opened by the session thread.
///
/// The clock is injectable (`ClockFn` returning nanoseconds, monotonic);
/// the default is std::chrono::steady_clock. Tests inject a counter clock
/// for fully deterministic timelines.
class TimelineProfiler {
 public:
  using ClockFn = std::function<std::uint64_t()>;

  /// Parent sentinel: inherit the innermost open scope on this thread.
  static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

  /// Spans retained per thread buffer; overflow drops the oldest-recorded
  /// spans of that thread and counts them in dropped().
  static constexpr std::size_t kMaxSpansPerThread = 1u << 16;

  /// `clock` {} selects the monotonic steady_clock.
  explicit TimelineProfiler(ClockFn clock = {});
  ~TimelineProfiler();
  TimelineProfiler(const TimelineProfiler&) = delete;
  TimelineProfiler& operator=(const TimelineProfiler&) = delete;

  /// Current clock reading in nanoseconds.
  std::uint64_t now() const;

  /// RAII span: opens at construction (allocating the id, pushing the
  /// thread's scope stack), records at close()/destruction. A Scope on a
  /// null profiler is a no-op — call sites never test the pointer.
  class Scope {
   public:
    Scope(TimelineProfiler* profiler, Phase phase,
          std::uint64_t parent = kInheritParent, std::string label = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept;
    Scope& operator=(Scope&&) = delete;

    /// This span's id (0 on a null profiler) — the parent handle passed to
    /// work finishing on other threads.
    std::uint64_t id() const { return id_; }

    /// Records the span now instead of at destruction. Idempotent.
    void close();

   private:
    TimelineProfiler* profiler_;
    Phase phase_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t start_ns_ = 0;
    std::string label_;
  };

  /// Records one span measured manually — for intervals whose start and end
  /// live on different threads, or that settle piecewise (a shard attempt's
  /// merge window).
  /// Returns the span's id.
  std::uint64_t record(Phase phase, std::uint64_t start_ns,
                       std::uint64_t end_ns,
                       std::uint64_t parent = kInheritParent,
                       std::string label = {});

  /// Reserves `count` consecutive span ids and returns the first — the ids
  /// a foreign timeline is adopted under.
  std::uint64_t reserve_ids(std::size_t count);

  /// Appends spans measured by *another* profiler (a worker timeline
  /// shipped over the wire) under one buffer lock. Ids, parents,
  /// timestamps and origins are taken as given: the caller has given them
  /// ids from reserve_ids() in their own topological order, re-parented and
  /// clock-aligned them (see obs::graft_spans).
  void adopt(std::vector<Span> spans);

  /// Every completed span, sorted by id (parents before children).
  std::vector<Span> snapshot() const;

  /// snapshot() + clear: hands the completed spans over exactly once — the
  /// service drains after each campaign so a long-running daemon's memory
  /// stays bounded. Each buffer's capacity is released, and the buffers of
  /// exited threads are freed. Open scopes are unaffected (they record on
  /// close).
  std::vector<Span> drain();

  /// Completed spans currently buffered.
  std::size_t span_count() const;

  /// Spans lost to per-thread buffer overflow since construction.
  std::size_t dropped() const;

  /// Per-thread buffers currently held. A thread's buffer is retired when
  /// the thread exits and freed by the next drain(), so a daemon that runs
  /// each campaign on a fresh thread pool holds only its live threads'.
  std::size_t live_buffers() const;

  /// One thread's completed spans (defined in profiler.cpp).
  struct ThreadBuffer;

 private:
  ThreadBuffer& local_buffer();
  void append(Span span);
  std::uint64_t resolve_parent(std::uint64_t requested) const;

  const ClockFn clock_;
  const std::uint64_t uid_;  ///< process-unique; keys the thread-local map
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex buffers_mutex_;  ///< registration + collection
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::size_t retired_dropped_ = 0;  ///< dropped() of freed buffers
};

/// Per-phase aggregates over `spans` (nearest-rank percentiles).
std::map<Phase, PhaseStats> phase_stats(const std::vector<Span>& spans);

/// Moves the spans reachable from `root` (inclusive) out of `spans` and
/// returns them; both keep their id order. `spans` must be sorted by id
/// (drain() and snapshot() return it so): the profiler's id invariant,
/// parents before children, then lets one ascending pass find the subtree.
/// This is how the service untangles concurrent campaigns' timelines.
std::vector<Span> split_subtree(std::vector<Span>& spans, std::uint64_t root);

/// One campaign's timeline as a JSON artifact (schema "ao-profile/1",
/// documented in docs/observability.md#artifact-schema): campaign identity,
/// per-phase stats, and the full span list. `ao_campaignd --profile-dir`
/// writes one such file per completed campaign; tools/bench_report.py folds
/// them into BENCH_*.json trajectory files.
std::string timeline_json(std::uint64_t campaign_id, const std::string& name,
                          const std::string& client,
                          const std::vector<Span>& spans);

}  // namespace ao::obs
