#include "obs/profiler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace ao::obs {

struct TimelineProfiler::ThreadBuffer {
  std::mutex mutex;
  std::vector<Span> spans;
  std::size_t dropped = 0;
  bool retired = false;  ///< its thread has exited
};

namespace {

// The phase glossary — index = static_cast<size_t>(Phase). These names are
// protocol surface; docs/observability.md lists every one and CI enforces
// the listing (check_markdown_links.py --glossary reads this initializer).
constexpr std::array<const char*, kPhaseCount> kPhaseNames = {
    "campaign",  "queue-wait", "admission", "schedule",  "shard",
    "execute",   "serialize",  "frame",     "transport", "merge",
    "retry",     "abort",      "plan",      "flush",     "query",
};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One thread's stack of open scopes, across every live profiler: scopes
/// are strictly nested per thread, so one stack with (profiler uid, span
/// id) entries serves them all. Parent resolution walks down to the topmost
/// entry of the asking profiler.
struct OpenScopeEntry {
  std::uint64_t profiler_uid;
  std::uint64_t span_id;
};
thread_local std::vector<OpenScopeEntry> t_open_scopes;

/// This thread's registered buffer per profiler uid. The profiler owns the
/// buffer; when the thread exits, the map's destructor marks each buffer
/// whose profiler still lives as retired, and that profiler's next drain()
/// frees it. Uids are never reused, so an entry for a destroyed profiler can
/// only go stale, never alias a new one; stale entries are pruned whenever
/// the thread registers with another profiler.
struct ThreadBufferMap {
  struct Entry {
    TimelineProfiler::ThreadBuffer* buffer;
    std::weak_ptr<TimelineProfiler::ThreadBuffer> owner;
  };
  std::unordered_map<std::uint64_t, Entry> by_uid;

  ~ThreadBufferMap() {
    for (auto& [uid, entry] : by_uid) {
      if (const auto buffer = entry.owner.lock()) {
        std::lock_guard lock(buffer->mutex);
        buffer->retired = true;
      }
    }
  }
};
thread_local ThreadBufferMap t_buffers;

std::atomic<std::uint64_t> g_next_profiler_uid{1};

void json_escape_into(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

const char* phase_name(Phase phase) {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

std::optional<Phase> phase_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kPhaseNames.size(); ++i) {
    if (name == kPhaseNames[i]) {
      return static_cast<Phase>(i);
    }
  }
  return std::nullopt;
}

// ------------------------------------------------------- TimelineProfiler --

TimelineProfiler::TimelineProfiler(ClockFn clock)
    : clock_(std::move(clock)), uid_(g_next_profiler_uid.fetch_add(1)) {}

TimelineProfiler::~TimelineProfiler() = default;

std::uint64_t TimelineProfiler::now() const {
  return clock_ ? clock_() : steady_now_ns();
}

TimelineProfiler::ThreadBuffer& TimelineProfiler::local_buffer() {
  ThreadBufferMap::Entry& cached = t_buffers.by_uid[uid_];
  if (cached.buffer == nullptr) {
    std::erase_if(t_buffers.by_uid, [](const auto& entry) {
      return entry.second.buffer != nullptr && entry.second.owner.expired();
    });
    auto buffer = std::make_shared<ThreadBuffer>();
    cached = {buffer.get(), buffer};
    std::lock_guard lock(buffers_mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *cached.buffer;
}

void TimelineProfiler::append(Span span) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mutex);
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    buffer.spans.erase(buffer.spans.begin());
    ++buffer.dropped;
  }
  buffer.spans.push_back(std::move(span));
}

std::uint64_t TimelineProfiler::resolve_parent(std::uint64_t requested) const {
  if (requested != kInheritParent) {
    return requested;
  }
  for (auto it = t_open_scopes.rbegin(); it != t_open_scopes.rend(); ++it) {
    if (it->profiler_uid == uid_) {
      return it->span_id;
    }
  }
  return 0;
}

std::uint64_t TimelineProfiler::record(Phase phase, std::uint64_t start_ns,
                                       std::uint64_t end_ns,
                                       std::uint64_t parent,
                                       std::string label) {
  Span span;
  span.id = next_id_.fetch_add(1);
  span.parent = resolve_parent(parent);
  span.phase = phase;
  span.start_ns = start_ns;
  span.duration_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  span.label = std::move(label);
  const std::uint64_t id = span.id;
  append(std::move(span));
  return id;
}

std::uint64_t TimelineProfiler::reserve_ids(std::size_t count) {
  return next_id_.fetch_add(count);
}

void TimelineProfiler::adopt(std::vector<Span> spans) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard lock(buffer.mutex);
  buffer.spans.insert(buffer.spans.end(),
                      std::make_move_iterator(spans.begin()),
                      std::make_move_iterator(spans.end()));
  if (buffer.spans.size() > kMaxSpansPerThread) {
    const std::size_t excess = buffer.spans.size() - kMaxSpansPerThread;
    buffer.spans.erase(buffer.spans.begin(),
                       buffer.spans.begin() +
                           static_cast<std::ptrdiff_t>(excess));
    buffer.dropped += excess;
  }
}

std::vector<Span> TimelineProfiler::snapshot() const {
  std::vector<Span> out;
  std::lock_guard lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::vector<Span> TimelineProfiler::drain() {
  std::lock_guard lock(buffers_mutex_);
  // One allocation of the exact total (spans recorded between the count and
  // the move only grow it): a campaign's drained timeline is the largest
  // span vector the service holds.
  std::size_t total = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    total += buffer->spans.size();
  }
  std::vector<Span> out;
  out.reserve(total);
  std::erase_if(buffers_, [&](const std::shared_ptr<ThreadBuffer>& buffer) {
    std::lock_guard buffer_lock(buffer->mutex);
    out.insert(out.end(), std::make_move_iterator(buffer->spans.begin()),
               std::make_move_iterator(buffer->spans.end()));
    std::vector<Span>().swap(buffer->spans);
    if (buffer->retired) {
      retired_dropped_ += buffer->dropped;
    }
    return buffer->retired;
  });
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

std::size_t TimelineProfiler::span_count() const {
  std::size_t count = 0;
  std::lock_guard lock(buffers_mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    count += buffer->spans.size();
  }
  return count;
}

std::size_t TimelineProfiler::dropped() const {
  std::lock_guard lock(buffers_mutex_);
  std::size_t count = retired_dropped_;
  for (const auto& buffer : buffers_) {
    std::lock_guard buffer_lock(buffer->mutex);
    count += buffer->dropped;
  }
  return count;
}

std::size_t TimelineProfiler::live_buffers() const {
  std::lock_guard lock(buffers_mutex_);
  return buffers_.size();
}

// ------------------------------------------------------------------ Scope --

TimelineProfiler::Scope::Scope(TimelineProfiler* profiler, Phase phase,
                               std::uint64_t parent, std::string label)
    : profiler_(profiler), phase_(phase), label_(std::move(label)) {
  if (profiler_ == nullptr) {
    return;
  }
  parent_ = profiler_->resolve_parent(parent);
  id_ = profiler_->next_id_.fetch_add(1);
  start_ns_ = profiler_->now();
  t_open_scopes.push_back({profiler_->uid_, id_});
}

TimelineProfiler::Scope::Scope(Scope&& other) noexcept
    : profiler_(other.profiler_),
      phase_(other.phase_),
      id_(other.id_),
      parent_(other.parent_),
      start_ns_(other.start_ns_),
      label_(std::move(other.label_)) {
  other.profiler_ = nullptr;  // the moved-from scope records nothing
}

void TimelineProfiler::Scope::close() {
  if (profiler_ == nullptr) {
    return;
  }
  TimelineProfiler* profiler = profiler_;
  profiler_ = nullptr;
  // Scopes are strictly nested per thread, so this scope's entry is the
  // topmost entry of its profiler — erase exactly it (a moved scope may
  // close on another position in pathological cases; search defensively).
  for (auto it = t_open_scopes.rbegin(); it != t_open_scopes.rend(); ++it) {
    if (it->profiler_uid == profiler->uid_ && it->span_id == id_) {
      t_open_scopes.erase(std::next(it).base());
      break;
    }
  }
  Span span;
  span.id = id_;
  span.parent = parent_;
  span.phase = phase_;
  span.start_ns = start_ns_;
  const std::uint64_t end_ns = profiler->now();
  span.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  span.label = std::move(label_);
  profiler->append(std::move(span));
}

TimelineProfiler::Scope::~Scope() { close(); }

// ------------------------------------------------------------- aggregates --

std::map<Phase, PhaseStats> phase_stats(const std::vector<Span>& spans) {
  std::map<Phase, std::vector<std::uint64_t>> durations;
  for (const Span& span : spans) {
    durations[span.phase].push_back(span.duration_ns);
  }
  std::map<Phase, PhaseStats> out;
  for (auto& [phase, values] : durations) {
    std::sort(values.begin(), values.end());
    PhaseStats stats;
    stats.count = values.size();
    for (const std::uint64_t v : values) {
      stats.total_ns += v;
    }
    // Nearest-rank percentiles: ceil(p * n) treated as a 1-based rank.
    const auto rank = [&](double p) {
      const std::size_t r = static_cast<std::size_t>(
          p * static_cast<double>(values.size()) + 0.999999);
      return values[std::min(values.size(), std::max<std::size_t>(1, r)) - 1];
    };
    stats.p50_ns = rank(0.50);
    stats.p95_ns = rank(0.95);
    stats.max_ns = values.back();
    out.emplace(phase, stats);
  }
  return out;
}

std::vector<Span> split_subtree(std::vector<Span>& spans,
                                std::uint64_t root) {
  // Parents always carry smaller ids than their children, so one ascending
  // pass reaches the whole subtree, and the members it has found so far form
  // an ascending id list to binary-search each parent in.
  std::vector<std::uint64_t> members;
  for (const Span& span : spans) {
    if (span.id == root ||
        std::binary_search(members.begin(), members.end(), span.parent)) {
      members.push_back(span.id);
    }
  }
  std::vector<Span> subtree;
  subtree.reserve(members.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::binary_search(members.begin(), members.end(), spans[i].id)) {
      subtree.push_back(std::move(spans[i]));
    } else {
      if (kept != i) {
        spans[kept] = std::move(spans[i]);
      }
      ++kept;
    }
  }
  spans.resize(kept);
  return subtree;
}

std::string timeline_json(std::uint64_t campaign_id, const std::string& name,
                          const std::string& client,
                          const std::vector<Span>& spans) {
  std::string out = "{\n  \"schema\": \"ao-profile/1\",\n  \"campaign\": {";
  out += "\"id\": " + std::to_string(campaign_id) + ", \"name\": \"";
  json_escape_into(out, name);
  out += "\", \"client\": \"";
  json_escape_into(out, client);
  out += "\"},\n  \"phases\": {";
  bool first = true;
  for (const auto& [phase, stats] : phase_stats(spans)) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += phase_name(phase);
    out += "\": {\"count\": " + std::to_string(stats.count) +
           ", \"total_ns\": " + std::to_string(stats.total_ns) +
           ", \"p50_ns\": " + std::to_string(stats.p50_ns) +
           ", \"p95_ns\": " + std::to_string(stats.p95_ns) +
           ", \"max_ns\": " + std::to_string(stats.max_ns) + "}";
  }
  out += "\n  },\n  \"spans\": [";
  first = true;
  for (const Span& span : spans) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(span.id) +
           ", \"parent\": " + std::to_string(span.parent) + ", \"phase\": \"";
    out += phase_name(span.phase);
    out += "\", \"start_ns\": " + std::to_string(span.start_ns) +
           ", \"duration_ns\": " + std::to_string(span.duration_ns) +
           ", \"label\": \"";
    json_escape_into(out, span.label);
    out += "\"";
    // Worker-origin spans carry where they were measured; local spans omit
    // the key so pre-distributed artifacts stay byte-identical.
    if (!span.origin.empty()) {
      out += ", \"origin\": \"";
      json_escape_into(out, span.origin);
      out += "\"";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace ao::obs
