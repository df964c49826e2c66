#include "obs/span_codec.hpp"

#include <algorithm>
#include <charconv>
#include <string_view>

#include "util/hex.hpp"

namespace ao::obs {
namespace {

void append_flattened(std::string& out, const std::string& text) {
  for (const char c : text) {
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
}

/// Strict uint64 token parse. istream >> uint64 accepts a leading '-' and
/// wraps the value modulo 2^64; a wire decoder must reject that, not let a
/// negative id scramble parent remapping silently.
bool parse_u64(std::string_view token, std::uint64_t& out) {
  const char* first = token.data();
  const char* last = first + token.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && !token.empty();
}

}  // namespace

std::string encode_spans(const std::string& origin,
                         const std::vector<Span>& spans) {
  std::string out = kSpanPayloadVersion;
  out += "\norigin ";
  append_flattened(out, origin);
  out += '\n';
  // Appended in place: a shard's timeline is thousands of lines.
  const auto append_u64 = [&out](std::uint64_t value) {
    char digits[20];
    const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
    out.append(digits, end);
  };
  for (const Span& span : spans) {
    out += "span ";
    append_u64(span.id);
    out += ' ';
    append_u64(span.parent);
    out += ' ';
    out += phase_name(span.phase);
    out += ' ';
    append_u64(span.start_ns);
    out += ' ';
    append_u64(span.duration_ns);
    if (!span.label.empty()) {
      out += ' ';
      append_flattened(out, span.label);
    }
    out += '\n';
  }
  return out;
}

std::optional<std::vector<Span>> decode_spans(const std::string& payload,
                                              std::string* origin,
                                              std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return std::nullopt;
  };
  // Views into the payload, one line at a time: a shard's timeline is
  // thousands of lines, and the daemon decodes every one.
  std::string_view rest = payload;
  const auto next_line = [&](std::string_view& line) {
    if (rest.empty()) {
      return false;
    }
    const std::size_t newline = rest.find('\n');
    line = rest.substr(0, newline);
    rest.remove_prefix(newline == std::string_view::npos ? rest.size()
                                                         : newline + 1);
    return true;
  };
  std::string_view line;
  if (!next_line(line) || line != kSpanPayloadVersion) {
    return fail("span payload version mismatch: " + std::string(line));
  }
  if (!next_line(line) || !line.starts_with("origin ")) {
    return fail("span payload missing origin line");
  }
  if (origin != nullptr) {
    *origin = line.substr(7);
  }
  std::vector<Span> spans;
  while (next_line(line)) {
    if (line.empty()) {
      continue;
    }
    std::string_view fields = line;
    const std::string_view tag = util::next_token(fields);
    const std::string_view id_text = util::next_token(fields);
    const std::string_view parent_text = util::next_token(fields);
    const std::string_view phase_text = util::next_token(fields);
    const std::string_view start_text = util::next_token(fields);
    const std::string_view duration_text = util::next_token(fields);
    Span span;
    if (tag != "span" || !parse_u64(id_text, span.id) ||
        !parse_u64(parent_text, span.parent) ||
        !parse_u64(start_text, span.start_ns) ||
        !parse_u64(duration_text, span.duration_ns)) {
      return fail("malformed span line: " + std::string(line));
    }
    const auto phase = phase_from_name(phase_text);
    if (!phase.has_value()) {
      return fail("unknown span phase: " + std::string(phase_text));
    }
    span.phase = *phase;
    // The label is the rest of the line after the one space that follows
    // the duration.
    if (fields.starts_with(' ')) {
      span.label = fields.substr(1);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

std::size_t graft_spans(TimelineProfiler& profiler, std::vector<Span> spans,
                        std::uint64_t parent, std::uint64_t window_start,
                        std::uint64_t window_end, bool has_offset,
                        std::int64_t offset_ns, const std::string& origin) {
  if (spans.empty()) {
    return 0;
  }
  if (window_end < window_start) {
    window_end = window_start;
  }
  // Worker id order is a topological order of the worker's own span tree.
  const auto by_id = [](const Span& a, const Span& b) { return a.id < b.id; };
  if (!std::is_sorted(spans.begin(), spans.end(), by_id)) {
    std::sort(spans.begin(), spans.end(), by_id);
  }
  std::int64_t offset = offset_ns;
  if (!has_offset) {
    // No heartbeat estimate for this endpoint yet: start-align the worker
    // timeline to the window. Relative spacing inside it stays exact.
    std::uint64_t earliest = spans.front().start_ns;
    for (const Span& span : spans) {
      earliest = std::min(earliest, span.start_ns);
    }
    offset = static_cast<std::int64_t>(earliest) -
             static_cast<std::int64_t>(window_start);
  }
  const auto clamp = [&](std::int64_t value, std::uint64_t lo) {
    if (value < static_cast<std::int64_t>(lo)) {
      return lo;
    }
    if (value > static_cast<std::int64_t>(window_end)) {
      return window_end;
    }
    return static_cast<std::uint64_t>(value);
  };
  // Consecutive fresh ids in that order keep parents ahead of children
  // here too. Walking backwards, the spans before `i` still carry worker
  // ids, so each parent is found by binary search among them.
  const std::uint64_t first = profiler.reserve_ids(spans.size());
  for (std::size_t i = spans.size(); i-- > 0;) {
    Span& span = spans[i];
    const auto earlier = spans.begin() + static_cast<std::ptrdiff_t>(i);
    const auto mapped = std::lower_bound(
        spans.begin(), earlier, span.parent,
        [](const Span& s, std::uint64_t id) { return s.id < id; });
    span.parent = mapped != earlier && mapped->id == span.parent
                      ? first + static_cast<std::uint64_t>(
                                    mapped - spans.begin())
                      : parent;
    const std::int64_t aligned =
        static_cast<std::int64_t>(span.start_ns) - offset;
    const std::uint64_t start = clamp(aligned, window_start);
    span.duration_ns =
        clamp(aligned + static_cast<std::int64_t>(span.duration_ns), start) -
        start;
    span.start_ns = start;
    span.id = first + i;
    span.origin = origin;
  }
  const std::size_t count = spans.size();
  profiler.adopt(std::move(spans));
  return count;
}

}  // namespace ao::obs
