#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "orchestrator/campaign.hpp"
#include "soc/chip_spec.hpp"

namespace ao::service {

/// One declarative sweep request, as the campaign service's line protocol
/// describes it (grammar in docs/service.md). A request addresses every
/// JobKind the orchestrator schedules: the GEMM grid (when both `impls` and
/// `sizes` are set), CPU/GPU STREAM, precision, ANE, FP64 emulation, SME and
/// idle power. `workers` is the per-campaign scheduler concurrency;
/// `shards` > 1 splits the campaign's jobs across worker processes.
struct CampaignRequest {
  std::string name = "campaign";
  /// Submitting client identity ("client <id>" line) — the unit the
  /// service's per-client quotas and queue stats are keyed on. Same
  /// filesystem-safe charset as campaign names; default for clients that
  /// don't identify themselves.
  std::string client = "anon";
  /// Queue priority ("priority <n>" line, [0, 100]): when campaigns
  /// conflict on a resource class, higher priority starts first; ties keep
  /// submission order. Never preempts a running campaign.
  int priority = 0;
  std::vector<soc::ChipModel> chips;
  std::vector<soc::GemmImpl> impls;
  std::vector<std::size_t> sizes;
  int repetitions = 5;
  std::uint64_t matrix_seed = 42;
  std::size_t verify_n_max = 256;
  /// Uniform functional ceiling override for every implementation (nullopt
  /// keeps the harness defaults; 0 = model-only).
  std::optional<std::size_t> functional_n_max;
  std::vector<int> stream_threads;
  int stream_repetitions = 10;
  std::size_t stream_elements = 0;
  bool gpu_stream = false;
  int gpu_stream_repetitions = 20;
  std::size_t gpu_stream_elements = 0;
  std::vector<std::size_t> precision_sizes;
  std::uint64_t precision_seed = 99;
  std::vector<std::size_t> ane_sizes;
  bool ane_functional = true;
  std::vector<std::size_t> fp64emu_sizes;
  std::uint64_t fp64emu_seed = 41;
  std::vector<std::size_t> sme_sizes;
  std::uint64_t sme_seed = 77;
  bool power_idle = false;
  double power_window_seconds = 1.0;
  std::size_t workers = 1;
  std::size_t shards = 1;
  /// Wall-clock budget ("deadline <ms>" line, milliseconds): a campaign
  /// still queued when it expires is cancelled with `deadline-exceeded`; a
  /// running one stops cooperatively between jobs. 0 = no deadline.
  std::uint64_t deadline_ms = 0;
  /// Per-campaign shard retry budget ("retries <n>" line, [0, 16]): how
  /// many times shards lost to dying remote endpoints may be re-dispatched
  /// to *different* endpoints before falling back locally (or failing,
  /// under --remote-only).
  std::size_t shard_retries = 2;

  bool operator==(const CampaignRequest&) const = default;

  /// True when at least one job family is requested.
  bool has_work() const;

  /// The GEMM experiment options this request describes (also the source of
  /// the options fingerprint that keys its cache entries).
  harness::GemmExperiment::Options options() const;

  /// The equivalent Campaign builder — cache and concurrency are attached
  /// by the caller.
  orchestrator::Campaign to_campaign() const;

  /// Serializes the request as a protocol block ("begin" … "run") that
  /// parses back to an equal request — the worker handoff format.
  std::vector<std::string> to_lines() const;
};

/// Whitespace tokenizer shared by the protocol parser and the service's
/// session loop.
std::vector<std::string> split_words(const std::string& line);

/// Strict unsigned decimal: digits only (no sign, no spaces, not empty),
/// and false on overflow instead of wrapping. The request parser, the task
/// payload codec and ao_worker's flags all read their numbers through it.
bool parse_u64_token(const std::string& token, std::uint64_t& value);

/// True when `name` may name a campaign. Names are embedded in shard-store
/// and request file paths by the service, so only [A-Za-z0-9._-] is
/// accepted (no path separators), "." / ".." are rejected, and length is
/// capped at 64. Client ids share the same rule (they land in stats lines
/// and quota messages).
bool valid_campaign_name(const std::string& name);

/// One rejected protocol line: a stable machine-readable code plus the
/// human-readable message. The service echoes both — and the offending
/// input line — in its `error` replies, so a client can report actionable
/// failures instead of guessing which of its lines was bad.
///
/// Codes are part of the protocol surface (documented in docs/service.md):
///   bad-directive   unknown or malformed setter line
///   bad-name        invalid campaign name on `begin`
///   bad-state       command out of sequence (nested begin, run w/o begin…)
///   bad-request     a structurally complete request that cannot run
///                   (no chips, no work)
///   unknown-command command word the service does not know
///   quota-queued    per-client queued-campaign quota exhausted
///   exec-failed     the campaign threw while executing
///   no-store        store command without a write-through store attached
///   aborted         the campaign was cancelled by an `abort <name>` command
///   deadline-exceeded  the campaign's `deadline <ms>` budget ran out
///   bad-query       malformed `query` filter (unknown predicate or value)
///   bad-cursor      unparseable/forged resume token on `query`/`follow`
///   stale-cursor    structurally valid cursor whose store generation (or
///                   retained campaign journal) was rewritten underneath it
///   unknown-campaign  `follow` for a campaign no journal remembers
struct ProtocolError {
  std::string code;
  std::string message;
};

/// Incremental parser for the request block of the protocol: feed it the
/// lines between "begin" and "run". Setter grammar errors are reported per
/// line; the session stays alive.
class RequestBuilder {
 public:
  /// Opens a new request ("begin [name]" was read). Returns nullopt on
  /// success, the error otherwise (a request already open, or an invalid
  /// name); an empty name keeps the default.
  std::optional<ProtocolError> begin(const std::string& name);

  bool open() const { return open_; }

  /// Applies one setter line to the open request. Returns nullopt on
  /// success, the error otherwise. Unknown directives are errors.
  std::optional<ProtocolError> apply(const std::string& line);

  /// Closes the block and hands the request over ("run" was read).
  CampaignRequest take();

  /// Discards the open request ("abort").
  void discard();

 private:
  bool open_ = false;
  CampaignRequest request_;
};

/// Parses a full request block (the to_lines() format: "begin" … "run").
/// Returns nullopt and sets `error` on the first malformed line.
std::optional<CampaignRequest> parse_request_lines(
    const std::vector<std::string>& lines, std::string* error);

/// The request's plan-cache key: the to_lines() block with every line that
/// cannot change the expansion stripped (identity — begin/client/priority —
/// and scheduling — workers/shards/deadline/retries — plus the "run"
/// terminator), joined by newlines. Two requests share a key exactly when
/// Campaign::jobs() would return the same job list; the PlanCache
/// compares keys by string equality, so distinct option sets can never
/// collide.
std::string plan_key(const CampaignRequest& request);

/// Lowercased figure-legend name → GemmImpl ("cpu-single", "gpu-mps", …).
/// Throws util::InvalidArgument for unknown names.
soc::GemmImpl gemm_impl_from_string(const std::string& name);

/// Resume token of a `follow` stream: `aof1.<campaign-id>.<position>.<digest>`
/// (lowercase hex fields; digest = store digest of the token up to its final
/// dot). Position = records already delivered; the reply resumes with the
/// next one, so a client that replays its last token never sees a record
/// twice. The same FNV-1a digest as store entry lines keeps truncated or
/// bit-flipped tokens structurally rejectable.
std::string encode_follow_cursor(std::uint64_t campaign_id,
                                 std::uint64_t position);

struct FollowCursor {
  std::uint64_t campaign_id = 0;
  std::uint64_t position = 0;
};

/// Returns nullopt on any malformation (wrong magic, missing or non-hex
/// fields, digest mismatch).
std::optional<FollowCursor> decode_follow_cursor(const std::string& token);

}  // namespace ao::service
