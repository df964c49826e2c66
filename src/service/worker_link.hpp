#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/profiler.hpp"
#include "service/protocol.hpp"

namespace ao::service {

// The frame conversation between the campaign service and a remote shard
// worker (sequence diagram in docs/service.md#wire-format-frames). The
// worker side (`run_worker_session`) and the daemon side
// (`run_remote_shard`) are both transport-agnostic — any istream/ostream
// pair — so the same code runs over a unix socket, a TCP connection, the
// stdio of an ssh bridge (`ao_worker --stdio-frames`) and the socketpairs
// the tests drive.

/// One shard assignment as the `task` frame payload carries it.
struct RemoteTask {
  std::size_t shard_index = 0;
  std::vector<std::size_t> groups;  ///< campaign group indices
  CampaignRequest request;
};

/// Parses a "1,2,3" index list: parse_u64_token() numbers joined by single
/// commas (no empty list, no empty or overflowing item). Shared by the task
/// payload codec and `ao_worker`'s `--groups` flag.
bool parse_index_csv(const std::string& csv, std::vector<std::size_t>& out);

/// Serializes a shard assignment into the `task` frame payload:
/// "shard <i>" and "groups <csv>" lines followed by the request block
/// (CampaignRequest::to_lines()).
std::string encode_task(const CampaignRequest& request,
                        std::size_t shard_index,
                        const std::vector<std::size_t>& groups);

/// Parses an encode_task() payload. Returns nullopt and sets `error` on any
/// malformed line.
std::optional<RemoteTask> decode_task(const std::string& payload,
                                      std::string* error = nullptr);

/// Knobs of a worker session; the defaults are production behaviour.
struct WorkerSessionOptions {
  /// Clock behind the worker-side timeline profiler and the clock readings
  /// shipped in `pong` payloads (the daemon's offset estimation input).
  /// {} selects the monotonic steady_clock; tests inject counter clocks
  /// for deterministic distributed timelines.
  obs::TimelineProfiler::ClockFn clock;
  /// Up to this many settled records coalesce into one `records` frame
  /// (newline-separated entry lines — the daemon's reader splits either
  /// shape). 1 restores the one-frame-per-record wire behaviour; 0 is
  /// clamped to 1. Each flush records a `flush` span.
  std::size_t record_batch = 16;
  /// Flush deadline for a partially filled batch: once the oldest buffered
  /// record has waited this long it is flushed with whatever joined it
  /// (checked as records settle; the end of the shard always flushes, so a
  /// deadline never strands records).
  std::uint64_t batch_flush_ns = 5'000'000;
};

/// The whole body of a remote `ao_worker`: sends the `worker <name>` hello,
/// waits for the service's ack, then loops — `task` frame in, the shard's
/// records out as batched `records` frames (up to `record_batch` settled
/// records per frame, bounded by the flush deadline), closed by a
/// `spans` frame carrying the shard's worker-side timeline (execute/
/// serialize/frame spans, ao-profile/1 payload) and a `done <records>`
/// frame counting the entry lines sent (or a `shard-error` frame after the
/// spans; the worker stays alive for the next task either way). The worker
/// keeps no result cache: each record is on the wire once it settles.
/// `ping` frames (the registry's liveness probes) are answered with
/// `pong` carrying this worker's current clock reading — the daemon pairs
/// it with the ping round-trip to estimate the clock offset that aligns
/// shipped spans. Returns the process exit code: 0 after a `bye` frame or
/// a clean EOF (the daemon went away), nonzero on a protocol violation.
int run_worker_session(std::istream& in, std::ostream& out,
                       const std::string& name,
                       WorkerSessionOptions options = {});

/// Daemon-side outcome of one remote shard conversation.
struct RemoteShardOutcome {
  std::size_t shard_index = 0;
  bool ok = false;
  /// True when the connection itself broke (the worker must be retired):
  /// a read or write failed, an unknown frame arrived, or the `done` count
  /// disagreed with the lines received. False for a shard that failed
  /// cleanly over a healthy connection.
  bool connection_lost = false;
  std::string error;
  std::size_t records = 0;  ///< entry lines received via `records` frames
  /// Worker-origin spans grafted onto the daemon profiler (0 when the
  /// worker shipped none or no profiler was attached).
  std::size_t worker_spans = 0;
};

/// Per-endpoint context for grafting the worker's shipped timeline
/// (`spans` frame) onto the daemon profiler.
struct ShardGraft {
  /// Worker name stamped as the grafted spans' `origin`. "" falls back to
  /// the name the payload itself carries.
  std::string origin;
  /// Heartbeat clock-offset estimate for this endpoint (worker clock minus
  /// daemon clock, midpoint method — WorkerRegistry). When absent the
  /// graft start-aligns the worker timeline to the transport window.
  bool has_clock_offset = false;
  std::int64_t clock_offset_ns = 0;
};

/// Runs one shard on a checked-out remote worker: writes the `task` frame,
/// forwards each incoming entry line to `on_record` (the caller settles it
/// there), and returns when the worker's `done` / `shard-error` frame
/// arrives or the connection dies. Blocking; the caller owns the streams
/// exclusively.
///
/// With `profiler` set the whole conversation records a `transport` span
/// (inheriting the calling thread's open scope — the driver's shard span),
/// with nested `frame` spans for the task-frame write and each records-frame
/// decode, and the worker's shipped timeline (`spans` frame) grafted under
/// the transport span: clock-aligned per `graft`, clamped into the
/// transport window (so worker spans nest strictly inside it with no
/// negative durations), stamped with the worker's origin name.
RemoteShardOutcome run_remote_shard(
    std::istream& in, std::ostream& out, const CampaignRequest& request,
    std::size_t shard_index, const std::vector<std::size_t>& groups,
    const std::function<void(const std::string& entry_line)>& on_record,
    obs::TimelineProfiler* profiler = nullptr,
    const ShardGraft* graft = nullptr);

}  // namespace ao::service
