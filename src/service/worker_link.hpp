#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

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
/// `spans` frame carrying the shard's worker-side timeline (plan/execute/
/// flush spans, ao-profile/1 payload) and a `done <records>`
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

/// A campaign-private shard endpoint on this host: the daemon holds one end
/// of a socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC); the other end is
/// fds 0/1 of an `ao_worker --stdio-frames --name <name>` child (every other
/// fd is closed before exec), or — with an empty `worker_binary` — a thread
/// running run_worker_session() with `options`. The constructor spawns the
/// endpoint and answers its hello, so it blocks until the child speaks. A
/// failed spawn or hello leaves a dead stream: the first shard conversation
/// over it reports a lost connection, which the caller retries like any
/// dying endpoint. The destructor says `bye` (after mark_failed(), it
/// SIGKILLs a child instead), closes the daemon's end and reaps the child or
/// joins the thread — nothing outlives the endpoint, and a child whose
/// daemon dies reads EOF and exits.
class LocalEndpoint {
 public:
  LocalEndpoint(const std::string& worker_binary, std::string name,
                const WorkerSessionOptions& options);
  ~LocalEndpoint();
  LocalEndpoint(const LocalEndpoint&) = delete;
  LocalEndpoint& operator=(const LocalEndpoint&) = delete;

  std::istream& in() { return *stream_; }
  std::ostream& out() { return *stream_; }
  const std::string& name() const { return name_; }
  /// The conversation broke: no `bye`, and a child process is killed.
  void mark_failed() { failed_ = true; }

 private:
  std::string name_;
  std::unique_ptr<SocketStream> stream_;  ///< the daemon's end
  pid_t pid_ = -1;                        ///< process mode
  std::thread thread_;                    ///< thread mode
  bool failed_ = false;
};

}  // namespace ao::service
