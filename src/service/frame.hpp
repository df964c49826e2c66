#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace ao::service {

// Binary-safe, length-prefixed frames embedded in the service's line
// protocol — the transport the distributed shard workers use to ship
// record batches and span timelines over a socket instead of a shared
// filesystem (grammar in docs/service.md#wire-format-frames):
//
//   @frame1 <type> <length> <digest>\n
//   <length raw payload bytes>\n
//
// The magic carries the frame-format version (`@frame` + kFrameVersion);
// a reader that sees any other magic rejects the stream rather than guess.
// <length> and <digest> are lowercase hex like every store token; <digest>
// is orchestrator::store_digest() (FNV-1a) over the payload bytes — the
// same digest the disk store's entry lines use, one definition for both
// codecs. The trailing newline keeps a frame hexdump-readable and lets a
// line-oriented peer resynchronize after a frame it skipped.

/// Bumped whenever the header layout changes; read_frame() rejects frames
/// written by any other version (the magic token embeds it).
inline constexpr int kFrameVersion = 1;
inline constexpr char kFrameMagic[] = "@frame1";

/// Hard payload ceiling (64 MiB): a corrupt length token must never make
/// the reader allocate unbounded memory. Far above any real records batch
/// or span timeline — the CI campaigns ship a few KiB.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;

/// Header-line ceiling. A well-formed header is ≤ 74 bytes (magic + type +
/// two hex tokens); a peer streaming newline-free garbage is cut off here
/// instead of growing a string without bound.
inline constexpr std::size_t kMaxFrameHeader = 128;

// Frame types of the worker conversation (docs/service.md#wire-format-frames).
inline constexpr char kFrameTask[] = "task";          ///< daemon → worker
inline constexpr char kFrameRecords[] = "records";    ///< worker → daemon
inline constexpr char kFrameDone[] = "done";          ///< worker → daemon
inline constexpr char kFrameShardError[] = "shard-error";  ///< worker → daemon
inline constexpr char kFrameBye[] = "bye";            ///< daemon → worker
inline constexpr char kFramePing[] = "ping";          ///< daemon → worker
inline constexpr char kFramePong[] = "pong";          ///< worker → daemon
inline constexpr char kFrameSpans[] = "spans";        ///< worker → daemon

/// One frame: a short lowercase type token plus an arbitrary byte payload.
struct Frame {
  std::string type;
  std::string payload;

  bool operator==(const Frame&) const = default;
};

/// True for the type tokens write_frame() accepts: [a-z0-9-], 1–32 chars.
bool valid_frame_type(std::string_view type);

/// Appends one encoded frame (header line + payload + newline) to `out`
/// without clearing it — the allocation-free core every frame writer shares.
/// Throws util::InvalidArgument for an invalid type or an oversized payload.
void encode_frame_into(std::string& out, std::string_view type,
                       std::string_view payload);

/// Encodes the frame as header line + payload + newline. Throws
/// util::InvalidArgument for an invalid type or an oversized payload.
std::string encode_frame(const Frame& frame);

/// encode_frame() straight onto a stream, then flushes — a frame is a
/// protocol turn, so the peer must see it immediately.
void write_frame(std::ostream& out, const Frame& frame);

/// Reusable frame encoder for one link/session: the encode buffer is owned
/// by the writer and recycled across frames, so a long conversation stops
/// paying one string allocation (and two stream writes) per frame. Each
/// frame is emitted as ONE ostream write of header+payload+terminator —
/// scatter-gather style: the pieces are gathered into the reused buffer and
/// hit the stream in a single put, then a flush (a frame is a protocol
/// turn; the peer must see it immediately).
///
/// NOT thread-safe: one FrameWriter per session/link, owned by whoever owns
/// the ostream. Concurrent sessions must each hold their own writer — the
/// buffer contents of an in-flight write are live exactly until write()
/// returns, and never alias another session's frames.
class FrameWriter {
 public:
  /// Encodes and writes one frame. Same validation (and exceptions) as
  /// encode_frame(); stream state after the write is the caller's to check.
  void write(std::ostream& out, std::string_view type,
             std::string_view payload);

  /// Bytes currently reserved by the reused encode buffer — test
  /// introspection for the no-per-frame-allocation property.
  std::size_t buffer_capacity() const { return buffer_.capacity(); }

 private:
  std::string buffer_;
};

/// Reads one frame. Returns nullopt with `error` set to a stable reason on
/// any failure: "closed" (EOF before a header), "bad-frame-header"
/// (wrong magic/version or malformed tokens), "frame-oversized" (length
/// above kMaxFramePayload), "frame-truncated" (stream ended inside the
/// payload or the trailing newline is missing), "frame-digest-mismatch"
/// (payload bytes disagree with the header digest). The caller decides
/// whether a failure poisons the connection; this parser never throws.
std::optional<Frame> read_frame(std::istream& in, std::string* error = nullptr);

}  // namespace ao::service
