#include "service/worker_link.hpp"

#include <algorithm>
#include <iostream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>

#include "obs/span_codec.hpp"
#include "orchestrator/campaign.hpp"
#include "orchestrator/plan_cache.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "service/frame.hpp"

namespace ao::service {

bool parse_index_csv(const std::string& csv, std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t begin = 0;;) {
    const std::size_t comma = csv.find(',', begin);
    std::uint64_t value = 0;
    if (!parse_u64_token(csv.substr(begin, comma - begin), value)) {
      return false;
    }
    out.push_back(static_cast<std::size_t>(value));
    if (comma == std::string::npos) {
      return true;
    }
    begin = comma + 1;
  }
}

namespace {

std::string join_index_csv(const std::vector<std::size_t>& values) {
  std::string out;
  for (const std::size_t v : values) {
    if (!out.empty()) {
      out += ',';
    }
    out += std::to_string(v);
  }
  return out;
}

/// Coalesces settled entry lines into batched `records` frames: lines
/// accumulate (newline-separated) in a reused buffer and settle onto the
/// wire as one frame per flush — batch-full, deadline-expired, or the
/// end-of-shard flush. Callers serialize access through the shard's
/// out_mutex; the buffer keeps its capacity across flushes.
class RecordBatcher {
 public:
  RecordBatcher(std::ostream& out, FrameWriter& writer,
                obs::TimelineProfiler& profiler, std::size_t batch,
                std::uint64_t flush_ns)
      : out_(out),
        writer_(writer),
        profiler_(profiler),
        batch_(std::max<std::size_t>(1, batch)),
        flush_ns_(flush_ns) {}

  void add(const std::string& line) {
    if (buffered_ == 0) {
      first_buffered_ns_ = profiler_.now();
    } else {
      buffer_ += '\n';
    }
    buffer_ += line;
    ++buffered_;
    if (buffered_ >= batch_ ||
        profiler_.now() - first_buffered_ns_ >= flush_ns_) {
      flush();
    }
  }

  /// Writes the buffered lines as one `records` frame under a `flush` span
  /// (no-op when empty). Also the end-of-shard and failure-path drain — a
  /// worker never strands settled records behind an exception.
  void flush() {
    if (buffered_ == 0) {
      return;
    }
    obs::TimelineProfiler::Scope flush_span(
        &profiler_, obs::Phase::kFlush, obs::TimelineProfiler::kInheritParent,
        "records");
    writer_.write(out_, kFrameRecords, buffer_);
    buffer_.clear();  // capacity survives for the next batch
    buffered_ = 0;
  }

 private:
  std::ostream& out_;
  FrameWriter& writer_;
  obs::TimelineProfiler& profiler_;
  std::size_t batch_;
  std::uint64_t flush_ns_;
  std::string buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t first_buffered_ns_ = 0;
};

/// Runs one task's shard, streams its records as batched frames, and closes
/// with the shard's worker-side timeline (`spans` frame) followed by the
/// authoritative `store` frame. Any exception propagates to the caller
/// (buffered records are flushed first), which ships whatever the profiler
/// measured and a `shard-error` frame.
void execute_task(const RemoteTask& task, std::ostream& out,
                  obs::TimelineProfiler& profiler, const std::string& origin,
                  FrameWriter& writer, orchestrator::PlanCache& plans,
                  const WorkerSessionOptions& options) {
  orchestrator::JobQueue queue;
  {
    // Compiled-expansion checkout: a session running many shards of the
    // same campaign expands it once. The `plan` span's label says whether
    // this checkout compiled.
    const std::uint64_t plan_start = profiler.now();
    bool compiled_here = false;
    const auto compiled =
        plans.checkout(plan_key(task.request), [&] {
          compiled_here = true;
          return task.request.to_campaign().jobs();
        });
    orchestrator::push_job_subset(queue, *compiled, task.groups);
    profiler.record(obs::Phase::kPlan, plan_start, profiler.now(), 0,
                    compiled_here ? "miss" : "hit");
  }

  // Capacity covers the whole shard so the final `store` frame —
  // serialize_store() over the retained set — can never have evicted a
  // record the daemon is owed.
  orchestrator::ResultCache cache(std::max<std::size_t>(4096, queue.total()));
  cache.set_profiler(&profiler);
  orchestrator::CampaignScheduler::Options scheduler_options;
  scheduler_options.concurrency = task.request.workers;
  orchestrator::CampaignScheduler scheduler(task.request.options(),
                                            scheduler_options, &cache);
  scheduler.set_profile_sink(&profiler, 0);
  const std::uint64_t options_fp =
      orchestrator::options_fingerprint(task.request.options());

  std::mutex out_mutex;  // scheduler workers stream concurrently
  RecordBatcher batcher(out, writer, profiler, options.record_batch,
                        options.batch_flush_ns);
  try {
    scheduler.run(queue, [&](const orchestrator::ExperimentJob& job,
                             const orchestrator::MeasurementRecord& record,
                             bool /*from_cache*/) {
      // The callback runs inside the job's `execute` span, so both scopes
      // nest under it.
      obs::TimelineProfiler::Scope serialize(
          &profiler, obs::Phase::kSerialize,
          obs::TimelineProfiler::kInheritParent, "record");
      const std::string line = orchestrator::format_store_entry(
          orchestrator::key_for_job(job, options_fp), record);
      serialize.close();
      std::lock_guard lock(out_mutex);
      batcher.add(line);
    });
  } catch (...) {
    // Records settled before the failure are real measurements the daemon
    // can merge; flush them ahead of the shard-error the caller ships.
    std::lock_guard lock(out_mutex);
    batcher.flush();
    throw;
  }
  batcher.flush();  // the partial final batch (workers are joined by now)
  // The authoritative shard result: byte-for-byte what a local worker's
  // write-through store file would hold after the same run.
  const std::string store = cache.serialize_store();
  // The timeline ships *before* the store so the daemon's shard
  // conversation handles it inline — the store frame stays the settling
  // frame, and peers that never send spans change nothing.
  writer.write(out, kFrameSpans, obs::encode_spans(origin, profiler.drain()));
  writer.write(out, kFrameStore, store);
}

}  // namespace

std::string encode_task(const CampaignRequest& request,
                        std::size_t shard_index,
                        const std::vector<std::size_t>& groups) {
  std::string payload = "shard " + std::to_string(shard_index) + "\n";
  payload += "groups " + join_index_csv(groups) + "\n";
  for (const std::string& line : request.to_lines()) {
    payload += line;
    payload += '\n';
  }
  return payload;
}

std::optional<RemoteTask> decode_task(const std::string& payload,
                                      std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<RemoteTask> {
    if (error != nullptr) {
      *error = message;
    }
    return std::nullopt;
  };
  std::istringstream in(payload);
  RemoteTask task;
  std::string line;

  if (!std::getline(in, line) || line.rfind("shard ", 0) != 0) {
    return fail("task payload must start with a 'shard <i>' line");
  }
  std::vector<std::size_t> one;
  if (!parse_index_csv(line.substr(6), one) || one.size() != 1) {
    return fail("malformed shard index: " + line);
  }
  task.shard_index = one[0];

  if (!std::getline(in, line) || line.rfind("groups ", 0) != 0 ||
      !parse_index_csv(line.substr(7), task.groups)) {
    return fail("task payload needs a 'groups <i,j,...>' line");
  }

  std::vector<std::string> request_lines;
  while (std::getline(in, line)) {
    request_lines.push_back(line);
  }
  std::string parse_error;
  const auto request = parse_request_lines(request_lines, &parse_error);
  if (!request.has_value()) {
    return fail("malformed request block: " + parse_error);
  }
  task.request = *request;
  return task;
}

int run_worker_session(std::istream& in, std::ostream& out,
                       const std::string& name, WorkerSessionOptions options) {
  // One profiler per session: each task drains it, so a timeline never
  // bleeds into the next shard's `spans` frame. The frame writer and plan
  // cache are session-owned too: every frame of the conversation recycles
  // one encode buffer, and repeated shards of one campaign expand it once.
  obs::TimelineProfiler profiler(options.clock);
  FrameWriter writer;
  orchestrator::PlanCache plans(8);
  out << "worker " << name << '\n';
  out.flush();
  std::string reply;
  if (!std::getline(in, reply)) {
    std::cerr << "ao_worker: connection closed before the hello ack\n";
    return 1;
  }
  if (!reply.empty() && reply.back() == '\r') {
    reply.pop_back();
  }
  if (reply.rfind("ok worker", 0) != 0) {
    std::cerr << "ao_worker: service refused the hello: " << reply << "\n";
    return 1;
  }

  for (;;) {
    std::string error;
    const auto frame = read_frame(in, &error);
    if (!frame.has_value()) {
      if (error == "closed") {
        return 0;  // the daemon went away; nothing owed
      }
      std::cerr << "ao_worker: bad frame from the service (" << error << ")\n";
      return 1;
    }
    if (frame->type == kFrameBye) {
      return 0;
    }
    if (frame->type == kFramePing) {
      // Liveness probe from the registry's heartbeat sweep: answer and keep
      // waiting for work. Parked workers that stop ponging are retired. The
      // payload is this worker's current clock reading — paired with the
      // ping round-trip it gives the daemon a midpoint clock-offset
      // estimate for aligning this worker's shipped spans.
      writer.write(out, kFramePong, std::to_string(profiler.now()));
      continue;
    }
    if (frame->type != kFrameTask) {
      std::cerr << "ao_worker: unexpected frame type: " << frame->type << "\n";
      return 1;
    }
    std::string task_error;
    const auto task = decode_task(frame->payload, &task_error);
    if (!task.has_value()) {
      writer.write(out, kFrameShardError, "malformed task: " + task_error);
      continue;
    }
    try {
      execute_task(*task, out, profiler, name, writer, plans, options);
    } catch (const std::exception& e) {
      // The shard failed but the connection is healthy: ship whatever the
      // timeline measured before the failure, report, and stay available
      // for the next task.
      writer.write(out, kFrameSpans, obs::encode_spans(name, profiler.drain()));
      writer.write(out, kFrameShardError, e.what());
    }
  }
}

RemoteShardOutcome run_remote_shard(
    std::istream& in, std::ostream& out, const CampaignRequest& request,
    std::size_t shard_index, const std::vector<std::size_t>& groups,
    const std::function<void(const std::string& entry_line)>& on_record,
    obs::TimelineProfiler* profiler, const ShardGraft* graft) {
  RemoteShardOutcome outcome;
  outcome.shard_index = shard_index;

  // The whole conversation is one transport span; frame encode/decode work
  // nests inside it (the blocking read_frame waits are transport time — the
  // worker is computing — not frame time).
  obs::TimelineProfiler::Scope transport(
      profiler, obs::Phase::kTransport,
      obs::TimelineProfiler::kInheritParent,
      "shard-" + std::to_string(shard_index));
  // The graft window: worker spans are clamped into [window_start, "now" at
  // settle], which lies strictly inside the transport span whatever the
  // clocks did — causal nesting and non-negative durations by construction.
  const std::uint64_t window_start = profiler != nullptr ? profiler->now() : 0;
  std::vector<obs::Span> pending_spans;
  std::string payload_origin;
  const auto settle_graft = [&] {
    if (profiler == nullptr || pending_spans.empty()) {
      return;
    }
    const std::string& origin = graft != nullptr && !graft->origin.empty()
                                    ? graft->origin
                                    : payload_origin;
    outcome.worker_spans = obs::graft_spans(
        *profiler, std::move(pending_spans), transport.id(), window_start,
        profiler->now(), graft != nullptr && graft->has_clock_offset,
        graft != nullptr ? graft->clock_offset_ns : 0, origin);
  };

  {
    obs::TimelineProfiler::Scope frame_span(profiler, obs::Phase::kFrame,
                                            obs::TimelineProfiler::kInheritParent,
                                            "task");
    write_frame(out, {kFrameTask, encode_task(request, shard_index, groups)});
  }
  if (!out) {
    outcome.connection_lost = true;
    outcome.error = "worker connection failed writing the task frame";
    return outcome;
  }

  for (;;) {
    std::string error;
    const auto frame = read_frame(in, &error);
    if (!frame.has_value()) {
      outcome.connection_lost = true;
      outcome.error = "worker connection failed (" + error + ")";
      return outcome;
    }
    if (frame->type == kFrameRecords) {
      obs::TimelineProfiler::Scope frame_span(
          profiler, obs::Phase::kFrame,
          obs::TimelineProfiler::kInheritParent, "records");
      std::istringstream lines(frame->payload);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.empty()) {
          continue;
        }
        outcome.lines.push_back(line);
        ++outcome.records;
        if (on_record) {
          on_record(line);
        }
      }
    } else if (frame->type == kFrameSpans) {
      obs::TimelineProfiler::Scope frame_span(
          profiler, obs::Phase::kFrame,
          obs::TimelineProfiler::kInheritParent, "spans");
      std::string decode_error;
      auto decoded =
          obs::decode_spans(frame->payload, &payload_origin, &decode_error);
      if (decoded.has_value()) {
        // Grafted when the settling frame arrives — a worker that dies
        // between its spans and its store leaves a rescheduled shard, and
        // the retry attempt's timeline replaces this one.
        pending_spans = std::move(*decoded);
      }
      // A payload that fails to decode is version-skewed telemetry: drop
      // the spans, never the shard.
    } else if (frame->type == kFrameStore) {
      outcome.store = frame->payload;
      // The store frame is authoritative; the incrementally collected lines
      // were only the died-before-store fallback. Dropping them halves the
      // per-shard memory held until the merge.
      outcome.lines.clear();
      outcome.lines.shrink_to_fit();
      outcome.ok = true;
      settle_graft();
      return outcome;
    } else if (frame->type == kFrameShardError) {
      outcome.error = frame->payload;
      settle_graft();
      return outcome;
    } else {
      // Unknown frame type: a version-skewed worker. The stream position is
      // still sound (frames are length-prefixed) but the conversation is
      // not — retire the endpoint.
      outcome.connection_lost = true;
      outcome.error = "unexpected frame type from worker: " + frame->type;
      return outcome;
    }
  }
}

}  // namespace ao::service
