#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "fault_stream.hpp"
#include "obs/profiler.hpp"
#include "orchestrator/campaign.hpp"
#include "orchestrator/record.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "service/campaign_queue.hpp"
#include "service/frame.hpp"
#include "service/outbox.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/socket.hpp"
#include "service/worker_link.hpp"
#include "service/worker_registry.hpp"

// Deterministic chaos suite: an in-process daemon plus scripted frame
// workers whose connections die at scripted points of the conversation —
// after hello, mid-records, mid-store-frame — proving the resilience
// layer end to end: heartbeat retirement, failure-domain rescheduling
// under a retry budget, deadline/abort cancellation, and bounded
// backpressure. Every synchronization is an event (promise/future,
// condition variable, registry state), never a sleep standing in for one.

namespace ao::service {
namespace {

// ---------------------------------------------------------------- helpers --

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("ao_chaos_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> serve_lines(CampaignService& service,
                                     const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  service.serve(in, out);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) {
    lines.push_back(line);
  }
  return lines;
}

bool starts_with(const std::string& line, const std::string& prefix) {
  return line.rfind(prefix, 0) == 0;
}

bool wait_until(const std::function<bool()>& condition,
                int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 2) {
    if (condition()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return condition();
}

std::size_t count_prefixed(const std::vector<std::string>& lines,
                           const std::string& prefix) {
  std::size_t count = 0;
  for (const auto& line : lines) {
    if (starts_with(line, prefix)) {
      ++count;
    }
  }
  return count;
}

bool any_line_contains(const std::vector<std::string>& lines,
                       const std::string& needle) {
  for (const auto& line : lines) {
    if (line.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// The mixed every-kind campaign of the service tests: 20 records.
std::string nine_kind_block(std::size_t workers, std::size_t shards) {
  std::ostringstream out;
  out << "begin ninekinds\n"
         "chips m1,m3\n"
         "impls cpu-single,gpu-mps\n"
         "sizes 32\n"
         "repetitions 2\n"
         "stream 1,2 2 1024\n"
         "gpu-stream 2 1024\n"
         "precision 24 5\n"
         "ane 32\n"
         "fp64emu 24 11\n"
         "sme 32 13\n"
         "power 0.25\n"
      << "workers " << workers << "\nshards " << shards << "\nrun\n";
  return out.str();
}

/// Inserts one request directive line right before the final `run`.
std::string with_directive(std::string block, const std::string& line) {
  block.insert(block.rfind("run\n"), line + "\n");
  return block;
}

std::map<std::uint64_t, std::string> entries_by_key(
    orchestrator::ResultCache& cache) {
  std::map<std::uint64_t, std::string> out;
  for (const auto& [key, record] : cache.entries()) {
    out[key.fingerprint()] = orchestrator::serialize_record(record);
  }
  return out;
}

// ------------------------------------------------------------ chaos actors --

/// Where a scripted worker kills its connection.
enum class KillPoint {
  kMidRecords,     ///< streams half its records frames, then the socket dies
  kMidStoreFrame,  ///< streams every record, dies halfway through `store`
};

struct ShardResult {
  std::vector<std::string> lines;  ///< store entry lines, settle order
  std::string store;               ///< serialize_store() over the shard
};

/// Computes a task's records and store exactly like ao_worker does, so the
/// scripted deaths below interrupt byte-identical genuine traffic — and the
/// retried shard reproduces the exact same entry lines, which is what the
/// daemon's replay dedup is up against.
ShardResult run_task_locally(const RemoteTask& task) {
  orchestrator::Campaign campaign = task.request.to_campaign();
  orchestrator::JobQueue queue;
  campaign.expand_subset(queue, task.groups);
  orchestrator::ResultCache cache(std::max<std::size_t>(4096, queue.total()));
  orchestrator::CampaignScheduler::Options options;
  options.concurrency = 1;
  orchestrator::CampaignScheduler scheduler(task.request.options(), options,
                                            &cache);
  const std::uint64_t fp =
      orchestrator::options_fingerprint(task.request.options());
  ShardResult result;
  scheduler.run(queue, [&](const orchestrator::ExperimentJob& job,
                           const orchestrator::MeasurementRecord& record,
                           bool /*from_cache*/) {
    result.lines.push_back(orchestrator::format_store_entry(
        orchestrator::key_for_job(job, fp), record));
  });
  result.store = cache.serialize_store();
  return result;
}

/// A worker that dies at a scripted point of its first task, then fulfils
/// `died`. The socket is shut down (not merely closed) so the daemon's next
/// read observes the break exactly where the script put it.
void run_doomed_worker(int fd, const std::string& name, KillPoint kill,
                       std::promise<void>& died) {
  {
    SocketStream stream(fd);
    stream << "worker " << name << '\n';
    stream.flush();
    std::string ack;
    if (std::getline(stream, ack)) {
      for (;;) {
        std::string error;
        const auto frame = read_frame(stream, &error);
        if (!frame.has_value() || frame->type == kFrameBye) {
          break;
        }
        if (frame->type == kFramePing) {
          write_frame(stream, {kFramePong, {}});
          continue;
        }
        if (frame->type != kFrameTask) {
          break;
        }
        const auto task = decode_task(frame->payload);
        if (!task.has_value()) {
          break;
        }
        const ShardResult result = run_task_locally(*task);
        if (kill == KillPoint::kMidRecords) {
          for (std::size_t i = 0; i < result.lines.size() / 2; ++i) {
            write_frame(stream, {kFrameRecords, result.lines[i]});
          }
        } else {
          for (const auto& line : result.lines) {
            write_frame(stream, {kFrameRecords, line});
          }
          // Half a store frame: the daemon reads `frame-truncated` and must
          // retire the endpoint, not trust the partial payload.
          const std::string encoded = encode_frame({kFrameStore, result.store});
          stream.write(encoded.data(),
                       static_cast<std::streamsize>(encoded.size() / 2));
        }
        stream.flush();
        ::shutdown(fd, SHUT_RDWR);
        break;
      }
    }
  }  // the SocketStream destructor closes the fd
  died.set_value();
}

/// A well-behaved scripted worker that holds its first task until `gate`
/// fires. The gate is the suite's determinism handshake: the healthy worker
/// cannot finish a shard before the doomed worker has died, so with two
/// queued shards the doomed worker always receives one — the loss and the
/// cross-endpoint retry happen on every run, not most runs. (The wait_for
/// bound only keeps a regressed daemon from hanging the suite.)
void run_healthy_worker(int fd, const std::string& name,
                        std::shared_future<void> gate) {
  SocketStream stream(fd);
  stream << "worker " << name << '\n';
  stream.flush();
  std::string ack;
  if (!std::getline(stream, ack)) {
    return;
  }
  bool first_task = true;
  for (;;) {
    std::string error;
    const auto frame = read_frame(stream, &error);
    if (!frame.has_value() || frame->type == kFrameBye) {
      return;
    }
    if (frame->type == kFramePing) {
      write_frame(stream, {kFramePong, {}});
      continue;
    }
    if (frame->type != kFrameTask) {
      return;
    }
    const auto task = decode_task(frame->payload);
    if (!task.has_value()) {
      return;
    }
    if (first_task && gate.valid()) {
      gate.wait_for(std::chrono::seconds(20));
    }
    first_task = false;
    const ShardResult result = run_task_locally(*task);
    for (const auto& line : result.lines) {
      write_frame(stream, {kFrameRecords, line});
    }
    write_frame(stream, {kFrameStore, result.store});
  }
}

/// One daemon + one doomed and one healthy scripted worker over
/// socketpairs, ready for a campaign. Joining is the fixture's job.
struct ChaosFleet {
  CampaignService& service;
  std::thread serve_doomed;
  std::thread serve_healthy;
  std::thread doomed;
  std::thread healthy;
  std::promise<void> died;

  ChaosFleet(CampaignService& svc, KillPoint kill) : service(svc) {
    int doomed_fd[2];
    int healthy_fd[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, doomed_fd) != 0 ||
        ::socketpair(AF_UNIX, SOCK_STREAM, 0, healthy_fd) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return;
    }
    serve_doomed = std::thread([this, fd = doomed_fd[0]] {
      SocketStream stream(fd);
      service.serve(stream, stream);
    });
    serve_healthy = std::thread([this, fd = healthy_fd[0]] {
      SocketStream stream(fd);
      service.serve(stream, stream);
    });
    doomed = std::thread([this, kill, fd = doomed_fd[1]] {
      run_doomed_worker(fd, "doomed", kill, died);
    });
    healthy = std::thread(
        [gate = died.get_future().share(), fd = healthy_fd[1]] {
          run_healthy_worker(fd, "healthy", gate);
        });
  }

  void join() {
    serve_doomed.join();
    serve_healthy.join();
    doomed.join();
    healthy.join();
  }
};

// --------------------------------------------------- chaos: rescheduling --

// A worker endpoint dies mid-records. The shard must be retried on the
// OTHER endpoint (failure-domain rescheduling), the records the dead worker
// already streamed must not appear twice, and the merged store must be
// bit-identical to a single-process run of the same campaign.
TEST(Chaos, WorkerDyingMidRecordsIsRescheduledWithoutDuplicates) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("midrec");
  CampaignService::Config config;
  config.shard_dir = dir.string();
  config.remote_only = true;  // a silent local fallback would mask the retry
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));
  ChaosFleet fleet(service, KillPoint::kMidRecords);
  ASSERT_TRUE(wait_until([&] { return service.workers().idle_count() == 2; }));

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  EXPECT_NE(lines.back().find("shards 2 remote 2"), std::string::npos)
      << lines.back();
  // The dead worker's half-streamed records were replayed by the retry and
  // deduplicated: exactly the campaign's 20 unique records reach the client.
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);
  EXPECT_TRUE(any_line_contains(lines, " lost worker doomed rescheduling"))
      << "expected a lost-worker event";
  EXPECT_TRUE(any_line_contains(lines, " retry worker healthy"))
      << "expected the shard to be retried on the surviving endpoint";
  EXPECT_TRUE(std::filesystem::is_empty(dir));  // all transport, no files

  // The retry shows up in stats; the registry reports liveness ages.
  const auto stat_lines =
      serve_lines(service, "stats\nstats-worker\nshutdown\n");
  EXPECT_TRUE(any_line_contains(stat_lines, " shard-retries 1"));
  EXPECT_TRUE(any_line_contains(stat_lines, " last-seen-ns "));
  fleet.join();

  CampaignService single({});
  const auto single_lines = serve_lines(single, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(single_lines.back(), "done campaign "));
  auto chaos_entries = entries_by_key(service.cache());
  ASSERT_EQ(chaos_entries.size(), 20u);
  EXPECT_EQ(chaos_entries, entries_by_key(single.cache()));
  std::filesystem::remove_all(dir);
}

// A worker endpoint dies inside the store frame itself — after every record
// was streamed. The truncated store must be discarded (never half-merged),
// the shard retried, and the final merge still bit-identical.
TEST(Chaos, WorkerDyingMidStoreFrameYieldsABitIdenticalMerge) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("midstore");
  CampaignService::Config config;
  config.shard_dir = dir.string();
  config.remote_only = true;
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));
  ChaosFleet fleet(service, KillPoint::kMidStoreFrame);
  ASSERT_TRUE(wait_until([&] { return service.workers().idle_count() == 2; }));

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  // Here the doomed worker streamed its FULL record set before dying, so
  // the retry replays every line of that shard: the dedup must still hold
  // the client stream at exactly 20.
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);
  EXPECT_TRUE(any_line_contains(lines, " lost worker doomed rescheduling"));
  EXPECT_TRUE(any_line_contains(lines, " retry worker healthy"));

  serve_lines(service, "shutdown\n");
  fleet.join();

  CampaignService single({});
  const auto single_lines = serve_lines(single, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(single_lines.back(), "done campaign "));
  auto chaos_entries = entries_by_key(service.cache());
  ASSERT_EQ(chaos_entries.size(), 20u);
  EXPECT_EQ(chaos_entries, entries_by_key(single.cache()));
  std::filesystem::remove_all(dir);
}

// The ISSUE's acceptance criterion: killing a worker under --remote-only
// with the retry budget exhausted must surface a structured shard error —
// and leave the session alive — not hang the campaign.
TEST(Chaos, RetryBudgetExhaustionSurfacesAShardErrorNotAHang) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("budget");
  CampaignService::Config config;
  config.shard_dir = dir.string();
  config.remote_only = true;
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));
  ChaosFleet fleet(service, KillPoint::kMidRecords);
  ASSERT_TRUE(wait_until([&] { return service.workers().idle_count() == 2; }));

  const auto lines = serve_lines(
      service,
      with_directive(nine_kind_block(2, 2), "retries 0") + "ping\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "pong");  // the session survived the failure
  EXPECT_TRUE(
      any_line_contains(lines, " lost worker doomed retry-budget-exhausted"))
      << "expected the budget-exhausted settlement event";
  bool structured_failure = false;
  for (const auto& line : lines) {
    if (starts_with(line, "error exec-failed") &&
        line.find("retry budget exhausted") != std::string::npos) {
      structured_failure = true;
    }
  }
  EXPECT_TRUE(structured_failure) << "expected a structured shard failure";
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  // The healthy shard completed and the doomed shard half-streamed: some
  // records flowed, the full set did not.
  EXPECT_LT(count_prefixed(lines, "record "), 20u);

  serve_lines(service, "shutdown\n");
  fleet.join();
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ heartbeat probes --

/// A settable registry clock shared with the test body.
struct ManualClock {
  std::shared_ptr<std::atomic<std::uint64_t>> now =
      std::make_shared<std::atomic<std::uint64_t>>(0);
  WorkerRegistry::ClockFn fn() const {
    return [keep = now] { return keep->load(); };
  }
};

// Heartbeat sweeps under a manual clock: a worker that answers the ping
// survives (and its last-seen age resets); once it stops answering, the
// next due sweep retires it and unblocks its parked session.
TEST(Heartbeat, SilentIdleWorkerIsRetiredOnTheNextDueSweep) {
  ManualClock clock;
  WorkerRegistry registry;
  registry.configure({/*heartbeat_interval_ns=*/100, clock.fn()});

  // The worker's inbound stream holds exactly one pong: it answers the
  // first probe and falls silent forever after.
  std::stringstream worker_in;
  write_frame(worker_in, {kFramePong, {}});
  std::stringstream worker_out;
  std::thread parked(
      [&] { registry.park("flaky", worker_in, worker_out); });
  ASSERT_TRUE(wait_until([&] { return registry.idle_count() == 1; }));

  // Not due yet: no probe goes out.
  EXPECT_EQ(registry.heartbeat(), 0u);
  EXPECT_TRUE(worker_out.str().empty());

  // Due and answered: the worker stays, its last-seen clock resets.
  clock.now->store(100);
  EXPECT_EQ(registry.heartbeat(), 0u);
  EXPECT_EQ(registry.idle_count(), 1u);
  {
    std::string error;
    std::istringstream probe(worker_out.str());
    const auto frame = read_frame(probe, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_EQ(frame->type, std::string(kFramePing));
  }
  clock.now->store(150);
  {
    const auto workers = registry.snapshot();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].last_seen_age_ns, 50u);  // reset at the pong
  }

  // Due again, no pong left: retired, and the parked session returns.
  clock.now->store(250);
  EXPECT_EQ(registry.heartbeat(), 1u);
  parked.join();
  EXPECT_EQ(registry.connected_count(), 0u);
  registry.shutdown();
}

// A pong whose payload is all digits but exceeds UINT64_MAX (or is plain
// junk) must read as "no clock reading", never as an uncaught exception on
// the heartbeat thread — the pong still proves liveness.
TEST(Heartbeat, OverflowingPongClockPayloadIsIgnoredNotFatal) {
  ManualClock clock;
  WorkerRegistry registry;
  registry.configure({/*heartbeat_interval_ns=*/100, clock.fn()});

  // Two pongs queued: a 20-digit overflow value, then non-numeric junk.
  std::stringstream worker_in;
  write_frame(worker_in, {kFramePong, "99999999999999999999"});
  write_frame(worker_in, {kFramePong, "12ab"});
  std::stringstream worker_out;
  std::thread parked(
      [&] { registry.park("sloppy", worker_in, worker_out); });
  ASSERT_TRUE(wait_until([&] { return registry.idle_count() == 1; }));

  for (const std::uint64_t due : {100u, 250u}) {
    clock.now->store(due);
    EXPECT_EQ(registry.heartbeat(), 0u);  // alive both times, no terminate
    EXPECT_EQ(registry.idle_count(), 1u);
    const auto workers = registry.snapshot();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_FALSE(workers[0].has_clock_offset);  // payload estimated nothing
  }

  registry.shutdown();
  parked.join();
}

TEST(Heartbeat, ZeroIntervalDisablesProbes) {
  WorkerRegistry registry;  // default config: no heartbeat
  std::stringstream in, out;
  std::thread parked([&] { registry.park("idle", in, out); });
  ASSERT_TRUE(wait_until([&] { return registry.idle_count() == 1; }));
  EXPECT_EQ(registry.heartbeat(), 0u);
  EXPECT_EQ(registry.idle_count(), 1u);
  EXPECT_TRUE(out.str().empty());  // not a single probe byte
  registry.shutdown();
  parked.join();
}

// ------------------------------------------- acquire() deadline regression --

TEST(WorkerRegistry, AcquireTimesOutCleanlyWhenNoWorkerEverArrives) {
  WorkerRegistry registry;
  EXPECT_EQ(registry.acquire(0), nullptr);
  EXPECT_EQ(registry.acquire(30), nullptr);
}

TEST(WorkerRegistry, AcquireSeesAWorkerParkedWhileItWaits) {
  WorkerRegistry registry;
  std::stringstream in, out;
  std::unique_ptr<WorkerRegistry::Lease> lease;
  std::thread acquirer([&] { lease = registry.acquire(20000); });
  std::thread parker([&] { registry.park("late", in, out); });
  acquirer.join();
  ASSERT_NE(lease, nullptr);
  EXPECT_EQ(lease->name(), "late");
  lease->mark_failed();  // retire the endpoint so park() returns
  lease.reset();
  parker.join();
}

// Regression for the acquire()/park() deadline race: acquire() used a bare
// wait_until, so a park() notification landing as the deadline expired
// could be swallowed — nullptr despite an idle worker. The predicate form
// re-evaluates at the deadline. Race many short-deadline acquires against
// parks: the worker must always end up claimable and nothing may hang.
TEST(WorkerRegistry, AcquireDeadlineRaceNeverLosesAParkedWorker) {
  for (int i = 0; i < 32; ++i) {
    WorkerRegistry registry;
    std::stringstream in, out;
    std::thread parker([&] { registry.park("racer", in, out); });
    auto lease = registry.acquire(1);
    if (lease == nullptr) {
      lease = registry.acquire(20000);  // the worker IS there: must succeed
    }
    ASSERT_NE(lease, nullptr) << "iteration " << i;
    lease->mark_failed();
    lease.reset();
    parker.join();
  }
}

// ------------------------------------------------------ deadlines & abort --

/// A deterministic profiler clock advancing one millisecond per reading:
/// any nonzero campaign deadline expires within a handful of
/// instrumentation calls, independent of wall time.
obs::TimelineProfiler::ClockFn fast_clock() {
  auto ticks = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [ticks] { return ticks->fetch_add(1'000'000); };
}

TEST(Deadline, RunningCampaignStopsBetweenJobsWithAStructuredError) {
  CampaignService::Config config;
  config.profile_clock = fast_clock();
  CampaignService service(std::move(config));

  // 50ms under the 1ms-per-reading clock: admission costs a handful of
  // readings (the deadline cannot evict the campaign while queued), while
  // finishing all 20 jobs costs well over fifty — the expiry always lands
  // between jobs, mid-run.
  const auto lines = serve_lines(
      service,
      with_directive(nine_kind_block(1, 1), "deadline 50") + "stats\nping\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "pong");  // the session outlives the expiry
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  EXPECT_TRUE(any_line_contains(lines, "deadline-exceeded campaign 1"));
  bool stopped = false;
  for (const auto& line : lines) {
    if (starts_with(line, "error deadline-exceeded campaign 1") &&
        line.find("streamed before stop") != std::string::npos) {
      stopped = true;
    }
  }
  EXPECT_TRUE(stopped) << "expected the partial-progress error reply";
  EXPECT_LT(count_prefixed(lines, "record "), 20u);
  EXPECT_TRUE(any_line_contains(lines, " deadline-expired 1"));
}

TEST(Deadline, QueuedCampaignIsEvictedWhenItsDeadlineExpires) {
  CampaignService service({});
  // Hold every resource so the campaign can never be admitted.
  auto blocker = service.queue().submit("blocker", 0, kResourceAll);
  ASSERT_TRUE(blocker);
  ASSERT_TRUE(blocker->try_start());

  const auto lines = serve_lines(
      service, with_directive(nine_kind_block(1, 1), "deadline 50"));
  EXPECT_EQ(count_prefixed(lines, "record "), 0u);  // it never ran
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  EXPECT_GE(count_prefixed(lines, "queued "), 1u);  // it did wait
  bool evicted = false;
  for (const auto& line : lines) {
    if (starts_with(line, "error deadline-exceeded campaign") &&
        line.find("cancelled while queued") != std::string::npos) {
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted) << "expected a queue eviction error";

  const auto stats = serve_lines(service, "stats\n");
  EXPECT_TRUE(any_line_contains(stats, " deadline-expired 1"));
  blocker.reset();
}

TEST(Abort, CancelsAQueuedCampaignByName) {
  CampaignService service({});
  auto blocker = service.queue().submit("blocker", 0, kResourceAll);
  ASSERT_TRUE(blocker);
  ASSERT_TRUE(blocker->try_start());

  std::vector<std::string> session;
  std::thread waiter(
      [&] { session = serve_lines(service, nine_kind_block(1, 1)); });
  ASSERT_TRUE(
      wait_until([&] { return service.queue().queued_count() == 1; }));
  // The abort lands once the campaign's cancel handle is registered —
  // retry over the short submit-to-register window.
  bool abort_acknowledged = false;
  ASSERT_TRUE(wait_until([&] {
    if (abort_acknowledged) {
      return true;
    }
    const auto reply = serve_lines(service, "abort ninekinds\n");
    abort_acknowledged =
        !reply.empty() && reply[0] == "ok abort ninekinds cancelled 1";
    return abort_acknowledged;
  }));
  waiter.join();

  EXPECT_EQ(count_prefixed(session, "record "), 0u);
  EXPECT_TRUE(any_line_contains(session, "aborted campaign"));
  bool evicted = false;
  for (const auto& line : session) {
    if (starts_with(line, "error aborted campaign") &&
        line.find("cancelled while queued") != std::string::npos) {
      evicted = true;
    }
  }
  EXPECT_TRUE(evicted) << "expected a queue eviction error";
  const auto stats = serve_lines(service, "stats\n");
  EXPECT_TRUE(any_line_contains(stats, " aborted 1"));

  // Unknown names cancel nothing and still get a structured reply.
  const auto nothing = serve_lines(service, "abort nosuch\n");
  ASSERT_EQ(nothing.size(), 1u);
  EXPECT_EQ(nothing[0], "ok abort nosuch cancelled 0");
  blocker.reset();
}

// The scheduler-level stop contract the service's cancellation rides on:
// the predicate is polled between jobs, the stop surfaces as a
// CampaignStopped carrying the code, and already-settled jobs are kept.
TEST(Scheduler, StopPredicateRaisesCampaignStoppedBetweenJobs) {
  CampaignRequest request;
  request.name = "stoppable";
  request.chips = {soc::ChipModel::kM1};
  request.sme_sizes = {32, 48};
  orchestrator::Campaign campaign = request.to_campaign();
  orchestrator::JobQueue queue;
  campaign.expand(queue);
  ASSERT_GE(queue.total(), 2u);

  orchestrator::ResultCache cache;
  orchestrator::CampaignScheduler::Options options;
  options.concurrency = 1;
  orchestrator::CampaignScheduler scheduler(request.options(), options,
                                            &cache);
  std::atomic<std::size_t> records{0};
  bool threw = false;
  try {
    scheduler.run(
        queue,
        [&](const orchestrator::ExperimentJob&,
            const orchestrator::MeasurementRecord&,
            bool /*from_cache*/) { ++records; },
        [&] {
          return records.load() >= 1 ? std::string("aborted")
                                     : std::string();
        });
  } catch (const orchestrator::CampaignStopped& e) {
    threw = true;
    EXPECT_EQ(e.code(), "aborted");
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(records.load(), 1u);
  EXPECT_LT(records.load(), queue.total());
}

// ---------------------------------------------------- outbox backpressure --

/// An ostream sink whose writes block until the gate opens — the "client
/// that stopped reading" of the backpressure tests. Bytes are discarded.
class GateBuf : public std::streambuf {
 public:
  void open_gate() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }

 protected:
  int_type overflow(int_type ch) override {
    wait_open();
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    wait_open();
    return n;
  }

 private:
  void wait_open() {
    std::unique_lock lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
  }

  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

TEST(Outbox, DataLinesBlockAtCapacityControlLinesBypass) {
  GateBuf gate;
  std::ostream sink(&gate);
  SessionOutbox outbox(sink, /*capacity=*/2);
  std::atomic<int> accepted{0};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      outbox.push_data("record r" + std::to_string(i));
      accepted.store(i + 1);
    }
  });
  // Against a shut gate, at most capacity lines plus the writer's single
  // in-flight line can be accepted; the producer must stall well short of 6.
  EXPECT_FALSE(wait_until([&] { return accepted.load() >= 6; }, 300));
  EXPECT_LE(accepted.load(), 3);
  outbox.push_control("event while full");  // returns despite the full queue
  gate.open_gate();
  ASSERT_TRUE(wait_until([&] { return accepted.load() == 6; }));
  producer.join();
  outbox.close();
  const auto stats = outbox.stats();
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_GE(stats.high_water, 2u);
  EXPECT_GE(stats.blocked, 1u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(Outbox, CancelDiscardsQueuedDataAndUnblocksProducers) {
  GateBuf gate;
  std::ostream sink(&gate);
  SessionOutbox outbox(sink, /*capacity=*/2);
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    for (int i = 0; i < 6; ++i) {
      outbox.push_data("record r" + std::to_string(i));
    }
    producer_done.store(true);
  });
  EXPECT_FALSE(wait_until([&] { return producer_done.load(); }, 300));
  // The gate is still shut: cancellation ALONE must unblock the producer —
  // this is what cuts an aborted campaign loose from a stalled client.
  outbox.cancel();
  ASSERT_TRUE(wait_until([&] { return producer_done.load(); }));
  producer.join();
  EXPECT_TRUE(outbox.cancelled());
  outbox.push_data("record post-cancel");  // dropped, not blocked
  outbox.push_control("error aborted");    // control still flows
  gate.open_gate();
  outbox.close();
  EXPECT_GE(outbox.stats().dropped, 6u);
}

TEST(Outbox, StreamAdapterSplitsLinesAndPreservesOrder) {
  std::ostringstream sink;
  SessionOutbox outbox(sink, 4);
  {
    OutboxStream out(outbox);
    out << "record a 1\nprogress 1 of 2\n";
    out << "shard 0 start worker w\n";
  }
  outbox.close();
  EXPECT_EQ(sink.str(),
            "record a 1\nprogress 1 of 2\nshard 0 start worker w\n");
}

TEST(Outbox, StreamAdapterDropsOnlyDataAfterCancel) {
  std::ostringstream sink;
  SessionOutbox outbox(sink, 4);
  OutboxStream out(outbox);
  outbox.cancel();
  out << "record dropped 1\n";
  out << "progress dropped 2 of 2\n";
  out << "error aborted campaign 1\n";
  outbox.close();
  EXPECT_EQ(sink.str(), "error aborted campaign 1\n");
  EXPECT_EQ(outbox.stats().dropped, 2u);
}

// -------------------------------------------------- fault-stream scripts --

TEST(FaultStreamTest, TruncatesCorruptsAndStallsAtTheScriptedOffset) {
  {
    test::FaultStream in("hello world", test::Fault::kTruncate, 5);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_EQ(got, "hello");
  }
  {
    test::FaultStream in("hello world", test::Fault::kCorrupt, 0);
    std::string got((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    ASSERT_EQ(got.size(), 11u);
    EXPECT_EQ(got[0], static_cast<char>('h' ^ 0xFF));
    EXPECT_EQ(got.substr(1), "ello world");
  }
  {
    test::FaultStream in("hello world", test::Fault::kStall, 5);
    std::string head(5, '\0');
    in.read(head.data(), 5);
    EXPECT_EQ(head, "hello");
    std::atomic<bool> resumed{false};
    std::thread reader([&] {
      char c = 0;
      in.get(c);
      EXPECT_EQ(c, ' ');
      resumed.store(true);
    });
    EXPECT_FALSE(wait_until([&] { return resumed.load(); }, 100));
    in.release();
    ASSERT_TRUE(wait_until([&] { return resumed.load(); }));
    reader.join();
  }
}

// The worker side of the wire under scripted faults: a clean EOF is a
// normal daemon departure (exit 0); a frame cut or corrupted mid-payload
// is a protocol violation (exit 1) — never a hang or a crash.
TEST(FaultStreamTest, WorkerSessionDistinguishesCleanEofFromFrameFaults) {
  CampaignRequest request;
  request.name = "t";
  request.sme_sizes = {32};
  const std::string task_frame =
      encode_frame({kFrameTask, encode_task(request, 0, {0})});
  const std::string hello_ack = "ok worker w\n";
  {
    test::FaultStream in(hello_ack);  // ack, then clean end-of-stream
    std::ostringstream out;
    EXPECT_EQ(run_worker_session(in, out, "w"), 0);
  }
  {
    const std::string bytes = hello_ack + task_frame;
    test::FaultStream in(bytes, test::Fault::kTruncate, bytes.size() - 7);
    std::ostringstream out;
    EXPECT_EQ(run_worker_session(in, out, "w"), 1);
  }
  {
    const std::string bytes = hello_ack + task_frame;
    test::FaultStream in(bytes, test::Fault::kCorrupt, bytes.size() - 10);
    std::ostringstream out;
    EXPECT_EQ(run_worker_session(in, out, "w"), 1);
  }
}

// --------------------------------------------------- query crash recovery --

orchestrator::CacheKey recovery_key(std::size_t i) {
  orchestrator::CacheKey key;
  key.kind = orchestrator::JobKind::kGemmMeasure;
  key.chip = soc::kAllChipModels[i % 4];
  key.impl = soc::GemmImpl::kCpuSingle;
  key.n = 32 + 16 * (i % 5);
  key.payload_fingerprint = 7000 + i;
  key.options_fingerprint = 11;
  return key;
}

orchestrator::MeasurementRecord recovery_record(std::size_t i) {
  harness::GemmMeasurement m;
  const auto key = recovery_key(i);
  m.n = key.n;
  m.chip = key.chip;
  m.impl = key.impl;
  m.best_gflops = 64.25 + static_cast<double>(i);
  m.time_ns.add(2.5e6 + static_cast<double>(i));
  return m;
}

/// Every `query-record` payload of one full query session.
std::vector<std::string> query_records(CampaignService& service) {
  std::vector<std::string> records;
  for (const auto& line : serve_lines(service, "query limit 4096\n")) {
    if (line.rfind("query-record ", 0) == 0) {
      records.push_back(line.substr(13));
    }
  }
  return records;
}

/// `record` payloads of a campaign reply, sorted, plus its `done` line.
std::pair<std::vector<std::string>, std::string> campaign_records(
    const std::vector<std::string>& lines) {
  std::vector<std::string> records;
  for (const auto& line : lines) {
    if (starts_with(line, "record ")) {
      records.push_back(line.substr(7));
    }
  }
  std::sort(records.begin(), records.end());
  return {records, lines.empty() ? std::string() : lines.back()};
}

constexpr char kReplayedCampaign[] =
    "begin replayed\n"
    "chips m1,m2\n"
    "impls cpu-single,gpu-mps\n"
    "sizes 24,32\n"
    "repetitions 1\n"
    "run\n";

TEST(Chaos, SigkilledWriterColdRebuildsAndServesIdenticalQueries) {
  const auto dir = temp_dir("sigkill_query");
  const std::string killed = (dir / "killed.store").string();
  const std::string pristine = (dir / "pristine.store").string();

  // The undisturbed twin: the same 14 points, written and closed cleanly,
  // then one campaign run by a daemon on the same store.
  {
    orchestrator::ResultCache cache;
    cache.persist_to(pristine);
    for (std::size_t i = 0; i < 14; ++i) {
      cache.insert(recovery_key(i), recovery_record(i));
    }
  }
  std::vector<std::string> campaign;
  {
    CampaignService::Config config;
    config.store_path = pristine;
    CampaignService first_run(config);
    const auto [records, done] =
        campaign_records(serve_lines(first_run, kReplayedCampaign));
    ASSERT_EQ(done.rfind("done campaign ", 0), 0u) << done;
    campaign = records;
  }
  ASSERT_FALSE(campaign.empty());

  // The victim: a child process writes the same points and the campaign's
  // entry lines, then dies by SIGKILL with a torn, newline-less entry
  // fragment at the store's tail — the exact on-disk state an append cut
  // mid-write leaves behind. The fragment is the first half of one of the
  // campaign's own lines: a key the store holds, under bytes that must
  // never be served.
  const std::string torn_fragment =
      campaign.front().substr(0, campaign.front().size() / 2);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    orchestrator::ResultCache cache;
    cache.persist_to(killed);
    for (std::size_t i = 0; i < 14; ++i) {
      cache.insert(recovery_key(i), recovery_record(i));
    }
    for (const auto& line : campaign) {
      const auto entry = orchestrator::parse_store_entry(line);
      if (!entry.has_value()) {
        _exit(43);
      }
      cache.insert(entry->first, entry->second);
    }
    std::ofstream torn(killed, std::ios::app);
    torn << torn_fragment;  // no newline, no digest
    torn.flush();
    raise(SIGKILL);
    _exit(42);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Restart "the daemon" over the killed store: the cold-start index scan
  // must skip the torn tail and serve queries bit-identical to the twin.
  CampaignService::Config undisturbed_config;
  undisturbed_config.store_path = pristine;
  CampaignService undisturbed(undisturbed_config);
  CampaignService::Config recovered_config;
  recovered_config.store_path = killed;
  CampaignService recovered(recovered_config);

  const auto expected = query_records(undisturbed);
  ASSERT_EQ(expected.size(), 14u + campaign.size());
  EXPECT_EQ(query_records(recovered), expected);

  // Replaying the campaign reads every point through the index: nothing
  // executes, every record is a complete line the store holds, and the
  // torn tail is never among them.
  const auto replay = serve_lines(recovered, kReplayedCampaign);
  const auto [replayed, done] = campaign_records(replay);
  ASSERT_EQ(done.rfind("done campaign ", 0), 0u) << done;
  EXPECT_NE(done.find(" executed 0 hits " + std::to_string(campaign.size())),
            std::string::npos)
      << done;
  EXPECT_EQ(replayed, campaign);
  for (const auto& record : replayed) {
    EXPECT_NE(record, torn_fragment);
    EXPECT_TRUE(orchestrator::parse_store_entry(record).has_value())
        << record;
  }

  // The recovered daemon keeps appending correctly: new campaign records
  // land after the (terminated) torn tail and stay queryable.
  const auto lines = serve_lines(recovered,
                                 "begin aftermath\n"
                                 "chips m1\n"
                                 "impls cpu-single\n"
                                 "sizes 40\n"
                                 "repetitions 1\n"
                                 "run\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().rfind("done campaign ", 0), 0u) << lines.back();
  const auto grown = query_records(recovered);
  EXPECT_GT(grown.size(), expected.size());
  for (const auto& record : grown) {
    EXPECT_TRUE(orchestrator::parse_store_entry(record).has_value())
        << record;
  }
  std::filesystem::remove_all(dir);
}

TEST(Chaos, FollowResumedFromAnyCursorDeliversEveryRecordExactlyOnce) {
  const auto dir = temp_dir("follow_resume");
  CampaignService::Config config;
  config.store_path = (dir / "follow.store").string();
  CampaignService service(config);

  const auto campaign = serve_lines(service,
                                    "begin resilient\n"
                                    "chips m1,m2\n"
                                    "impls cpu-single\n"
                                    "sizes 32,48\n"
                                    "repetitions 1\n"
                                    "run\n");
  ASSERT_FALSE(campaign.empty());
  ASSERT_EQ(campaign.back().rfind("done campaign ", 0), 0u);

  // The full stream, as one uninterrupted follow: (resume-token, entry).
  std::vector<std::pair<std::string, std::string>> full;
  for (const auto& line : serve_lines(service, "follow resilient\n")) {
    if (line.rfind("follow-record ", 0) == 0) {
      std::istringstream words(line);
      std::string tag;
      std::string token;
      words >> tag >> token;
      std::string entry;
      std::getline(words, entry);
      full.emplace_back(token, entry.substr(1));
    }
  }
  ASSERT_GE(full.size(), 2u);

  // Drop the connection after every possible prefix; resume from the last
  // token the client read. Prefix + resumed tail must equal the full
  // stream bit-identically — every record exactly once, none skipped.
  for (std::size_t k = 0; k <= full.size(); ++k) {
    const std::string command =
        k == 0 ? "follow resilient\n"
               : "follow resilient from " + full[k - 1].first + "\n";
    std::vector<std::string> resumed;
    std::string terminal;
    for (const auto& line : serve_lines(service, command)) {
      if (line.rfind("follow-record ", 0) == 0) {
        std::istringstream words(line);
        std::string tag;
        std::string token;
        words >> tag >> token;
        std::string entry;
        std::getline(words, entry);
        resumed.push_back(entry.substr(1));
      } else if (line.rfind("follow ", 0) == 0) {
        terminal = line;
      }
    }
    ASSERT_EQ(resumed.size(), full.size() - k) << "prefix " << k;
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      EXPECT_EQ(resumed[i], full[k + i].second)
          << "prefix " << k << " record " << i;
    }
    EXPECT_NE(terminal.find(" state complete"), std::string::npos)
        << terminal;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ao::service
