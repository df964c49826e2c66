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
#include <fstream>
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
#include "temp_dir.hpp"

// Deterministic chaos suite: an in-process daemon plus scripted frame
// workers whose connections die at scripted points of the conversation —
// after hello, mid-records, before `done`, or whose `done` count lies —
// proving the resilience
// layer end to end: heartbeat retirement, failure-domain rescheduling
// under a retry budget, deadline/abort cancellation, and bounded
// backpressure. Every synchronization is an event (promise/future,
// condition variable, registry state), never a sleep standing in for one.

namespace ao::service {
namespace {

// ---------------------------------------------------------------- helpers --

std::filesystem::path temp_dir(const std::string& name) {
  return test::unique_temp_dir("ao_chaos_" + name);
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

/// Where a scripted worker breaks its conversation.
enum class KillPoint {
  kMidRecords,      ///< streams half its records frames, then the socket dies
  kBeforeDone,      ///< streams every record, dies before its `done` frame
  kMiscountedDone,  ///< every record, a `done` count one too high, then dies
};

/// Computes a task's entry lines exactly like ao_worker does, so the
/// scripted deaths below interrupt byte-identical genuine traffic — and the
/// retried shard reproduces the exact same entry lines, which is what the
/// daemon's replay dedup is up against.
std::vector<std::string> run_task_locally(const RemoteTask& task) {
  orchestrator::Campaign campaign = task.request.to_campaign();
  orchestrator::JobQueue queue;
  campaign.expand_subset(queue, task.groups);
  orchestrator::CampaignScheduler::Options options;
  options.concurrency = 1;
  orchestrator::CampaignScheduler scheduler(task.request.options(), options);
  const std::uint64_t fp =
      orchestrator::options_fingerprint(task.request.options());
  std::vector<std::string> lines;
  scheduler.run(queue, [&](const orchestrator::ExperimentJob& job,
                           const orchestrator::MeasurementRecord& record,
                           bool /*from_cache*/) {
    lines.push_back(orchestrator::format_store_entry(
        orchestrator::key_for_job(job, fp), record));
  });
  return lines;
}

/// A worker that fails at a scripted point of its first task, then fulfils
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
        const std::vector<std::string> lines = run_task_locally(*task);
        const std::size_t sent = kill == KillPoint::kMidRecords
                                     ? lines.size() / 2
                                     : lines.size();
        for (std::size_t i = 0; i < sent; ++i) {
          write_frame(stream, {kFrameRecords, lines[i]});
        }
        if (kill == KillPoint::kMiscountedDone) {
          // Read before the break below: the count alone must retire it.
          write_frame(stream, {kFrameDone, std::to_string(sent + 1)});
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
    const std::vector<std::string> lines = run_task_locally(*task);
    for (const auto& line : lines) {
      write_frame(stream, {kFrameRecords, line});
    }
    write_frame(stream, {kFrameDone, std::to_string(lines.size())});
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

/// The worker named on the first stream line containing `marker`, e.g.
/// "shard 1 lost worker doomed rescheduling" for " lost worker ".
std::string worker_after(const std::vector<std::string>& lines,
                         const std::string& marker) {
  for (const auto& line : lines) {
    const std::size_t at = line.find(marker);
    if (at != std::string::npos) {
      const std::size_t begin = at + marker.size();
      return line.substr(begin, line.find(' ', begin) - begin);
    }
  }
  return {};
}

/// Runs the 20-record campaign on a store-backed `service` one of whose
/// shard endpoints dies mid-shard. The shard must be retried on ANOTHER
/// endpoint (failure-domain rescheduling); records the dying attempt already
/// settled must reach neither the client nor the store twice; and the
/// settled records must be bit-identical to a single-process run. The lost
/// and the retrying endpoint's names start with the given prefixes, and the
/// done line ends with `done_tail`.
void expect_rescheduled_without_duplicates(CampaignService& service,
                                           const std::string& lost_prefix,
                                           const std::string& retry_prefix,
                                           const std::string& done_tail) {
  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  // Each of the 20 keys settled once, however often the retry replayed it.
  EXPECT_NE(lines.back().find(" records 20 merged 20 "), std::string::npos)
      << lines.back();
  EXPECT_TRUE(lines.back().ends_with(done_tail)) << lines.back();
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);
  EXPECT_TRUE(any_line_contains(lines, " rescheduling"))
      << "expected a lost-worker event";
  const std::string lost = worker_after(lines, " lost worker ");
  const std::string retried = worker_after(lines, " retry worker ");
  EXPECT_TRUE(starts_with(lost, lost_prefix)) << lost;
  EXPECT_TRUE(starts_with(retried, retry_prefix))
      << "expected the shard to be retried on another endpoint: " << retried;
  EXPECT_NE(lost, retried);
  EXPECT_EQ(service.cache().store_entries(), 20u);  // no duplicate line
  EXPECT_TRUE(any_line_contains(serve_lines(service, "stats\n"),
                                " shard-retries 1"));

  CampaignService single({});
  const auto single_lines = serve_lines(single, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(single_lines.back(), "done campaign "));
  auto chaos_entries = entries_by_key(service.cache());
  ASSERT_EQ(chaos_entries.size(), 20u);
  EXPECT_EQ(chaos_entries, entries_by_key(single.cache()));
}

/// The remote case: a daemon with a doomed and a healthy scripted worker,
/// the doomed one failing its first shard at `kill`.
void expect_remote_rescheduled_without_duplicates(KillPoint kill) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("rescheduled");
  CampaignService::Config config;
  config.store_path = (dir / "chaos.store").string();
  config.remote_only = true;  // a silent local run would mask the retry
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));
  ChaosFleet fleet(service, kill);
  ASSERT_TRUE(wait_until([&] { return service.workers().idle_count() == 2; }));
  expect_rescheduled_without_duplicates(service, "doomed", "healthy",
                                        " shards 2 remote 2");
  // The registry reports liveness ages.
  EXPECT_TRUE(
      any_line_contains(serve_lines(service, "stats\n"), " last-seen-ns "));
  serve_lines(service, "shutdown\n");
  fleet.join();
  std::filesystem::remove_all(dir);
}

// The doomed worker dies having streamed half its records: the retry
// replays them, and only the other half is new.
TEST(Chaos, WorkerDyingMidRecordsIsRescheduledWithoutDuplicates) {
  expect_remote_rescheduled_without_duplicates(KillPoint::kMidRecords);
}

// The doomed worker streams every record and dies before `done`: without
// the count nothing proves the shard complete, so it is retried, and the
// retry's replay of every line must settle nothing twice.
TEST(Chaos, WorkerDyingBeforeItsDoneFrameIsRescheduledWithoutDuplicates) {
  expect_remote_rescheduled_without_duplicates(KillPoint::kBeforeDone);
}

// A `done` count that disagrees with the lines received is a broken
// conversation, like a lost connection: the endpoint is retired and the
// shard retried elsewhere.
TEST(Chaos, DoneCountDisagreeingWithTheLinesSentRetiresTheEndpoint) {
  expect_remote_rescheduled_without_duplicates(KillPoint::kMiscountedDone);
}

// The local case: the daemon's first `ao_worker --stdio-frames` child
// relays its hello and the next 600 bytes of its frames (one batch-1 record
// at least, never its whole shard), then is SIGKILLed. Every other child is
// the real worker, held before its hello until that kill — so the doomed
// child is the only endpoint that can take the first shard. The shard is
// retried on another child, a sibling or the fresh one its driver spawns.
TEST(Chaos, LocalWorkerKilledMidShardIsRetriedWithoutDuplicates) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("local_killed");
  const auto script = dir / "doomed_worker.sh";
  {
    const std::string worker = AO_WORKER_BINARY;
    const std::string first = (dir / "first").string();
    const std::string relay = (dir / "relay").string();
    const std::string killed = (dir / "killed").string();
    std::ofstream out(script);
    out << "#!/bin/sh\n"
           "if mkdir " << first << " 2>/dev/null; then\n"
           "  mkfifo " << relay << "\n"
           "  exec 3<&0\n"  // a background job's own stdin is /dev/null
           "  " << worker << " \"$@\" --batch 1 <&3 3<&- >" << relay
        << " &\n"
           // One byte per write: the relay forwards as it reads.
           "  dd bs=1 count=615 status=none <" << relay << "\n"
           "  kill -9 $!\n"
           "  { wait $!; } 2>/dev/null\n"
           "  : >" << killed << "\n"
           "  exit 0\n"
           "fi\n"
           "while [ ! -e " << killed << " ]; do sleep 0.01; done\n"
           "exec " << worker << " \"$@\"\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);
  CampaignService::Config config;
  config.store_path = (dir / "chaos.store").string();
  config.worker_binary = script.string();
  CampaignService service(std::move(config));
  expect_rescheduled_without_duplicates(service, "local-", "local-",
                                        " shards 2");
  std::filesystem::remove_all(dir);
}

// The ISSUE's acceptance criterion: killing a worker under --remote-only
// with the retry budget exhausted must surface a structured shard error —
// and leave the session alive — not hang the campaign.
TEST(Chaos, RetryBudgetExhaustionSurfacesAShardErrorNotAHang) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("budget");
  CampaignService::Config config;
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
