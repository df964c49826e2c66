#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <thread>
#include <vector>

#include "util/error.hpp"

#include "fault_stream.hpp"
#include "orchestrator/record.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/store_index.hpp"
#include "service/campaign_queue.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "service/shard_planner.hpp"
#include "service/socket.hpp"
#include "service/worker_link.hpp"
#include "temp_dir.hpp"

namespace ao::service {
namespace {

using orchestrator::CacheKey;
using orchestrator::JobKind;
using orchestrator::MeasurementRecord;

// ---------------------------------------------------------------- protocol --

CampaignRequest full_request() {
  CampaignRequest request;
  request.name = "everything";
  request.client = "tester";
  request.priority = 7;
  request.chips = {soc::ChipModel::kM1, soc::ChipModel::kM3};
  request.impls = {soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps};
  request.sizes = {32, 64};
  request.repetitions = 2;
  request.matrix_seed = 7;
  request.verify_n_max = 64;
  request.functional_n_max = 64;
  request.stream_threads = {1, 2};
  request.stream_repetitions = 3;
  request.stream_elements = 1u << 10;
  request.gpu_stream = true;
  request.gpu_stream_repetitions = 4;
  request.gpu_stream_elements = 1u << 10;
  request.precision_sizes = {24};
  request.precision_seed = 5;
  request.ane_sizes = {32};
  request.ane_functional = true;
  request.fp64emu_sizes = {24};
  request.fp64emu_seed = 11;
  request.sme_sizes = {32};
  request.sme_seed = 13;
  request.power_idle = true;
  request.power_window_seconds = 0.25;
  request.workers = 2;
  request.shards = 2;
  request.deadline_ms = 1500;
  request.shard_retries = 3;
  return request;
}

TEST(Protocol, RequestBlockRoundTripsThroughItsTextForm) {
  const CampaignRequest request = full_request();
  std::string error;
  const auto parsed = parse_request_lines(request.to_lines(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(*parsed == request);
}

TEST(Protocol, CampaignNamesAreFilesystemSafe) {
  EXPECT_TRUE(valid_campaign_name("fig2-sweep_v1.2"));
  EXPECT_FALSE(valid_campaign_name("a/b"));
  EXPECT_FALSE(valid_campaign_name("../../tmp/evil"));
  EXPECT_FALSE(valid_campaign_name(".."));
  EXPECT_FALSE(valid_campaign_name("spaced out"));
  EXPECT_FALSE(valid_campaign_name(std::string(65, 'a')));
  // The name lands in shard-store paths, so begin rejects traversal and
  // leaves no request open.
  RequestBuilder builder;
  EXPECT_TRUE(builder.begin("../evil").has_value());
  EXPECT_FALSE(builder.open());
  EXPECT_FALSE(builder.begin("ok-name").has_value());
}

TEST(Protocol, BuilderRejectsMalformedSetterLines) {
  RequestBuilder builder;
  ASSERT_FALSE(builder.begin("x").has_value());
  EXPECT_TRUE(builder.apply("chips m1,m9").has_value());
  EXPECT_TRUE(builder.apply("impls cpu-quantum").has_value());
  EXPECT_TRUE(builder.apply("sizes banana").has_value());
  EXPECT_TRUE(builder.apply("repetitions 0").has_value());
  EXPECT_TRUE(builder.apply("workers nope").has_value());
  EXPECT_TRUE(builder.apply("frobnicate 3").has_value());
  EXPECT_TRUE(builder.apply("deadline 86400001").has_value());
  EXPECT_TRUE(builder.apply("deadline soon").has_value());
  EXPECT_TRUE(builder.apply("retries 17").has_value());
  // A repeated list value would plan one job, one cache key, twice.
  for (const char* line :
       {"chips m1,m3,M1", "impls cpu-single,gpu-mps,CPU-SINGLE",
        "sizes 32,32,32,32", "stream 1,2,1", "precision 24,24 5", "ane 32,32",
        "fp64emu 24,48,24", "sme 32,32 13"}) {
    const auto error = builder.apply(line);
    ASSERT_TRUE(error.has_value()) << line;
    EXPECT_EQ(error->code, "bad-directive") << line;
  }
  // The request is still usable after every rejection, and no rejected
  // list reached it.
  EXPECT_FALSE(builder.apply("chips m1").has_value());
  EXPECT_FALSE(builder.apply("sme 32").has_value());
  EXPECT_FALSE(builder.apply("deadline 250").has_value());
  EXPECT_FALSE(builder.apply("retries 0").has_value());
  const CampaignRequest request = builder.take();
  EXPECT_TRUE(request.has_work());
  EXPECT_TRUE(request.sizes.empty());
  EXPECT_TRUE(request.stream_threads.empty());
  EXPECT_TRUE(request.precision_sizes.empty());
}

TEST(Protocol, ImplNamesMatchTheFigureLegends) {
  EXPECT_EQ(gemm_impl_from_string("cpu-single"), soc::GemmImpl::kCpuSingle);
  EXPECT_EQ(gemm_impl_from_string("GPU-MPS"), soc::GemmImpl::kGpuMps);
  EXPECT_EQ(gemm_impl_from_string("gpu-cutlass"), soc::GemmImpl::kGpuCutlass);
  EXPECT_THROW(gemm_impl_from_string("tpu"), util::InvalidArgument);
}

// ------------------------------------------------------------- wire frames --

TEST(WireFrame, RoundTripsBinaryPayloadsBackToBack) {
  // Frames must be binary-safe: newlines, NULs and high bytes inside the
  // payload may not confuse the framing.
  std::string binary = "entry line one\nentry line two\n";
  binary.push_back('\0');
  binary.push_back('\xff');
  binary += "@frame1 looks like a header but is payload";
  const Frame first{"records", binary};
  const Frame second{"done", ""};

  std::stringstream wire;
  write_frame(wire, first);
  write_frame(wire, second);

  std::string error;
  const auto a = read_frame(wire, &error);
  ASSERT_TRUE(a.has_value()) << error;
  EXPECT_EQ(*a, first);
  const auto b = read_frame(wire, &error);
  ASSERT_TRUE(b.has_value()) << error;
  EXPECT_EQ(*b, second);
  // Clean end-of-stream is distinguishable from corruption.
  EXPECT_FALSE(read_frame(wire, &error).has_value());
  EXPECT_EQ(error, "closed");
}

TEST(WireFrame, RejectsTruncationCorruptionAndForeignVersions) {
  const std::string encoded = encode_frame({"task", "hello frames"});
  std::string error;
  {
    // Stream ends inside the payload.
    test::FaultStream in(encoded, test::Fault::kTruncate, encoded.size() - 5);
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "frame-truncated");
  }
  {
    // The trailing newline is missing (a half-flushed frame).
    test::FaultStream in(encoded, test::Fault::kTruncate, encoded.size() - 1);
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "frame-truncated");
  }
  {
    // A flipped payload byte fails the digest.
    test::FaultStream in(encoded, test::Fault::kCorrupt,
                         encoded.find("hello"));
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "frame-digest-mismatch");
  }
  {
    // A future frame version is refused, not guessed at.
    std::istringstream in("@frame2 task 0 0\n\n");
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "bad-frame-header");
  }
  {
    // An absurd length token is refused before any allocation happens.
    std::istringstream in("@frame1 task ffffffffffff 0\n");
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "frame-oversized");
  }
  {
    // A newline-free garbage stream is cut off at the header cap instead
    // of growing a string without bound.
    std::istringstream in(std::string(1 << 20, 'x'));
    EXPECT_FALSE(read_frame(in, &error).has_value());
    EXPECT_EQ(error, "bad-frame-header");
  }
}

TEST(WireFrame, TaskPayloadRoundTripsThroughItsTextForm) {
  const CampaignRequest request = full_request();
  const std::vector<std::size_t> groups = {0, 2, 5};
  const std::string payload = encode_task(request, 3, groups);
  std::string error;
  const auto task = decode_task(payload, &error);
  ASSERT_TRUE(task.has_value()) << error;
  EXPECT_EQ(task->shard_index, 3u);
  EXPECT_EQ(task->groups, groups);
  EXPECT_TRUE(task->request == request);

  EXPECT_FALSE(decode_task("garbage", &error).has_value());
  EXPECT_FALSE(decode_task("shard 1\ngroups x\n", &error).has_value());

  // Indices that overflow 64 bits are rejected, not wrapped: 2^64 would
  // read as shard 0 and 2^64 + 1 as group 1, running the wrong group.
  const std::string block = payload.substr(payload.find("\nbegin") + 1);
  ASSERT_TRUE(decode_task("shard 0\ngroups 1\n" + block, &error).has_value())
      << error;
  EXPECT_FALSE(decode_task("shard 18446744073709551616\n"
                           "groups 18446744073709551617\n" +
                               block,
                           &error)
                   .has_value());
  EXPECT_FALSE(
      decode_task("shard 0\ngroups 1,18446744073709551617\n" + block, &error)
          .has_value());
  EXPECT_FALSE(decode_task("shard 0\ngroups 1,\n" + block, &error).has_value());
}

// ----------------------------------------------------------------- session --

std::filesystem::path temp_dir(const std::string& name) {
  return test::unique_temp_dir("ao_svc_" + name);
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

TEST(CampaignService, MalformedRequestsGetErrorRepliesNotACrash) {
  CampaignService service({});
  const auto lines = serve_lines(service,
                                 "warp 9\n"
                                 "run\n"
                                 "begin bad\n"
                                 "chips m1,m9\n"
                                 "sizes x\n"
                                 "begin nested\n"
                                 "run\n"         // no chips accepted -> error
                                 "begin empty\n"
                                 "chips m1\n"
                                 "run\n"         // no work -> error
                                 "ping\n");
  // Every bad line answered with an error; the session survived to the pong.
  EXPECT_GE(count_prefixed(lines, "error "), 6u);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "pong");
  EXPECT_EQ(count_prefixed(lines, "record "), 0u);
}

TEST(CampaignService, UnknownCommandOutsideARequestIsAnError) {
  CampaignService service({});
  const auto lines = serve_lines(service, "chips m1\nshutdown\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(starts_with(lines[0], "error "));
  EXPECT_EQ(lines[1], "ok shutdown");
}

/// A small mixed campaign covering every JobKind, sized for test time.
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

TEST(CampaignService, StreamsVerifiedRecordsBeforeDone) {
  CampaignService service({});
  const auto lines = serve_lines(service, nine_kind_block(2, 1));

  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(starts_with(lines.front(), "ok campaign "));
  EXPECT_TRUE(starts_with(lines.back(), "done campaign "));

  // Streamed records arrive incrementally: every record line sits strictly
  // between the ok header and the done trailer, interleaved with monotonic
  // progress lines.
  std::size_t records = 0;
  std::size_t last_progress = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    if (starts_with(lines[i], "record ")) {
      const auto entry = orchestrator::parse_store_entry(lines[i].substr(7));
      ASSERT_TRUE(entry.has_value()) << lines[i];
      ++records;
      // A GEMM measurement streams only once its (impl, n) verdict is
      // settled, so the record already carries it.
      if (entry->first.kind == JobKind::kGemmMeasure) {
        const auto& m =
            std::get<harness::GemmMeasurement>(entry->second);
        EXPECT_TRUE(m.verified)
            << "gemm record streamed before its verification";
      }
    } else if (starts_with(lines[i], "progress ")) {
      std::istringstream in(lines[i].substr(9));
      std::size_t done = 0;
      char slash = 0;
      std::size_t total = 0;
      ASSERT_TRUE(in >> done >> slash >> total);
      EXPECT_GT(done, last_progress);
      last_progress = done;
    }
  }
  // 2 chips x (2 gemm + 2 cpu-stream + 1 gpu-stream + 1 precision + 1 ane +
  // 1 fp64emu + 1 sme + 1 power) = 20 streamed records.
  EXPECT_EQ(records, 20u);
}

TEST(CampaignService, RepeatedCampaignIsServedFromTheWarmCache) {
  CampaignService service({});
  const auto first = serve_lines(service, nine_kind_block(2, 1));
  const auto second = serve_lines(service, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(second.back(), "done campaign "));
  // "done campaign <id> records <n> executed <e> hits <h>"
  std::istringstream in(second.back());
  std::string word;
  std::size_t records = 0;
  std::size_t executed = 0;
  std::size_t hits = 0;
  in >> word >> word >> word >> word >> records >> word >> executed >> word >>
      hits;
  EXPECT_EQ(records, 20u);
  EXPECT_EQ(executed, 0u);  // every point came from the warm cache
  EXPECT_EQ(hits, 20u);
  EXPECT_EQ(count_prefixed(second, "record "), 20u);
}

/// The `record` lines of a session, sorted: a campaign's record set (stream
/// order is not a contract).
std::vector<std::string> sorted_records(const std::vector<std::string>& lines) {
  std::vector<std::string> records;
  for (const auto& line : lines) {
    if (starts_with(line, "record ")) {
      records.push_back(line);
    }
  }
  std::sort(records.begin(), records.end());
  return records;
}

/// "done campaign <id> records <n> executed <e> hits <h>" -> {e, h}.
std::pair<std::size_t, std::size_t> executed_and_hits(const std::string& done) {
  std::istringstream in(done);
  std::string word;
  std::size_t records = 0;
  std::size_t executed = 0;
  std::size_t hits = 0;
  in >> word >> word >> word >> word >> records >> word >> executed >> word >>
      hits;
  return {executed, hits};
}

// A fully warm in-process replay is served by the warm pass alone: the
// cold run's records byte for byte, no scheduler and so no `execute` span,
// and one `schedule` span labelled `warm` for the pass.
TEST(CampaignService, FullyWarmInProcessReplayStreamsTheColdRecordSet) {
  CampaignService service({});
  const auto cold = serve_lines(service, nine_kind_block(2, 1));
  const auto warm = serve_lines(service, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(warm.back(), "done campaign ")) << warm.back();
  EXPECT_EQ(executed_and_hits(warm.back()),
            (std::pair<std::size_t, std::size_t>{0, 20}));
  EXPECT_EQ(sorted_records(warm), sorted_records(cold));
  EXPECT_EQ(sorted_records(warm).size(), 20u);

  const auto timelines = service.timelines();
  ASSERT_EQ(timelines.size(), 2u);
  std::size_t executes = 0;
  std::size_t warm_spans = 0;
  for (const obs::Span& span : timelines.back().spans) {
    executes += span.phase == obs::Phase::kExecute ? 1 : 0;
    warm_spans +=
        span.phase == obs::Phase::kSchedule && span.label == "warm" ? 1 : 0;
  }
  EXPECT_EQ(executes, 0u);
  EXPECT_EQ(warm_spans, 1u);
}

// A partly warm campaign streams its cached points from the warm pass and
// runs only the rest on a scheduler: every job is either executed or a hit,
// and the record set is the one a cold run of the whole campaign streams.
TEST(CampaignService, PartlyWarmInProcessCampaignExecutesOnlyTheRest) {
  const std::string narrow =
      "begin narrow\nchips m1\nimpls cpu-single,gpu-mps\nsizes 32\n"
      "repetitions 2\nprecision 24 5\nsme 32 13\nrun\n";
  const std::string wide =
      "begin wide\nchips m1,m3\nimpls cpu-single,gpu-mps\nsizes 32,48\n"
      "repetitions 2\nprecision 24 5\nsme 32 13\nrun\n";
  const auto dir = temp_dir("partly_warm");
  const auto sorted_entries = [](const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> entries;
    std::string line;
    while (std::getline(in, line)) {
      if (starts_with(line, "entry ")) {
        entries.push_back(line);
      }
    }
    std::sort(entries.begin(), entries.end());
    return entries;
  };
  CampaignService::Config cold_config;
  cold_config.store_path = (dir / "cold.aocache").string();
  CampaignService fresh(cold_config);
  const auto reference = serve_lines(fresh, wide);
  ASSERT_TRUE(starts_with(reference.back(), "done campaign "));

  CampaignService::Config config;
  config.store_path = (dir / "warm.aocache").string();
  CampaignService service(config);
  serve_lines(service, narrow);
  const auto lines = serve_lines(service, wide);
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  const auto [executed, hits] = executed_and_hits(lines.back());
  const std::size_t jobs = sorted_records(reference).size();
  EXPECT_GT(hits, 0u);
  EXPECT_GT(executed, 0u);
  EXPECT_EQ(executed + hits, jobs);
  EXPECT_EQ(sorted_records(lines), sorted_records(reference));

  // Each executed record is formatted once and settled as those bytes: every
  // streamed line is its store entry byte for byte, the store holds one
  // line per key, and its lines are a cold run's.
  const auto stored = sorted_entries(config.store_path);
  const std::set<std::string> stored_set(stored.begin(), stored.end());
  for (const auto& record : sorted_records(lines)) {
    EXPECT_EQ(stored_set.count(record.substr(7)), 1u) << record;
  }
  std::set<std::uint64_t> keys;
  for (const auto& entry : stored) {
    const auto parsed = orchestrator::parse_store_entry(entry);
    ASSERT_TRUE(parsed.has_value()) << entry;
    keys.insert(parsed->first.fingerprint());
  }
  EXPECT_EQ(keys.size(), stored.size());
  EXPECT_EQ(stored, sorted_entries(cold_config.store_path));
  std::filesystem::remove_all(dir);
}

/// A session sink that passes bytes through until the first `record` line
/// and holds that write until open(): a client that stopped reading
/// mid-stream.
class RecordGate : public std::streambuf {
 public:
  bool holding() {
    std::lock_guard lock(mutex_);
    return holding_;
  }
  void open() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }
  std::vector<std::string> lines() {
    std::lock_guard lock(mutex_);
    std::vector<std::string> out;
    std::istringstream in(text_);
    std::string line;
    while (std::getline(in, line)) {
      out.push_back(line);
    }
    return out;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const char c = traits_type::to_char_type(ch);
      xsputn(&c, 1);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::unique_lock lock(mutex_);
    if (!open_ && std::string_view(s, static_cast<std::size_t>(n))
                      .starts_with("record ")) {
      holding_ = true;
      opened_.wait(lock, [this] { return open_; });
    }
    text_.append(s, static_cast<std::size_t>(n));
    return n;
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
  bool holding_ = false;
  std::string text_;
};

// An abort that lands while the warm pass streams ends the campaign as a
// stop between scheduler jobs does: the `aborted campaign` event and the
// `error` reply close the stream, and no `done` line is written.
TEST(CampaignService, AbortDuringTheWarmPassEndsTheStream) {
  CampaignService::Config config;
  config.outbox_capacity = 4;  // 40 data lines cannot all queue
  CampaignService service(std::move(config));
  ASSERT_TRUE(starts_with(serve_lines(service, nine_kind_block(2, 1)).back(),
                          "done campaign "));

  RecordGate gate;
  std::ostream session_out(&gate);
  std::istringstream session_in(nine_kind_block(2, 1));
  std::thread session([&] { service.serve(session_in, session_out); });
  // The first warm record is held at the client: the pass is under way and
  // blocks on the full outbox before it can finish.
  ASSERT_TRUE(wait_until([&] { return gate.holding(); }));
  const auto reply = serve_lines(service, "abort ninekinds\n");
  EXPECT_EQ(reply, std::vector<std::string>{"ok abort ninekinds cancelled 1"});
  gate.open();
  session.join();

  const auto lines = gate.lines();
  ASSERT_GE(lines.size(), 3u);
  ASSERT_TRUE(starts_with(lines.front(), "ok campaign 2 ")) << lines.front();
  EXPECT_EQ(lines[lines.size() - 2], "aborted campaign 2");
  EXPECT_TRUE(starts_with(lines.back(), "error aborted campaign 2 records "))
      << lines.back();
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  EXPECT_LT(count_prefixed(lines, "record "), 20u);
  const auto stats = serve_lines(service, "stats\n");
  EXPECT_TRUE(any_of(stats.begin(), stats.end(), [](const std::string& line) {
    return line.find(" aborted 1 ") != std::string::npos;
  }));
}

// ------------------------------------------------------------ shard planner --

TEST(ShardPlanner, CoversEveryGroupExactlyOnceAndIsDeterministic) {
  std::string error;
  const auto request =
      parse_request_lines(full_request().to_lines(), &error);
  ASSERT_TRUE(request.has_value()) << error;
  const auto jobs = request->to_campaign().jobs();
  ASSERT_GT(jobs.size(), 4u);

  const ShardPlan plan = plan_shards(jobs, request->options(), 3);
  ASSERT_EQ(plan.shard_count(), 3u);
  std::vector<std::size_t> seen;
  for (const auto& shard : plan.shard_groups) {
    seen.insert(seen.end(), shard.begin(), shard.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> expected(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(seen, expected);

  const ShardPlan again = plan_shards(jobs, request->options(), 3);
  EXPECT_EQ(plan.shard_groups, again.shard_groups);

  // Every shard carries real work and none carries all of it.
  double total = 0.0;
  for (const auto& job : jobs) {
    total += estimated_job_cost(job, request->options());
  }
  const double heaviest =
      *std::max_element(plan.shard_costs.begin(), plan.shard_costs.end());
  EXPECT_GT(heaviest, 0.0);
  EXPECT_LT(heaviest, total);
}

TEST(ShardPlanner, MoreShardsThanGroupsLeavesTrailingShardsEmpty) {
  orchestrator::Campaign campaign;
  campaign.chips({soc::ChipModel::kM1}).impls({}).sizes({}).sme_gemm({32});
  const auto jobs = campaign.jobs();
  ASSERT_EQ(jobs.size(), 1u);
  const ShardPlan plan = plan_shards(jobs, {}, 4);
  std::size_t populated = 0;
  for (const auto& shard : plan.shard_groups) {
    populated += shard.empty() ? 0 : 1;
  }
  EXPECT_EQ(populated, 1u);
}

// Every chip of one functional (impl, n) shares one product, so the planner
// keeps them together: with the paper's four chips and sizes 32-1024, the
// LPT order over single jobs used to split all 30 such points across
// shards under `shards 4`, and each shard computed the product again.
TEST(ShardPlanner, FourShardsKeepEveryImplAndSizeOnOneShard) {
  orchestrator::Campaign campaign;
  campaign
      .chips({soc::ChipModel::kM1, soc::ChipModel::kM2, soc::ChipModel::kM3,
              soc::ChipModel::kM4})
      .sizes({32, 64, 128, 256, 512, 1024})
      .precision_study({64})
      .sme_gemm({64})
      .ane_inference({64});
  const harness::GemmExperiment::Options options;  // the campaign's
  const auto jobs = campaign.jobs();
  const ShardPlan plan = plan_shards(jobs, options, 4);
  std::map<std::tuple<orchestrator::JobKind, soc::GemmImpl, std::size_t>,
           std::set<std::size_t>>
      shards_of;
  std::size_t placed = 0;
  for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
    EXPECT_FALSE(plan.shard_groups[shard].empty()) << "shard " << shard;
    EXPECT_TRUE(std::is_sorted(plan.shard_groups[shard].begin(),
                               plan.shard_groups[shard].end()));
    for (const std::size_t index : plan.shard_groups[shard]) {
      const orchestrator::ExperimentJob& job = jobs[index];
      shards_of[{job.kind, job.impl, job.n}].insert(shard);
      ++placed;
    }
  }
  EXPECT_EQ(placed, jobs.size());
  EXPECT_EQ(shards_of.size(), 6u * 6u + 3u);
  for (const auto& [point, shards] : shards_of) {
    EXPECT_EQ(shards.size(), 1u)
        << orchestrator::to_string(std::get<0>(point)) << " "
        << soc::to_string(std::get<1>(point)) << " n=" << std::get<2>(point);
  }
  // Each shared product is charged once, not once per chip.
  double per_chip_total = 0.0;
  for (const auto& job : jobs) {
    per_chip_total += estimated_job_cost(job, options);
  }
  double planned_total = 0.0;
  for (const double cost : plan.shard_costs) {
    planned_total += cost;
  }
  EXPECT_LT(planned_total, 0.5 * per_chip_total);
}

TEST(CampaignService, FourShardStoreEqualsTheSingleShardStore) {
  const auto dir = temp_dir("four_shards");
  const auto run = [&](std::size_t shards) {
    CampaignService::Config config;
    config.store_path =
        (dir / ("shards" + std::to_string(shards) + ".aocache")).string();
    CampaignService service(config);
    const auto lines = serve_lines(
        service, "begin grid\nchips m1,m2,m3,m4\nimpls cpu-single,gpu-mps\n"
                 "sizes 32,48,64\nrepetitions 1\nworkers 1\nshards " +
                     std::to_string(shards) + "\nrun\n");
    EXPECT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
    std::ifstream in(config.store_path);
    std::vector<std::string> entries;
    std::string line;
    while (std::getline(in, line)) {
      if (starts_with(line, "entry ")) {
        entries.push_back(line);
      }
    }
    std::sort(entries.begin(), entries.end());
    return std::pair{entries, lines.back()};
  };
  const auto [single, single_done] = run(1);
  const auto [sharded, sharded_done] = run(4);
  EXPECT_NE(sharded_done.find(" shards 4"), std::string::npos)
      << sharded_done;
  ASSERT_EQ(single.size(), 4u * 2u * 3u);
  EXPECT_EQ(sharded, single);
  std::filesystem::remove_all(dir);
}

// Every chip of one functional ANE product lands on one shard, whose
// scheduler computes it once: a two-shard run's records equal a one-shard
// run's.
TEST(CampaignService, TwoShardAneStoreEqualsTheSingleShardStore) {
  const auto dir = temp_dir("ane_shards");
  const auto run = [&](std::size_t shards) {
    CampaignService::Config config;
    config.store_path =
        (dir / ("shards" + std::to_string(shards) + ".aocache")).string();
    CampaignService service(config);
    const auto lines = serve_lines(
        service, "begin anegrid\nchips m1,m2,m3,m4\nimpls cpu-single\n"
                 "sizes 32\nrepetitions 1\nane 64,48,40\nworkers 1\nshards " +
                     std::to_string(shards) + "\nrun\n");
    EXPECT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
    std::ifstream in(config.store_path);
    std::vector<std::string> entries;
    std::string line;
    while (std::getline(in, line)) {
      if (starts_with(line, "entry ")) {
        entries.push_back(line);
      }
    }
    std::sort(entries.begin(), entries.end());
    return std::pair{entries, lines.back()};
  };
  const auto [single, single_done] = run(1);
  const auto [sharded, sharded_done] = run(2);
  EXPECT_NE(sharded_done.find(" shards 2"), std::string::npos)
      << sharded_done;
  ASSERT_EQ(single.size(), 4u * (1u + 3u));
  EXPECT_EQ(sharded, single);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------- sharded run --

std::map<std::uint64_t, std::string> entries_by_key(
    orchestrator::ResultCache& cache) {
  std::map<std::uint64_t, std::string> out;
  for (const auto& [key, record] : cache.entries()) {
    out[key.fingerprint()] = orchestrator::serialize_record(record);
  }
  return out;
}

// The ISSUE's acceptance criterion: a two-worker sharded service run of the
// mixed campaign produces a merged result store equal per CacheKey — bit
// patterns included (serialize_record writes hex bit patterns, so string
// equality IS bit equality) — to the same campaign run single-process.
TEST(CampaignService, TwoWorkerShardedRunMatchesSingleProcessBitForBit) {
  CampaignService sharded({/*cache_capacity=*/4096,
                           /*store_path=*/"",
                           /*worker_binary=*/""});
  const auto sharded_lines = serve_lines(sharded, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(sharded_lines.back(), "done campaign "))
      << sharded_lines.back();
  EXPECT_NE(sharded_lines.back().find("shards 2"), std::string::npos);
  // The client observed streamed records before the campaign finished.
  EXPECT_EQ(count_prefixed(sharded_lines, "record "), 20u);

  CampaignService single({});
  const auto single_lines = serve_lines(single, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(single_lines.back(), "done campaign "));

  const auto sharded_entries = entries_by_key(sharded.cache());
  const auto single_entries = entries_by_key(single.cache());
  ASSERT_EQ(sharded_entries.size(), 20u);
  EXPECT_EQ(sharded_entries, single_entries);
}

TEST(CampaignService, RepeatedShardedCampaignIsServedFromTheWarmCache) {
  CampaignService service({/*cache_capacity=*/4096, /*store_path=*/"",
                           /*worker_binary=*/""});
  const auto first = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(first.back(), "done campaign "));
  // The rerun streams every point from the warm cache: no worker spawns,
  // nothing merges.
  const auto second = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(second.back(), "done campaign "));
  EXPECT_EQ(count_prefixed(second, "record "), 20u);
  EXPECT_NE(second.back().find("merged 0"), std::string::npos);
  EXPECT_NE(second.back().find("hits 20"), std::string::npos);
  EXPECT_NE(second.back().find("shards 0"), std::string::npos);
}

// The tentpole acceptance criterion: two remote workers connected over
// real byte streams (socketpairs — the same FdStreamBuf transport the
// daemon's sockets use), a sharded campaign whose shards travel as frames,
// result stores shipped back over the connection — and a merged warm cache
// bit-identical to the single-process run, with NO shard file ever touching
// the shared filesystem.
TEST(CampaignService, RemoteWorkersRunShardsOverSocketsBitIdentical) {
  CampaignService::Config config;
  config.remote_only = true;  // a local shard run would hide a frame bug
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));

  int pair_a[2];
  int pair_b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_b), 0);
  std::thread serve_a([&service, fd = pair_a[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  std::thread serve_b([&service, fd = pair_b[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  std::thread worker_a([fd = pair_a[1]] {
    SocketStream stream(fd);
    EXPECT_EQ(run_worker_session(stream, stream, "wa"), 0);
  });
  std::thread worker_b([fd = pair_b[1]] {
    SocketStream stream(fd);
    EXPECT_EQ(run_worker_session(stream, stream, "wb"), 0);
  });

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  EXPECT_NE(lines.back().find("shards 2 remote 2"), std::string::npos)
      << lines.back();
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);
  // Per-shard lifecycle events: a start and a done per shard.
  EXPECT_GE(count_prefixed(lines, "shard "), 4u);

  // Shutdown releases the parked workers; every thread drains cleanly and
  // the workers exit 0 off the `bye` frame.
  serve_lines(service, "shutdown\n");
  serve_a.join();
  serve_b.join();
  worker_a.join();
  worker_b.join();

  CampaignService single({});
  const auto single_lines = serve_lines(single, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(single_lines.back(), "done campaign "));
  const auto remote_entries = entries_by_key(service.cache());
  ASSERT_EQ(remote_entries.size(), 20u);
  EXPECT_EQ(remote_entries, entries_by_key(single.cache()));
}

// A worker that dies while idle is only discovered at checkout (park()
// never reads the socket). The shard it was handed received nothing, so —
// without remote_only — its retry runs on a local endpoint and the campaign
// must still succeed.
TEST(CampaignService, DeadIdleWorkerFallsBackToLocalShards) {
  std::signal(SIGPIPE, SIG_IGN);  // writing the task frame hits a dead peer
  CampaignService service({/*cache_capacity=*/4096, /*store_path=*/"",
                           /*worker_binary=*/""});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([&service, fd = fds[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  {
    // Register, then die: the SocketStream destructor closes the fd while
    // the registry still lists the endpoint as idle.
    SocketStream doomed(fds[1]);
    doomed << "worker doomed\n";
    doomed.flush();
    std::string ack;
    ASSERT_TRUE(std::getline(doomed, ack));
  }
  ASSERT_TRUE(wait_until([&] { return service.workers().idle_count() == 1; }));

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  EXPECT_NE(lines.back().find("shards 2"), std::string::npos);
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);

  serve_lines(service, "shutdown\n");
  server.join();
}

TEST(CampaignService, RemoteOnlyWithoutWorkersFailsTheCampaignNotTheSession) {
  CampaignService::Config config;
  config.remote_only = true;
  config.remote_wait_ms = 50;
  CampaignService service(std::move(config));
  const auto lines = serve_lines(service, nine_kind_block(1, 2) + "ping\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "pong");  // the session survived
  bool failed = false;
  for (const auto& line : lines) {
    if (starts_with(line, "error exec-failed") &&
        line.find("no remote workers") != std::string::npos) {
      failed = true;
    }
  }
  EXPECT_TRUE(failed);
  EXPECT_EQ(count_prefixed(lines, "record "), 0u);
}

// A clean shard failure — a `shard-error` frame over a healthy local
// endpoint — fails the campaign with the worker's own diagnostic, spends no
// retry, and leaves the session serving.
TEST(CampaignService, ShardErrorOverAHealthyLocalEndpointFailsTheCampaign) {
  CampaignService service({});
  const auto lines = serve_lines(
      service,
      "begin broken\nchips m1,m2\nimpls cpu-single\nsizes 32\n"
      "precision 4\nworkers 1\nshards 2\nrun\nstats\nping\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), "pong");
  const auto failed = [&](const std::string& prefix) {
    return std::any_of(lines.begin(), lines.end(), [&](const auto& line) {
      return starts_with(line, prefix) &&
             line.find("study sizes are functional") != std::string::npos;
    });
  };
  EXPECT_TRUE(failed("shard ")) << "expected the shard's error event";
  EXPECT_TRUE(failed("error exec-failed campaign 1 shard "));
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  EXPECT_TRUE(std::any_of(lines.begin(), lines.end(), [](const auto& line) {
    return starts_with(line, "stats ") &&
           line.find(" shard-retries 0 ") != std::string::npos;
  }));
}

// An abort that lands while local endpoints stream a sharded campaign stops
// it between shards: the `aborted campaign` event and the `error` reply
// close the stream, and no `done` line is written.
TEST(CampaignService, AbortDuringALocalShardedCampaignEndsTheStream) {
  CampaignService::Config config;
  config.outbox_capacity = 4;  // 40 data lines cannot all queue
  CampaignService service(std::move(config));

  RecordGate gate;
  std::ostream session_out(&gate);
  std::istringstream session_in(nine_kind_block(2, 2));
  std::thread session([&] { service.serve(session_in, session_out); });
  // The first shard record is held at the client: the shards are under way
  // and block on the full outbox before they can finish.
  ASSERT_TRUE(wait_until([&] { return gate.holding(); }));
  const auto reply = serve_lines(service, "abort ninekinds\n");
  EXPECT_EQ(reply, std::vector<std::string>{"ok abort ninekinds cancelled 1"});
  gate.open();
  session.join();

  const auto lines = gate.lines();
  ASSERT_GE(lines.size(), 3u);
  ASSERT_TRUE(starts_with(lines.front(), "ok campaign 1 ")) << lines.front();
  EXPECT_EQ(lines[lines.size() - 2], "aborted campaign 1");
  EXPECT_TRUE(starts_with(lines.back(), "error aborted campaign 1 records "))
      << lines.back();
  EXPECT_EQ(count_prefixed(lines, "done campaign "), 0u);
  EXPECT_LT(count_prefixed(lines, "record "), 20u);
  // The endpoints were released with the campaign: a resubmit runs on fresh
  // ones and completes from the settled remainder.
  const auto rerun = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(rerun.back(), "done campaign 2 records 20 "))
      << rerun.back();
}

// A spawned local worker holds its socketpair end as stdin/stdout and the
// daemon's stderr, nothing else: no store file, listening socket or client
// connection of the daemon leaks into it. The worker binary here is a script
// that records its open fds and exits without a hello.
TEST(CampaignService, LocalWorkerChildrenInheritOnlyStdio) {
  std::signal(SIGPIPE, SIG_IGN);
  const auto dir = temp_dir("child_fds");
  const std::string report = (dir / "fds.txt").string();
  const auto script = dir / "record_fds.sh";
  {
    std::ofstream out(script);
    // `exec sh -c` sheds the script file's own descriptor; the builtin `[`
    // then probes each fd number without opening anything.
    out << "#!/bin/sh\n"
           "exec /bin/sh -c 'fd=0 open=; while [ $fd -lt 1024 ]; do "
           "[ -e /proc/self/fd/$fd ] && open=\"$open $fd\"; "
           "fd=$((fd + 1)); done; echo \"$open\" >> \"$1\"' sh "
        << report << "\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);
  UnixServerSocket listener((dir / "l.sock").string());
  CampaignService::Config config;
  config.store_path = (dir / "store.aocache").string();
  config.worker_binary = script.string();
  CampaignService service(std::move(config));
  const auto lines = serve_lines(
      service,
      "begin fds\nchips m1,m2\nimpls cpu-single\nsizes 32,48\nworkers 1\n"
      "shards 2\nretries 0\nrun\n");
  ASSERT_FALSE(lines.empty());
  EXPECT_TRUE(starts_with(lines.back(), "error exec-failed campaign 1 "))
      << lines.back();
  std::ifstream in(report);
  std::vector<std::string> seen;
  for (std::string line; std::getline(in, line);) {
    seen.push_back(line);
  }
  // One line per spawned child: a driver whose endpoint died spawns a
  // replacement while work is queued, so there may be more than two.
  EXPECT_GE(seen.size(), 2u);
  for (const auto& fds : seen) {
    EXPECT_EQ(fds, " 0 1 2");
  }
}

// ----------------------------------------------------------- campaign queue --

TEST(CampaignQueueTest, ResourceClassesDeriveFromJobKindsAndImpls) {
  using orchestrator::JobKind;
  EXPECT_EQ(resources_for(JobKind::kGemmMeasure, soc::GemmImpl::kCpuSingle),
            kResourceCpu);
  EXPECT_EQ(resources_for(JobKind::kGemmMeasure, soc::GemmImpl::kGpuMps),
            kResourceGpu);
  EXPECT_EQ(resources_for(JobKind::kStream, soc::GemmImpl::kCpuSingle),
            kResourceCpu);
  EXPECT_EQ(resources_for(JobKind::kGpuStream, soc::GemmImpl::kCpuSingle),
            kResourceGpu);
  EXPECT_EQ(resources_for(JobKind::kAneInference, soc::GemmImpl::kCpuSingle),
            kResourceAne);
  EXPECT_EQ(resources_for(JobKind::kSmeGemm, soc::GemmImpl::kCpuSingle),
            kResourceCpu);
  EXPECT_EQ(resources_for(JobKind::kFp64Emulation, soc::GemmImpl::kCpuSingle),
            kResourceGpu);
  EXPECT_EQ(resources_for(JobKind::kPowerIdle, soc::GemmImpl::kCpuSingle),
            kResourceAll);

  CampaignRequest gemm_and_ane;
  gemm_and_ane.chips = {soc::ChipModel::kM1};
  gemm_and_ane.impls = {soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps};
  gemm_and_ane.sizes = {32};
  gemm_and_ane.ane_sizes = {32};
  EXPECT_EQ(resources_for(gemm_and_ane),
            kResourceCpu | kResourceGpu | kResourceAne);
  EXPECT_EQ(resources_to_string(kResourceCpu | kResourceAne), "cpu+ane");
  EXPECT_EQ(resources_to_string(0), "none");
}

TEST(CampaignQueueTest, DisjointCampaignsRunConcurrently) {
  CampaignQueue queue;
  auto cpu = queue.submit("a", 0, kResourceCpu);
  auto ane = queue.submit("b", 0, kResourceAne);
  auto gpu = queue.submit("c", 0, kResourceGpu);
  ASSERT_TRUE(cpu && ane && gpu);
  EXPECT_TRUE(cpu->try_start());
  EXPECT_TRUE(ane->try_start());
  EXPECT_TRUE(gpu->try_start());
  EXPECT_EQ(queue.running_count(), 3u);
  EXPECT_EQ(queue.peak_running(), 3u);
}

TEST(CampaignQueueTest, ConflictingCampaignsKeepSubmissionOrder) {
  CampaignQueue queue;
  auto first = queue.submit("a", 0, kResourceCpu);
  auto second = queue.submit("b", 0, kResourceCpu);
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->try_start());
  EXPECT_FALSE(second->try_start());  // conflicts with the running first
  EXPECT_EQ(second->position(), 1u);
  first.reset();  // first finishes
  EXPECT_TRUE(second->try_start());
}

TEST(CampaignQueueTest, HigherPriorityJumpsTheQueue) {
  CampaignQueue queue;
  auto running = queue.submit("a", 0, kResourceCpu);
  ASSERT_TRUE(running->try_start());
  auto low = queue.submit("b", 0, kResourceCpu);
  auto high = queue.submit("c", 9, kResourceCpu);
  ASSERT_TRUE(low && high);
  EXPECT_FALSE(low->try_start());
  EXPECT_FALSE(high->try_start());
  // The later, higher-priority submit ranks ahead of the earlier one.
  EXPECT_EQ(high->position(), 1u);
  EXPECT_EQ(low->position(), 2u);
  running.reset();
  EXPECT_FALSE(low->try_start());  // must not overtake the conflicting high
  EXPECT_TRUE(high->try_start());
  high.reset();
  EXPECT_TRUE(low->try_start());
}

TEST(CampaignQueueTest, BackfillOnlyAroundDisjointWaiters) {
  CampaignQueue queue;
  auto running = queue.submit("a", 0, kResourceCpu);
  ASSERT_TRUE(running->try_start());
  auto waiting_cpu = queue.submit("b", 5, kResourceCpu);
  EXPECT_FALSE(waiting_cpu->try_start());
  // Disjoint from the running campaign AND from the better-ranked waiter:
  // may backfill.
  auto ane = queue.submit("c", 0, kResourceAne);
  EXPECT_TRUE(ane->try_start());
  // Conflicts with the better-ranked waiting_cpu: starting it could delay
  // that campaign's start, so it must wait even though nothing *running*
  // holds the CPU+GPU claim it wants... (the GPU half is free).
  auto cpu_gpu = queue.submit("d", 0, kResourceCpu | kResourceGpu);
  EXPECT_FALSE(cpu_gpu->try_start());
}

TEST(CampaignQueueTest, QueuedQuotaRejectsStructurally) {
  CampaignQueue::Limits limits;
  limits.max_queued_per_client = 1;
  CampaignQueue queue(limits);
  auto running = queue.submit("a", 0, kResourceCpu);
  ASSERT_TRUE(running->try_start());
  auto waiting = queue.submit("a", 0, kResourceCpu);
  ASSERT_TRUE(waiting != nullptr);  // running doesn't count against queued
  CampaignQueue::Rejection rejection;
  auto rejected = queue.submit("a", 0, kResourceAne, &rejection);
  EXPECT_EQ(rejected, nullptr);
  EXPECT_EQ(rejection.code, "quota-queued");
  EXPECT_NE(rejection.message.find("'a'"), std::string::npos);
  EXPECT_EQ(queue.rejections(), 1u);
  // A different client is unaffected.
  auto other = queue.submit("b", 0, kResourceAne, &rejection);
  EXPECT_TRUE(other != nullptr);
  const auto stats = queue.client_stats();
  EXPECT_EQ(stats.at("a").running, 1u);
  EXPECT_EQ(stats.at("a").queued, 1u);
  EXPECT_EQ(stats.at("b").queued, 1u);
}

TEST(CampaignQueueTest, RunningQuotasHoldCampaignsInTheQueue) {
  CampaignQueue::Limits limits;
  limits.max_running_per_client = 1;
  limits.max_running = 2;
  CampaignQueue queue(limits);
  auto a1 = queue.submit("a", 0, kResourceCpu);
  ASSERT_TRUE(a1->try_start());
  // Disjoint resources, same client: held by max_running_per_client.
  auto a2 = queue.submit("a", 0, kResourceAne);
  EXPECT_FALSE(a2->try_start());
  // Another client may use the idle ANE even though the quota-blocked a2
  // is ranked ahead and wants it — quotas never idle a unit cross-tenant.
  auto b1 = queue.submit("b", 0, kResourceAne);
  EXPECT_TRUE(b1->try_start());
  // Global cap of 2 now holds everyone else, even on free resources.
  auto c1 = queue.submit("c", 0, kResourceGpu);
  EXPECT_FALSE(c1->try_start());
  b1.reset();
  EXPECT_TRUE(c1->try_start());
  a1.reset();
  EXPECT_TRUE(a2->try_start());
}

// ------------------------------------------------- multi-tenant service --

/// ostream whose buffer may be read while another thread is writing — the
/// concurrent-session tests poll a session's replies as they stream.
class CapturedStream : public std::ostream {
 public:
  CapturedStream() : std::ostream(&buf_) {}
  std::string text() const { return buf_.text(); }
  bool contains(const std::string& needle) const {
    return text().find(needle) != std::string::npos;
  }

 private:
  class Buf : public std::streambuf {
   public:
    int_type overflow(int_type ch) override {
      if (ch != traits_type::eof()) {
        std::lock_guard lock(mutex_);
        text_.push_back(static_cast<char>(ch));
      }
      return ch;
    }
    std::streamsize xsputn(const char* data, std::streamsize count) override {
      std::lock_guard lock(mutex_);
      text_.append(data, static_cast<std::size_t>(count));
      return count;
    }
    std::string text() const {
      std::lock_guard lock(mutex_);
      return text_;
    }

   private:
    mutable std::mutex mutex_;
    std::string text_;
  } buf_;
};

std::string cpu_block(const std::string& name, const std::string& client,
                      int priority) {
  return "begin " + name + "\nclient " + client + "\npriority " +
         std::to_string(priority) + "\nchips m1\nsme 32 13\nrun\n";
}

std::string ane_block(const std::string& name, const std::string& client) {
  return "begin " + name + "\nclient " + client + "\nchips m1\nane 24\nrun\n";
}

std::vector<std::string> record_lines(const std::string& text) {
  std::vector<std::string> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (starts_with(line, "record ")) {
      records.push_back(line);
    }
  }
  std::sort(records.begin(), records.end());
  return records;
}

// The tentpole scenario, made deterministic with a queue ticket standing in
// for a long-running CPU campaign: while the CPU resource class is held, an
// ANE campaign runs to completion (disjoint → concurrent), two CPU
// campaigns queue with live `queued <pos>` events, and on release the
// higher-priority one starts first.
TEST(CampaignServiceQueue, DisjointRunsConcurrentlyConflictsQueueByPriority) {
  CampaignService service({});
  auto blocker =
      service.queue().submit("blocker", 50, kResourceCpu);
  ASSERT_TRUE(blocker->try_start());

  CapturedStream low_out;
  std::istringstream low_in(cpu_block("low", "alice", 0));
  std::thread low_session(
      [&] { service.serve(low_in, low_out); });
  ASSERT_TRUE(wait_until([&] { return low_out.contains("queued 1"); }))
      << low_out.text();

  CapturedStream high_out;
  std::istringstream high_in(cpu_block("high", "bob", 9));
  std::thread high_session(
      [&] { service.serve(high_in, high_out); });
  // The higher-priority campaign takes position 1; the earlier one is
  // pushed back and told so.
  ASSERT_TRUE(wait_until([&] {
    return high_out.contains("queued 1") && low_out.contains("queued 2");
  })) << low_out.text()
      << high_out.text();

  // Disjoint resources: the ANE campaign runs to done while the CPU class
  // is still held — the session joins with the blocker alive.
  CapturedStream ane_out;
  std::istringstream ane_in(ane_block("ane-camp", "carol"));
  std::thread ane_session([&] { service.serve(ane_in, ane_out); });
  ane_session.join();
  EXPECT_TRUE(ane_out.contains("done campaign")) << ane_out.text();
  EXPECT_TRUE(ane_out.contains("started campaign"));
  EXPECT_FALSE(ane_out.contains("queued "));
  EXPECT_TRUE(ane_out.contains("resources ane"));
  EXPECT_EQ(service.queue().running_count(), 1u);  // only the blocker

  blocker.reset();  // the "long CPU campaign" finishes
  low_session.join();
  high_session.join();
  EXPECT_TRUE(low_out.contains("done campaign")) << low_out.text();
  EXPECT_TRUE(high_out.contains("done campaign")) << high_out.text();

  // Start order: ANE first (it never waited), then high before low.
  const auto log = service.start_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "ane-camp");
  EXPECT_EQ(log[1], "high");
  EXPECT_EQ(log[2], "low");
}

TEST(CampaignServiceQueue, QuotaViolationGetsStructuredRejection) {
  CampaignService::Config config;
  config.limits.max_queued_per_client = 1;
  CampaignService service(std::move(config));
  auto blocker = service.queue().submit("blocker", 50, kResourceCpu);
  ASSERT_TRUE(blocker->try_start());

  CapturedStream queued_out;
  std::istringstream queued_in(cpu_block("first", "alice", 0));
  std::thread queued_session([&] { service.serve(queued_in, queued_out); });
  ASSERT_TRUE(wait_until(
      [&] { return service.queue().queued_count() == 1; }));

  // Same client, second queued campaign: rejected outright — with the
  // preempted-by-quota event, the stable code and the echoed line — and
  // the session survives to answer the ping.
  CapturedStream rejected_out;
  std::istringstream rejected_in(cpu_block("second", "alice", 0) + "ping\n");
  std::thread rejected_session(
      [&] { service.serve(rejected_in, rejected_out); });
  rejected_session.join();
  EXPECT_TRUE(rejected_out.contains("preempted-by-quota client alice"))
      << rejected_out.text();
  EXPECT_TRUE(rejected_out.contains("error quota-queued"));
  EXPECT_TRUE(rejected_out.contains("| line: run"));
  EXPECT_TRUE(rejected_out.contains("pong"));
  EXPECT_FALSE(rejected_out.contains("done campaign"));

  blocker.reset();
  queued_session.join();
  EXPECT_TRUE(queued_out.contains("done campaign")) << queued_out.text();

  // The stats command reports the rejection and (now empty) queue.
  const auto stats = serve_lines(service, "stats\n");
  ASSERT_FALSE(stats.empty());
  EXPECT_NE(stats.back().find("rejected 1"), std::string::npos)
      << stats.back();
}

TEST(CampaignServiceQueue, ConcurrentDisjointStreamsAreBitIdenticalToSerial) {
  // Two disjoint campaigns on one service, submitted from two sessions at
  // once...
  CampaignService shared({});
  CapturedStream cpu_out;
  CapturedStream ane_out;
  std::istringstream cpu_in(cpu_block("cpu-camp", "alice", 0));
  std::istringstream ane_in(ane_block("ane-camp", "bob"));
  std::thread cpu_session([&] { shared.serve(cpu_in, cpu_out); });
  std::thread ane_session([&] { shared.serve(ane_in, ane_out); });
  cpu_session.join();
  ane_session.join();
  EXPECT_TRUE(cpu_out.contains("done campaign")) << cpu_out.text();
  EXPECT_TRUE(ane_out.contains("done campaign")) << ane_out.text();

  // ...must stream exactly the records a fresh single-campaign service
  // produces (record lines are store entries: hex bit patterns, so string
  // equality is bit equality).
  CampaignService cpu_only({});
  CampaignService ane_only({});
  const auto cpu_serial = serve_lines(cpu_only, cpu_block("cpu-camp", "x", 0));
  const auto ane_serial = serve_lines(ane_only, ane_block("ane-camp", "y"));
  const auto serial_records = [](const std::vector<std::string>& lines) {
    std::vector<std::string> records;
    for (const auto& line : lines) {
      if (starts_with(line, "record ")) {
        records.push_back(line);
      }
    }
    std::sort(records.begin(), records.end());
    return records;
  };
  EXPECT_EQ(record_lines(cpu_out.text()), serial_records(cpu_serial));
  EXPECT_EQ(record_lines(ane_out.text()), serial_records(ane_serial));
  ASSERT_FALSE(record_lines(cpu_out.text()).empty());
  ASSERT_FALSE(record_lines(ane_out.text()).empty());
}

// Two disjoint campaigns overlap: the sharded one is held at its client
// while the other runs to `done`, so the first finish drains spans of the
// still-running campaign, which wait in the orphan pool until their own
// finish. Each retained timeline must be exactly its campaign's tree.
TEST(CampaignService, ConcurrentCampaignProfilesHoldExactlyTheirOwnTrees) {
  CampaignService::Config config;
  config.outbox_capacity = 2;
  CampaignService service(std::move(config));

  RecordGate gate;
  std::ostream held_out(&gate);
  std::istringstream held_in(
      "begin held\nchips m1,m2\nimpls cpu-single\nsizes 32,48\nsme 32 13\n"
      "workers 1\nshards 2\nrun\n");
  std::thread held([&] { service.serve(held_in, held_out); });
  ASSERT_TRUE(wait_until([&] { return gate.holding(); }));
  const auto other = serve_lines(service, ane_block("other", "carol"));
  ASSERT_TRUE(starts_with(other.back(), "done campaign ")) << other.back();
  gate.open();
  held.join();
  const auto held_lines = gate.lines();
  ASSERT_TRUE(starts_with(held_lines.back(), "done campaign "))
      << held_lines.back();

  const auto timelines = service.timelines();
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].name, "other");
  EXPECT_EQ(timelines[1].name, "held");
  std::set<std::uint64_t> all_ids;
  for (const auto& timeline : timelines) {
    std::set<std::uint64_t> ids;
    std::map<obs::Phase, std::size_t> phases;
    std::map<std::string, std::size_t> origins;
    for (const obs::Span& span : timeline.spans) {
      // Id order, parents first: every parent is a member seen before.
      EXPECT_TRUE(span.phase == obs::Phase::kCampaign
                      ? span.parent == 0
                      : ids.count(span.parent) == 1)
          << timeline.name << " span " << span.id;
      EXPECT_TRUE(ids.insert(span.id).second);
      EXPECT_TRUE(all_ids.insert(span.id).second) << "span in both trees";
      ++phases[span.phase];
      ++origins[span.origin];
    }
    EXPECT_EQ(phases[obs::Phase::kCampaign], 1u) << timeline.name;
    EXPECT_EQ(phases[obs::Phase::kAdmission], 1u) << timeline.name;
    EXPECT_EQ(phases[obs::Phase::kQueueWait], 1u) << timeline.name;
    if (timeline.name == "other") {
      // Its one job runs as a shard of one on a local endpoint.
      EXPECT_EQ(phases[obs::Phase::kExecute], 1u);
      EXPECT_EQ(phases[obs::Phase::kShard], 1u);
    } else {
      // Both shards' conversations, with their workers' execute spans
      // grafted under them: 6 jobs, each executed on a local endpoint.
      EXPECT_EQ(phases[obs::Phase::kShard], 2u);
      EXPECT_EQ(phases[obs::Phase::kTransport], 2u);
      EXPECT_EQ(phases[obs::Phase::kExecute], 6u);
      EXPECT_EQ(origins["local-0"] + origins["local-1"],
                timeline.spans.size() - origins[""]);
    }
  }
}

// The `queue` introspection command: waiting campaigns with position,
// name, client, priority and resource mask, terminated by an aggregate
// line — without submitting or disturbing anything.
TEST(CampaignServiceQueue, QueueCommandListsWaitingCampaigns) {
  CampaignService service({});
  auto blocker = service.queue().submit("blocker", 50, kResourceCpu);
  ASSERT_TRUE(blocker->try_start());

  CapturedStream waiting_out;
  std::istringstream waiting_in(cpu_block("waiting-camp", "alice", 3));
  std::thread session([&] { service.serve(waiting_in, waiting_out); });
  ASSERT_TRUE(wait_until([&] { return waiting_out.contains("queued 1"); }))
      << waiting_out.text();

  const auto lines = serve_lines(service, "queue\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "queue-entry 1 name waiting-camp client alice priority 3 "
            "resources cpu");
  EXPECT_EQ(lines[1], "queue waiting 1 running 1");

  blocker.reset();
  session.join();
  EXPECT_TRUE(waiting_out.contains("done campaign")) << waiting_out.text();
  const auto after = serve_lines(service, "queue\n");
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0], "queue waiting 0 running 0");
}

TEST(CampaignService, ErrorRepliesCarryCodeAndOffendingLine) {
  CampaignService service({});
  const auto lines = serve_lines(service,
                                 "warp 9\n"
                                 "begin bad\n"
                                 "chips m1,m9\n"
                                 "run\n"
                                 "shutdown\n");
  ASSERT_GE(lines.size(), 3u);
  // Unknown command: code + the echoed input.
  EXPECT_EQ(lines[0], "error unknown-command unknown command: warp | line: warp 9");
  // Bad setter inside a request: the offending line is echoed verbatim.
  EXPECT_EQ(lines[1],
            "error bad-directive unknown chip: m9 | line: chips m1,m9");
  // `run` on a request with no chips accepted: bad-request.
  EXPECT_TRUE(starts_with(lines[2], "error bad-request")) << lines[2];
  EXPECT_NE(lines[2].find("| line: run"), std::string::npos);
}

TEST(CampaignService, ShardedRunPersistsMergedEntriesToTheServiceStore) {
  const auto dir = temp_dir("persist");
  const std::string store = (dir / "service.aocache").string();
  {
    CampaignService service({/*cache_capacity=*/4096, store,
                             /*worker_binary=*/""});
    const auto lines = serve_lines(service, nine_kind_block(1, 2));
    ASSERT_TRUE(starts_with(lines.back(), "done campaign "));
  }
  // The merged store round-trips into a cold cache in a fresh "process".
  orchestrator::ResultCache cold;
  EXPECT_EQ(cold.load(store), 20u);
  EXPECT_EQ(cold.stats().load_rejected, 0u);
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- observability --

/// A deterministic profiler clock: readings 0, 1, 2, ... shared across
/// every thread of the service.
obs::TimelineProfiler::ClockFn counter_clock() {
  auto ticks = std::make_shared<std::atomic<std::uint64_t>>(0);
  return [ticks] { return ticks->fetch_add(1); };
}

TEST(CampaignService, ProfileCommandReplaysTheCampaignTimeline) {
  const auto dir = temp_dir("profile");
  CampaignService::Config config;
  config.profile_dir = dir.string();
  config.profile_clock = counter_clock();
  CampaignService service(std::move(config));

  const auto lines =
      serve_lines(service, nine_kind_block(2, 1) + "profile\n");
  ASSERT_EQ(count_prefixed(lines, "done campaign "), 1u);

  // The terminal line identifies the replayed campaign and its span count.
  const std::string& terminal = lines.back();
  ASSERT_TRUE(starts_with(terminal, "profile campaign 1 name ninekinds "))
      << terminal;
  std::size_t span_lines = 0;
  std::size_t phase_lines = 0;
  std::map<std::string, std::size_t> phases_seen;
  for (const auto& line : lines) {
    if (starts_with(line, "profile-span ")) {
      ++span_lines;
      // "profile-span <id> <parent> <phase> <start-ns> <dur-ns> <label...>"
      std::istringstream in(line.substr(13));
      std::uint64_t id = 0;
      std::uint64_t parent = 0;
      std::string phase;
      ASSERT_TRUE(in >> id >> parent >> phase) << line;
      EXPECT_TRUE(obs::phase_from_name(phase).has_value()) << line;
      EXPECT_GT(id, parent) << "id order must be topological: " << line;
      ++phases_seen[phase];
    } else if (starts_with(line, "profile-phase ")) {
      ++phase_lines;
    }
  }
  EXPECT_NE(terminal.find("spans " + std::to_string(span_lines)),
            std::string::npos)
      << terminal;
  // The lifecycle of a shard of one: one campaign root, admission +
  // queue-wait + schedule around it, the shard's conversation (shard,
  // transport) and merge window, one execute per executed job.
  EXPECT_EQ(phases_seen["campaign"], 1u);
  EXPECT_EQ(phases_seen["admission"], 1u);
  EXPECT_EQ(phases_seen["queue-wait"], 1u);
  EXPECT_GE(phases_seen["schedule"], 1u);
  EXPECT_GE(phases_seen["execute"], 20u);
  EXPECT_EQ(phases_seen["shard"], 1u);
  EXPECT_EQ(phases_seen["transport"], 1u);
  EXPECT_EQ(phases_seen["merge"], 1u);
  EXPECT_GE(phase_lines, 5u);

  // The injected counter clock makes the timeline deterministic: replaying
  // it yields byte-identical span lines.
  const auto replay = serve_lines(service, "profile\n");
  std::vector<std::string> first_spans;
  for (const auto& line : lines) {
    if (starts_with(line, "profile-span ")) {
      first_spans.push_back(line);
    }
  }
  std::vector<std::string> replay_spans;
  for (const auto& line : replay) {
    if (starts_with(line, "profile-span ")) {
      replay_spans.push_back(line);
    }
  }
  EXPECT_EQ(first_spans, replay_spans);

  // An unknown campaign name is the explicit none-reply, not an error.
  const auto none = serve_lines(service, "profile nosuch\n");
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0], "profile campaign 0 name - client - spans 0");

  // --profile-dir wrote the per-campaign artifact.
  std::ifstream artifact(dir / "ninekinds-c1.profile.json");
  ASSERT_TRUE(artifact.good());
  std::stringstream content;
  content << artifact.rdbuf();
  EXPECT_NE(content.str().find("\"schema\": \"ao-profile/1\""),
            std::string::npos);
  EXPECT_NE(content.str().find("\"name\": \"ninekinds\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(CampaignService, StatsCarryLifetimePhaseTotals) {
  CampaignService service({});
  serve_lines(service, nine_kind_block(2, 1));
  const auto stats = serve_lines(service, "stats\n");
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> totals;
  for (const auto& line : stats) {
    if (!starts_with(line, "stats-phase ")) {
      continue;
    }
    // "stats-phase <phase> count <n> total-ns <t>"
    std::istringstream in(line.substr(12));
    std::string phase;
    std::string tag;
    std::size_t count = 0;
    std::uint64_t total_ns = 0;
    ASSERT_TRUE(in >> phase >> tag >> count >> tag >> total_ns) << line;
    totals[phase] = {count, total_ns};
  }
  ASSERT_EQ(totals.count("campaign"), 1u);
  EXPECT_EQ(totals["campaign"].first, 1u);
  ASSERT_EQ(totals.count("execute"), 1u);
  EXPECT_GE(totals["execute"].first, 20u);
  EXPECT_GT(totals["execute"].second, 0u);
  // The campaign ran as a shard of one: one conversation, one merge window.
  EXPECT_EQ(totals["transport"].first, 1u);
  EXPECT_EQ(totals["merge"].first, 1u);
  // Phases that never ran (no retry, no stop) are not reported.
  EXPECT_EQ(totals.count("retry"), 0u);
  EXPECT_EQ(totals.count("abort"), 0u);
}

TEST(CampaignService, RemoteShardSpansNestTransportUnderShard) {
  CampaignService::Config config;
  config.remote_only = true;
  config.remote_wait_ms = 20000;
  config.profile_clock = counter_clock();
  CampaignService service(std::move(config));

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([&service, fd = fds[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  std::thread worker([fd = fds[1]] {
    SocketStream stream(fd);
    EXPECT_EQ(run_worker_session(stream, stream, "wp"), 0);
  });

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();

  // The retained timeline: every transport span sits under a shard span,
  // every shard span under the campaign root, and the frame spans under
  // their transport — the acceptance shape of the remote hot path.
  const auto timelines = service.timelines();
  ASSERT_EQ(timelines.size(), 1u);
  std::map<std::uint64_t, const obs::Span*> by_id;
  for (const obs::Span& span : timelines[0].spans) {
    by_id[span.id] = &span;
  }
  std::uint64_t root = 0;
  for (const obs::Span& span : timelines[0].spans) {
    if (span.phase == obs::Phase::kCampaign) {
      root = span.id;
    }
  }
  ASSERT_NE(root, 0u);
  std::size_t transports = 0;
  std::size_t frames = 0;
  std::size_t merges = 0;
  for (const obs::Span& span : timelines[0].spans) {
    if (span.phase == obs::Phase::kTransport) {
      ++transports;
      ASSERT_NE(by_id.count(span.parent), 0u);
      EXPECT_EQ(by_id[span.parent]->phase, obs::Phase::kShard);
      EXPECT_EQ(by_id[by_id[span.parent]->parent]->phase,
                obs::Phase::kCampaign);
    } else if (span.phase == obs::Phase::kFrame) {
      ++frames;
      ASSERT_NE(by_id.count(span.parent), 0u);
      if (span.origin.empty()) {
        // Daemon-side frame work nests under the transport; grafted
        // worker-side frame spans nest inside the worker's own subtree.
        EXPECT_EQ(by_id[span.parent]->phase, obs::Phase::kTransport);
      }
    } else if (span.phase == obs::Phase::kMerge) {
      ++merges;
    }
  }
  EXPECT_EQ(transports, 2u);  // one conversation per shard
  EXPECT_GE(frames, 4u);      // task + records per shard at least
  EXPECT_GE(merges, 2u);      // each shard store folds into the warm cache

  // The distributed part of the timeline: the worker shipped its own
  // execute spans and they graft under a transport (hence shard) ancestor,
  // stamped with the worker's name.
  std::size_t worker_executes = 0;
  for (const obs::Span& span : timelines[0].spans) {
    if (span.origin.empty()) {
      continue;
    }
    EXPECT_EQ(span.origin, "wp");
    bool under_transport = false;
    for (std::uint64_t at = span.parent; at != 0;
         at = by_id.at(at)->parent) {
      if (by_id.at(at)->phase == obs::Phase::kTransport) {
        under_transport = true;
        break;
      }
    }
    EXPECT_TRUE(under_transport);
    if (span.phase == obs::Phase::kExecute) {
      ++worker_executes;
    }
  }
  EXPECT_GE(worker_executes, 2u);  // both shards shipped execute spans

  // The worker credit feed: the single worker ran both shards and its
  // cumulative busy time is visible.
  const auto stats = serve_lines(service, "stats\n");
  bool worker_line_seen = false;
  for (const auto& line : stats) {
    if (!starts_with(line, "stats-worker wp ")) {
      continue;
    }
    worker_line_seen = true;
    // "stats-worker <name> idle|busy shards <n> busy-ns <t>"
    std::istringstream in(line.substr(16));
    std::string state;
    std::string tag;
    std::size_t shards = 0;
    std::uint64_t busy_ns = 0;
    ASSERT_TRUE(in >> state >> tag >> shards >> tag >> busy_ns) << line;
    EXPECT_EQ(shards, 2u);
    EXPECT_GT(busy_ns, 0u);
  }
  EXPECT_TRUE(worker_line_seen);

  serve_lines(service, "shutdown\n");
  server.join();
  worker.join();
}

TEST(CampaignService, SkewedWorkerClockYieldsNestedByteStableTimelines) {
  // One scenario run twice from scratch: the daemon's profiler and worker
  // registry share a single counter clock while the remote worker's own
  // clock starts a million ticks ahead. The heartbeat pong carries the
  // worker reading, the midpoint estimate absorbs the skew, and the merged
  // timeline must come out causally nested — and, because every clock is a
  // deterministic counter, byte-identical between the two runs.
  struct RunResult {
    std::vector<std::string> spans;  // "id parent phase start dur origin"
    std::uint64_t rtt_ns = 0;
    std::int64_t clock_offset_ns = 0;
  };
  const auto run_once = [] {
    RunResult result;
    auto ticks = std::make_shared<std::atomic<std::uint64_t>>(0);
    CampaignService::Config config;
    config.remote_only = true;
    config.remote_wait_ms = 20000;
    config.heartbeat_interval_ns = 1;  // every pre-lease sweep pings
    config.profile_clock = [ticks] { return ticks->fetch_add(1); };
    config.worker_clock = [ticks] { return ticks->fetch_add(1); };
    CampaignService service(std::move(config));

    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread server([&service, fd = fds[0]] {
      SocketStream stream(fd);
      service.serve(stream, stream);
    });
    std::thread worker([fd = fds[1]] {
      SocketStream stream(fd);
      WorkerSessionOptions options;
      auto wticks = std::make_shared<std::atomic<std::uint64_t>>(0);
      options.clock = [wticks] { return 1'000'000 + wticks->fetch_add(1); };
      EXPECT_EQ(run_worker_session(stream, stream, "wskew", options), 0);
    });

    // Park the worker fully before the campaign starts, then pin the shared
    // counter: from here on every clock reading happens at a deterministic
    // point (single driver thread, synchronous frame conversation), so the
    // two runs tick in lockstep.
    for (;;) {
      const auto stats = serve_lines(service, "stats\n");
      bool parked = false;
      for (const auto& line : stats) {
        parked = parked || starts_with(line, "stats-worker wskew ");
      }
      if (parked) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ticks->store(1000);

    const auto lines = serve_lines(service, nine_kind_block(1, 2));
    EXPECT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();

    const auto timelines = service.timelines();
    EXPECT_EQ(timelines.size(), 1u);
    if (timelines.size() == 1) {
      std::map<std::uint64_t, const obs::Span*> by_id;
      for (const obs::Span& span : timelines[0].spans) {
        by_id[span.id] = &span;
      }
      std::size_t worker_spans = 0;
      for (const obs::Span& span : timelines[0].spans) {
        std::ostringstream line;
        line << span.id << ' ' << span.parent << ' '
             << obs::phase_name(span.phase) << ' ' << span.start_ns << ' '
             << span.duration_ns << ' '
             << (span.origin.empty() ? "-" : span.origin);
        result.spans.push_back(line.str());
        if (span.origin.empty()) {
          continue;
        }
        ++worker_spans;
        EXPECT_EQ(span.origin, "wskew");
        // The skewed worker readings came back aligned: each grafted span
        // fits strictly inside its transport ancestor's window, so its
        // daemon-time start is sane and its duration non-negative by
        // construction (it would wrap otherwise).
        const obs::Span* transport = nullptr;
        for (std::uint64_t at = span.parent; at != 0;
             at = by_id.at(at)->parent) {
          if (by_id.at(at)->phase == obs::Phase::kTransport) {
            transport = by_id.at(at);
            break;
          }
        }
        EXPECT_NE(transport, nullptr);
        if (transport == nullptr) {
          continue;
        }
        EXPECT_GE(span.start_ns, transport->start_ns);
        EXPECT_LE(span.start_ns + span.duration_ns,
                  transport->start_ns + transport->duration_ns);
        EXPECT_LT(span.duration_ns, 1'000'000u)
            << "raw worker-clock reading leaked through alignment";
      }
      EXPECT_GE(worker_spans, 2u);
    }

    // The heartbeat estimates surfaced by stats: a counter-clock rtt is a
    // small positive tick count, and the offset estimate sits near the
    // million-tick skew we injected.
    for (const auto& line : serve_lines(service, "stats\n")) {
      if (!starts_with(line, "stats-worker wskew ")) {
        continue;
      }
      std::istringstream in(line.substr(19));
      std::string state;
      std::string tag;
      std::uint64_t ignored = 0;
      in >> state >> tag >> ignored >> tag >> ignored >> tag >> ignored;
      EXPECT_TRUE(static_cast<bool>(in >> tag >> result.rtt_ns)) << line;
      EXPECT_EQ(tag, "rtt-ns") << line;
      EXPECT_TRUE(static_cast<bool>(in >> tag >> result.clock_offset_ns))
          << line;
      EXPECT_EQ(tag, "clock-offset-ns") << line;
    }

    serve_lines(service, "shutdown\n");
    server.join();
    worker.join();
    return result;
  };

  const RunResult first = run_once();
  EXPECT_GE(first.rtt_ns, 1u);
  EXPECT_GT(first.clock_offset_ns, 900'000);
  EXPECT_LT(first.clock_offset_ns, 1'100'000);

  const RunResult second = run_once();
  EXPECT_EQ(first.spans, second.spans);
}

TEST(CampaignService, MetricsCommandRendersMonotonicPrometheusText) {
  CampaignService service({});
  const auto scrape = [&service] {
    std::map<std::string, long long> counters;
    std::vector<std::string> lines = serve_lines(service, "metrics\n");
    EXPECT_FALSE(lines.empty());
    EXPECT_EQ(lines.back(), "# EOF");
    bool typed_counter = false;
    bool typed_gauge = false;
    bool typed_histogram = false;
    for (const auto& line : lines) {
      if (starts_with(line, "# TYPE ")) {
        typed_counter = typed_counter ||
                        line.find(" counter") != std::string::npos;
        typed_gauge = typed_gauge || line.find(" gauge") != std::string::npos;
        typed_histogram =
            typed_histogram || line.find(" histogram") != std::string::npos;
        continue;
      }
      if (starts_with(line, "#") || line.empty()) {
        continue;
      }
      // Sample lines are "name[{labels}] value".
      const auto space = line.rfind(' ');
      EXPECT_NE(space, std::string::npos) << line;
      if (space == std::string::npos) {
        continue;
      }
      const std::string name = line.substr(0, space);
      if (name.size() > 6 &&
          name.compare(name.size() - 6, 6, "_total") == 0) {
        counters[name] = std::stoll(line.substr(space + 1));
      }
    }
    EXPECT_TRUE(typed_counter);
    EXPECT_TRUE(typed_gauge);
    EXPECT_TRUE(typed_histogram);
    return counters;
  };

  const auto before = scrape();
  ASSERT_NE(before.count("ao_campaigns_total"), 0u);
  EXPECT_EQ(before.at("ao_campaigns_total"), 0);

  serve_lines(service, nine_kind_block(2, 1));

  const auto after = scrape();
  EXPECT_EQ(after.at("ao_campaigns_total"), 1);
  // A cold campaign ships each of its 20 jobs once, from its shard:
  // executed == merged == jobs.
  EXPECT_EQ(after.at("ao_jobs_executed_total"), 20);
  EXPECT_EQ(after.at("ao_merged_entries_total"), 20);
  // Counters never move backwards between scrapes.
  for (const auto& [name, value] : before) {
    ASSERT_NE(after.count(name), 0u) << name;
    EXPECT_GE(after.at(name), value) << name;
  }

  // The executed campaign fed the per-phase duration histogram.
  const std::string text = [&service] {
    std::string joined;
    for (const auto& line : serve_lines(service, "metrics\n")) {
      joined += line;
      joined += '\n';
    }
    return joined;
  }();
  EXPECT_NE(text.find("ao_phase_duration_ns_bucket{phase=\"execute\","
                      "le=\"+Inf\"} "),
            std::string::npos);
  EXPECT_NE(text.find("ao_phase_duration_ns_count{phase=\"execute\"} "),
            std::string::npos);
}

// The operator surfaces of one scripted session, pinned as text: the `stats`
// line byte for byte, the `stats-phase` phase set with its counts, and the
// `metrics` exposition with its timing-valued samples (histogram buckets and
// sums, the outbox high-water mark) masked. The session covers a `shards 1`
// campaign (a shard of one), a `shards 2` campaign, both on thread local
// endpoints, a query, a follow and the abort of a queued campaign, so every
// counter family moves.
std::string masked_surfaces(const std::vector<std::string>& lines) {
  const auto mask_last = [](const std::string& line) {
    return line.substr(0, line.rfind(' ')) + " <t>";
  };
  std::string text;
  for (const auto& line : lines) {
    std::string shown = line;
    if (starts_with(line, "stats-phase ")) {
      shown = line.substr(0, line.find(" total-ns "));
    } else if (starts_with(line, "stats ")) {
      const auto at = line.find(" outbox-peak ");
      const auto end = line.find(' ', at + 13);
      shown = line.substr(0, at + 13) + "<t>" + line.substr(end);
    } else if (starts_with(line, "ao_phase_duration_ns_bucket") ||
               starts_with(line, "ao_phase_duration_ns_sum") ||
               starts_with(line, "ao_outbox_peak_depth ")) {
      shown = mask_last(line);
    }
    text += shown;
    text += '\n';
  }
  return text;
}

TEST(CampaignService, StatsPhaseAndMetricsTranscriptIsPinned) {
  const auto dir = temp_dir("transcript");
  CampaignService::Config config;
  config.store_path = (dir / "service.aocache").string();
  config.profile_clock = counter_clock();
  CampaignService service(std::move(config));

  ASSERT_TRUE(starts_with(serve_lines(service, nine_kind_block(2, 1)).back(),
                          "done campaign "));
  const auto sharded = serve_lines(
      service,
      "begin sharded\nchips m2\nimpls cpu-single,gpu-mps\nsizes 32,48\n"
      "repetitions 2\nprecision 24 5\nsme 32 13\nworkers 1\nshards 2\nrun\n");
  ASSERT_TRUE(starts_with(sharded.back(), "done campaign ")) << sharded.back();
  serve_lines(service, "query limit 5\nfollow ninekinds\n");

  auto blocker = service.queue().submit("blocker", 0, kResourceAll);
  ASSERT_TRUE(blocker);
  ASSERT_TRUE(blocker->try_start());
  std::vector<std::string> queued;
  std::thread waiter([&] {
    queued = serve_lines(service, "begin queued\nchips m1\nane 24\nrun\n");
  });
  ASSERT_TRUE(wait_until([&] { return service.queue().queued_count() == 1; }));
  ASSERT_TRUE(wait_until([&] {
    return serve_lines(service, "abort queued\n") ==
           std::vector<std::string>{"ok abort queued cancelled 1"};
  }));
  waiter.join();
  blocker.reset();
  ASSERT_FALSE(queued.empty());
  EXPECT_TRUE(starts_with(queued.back(), "error aborted campaign "));

  // schedule: one `expand` span per campaign (the queued one included), and
  // a `warm` and a `plan-shards` span per campaign that ran. Both ran as
  // shards on local endpoints, which ship their timelines: 26 execute
  // spans, a plan span per shard and a flush span per records frame (the
  // 20-record shard of one flushes a batch of 16 and one of 4); the daemon
  // side adds a transport, a merge and frames (task, each records frame,
  // spans) per shard. No daemon path records a `serialize` span.
  const std::string expected = R"(stats-phase campaign count 3
stats-phase queue-wait count 3
stats-phase admission count 3
stats-phase schedule count 7
stats-phase shard count 3
stats-phase execute count 26
stats-phase frame count 10
stats-phase transport count 3
stats-phase merge count 3
stats-phase abort count 1
stats-phase plan count 6
stats-phase flush count 4
stats-phase query count 2
stats campaigns 2 sharded 2 records 26 executed 26 hits 0 merged 26 cache-entries 26 store-entries 26 running 0 queued 0 peak 1 rejected 0 remote-shards 0 workers 0 idle-workers 0 aborted 1 deadline-expired 0 shard-retries 0 outbox-peak <t> outbox-blocked 0 outbox-dropped 0 plan-hits 0 plan-misses 3 plan-entries 3 queries 1 query-records 25 follows 1 stale-cursors 0
# HELP ao_campaigns_total Campaigns completed since daemon start.
# TYPE ao_campaigns_total counter
ao_campaigns_total 2
# HELP ao_campaigns_sharded_total Completed campaigns that ran at least one shard.
# TYPE ao_campaigns_sharded_total counter
ao_campaigns_sharded_total 2
# HELP ao_campaigns_aborted_total Campaigns cancelled by the abort command.
# TYPE ao_campaigns_aborted_total counter
ao_campaigns_aborted_total 1
# HELP ao_campaigns_deadline_expired_total Campaigns cancelled by an expired deadline.
# TYPE ao_campaigns_deadline_expired_total counter
ao_campaigns_deadline_expired_total 0
# HELP ao_queue_rejected_total Campaign submissions rejected at admission.
# TYPE ao_queue_rejected_total counter
ao_queue_rejected_total 0
# HELP ao_jobs_executed_total Entry lines shard workers shipped, retried shards' replays included.
# TYPE ao_jobs_executed_total counter
ao_jobs_executed_total 26
# HELP ao_cache_hits_total Jobs served from the warm result cache.
# TYPE ao_cache_hits_total counter
ao_cache_hits_total 0
# HELP ao_records_streamed_total Measurement records streamed to clients.
# TYPE ao_records_streamed_total counter
ao_records_streamed_total 26
# HELP ao_merged_entries_total Distinct shard records settled into the warm cache.
# TYPE ao_merged_entries_total counter
ao_merged_entries_total 26
# HELP ao_remote_shards_total Shards executed on remote workers.
# TYPE ao_remote_shards_total counter
ao_remote_shards_total 0
# HELP ao_shard_retries_total Shards re-dispatched after a worker endpoint died.
# TYPE ao_shard_retries_total counter
ao_shard_retries_total 0
# HELP ao_outbox_blocked_total Times a session outbox filled and blocked its producer.
# TYPE ao_outbox_blocked_total counter
ao_outbox_blocked_total 0
# HELP ao_outbox_dropped_total Outbox lines discarded by campaign cancellation.
# TYPE ao_outbox_dropped_total counter
ao_outbox_dropped_total 0
# HELP ao_plan_cache_hits_total Campaign checkouts served from the compiled plan cache.
# TYPE ao_plan_cache_hits_total counter
ao_plan_cache_hits_total 0
# HELP ao_plan_cache_misses_total Campaign checkouts that had to compile their expansion.
# TYPE ao_plan_cache_misses_total counter
ao_plan_cache_misses_total 3
# HELP ao_queries_total Store queries served through the secondary index.
# TYPE ao_queries_total counter
ao_queries_total 1
# HELP ao_query_records_total Entry lines streamed by query and follow replies.
# TYPE ao_query_records_total counter
ao_query_records_total 25
# HELP ao_follows_total Campaign record streams resumed via the follow command.
# TYPE ao_follows_total counter
ao_follows_total 1
# HELP ao_stale_cursors_total Reads rejected because their cursor outlived a store rewrite.
# TYPE ao_stale_cursors_total counter
ao_stale_cursors_total 0
# HELP ao_queue_depth Campaigns waiting in the admission queue.
# TYPE ao_queue_depth gauge
ao_queue_depth 0
# HELP ao_campaigns_running Campaigns currently running.
# TYPE ao_campaigns_running gauge
ao_campaigns_running 0
# HELP ao_outbox_peak_depth Largest session outbox depth seen.
# TYPE ao_outbox_peak_depth gauge
ao_outbox_peak_depth <t>
# HELP ao_workers_connected Remote worker endpoints currently connected.
# TYPE ao_workers_connected gauge
ao_workers_connected 0
# HELP ao_workers_idle Connected remote workers currently idle.
# TYPE ao_workers_idle gauge
ao_workers_idle 0
# HELP ao_worker_rtt_ns Last heartbeat round-trip time per worker endpoint.
# TYPE ao_worker_rtt_ns gauge
# HELP ao_worker_clock_offset_ns Estimated worker-minus-daemon clock offset per endpoint.
# TYPE ao_worker_clock_offset_ns gauge
# HELP ao_phase_duration_ns Distribution of span durations per lifecycle phase.
# TYPE ao_phase_duration_ns histogram
ao_phase_duration_ns_bucket{phase="abort",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="abort",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="abort"} <t>
ao_phase_duration_ns_count{phase="abort"} 1
ao_phase_duration_ns_bucket{phase="admission",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="admission",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="admission"} <t>
ao_phase_duration_ns_count{phase="admission"} 3
ao_phase_duration_ns_bucket{phase="campaign",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="campaign",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="campaign"} <t>
ao_phase_duration_ns_count{phase="campaign"} 3
ao_phase_duration_ns_bucket{phase="execute",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="execute",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="execute"} <t>
ao_phase_duration_ns_count{phase="execute"} 26
ao_phase_duration_ns_bucket{phase="flush",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="flush",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="flush"} <t>
ao_phase_duration_ns_count{phase="flush"} 4
ao_phase_duration_ns_bucket{phase="frame",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="frame",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="frame"} <t>
ao_phase_duration_ns_count{phase="frame"} 10
ao_phase_duration_ns_bucket{phase="merge",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="merge",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="merge"} <t>
ao_phase_duration_ns_count{phase="merge"} 3
ao_phase_duration_ns_bucket{phase="plan",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="plan",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="plan"} <t>
ao_phase_duration_ns_count{phase="plan"} 6
ao_phase_duration_ns_bucket{phase="query",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="query",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="query"} <t>
ao_phase_duration_ns_count{phase="query"} 2
ao_phase_duration_ns_bucket{phase="queue-wait",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="queue-wait",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="queue-wait"} <t>
ao_phase_duration_ns_count{phase="queue-wait"} 3
ao_phase_duration_ns_bucket{phase="schedule",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="schedule",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="schedule"} <t>
ao_phase_duration_ns_count{phase="schedule"} 7
ao_phase_duration_ns_bucket{phase="shard",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="shard",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="shard"} <t>
ao_phase_duration_ns_count{phase="shard"} 3
ao_phase_duration_ns_bucket{phase="transport",le="1000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="10000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="100000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="1000000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="10000000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="100000000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="1000000000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="10000000000"} <t>
ao_phase_duration_ns_bucket{phase="transport",le="+Inf"} <t>
ao_phase_duration_ns_sum{phase="transport"} <t>
ao_phase_duration_ns_count{phase="transport"} 3
# EOF
)";
  EXPECT_EQ(masked_surfaces(serve_lines(service, "stats\nmetrics\n")),
            expected);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- plan cache (service) -----

TEST(Protocol, PlanKeyCoversContentNotIdentityOrScheduling) {
  const CampaignRequest base = full_request();

  // Identity and scheduling fields cannot change the expansion, so requests
  // differing only there intentionally share one compiled plan.
  CampaignRequest scheduling = base;
  scheduling.name = "other-name";
  scheduling.client = "someone-else";
  scheduling.priority = 1;
  scheduling.workers = 7;
  scheduling.shards = 5;
  scheduling.deadline_ms = 9999;
  scheduling.shard_retries = 1;
  EXPECT_EQ(plan_key(base), plan_key(scheduling));

  // Every content field lands in the key verbatim: string inequality is
  // plan inequality, so distinct option sets can never collide.
  CampaignRequest sizes = base;
  sizes.sizes = {32, 64, 128};
  EXPECT_NE(plan_key(base), plan_key(sizes));
  CampaignRequest seed = base;
  seed.matrix_seed = 8;
  EXPECT_NE(plan_key(base), plan_key(seed));
  CampaignRequest chips = base;
  chips.chips = {soc::ChipModel::kM1};
  EXPECT_NE(plan_key(base), plan_key(chips));
}

TEST(CampaignService, PlanCacheHitCampaignStaysBitIdentical) {
  CampaignService service({});
  const auto first = serve_lines(service, nine_kind_block(2, 1));
  ASSERT_TRUE(starts_with(first.back(), "done campaign "));

  // The same workload under a different name, client and priority shares
  // the plan key: the second campaign checks its expansion out of the plan
  // cache instead of recompiling.
  std::string variant = nine_kind_block(2, 1);
  const std::string begin = "begin ninekinds\n";
  variant.replace(variant.find(begin), begin.size(),
                  "begin replayed\nclient replayer\npriority 3\n");
  const auto second = serve_lines(service, variant);
  ASSERT_TRUE(starts_with(second.back(), "done campaign "));
  EXPECT_EQ(count_prefixed(second, "record "), 20u);

  const auto stats = serve_lines(service, "stats\n");
  ASSERT_FALSE(stats.empty());
  EXPECT_NE(stats.back().find("plan-hits 1"), std::string::npos)
      << stats.back();
  EXPECT_NE(stats.back().find("plan-misses 1"), std::string::npos)
      << stats.back();
  EXPECT_NE(stats.back().find("plan-entries 1"), std::string::npos)
      << stats.back();

  // The cache-hit run left exactly the store a cold service builds: plan
  // reuse may never change a single merged bit.
  CampaignService cold({});
  serve_lines(cold, nine_kind_block(2, 1));
  EXPECT_EQ(entries_by_key(service.cache()), entries_by_key(cold.cache()));
}

// -------------------------------------------------------- record batching ---

/// A single-chip SME-only request: six jobs, so batch math is
/// exact and the settle order (workers 1) is deterministic.
CampaignRequest sme_only_request() {
  CampaignRequest request;
  request.name = "batching";
  request.chips = {soc::ChipModel::kM1};
  request.sme_sizes = {32, 64, 96, 128, 160, 192};
  request.sme_seed = 13;
  request.workers = 1;
  return request;
}

/// Drives one full worker session over in-memory streams: hello ack, one
/// task covering every job, bye. Returns the worker's reply frames.
std::vector<Frame> session_frames(const CampaignRequest& request,
                                  const WorkerSessionOptions& options) {
  const std::size_t group_count = request.to_campaign().jobs().size();
  std::vector<std::size_t> groups(group_count);
  for (std::size_t i = 0; i < group_count; ++i) {
    groups[i] = i;
  }
  std::stringstream in;
  in << "ok worker\n";
  write_frame(in, {kFrameTask, encode_task(request, 0, groups)});
  write_frame(in, {kFrameBye, ""});
  std::stringstream out;
  EXPECT_EQ(run_worker_session(in, out, "batcher", options), 0);
  std::string hello;
  EXPECT_TRUE(std::getline(out, hello));
  EXPECT_EQ(hello, "worker batcher");
  std::vector<Frame> frames;
  std::string error;
  while (const auto frame = read_frame(out, &error)) {
    frames.push_back(*frame);
  }
  EXPECT_EQ(error, "closed");
  return frames;
}

std::vector<std::vector<std::string>> records_frame_lines(
    const std::vector<Frame>& frames) {
  std::vector<std::vector<std::string>> batches;
  for (const auto& frame : frames) {
    if (frame.type != kFrameRecords) {
      continue;
    }
    std::istringstream payload(frame.payload);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(payload, line)) {
      lines.push_back(line);
    }
    batches.push_back(std::move(lines));
  }
  return batches;
}

TEST(WorkerSession, RecordsCoalesceUpToTheBatchBound) {
  const CampaignRequest request = sme_only_request();
  constexpr std::uint64_t kNever = ~std::uint64_t{0};

  // batch 4, no deadline: six records ship as a full batch of four plus the
  // end-of-shard drain of two.
  WorkerSessionOptions four;
  four.record_batch = 4;
  four.batch_flush_ns = kNever;
  const auto frames = session_frames(request, four);
  const auto batches = records_frame_lines(frames);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[1].size(), 2u);

  // Every coalesced line is a complete, digest-checked store entry.
  std::vector<std::string> streamed;
  for (const auto& batch : batches) {
    for (const auto& line : batch) {
      EXPECT_TRUE(orchestrator::parse_store_entry(line).has_value()) << line;
      streamed.push_back(line);
    }
  }
  ASSERT_EQ(streamed.size(), 6u);

  // The conversation still closes with spans (carrying the flush spans)
  // and `done`, whose count is the entry lines the records frames carried.
  ASSERT_GE(frames.size(), 4u);
  EXPECT_EQ(frames[frames.size() - 2].type, kFrameSpans);
  EXPECT_NE(frames[frames.size() - 2].payload.find("flush"),
            std::string::npos);
  EXPECT_EQ(frames.back(), (Frame{kFrameDone, "6"}));

  // An unbounded batch coalesces the whole shard into one frame; the wire
  // bytes are the same lines in the same order, just split differently.
  WorkerSessionOptions unbounded;
  unbounded.record_batch = 1000;
  unbounded.batch_flush_ns = kNever;
  const auto single = records_frame_lines(session_frames(request, unbounded));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], streamed);

  // batch 1 restores the historical one-frame-per-record wire shape.
  WorkerSessionOptions per_record;
  per_record.record_batch = 1;
  const auto singles = records_frame_lines(session_frames(request, per_record));
  ASSERT_EQ(singles.size(), 6u);
  std::vector<std::string> flattened;
  for (const auto& batch : singles) {
    ASSERT_EQ(batch.size(), 1u);
    flattened.push_back(batch[0]);
  }
  EXPECT_EQ(flattened, streamed);
}

TEST(WorkerSession, FlushDeadlineShipsPartialBatches) {
  const CampaignRequest request = sme_only_request();
  // A deterministic counter clock: every now() tick advances, so a zero
  // deadline has always elapsed — each settled record flushes immediately
  // even though the batch bound would hold a thousand.
  WorkerSessionOptions options;
  options.clock = counter_clock();
  options.record_batch = 1000;
  options.batch_flush_ns = 0;
  const auto batches = records_frame_lines(session_frames(request, options));
  ASSERT_EQ(batches.size(), 6u);
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.size(), 1u);
  }
}

// The batching analogue of the remote tentpole test: workers coalescing
// aggressively (whole-shard batches) must leave the daemon's merged cache
// bit-identical to the single-process run.
TEST(CampaignService, RemoteBatchedWorkersStayBitIdentical) {
  CampaignService::Config config;
  config.remote_only = true;
  config.remote_wait_ms = 20000;
  CampaignService service(std::move(config));

  WorkerSessionOptions batched;
  batched.record_batch = 64;
  batched.batch_flush_ns = ~std::uint64_t{0};

  int pair_a[2];
  int pair_b[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_a), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair_b), 0);
  std::thread serve_a([&service, fd = pair_a[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  std::thread serve_b([&service, fd = pair_b[0]] {
    SocketStream stream(fd);
    service.serve(stream, stream);
  });
  std::thread worker_a([fd = pair_a[1], batched] {
    SocketStream stream(fd);
    EXPECT_EQ(run_worker_session(stream, stream, "ba", batched), 0);
  });
  std::thread worker_b([fd = pair_b[1], batched] {
    SocketStream stream(fd);
    EXPECT_EQ(run_worker_session(stream, stream, "bb", batched), 0);
  });

  const auto lines = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(lines.back(), "done campaign ")) << lines.back();
  EXPECT_NE(lines.back().find("shards 2 remote 2"), std::string::npos)
      << lines.back();
  // Batching changes frame boundaries, never the streamed record count.
  EXPECT_EQ(count_prefixed(lines, "record "), 20u);

  serve_lines(service, "shutdown\n");
  serve_a.join();
  serve_b.join();
  worker_a.join();
  worker_b.join();

  CampaignService single({});
  serve_lines(single, nine_kind_block(2, 1));
  const auto batched_entries = entries_by_key(service.cache());
  ASSERT_EQ(batched_entries.size(), 20u);
  EXPECT_EQ(batched_entries, entries_by_key(single.cache()));
}

// ---------------------------------------------------- follow replay -------

/// The `record` payloads of a live campaign stream, in stream order.
std::vector<std::string> live_records(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const auto& line : lines) {
    if (starts_with(line, "record ")) {
      out.push_back(line.substr(7));
    }
  }
  return out;
}

/// One `follow` reply split into its record payloads and the resume token
/// each record leads with, plus the terminal line.
struct FollowReply {
  std::vector<std::string> entries;
  std::vector<std::string> tokens;
  std::string terminal;
};

FollowReply follow_reply(CampaignService& service, const std::string& command) {
  FollowReply reply;
  for (const auto& line : serve_lines(service, command + "\n")) {
    if (starts_with(line, "follow-record ")) {
      const std::size_t token_end = line.find(' ', 14);
      EXPECT_NE(token_end, std::string::npos) << line;
      if (token_end == std::string::npos) {
        continue;
      }
      reply.tokens.push_back(line.substr(14, token_end - 14));
      reply.entries.push_back(line.substr(token_end + 1));
    } else {
      reply.terminal = line;
    }
  }
  return reply;
}

/// A follow of finished campaign `name` — from the start and resumed from
/// every token it hands out — replays exactly the live stream's tail, in
/// order and byte for byte.
void expect_follow_replays_live_stream(CampaignService& service,
                                       const std::string& name,
                                       const std::vector<std::string>& live) {
  const FollowReply full = follow_reply(service, "follow " + name);
  EXPECT_EQ(full.entries, live);
  EXPECT_NE(full.terminal.find(" state complete"), std::string::npos)
      << full.terminal;
  ASSERT_EQ(full.tokens.size(), live.size());
  for (std::size_t i = 0; i < full.tokens.size(); ++i) {
    const FollowReply resumed =
        follow_reply(service, "follow " + name + " from " + full.tokens[i]);
    const std::vector<std::string> tail(live.begin() + i + 1, live.end());
    EXPECT_EQ(resumed.entries, tail) << "resumed after record " << i;
    EXPECT_NE(resumed.terminal.find(" state complete"), std::string::npos)
        << resumed.terminal;
  }
}

TEST(CampaignService, FollowReplaysTheLiveStreamBitForBit) {
  const auto dir = temp_dir("follow_replay");
  CampaignService::Config config;
  config.store_path = (dir / "follow.aocache").string();
  CampaignService service(config);

  // In process: every GEMM point is functional and verified, and three
  // chips share each (impl, n) verdict — records park and publish together.
  const auto verified = serve_lines(
      service, "begin verified\nchips m1,m2,m3\n"
               "impls cpu-single,cpu-omp,gpu-naive,gpu-mps\nsizes 32,64\n"
               "repetitions 1\nworkers 3\nrun\n");
  ASSERT_TRUE(starts_with(verified.back(), "done campaign "))
      << verified.back();
  const auto verified_live = live_records(verified);
  ASSERT_EQ(verified_live.size(), 3u * 4u * 2u);
  for (const auto& entry : verified_live) {
    const auto parsed = orchestrator::parse_store_entry(entry);
    ASSERT_TRUE(parsed.has_value()) << entry;
    EXPECT_TRUE(std::get<harness::GemmMeasurement>(parsed->second).verified)
        << entry;
  }
  expect_follow_replays_live_stream(service, "verified", verified_live);

  const auto sharded = serve_lines(service, nine_kind_block(2, 2));
  ASSERT_TRUE(starts_with(sharded.back(), "done campaign ")) << sharded.back();
  EXPECT_NE(sharded.back().find(" shards 2"), std::string::npos)
      << sharded.back();
  const auto sharded_live = live_records(sharded);
  ASSERT_EQ(sharded_live.size(), 20u);
  expect_follow_replays_live_stream(service, "ninekinds", sharded_live);
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------------- query filters ---

TEST(CampaignService, QueryKindFilterKnowsEveryKindAndNoRetiredCode) {
  const auto dir = temp_dir("query_kinds");
  CampaignService::Config config;
  config.store_path = (dir / "kinds.aocache").string();
  CampaignService service(config);
  serve_lines(service, nine_kind_block(2, 1));
  for (const orchestrator::JobKind kind : orchestrator::kAllJobKinds) {
    const auto lines =
        serve_lines(service, "query kind " + orchestrator::to_string(kind) +
                                 " limit 100\n");
    ASSERT_FALSE(lines.empty());
    EXPECT_GE(count_prefixed(lines, "query-record "), 2u)  // every chip
        << orchestrator::to_string(kind);
    for (const auto& line : lines) {
      if (starts_with(line, "query-record ")) {
        const auto parsed = orchestrator::parse_store_entry(line.substr(13));
        ASSERT_TRUE(parsed.has_value()) << line;
        EXPECT_EQ(parsed->first.kind, kind) << line;
      }
    }
    EXPECT_TRUE(starts_with(lines.back(), "query-page ")) << lines.back();
  }
  // The name of the retired code-1 kind is an unknown kind like any other.
  EXPECT_EQ(serve_lines(service, "query kind gemm-verify\n"),
            std::vector<std::string>{
                "error bad-query unknown job kind: gemm-verify | line: "
                "query kind gemm-verify"});
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- query stress ------

/// One complete paged traversal through concurrent sessions: page size 3,
/// resuming from each page's cursor, restarting from scratch whenever a
/// compaction staled the cursor. Returns the concatenated entry payloads;
/// asserts structural consistency (parseable lines, strictly increasing
/// keys) on every page it sees.
std::vector<std::string> stress_traversal(CampaignService& service) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::vector<std::string> collected;
    std::optional<orchestrator::CacheKey> previous;
    std::string cursor;
    bool stale = false;
    while (true) {
      const std::string command =
          cursor.empty() ? "query limit 3\n"
                         : "query limit 3 cursor " + cursor + "\n";
      std::string page_cursor;
      bool saw_page = false;
      for (const auto& line : serve_lines(service, command)) {
        if (starts_with(line, "query-record ")) {
          const std::string payload = line.substr(13);
          const auto parsed = orchestrator::parse_store_entry(payload);
          EXPECT_TRUE(parsed.has_value()) << payload;
          if (parsed.has_value()) {
            if (previous.has_value()) {
              // Strictly increasing keys: no duplicate or reordered record
              // can appear inside one traversal, races or not.
              EXPECT_TRUE(
                  orchestrator::cache_key_less(*previous, parsed->first));
            }
            previous = parsed->first;
          }
          collected.push_back(payload);
        } else if (starts_with(line, "query-page ")) {
          saw_page = true;
          const std::size_t at = line.rfind(" cursor ");
          EXPECT_NE(at, std::string::npos) << line;
          if (at == std::string::npos) {
            return {};
          }
          page_cursor = line.substr(at + 8);
        } else if (starts_with(line, "error stale-cursor ")) {
          stale = true;
        } else {
          ADD_FAILURE() << "unexpected reply: " << line;
        }
      }
      if (stale) {
        break;  // restart the traversal against the rewritten store
      }
      EXPECT_TRUE(saw_page);
      if (!saw_page) {
        return {};
      }
      if (page_cursor == "end") {
        return collected;
      }
      cursor = page_cursor;
    }
  }
  ADD_FAILURE() << "no traversal completed in 64 attempts";
  return {};
}

TEST(CampaignService, PagedQueriesRacingInsertsAndCompactionStayConsistent) {
  const auto dir = temp_dir("query_stress");
  CampaignService::Config config;
  config.store_path = (dir / "stress.store").string();
  CampaignService service(config);

  // Seed the store so readers always have pages to walk.
  serve_lines(service,
              "begin seed\nchips m1,m2\nimpls cpu-single\nsizes 16,24\n"
              "repetitions 1\nrun\n");

  std::atomic<bool> writing{true};
  std::thread writer([&service, &writing] {
    const std::size_t sizes[] = {32, 40, 48, 56, 64, 80};
    for (std::size_t round = 0; round < std::size(sizes); ++round) {
      std::ostringstream request;
      request << "begin stress" << round << "\nchips m1,m2,m3\n"
              << "impls cpu-single,cpu-omp\nsizes " << sizes[round]
              << "\nrepetitions 1\nrun\n";
      serve_lines(service, request.str());
      // Rewrite the store under the readers' feet: in-flight cursors must
      // go structurally stale, never serve reclaimed offsets.
      serve_lines(service, "compact\n");
    }
    writing.store(false);
  });

  std::vector<std::thread> readers;
  std::atomic<std::size_t> traversals{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&service, &writing, &traversals] {
      while (writing.load()) {
        if (!stress_traversal(service).empty()) {
          traversals.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_GT(traversals.load(), 0u);

  // Post-quiescence: a final paged traversal must equal the brute-force
  // ground truth of the settled store file — newest line per key, in
  // cache_key_less order.
  const auto settled = stress_traversal(service);
  std::ifstream in(config.store_path);
  std::string line;
  std::getline(in, line);  // header
  std::map<std::string, std::pair<orchestrator::CacheKey, std::string>>
      newest;  // serialized key -> (key, newest line)
  while (std::getline(in, line)) {
    const auto parsed = orchestrator::parse_store_entry(line);
    if (parsed.has_value()) {
      std::ostringstream id;
      id << static_cast<int>(parsed->first.kind) << ' '
         << static_cast<int>(parsed->first.chip) << ' '
         << static_cast<int>(parsed->first.impl) << ' ' << parsed->first.n
         << ' ' << parsed->first.payload_fingerprint << ' '
         << parsed->first.options_fingerprint;
      newest[id.str()] = {parsed->first, line};
    }
  }
  std::vector<std::pair<orchestrator::CacheKey, std::string>> ground;
  for (auto& [id, entry] : newest) {
    ground.push_back(std::move(entry));
  }
  std::sort(ground.begin(), ground.end(), [](const auto& a, const auto& b) {
    return orchestrator::cache_key_less(a.first, b.first);
  });
  ASSERT_EQ(settled.size(), ground.size());
  for (std::size_t i = 0; i < settled.size(); ++i) {
    EXPECT_EQ(settled[i], ground[i].second) << "position " << i;
  }

  // The read path left its marks on the service's telemetry surfaces.
  const auto stats = serve_lines(service, "stats\n");
  ASSERT_FALSE(stats.empty());
  const std::string& totals = stats.back();  // the terminal "stats ..." line
  ASSERT_TRUE(starts_with(totals, "stats ")) << totals;
  EXPECT_NE(totals.find(" queries "), std::string::npos) << totals;
  EXPECT_NE(totals.find(" stale-cursors "), std::string::npos) << totals;
  const auto metrics = serve_lines(service, "metrics\n");
  bool queries_counter = false;
  bool query_phase = false;
  for (const auto& sample : metrics) {
    queries_counter |= sample == "# TYPE ao_queries_total counter";
    query_phase |=
        starts_with(sample, "ao_phase_duration_ns_count{phase=\"query\"}");
  }
  EXPECT_TRUE(queries_counter);
  EXPECT_TRUE(query_phase);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ao::service
