#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "fault_stream.hpp"
#include "harness/experiment.hpp"
#include "metal/compute_command_encoder.hpp"
#include "orchestrator/result_cache.hpp"
#include "power/powermetrics.hpp"
#include "service/frame.hpp"
#include "service/service.hpp"
#include "util/csv_writer.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace ao {
namespace {

/// Randomized property sweeps: deterministic seeds, so failures reproduce.

// ------------------------------------------------ metal dispatch fuzz ------

TEST(DispatchFuzz, RandomGridsCoverEveryThreadExactlyOnce) {
  core::System system(soc::ChipModel::kM1);
  util::Xoshiro256 rng(2024);

  for (int round = 0; round < 25; ++round) {
    const auto gx = static_cast<std::uint32_t>(1 + rng.next_below(7));
    const auto gy = static_cast<std::uint32_t>(1 + rng.next_below(5));
    const auto gz = static_cast<std::uint32_t>(1 + rng.next_below(3));
    const auto tx = static_cast<std::uint32_t>(1 + rng.next_below(8));
    const auto ty = static_cast<std::uint32_t>(1 + rng.next_below(8));
    const auto tz = static_cast<std::uint32_t>(1 + rng.next_below(4));
    if (tx * ty * tz > 1024) {
      continue;
    }
    const std::uint64_t total =
        static_cast<std::uint64_t>(gx) * gy * gz * tx * ty * tz;

    std::vector<std::atomic<int>> hits(total);
    metal::Kernel k;
    k.name = "coverage_probe";
    k.body = metal::ThreadKernelFn([&hits, gx, tx, gy, ty](
                                       const metal::ArgumentTable&,
                                       const metal::ThreadContext& ctx) {
      const std::uint64_t w = static_cast<std::uint64_t>(gx) * tx;
      const std::uint64_t h = static_cast<std::uint64_t>(gy) * ty;
      const std::uint64_t index =
          ctx.thread_position_in_grid.x +
          w * (ctx.thread_position_in_grid.y +
               h * static_cast<std::uint64_t>(ctx.thread_position_in_grid.z));
      hits[index].fetch_add(1);
    });
    k.estimator = [](const metal::ArgumentTable&, const metal::DispatchShape&) {
      return metal::WorkEstimate::generic(1.0, 1.0);
    };

    auto pipeline = system.device().new_compute_pipeline_state(k);
    auto cmd = system.default_queue()->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->dispatch_threadgroups({gx, gy, gz}, {tx, ty, tz});
    enc->end_encoding();
    cmd->commit();

    for (std::uint64_t i = 0; i < total; ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << "round " << round << " grid " << gx << "x" << gy << "x" << gz
          << " tg " << tx << "x" << ty << "x" << tz << " thread " << i;
    }
  }
}

// -------------------------------------------------- powermetrics fuzz ------

TEST(PowerMetricsFuzz, RandomSessionsParseBackExactly) {
  util::Xoshiro256 rng(77);
  for (int round = 0; round < 20; ++round) {
    soc::Soc soc(soc::kAllChipModels[rng.next_below(4)]);
    power::PowerMetrics pm(soc, power::SamplerSet{true, true, true});
    pm.start();

    const int samples = 1 + static_cast<int>(rng.next_below(6));
    for (int s = 0; s < samples; ++s) {
      // Random mix of idle and unit activity.
      const int segments = 1 + static_cast<int>(rng.next_below(4));
      for (int seg = 0; seg < segments; ++seg) {
        const double dur = 1e6 + static_cast<double>(rng.next_below(1'000'000'000));
        switch (rng.next_below(4)) {
          case 0:
            soc.idle(dur);
            break;
          case 1:
            soc.execute(soc::ComputeUnit::kGpu, dur, rng.next_double() * 15.0,
                        0.5);
            break;
          case 2:
            soc.execute(soc::ComputeUnit::kAmx, dur, rng.next_double() * 6.0,
                        0.5);
            break;
          default:
            soc.execute(soc::ComputeUnit::kNeuralEngine, dur,
                        rng.next_double() * 4.0, 0.5);
            break;
        }
      }
      pm.siginfo();
    }
    pm.stop();

    const auto parsed = power::parse_powermetrics_output(pm.output_text());
    ASSERT_EQ(parsed.size(), pm.samples().size()) << "round " << round;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
      // Text rounds to whole mW.
      EXPECT_NEAR(parsed[i].cpu_mw, pm.samples()[i].cpu_mw, 0.51);
      EXPECT_NEAR(parsed[i].gpu_mw, pm.samples()[i].gpu_mw, 0.51);
      EXPECT_NEAR(parsed[i].ane_mw, pm.samples()[i].ane_mw, 0.51);
      EXPECT_NEAR(parsed[i].combined_mw, pm.samples()[i].combined_mw, 0.51);
      // Conservation: combined == cpu + gpu + ane in every sample.
      EXPECT_NEAR(pm.samples()[i].combined_mw,
                  pm.samples()[i].cpu_mw + pm.samples()[i].gpu_mw +
                      pm.samples()[i].ane_mw,
                  1e-9);
    }
  }
}

TEST(PowerMetricsFuzz, EnergyNeverNegativeAndAdditive) {
  util::Xoshiro256 rng(88);
  soc::Soc soc(soc::ChipModel::kM4);
  power::PowerModel model(soc);
  std::uint64_t checkpoint = 0;
  double accumulated = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double dur = 1e6 + static_cast<double>(rng.next_below(100'000'000));
    soc.execute(soc::ComputeUnit::kGpu, dur, rng.next_double() * 20.0, 1.0);
    const std::uint64_t now = soc.clock().now();
    const double segment = model.energy_joules(checkpoint, now);
    EXPECT_GE(segment, 0.0);
    accumulated += segment;
    checkpoint = now;
  }
  // Sum of disjoint windows equals the full-window integral.
  EXPECT_NEAR(accumulated, model.energy_joules(0, soc.clock().now()),
              accumulated * 1e-9);
}

// --------------------------------------------------------- csv fuzz --------

TEST(CsvFuzz, RandomContentRoundTrips) {
  util::Xoshiro256 rng(99);
  const std::string alphabet =
      "abcXYZ019 ,\"\n\r;|\t-_=()";
  for (int round = 0; round < 40; ++round) {
    const std::size_t cols = 1 + rng.next_below(6);
    const std::size_t rows = rng.next_below(8);
    std::vector<std::string> header;
    for (std::size_t c = 0; c < cols; ++c) {
      header.push_back("col" + std::to_string(c));
    }
    util::CsvWriter csv(header);
    std::vector<std::vector<std::string>> expected;
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (std::size_t c = 0; c < cols; ++c) {
        std::string field;
        const std::size_t len = rng.next_below(12);
        for (std::size_t i = 0; i < len; ++i) {
          field += alphabet[rng.next_below(alphabet.size())];
        }
        row.push_back(field);
      }
      expected.push_back(row);
      csv.add_row(row);
    }
    const auto parsed = util::parse_csv(csv.to_string());
    ASSERT_EQ(parsed.size(), rows + 1) << "round " << round;
    for (std::size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(parsed[r + 1], expected[r]) << "round " << round;
    }
  }
}

// -------------------------------------------------- simulated time fuzz ----

TEST(TimelineFuzz, ClockMonotoneUnderRandomWorkloads) {
  util::Xoshiro256 rng(111);
  core::System system(soc::ChipModel::kM2);
  soc::PerfModel perf(system.soc());
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const auto impl = soc::kAllGemmImpls[rng.next_below(6)];
    const std::size_t n = 32u << rng.next_below(6);
    system.soc().execute(
        soc::ComputeUnit::kGpu, perf.gemm_time_ns(impl, n),
        perf.gemm_power_watts(impl, n), perf.gemm_utilization(impl, n));
    ASSERT_GT(system.soc().clock().now(), last);
    last = system.soc().clock().now();
  }
  // Activity log is time-ordered and gap-free under back-to-back execution.
  const auto& records = system.soc().activity().records();
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_EQ(records[i].start_ns, records[i - 1].end_ns);
  }
}

// ------------------------------------------------------ wire frame fuzz ----

/// The stable reader errors — a mutated frame must land on one of these,
/// never on a crash, a hang, or a silently wrong frame.
bool structured_frame_error(const std::string& error) {
  return error == "closed" || error == "bad-frame-header" ||
         error == "frame-oversized" || error == "frame-truncated" ||
         error == "frame-digest-mismatch";
}

TEST(FrameFuzz, MutatedFramesFailStructurallyNeverCrash) {
  util::Xoshiro256 rng(31337);
  const char* types[] = {"records", "store", "spans", "shard-error"};
  for (int round = 0; round < 400; ++round) {
    std::string payload;
    const std::size_t size = rng.next_below(512);
    for (std::size_t i = 0; i < size; ++i) {
      payload.push_back(static_cast<char>(rng.next_below(256)));
    }
    const std::string encoded =
        service::encode_frame({types[rng.next_below(4)], payload});

    // Half the rounds cut the stream, half flip a byte; bias a third of the
    // positions into the header line so magic, type, length and digest
    // tokens all get mutated, not just the (much longer) payload.
    const std::size_t header_len = encoded.find('\n') + 1;
    const std::size_t at = rng.next_below(3) == 0
                               ? rng.next_below(header_len)
                               : rng.next_below(encoded.size());
    const auto fault =
        rng.next_below(2) == 0 ? test::Fault::kTruncate : test::Fault::kCorrupt;
    test::FaultStream in(encoded, fault, at);
    std::string error;
    const auto frame = service::read_frame(in, &error);
    ASSERT_FALSE(frame.has_value())
        << "round " << round << " fault at " << at << " parsed a frame";
    EXPECT_TRUE(structured_frame_error(error))
        << "round " << round << " fault at " << at << ": " << error;
  }
}

/// Entry lines as the workers batch them: a small result store serialized
/// the same way a shard's records hit the wire.
std::vector<std::string> fuzz_entry_lines() {
  orchestrator::ResultCache source;
  for (std::size_t i = 0; i < 6; ++i) {
    orchestrator::CacheKey key;
    key.kind = orchestrator::JobKind::kGemmMeasure;
    key.chip = soc::kAllChipModels[i % 4];
    key.impl = soc::GemmImpl::kGpuMps;
    key.n = 64 + i;
    key.options_fingerprint = 5;
    harness::GemmMeasurement m;
    m.n = key.n;
    m.chip = key.chip;
    m.impl = key.impl;
    m.best_gflops = 100.5 + static_cast<double>(i);
    m.time_ns.add(1.25e6 + static_cast<double>(i));
    source.insert(key, m);
  }
  std::vector<std::string> lines;
  std::istringstream store(source.serialize_store());
  std::string line;
  std::getline(store, line);  // drop the version header
  while (std::getline(store, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(FrameFuzz, MidBatchCorruptionRejectsTheWholeFrameNoPartialDelivery) {
  // A batched `records` frame is all-or-nothing: corruption anywhere in the
  // coalesced payload must fail the frame digest — the daemon never splits
  // a half-good batch into lines, so no partial merge can happen.
  const std::vector<std::string> lines = fuzz_entry_lines();
  std::string payload;
  for (const auto& line : lines) {
    if (!payload.empty()) {
      payload += '\n';
    }
    payload += line;
  }
  const std::string encoded = service::encode_frame({"records", payload});
  const std::size_t header_len = encoded.find('\n') + 1;

  util::Xoshiro256 rng(4242);
  for (int round = 0; round < 100; ++round) {
    const std::size_t at = header_len + rng.next_below(payload.size());
    const bool truncate = rng.next_below(2) == 0;
    test::FaultStream in(encoded, truncate ? test::Fault::kTruncate
                                           : test::Fault::kCorrupt, at);
    std::string error;
    ASSERT_FALSE(service::read_frame(in, &error).has_value()) << "round "
                                                              << round;
    EXPECT_EQ(error, truncate ? "frame-truncated" : "frame-digest-mismatch")
        << "round " << round << " at " << at;
  }

  // The unmutated frame still round-trips to the exact lines.
  std::istringstream clean(encoded);
  std::string error;
  const auto frame = service::read_frame(clean, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  std::vector<std::string> split;
  std::istringstream entries(frame->payload);
  std::string line;
  while (std::getline(entries, line)) {
    split.push_back(line);
  }
  EXPECT_EQ(split, lines);
}

TEST(StoreMergeFuzz, CorruptedBuffersMergeOnlyIntactEntries) {
  // The merge path behind the `store` frame: random byte mutations may cost
  // entries (skipped and counted), but whatever merges must be bit-identical
  // to the source — a corrupted line can never smuggle in a wrong record.
  orchestrator::ResultCache source;
  for (std::size_t i = 0; i < 6; ++i) {
    orchestrator::CacheKey key;
    key.kind = orchestrator::JobKind::kGemmMeasure;
    key.chip = soc::ChipModel::kM2;
    key.impl = soc::GemmImpl::kCpuOmp;
    key.n = 96 + i;
    key.options_fingerprint = 9;
    harness::GemmMeasurement m;
    m.n = key.n;
    m.best_gflops = 250.25 + static_cast<double>(i);
    m.time_ns.add(3.5e6);
    source.insert(key, m);
  }
  const std::string buffer = source.serialize_store();

  util::Xoshiro256 rng(1991);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = buffer;
    const std::size_t flips = 1 + rng.next_below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.next_below(mutated.size());
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^
          static_cast<unsigned char>(1 + rng.next_below(255)));
    }
    orchestrator::ResultCache merged;
    const std::size_t count = merged.merge_buffer(mutated);  // must not throw
    EXPECT_LE(count, 6u) << "round " << round;
    EXPECT_EQ(merged.size(), count) << "round " << round;
    for (const auto& [key, record] : merged.entries()) {
      const auto original = source.lookup(key);
      ASSERT_TRUE(original.has_value()) << "round " << round;
      EXPECT_TRUE(*original == record) << "round " << round;
    }
  }
}

/// `line` re-keyed with job-kind code `code`, its digest recomputed — a
/// well-formed line whose only fault is the kind it names.
std::string with_kind_code(const std::string& line, std::uint64_t code) {
  const std::size_t kind_at = std::strlen(orchestrator::kStoreEntryPrefix);
  const std::size_t kind_end = line.find(' ', kind_at);
  const std::size_t digest_at = line.rfind(orchestrator::kStoreDigestSeparator);
  std::string out = orchestrator::kStoreEntryPrefix + util::to_hex_u64(code) +
                    line.substr(kind_end, digest_at - kind_end);
  const std::uint64_t digest =
      orchestrator::store_digest(out.data(), out.size());
  out += orchestrator::kStoreDigestSeparator;
  out += util::to_hex_u64(digest);
  return out;
}

TEST(StoreEntryFuzz, KindCodesThatNameNoJobKindAreRejected) {
  orchestrator::CacheKey key;
  key.kind = orchestrator::JobKind::kGemmMeasure;
  key.chip = soc::ChipModel::kM3;
  key.impl = soc::GemmImpl::kGpuCutlass;
  key.n = 128;
  key.options_fingerprint = 7;
  harness::GemmMeasurement m;
  m.n = key.n;
  m.functional = true;
  m.verified = true;
  m.time_ns.add(1.5e6);
  const std::string line = orchestrator::format_store_entry(key, m);
  ASSERT_EQ(with_kind_code(line, 0), line);  // the re-keying is exact
  ASSERT_TRUE(orchestrator::parse_store_entry(line).has_value());

  // Code 1 is retired (it named the separate verify job, whose lines carried
  // a GEMM record); 9 and up were never assigned.
  for (const std::uint64_t code : {1ull, 9ull, 0x10ull, 0xffffull}) {
    EXPECT_FALSE(
        orchestrator::parse_store_entry(with_kind_code(line, code)).has_value())
        << "code " << code;
  }

  // load() skips such a line and counts it; the valid line still loads.
  const auto path =
      (std::filesystem::temp_directory_path() / "ao_retired_kind.aocache")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << orchestrator::store_header_line() << '\n'
        << line << '\n'
        << with_kind_code(line, 1) << '\n';
  }
  orchestrator::ResultCache cache;
  EXPECT_EQ(cache.load(path), 1u);
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  std::filesystem::remove(path);
}

// ----------------------------------------------------- query/follow fuzz ---

/// One protocol session against the service; replies split into lines.
std::vector<std::string> fuzz_serve(service::CampaignService& service,
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

/// The stable replies a mutated read-path line may earn. Anything else —
/// and any crash — fails the sweep.
bool structured_read_reply(const std::string& line) {
  static const char* kPrefixes[] = {
      "query-record ", "query-page ",  "follow-record ", "follow ",
      "error bad-query ", "error bad-cursor ", "error stale-cursor ",
      "error unknown-campaign ", "error bad-name ", "error bad-request ",
      "error unknown-command ", "error no-store ", "error bad-state ",
      "error bad-directive ", "pong", "ok compact",
  };
  for (const char* prefix : kPrefixes) {
    if (line.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

/// A service with a populated store and one retained campaign journal —
/// the substrate every read-path fuzz round mutates requests against.
std::string fuzz_store_path() {
  const auto path =
      std::filesystem::temp_directory_path() / "ao_queryfuzz.store";
  std::filesystem::remove(path);
  return path.string();
}

void populate_campaign(service::CampaignService& service) {
  const auto lines = fuzz_serve(service,
                                "begin fuzzq\n"
                                "chips m1,m2\n"
                                "impls cpu-single\n"
                                "sizes 32,48\n"
                                "repetitions 1\n"
                                "run\n");
  ASSERT_FALSE(lines.empty());
  ASSERT_EQ(lines.back().rfind("done campaign ", 0), 0u) << lines.back();
}

/// The cursor of the first `query-page` reply, "" when the page exhausted.
std::string first_query_cursor(service::CampaignService& service,
                               std::size_t limit) {
  const auto lines = fuzz_serve(
      service, "query limit " + std::to_string(limit) + "\n");
  for (const auto& line : lines) {
    const std::size_t at = line.rfind(" cursor ");
    if (line.rfind("query-page ", 0) == 0 && at != std::string::npos) {
      const std::string token = line.substr(at + 8);
      return token == "end" ? std::string() : token;
    }
  }
  return {};
}

TEST(QueryFuzz, MutatedRequestLinesFailStructurallyNeverCrash) {
  const std::string store = fuzz_store_path();
  service::CampaignService::Config config;
  config.store_path = store;
  service::CampaignService service(config);
  populate_campaign(service);

  const std::string query_cursor = first_query_cursor(service, 1);
  ASSERT_FALSE(query_cursor.empty());
  // A follow cursor, clipped off the terminal follow reply.
  std::string follow_cursor;
  for (const auto& line : fuzz_serve(service, "follow fuzzq\n")) {
    const std::size_t at = line.rfind(" cursor ");
    if (line.rfind("follow ", 0) == 0 && at != std::string::npos) {
      std::istringstream rest(line.substr(at + 8));
      rest >> follow_cursor;
    }
  }
  ASSERT_FALSE(follow_cursor.empty());

  const std::vector<std::string> corpus = {
      "query",
      "query limit 2",
      "query kind gemm-measure chip m1 impl cpu-single",
      "query size-min 16 size-max 64 limit 3",
      "query cursor " + query_cursor,
      "follow fuzzq",
      "follow fuzzq from " + follow_cursor,
  };
  const std::string splice_tokens[] = {
      "kind",   "chip",  "impl",       "size",  "limit",  "cursor",
      "from",   "m9",    "sme-gemm",   "0",     "999999", "aoq1",
      "aof1.0", "-1",    "0x10",       "fuzzq", "query",  "follow",
  };

  util::Xoshiro256 rng(90210);
  for (int round = 0; round < 400; ++round) {
    std::string line = corpus[rng.next_below(corpus.size())];
    switch (rng.next_below(3)) {
      case 0:  // truncate
        line = line.substr(0, rng.next_below(line.size() + 1));
        break;
      case 1: {  // flip one byte into another printable
        const std::size_t at = rng.next_below(line.size());
        line[at] = static_cast<char>('!' + rng.next_below(94));
        break;
      }
      default: {  // splice a token somewhere
        const std::string& token =
            splice_tokens[rng.next_below(std::size(splice_tokens))];
        const std::size_t at = rng.next_below(line.size() + 1);
        line = line.substr(0, at) + " " + token + " " + line.substr(at);
        break;
      }
    }
    const auto replies = fuzz_serve(service, line + "\nping\n");
    ASSERT_FALSE(replies.empty()) << "round " << round << ": " << line;
    // The session survived to the pong, and every reply is structured.
    EXPECT_EQ(replies.back(), "pong") << "round " << round << ": " << line;
    for (const auto& reply : replies) {
      EXPECT_TRUE(structured_read_reply(reply))
          << "round " << round << " line '" << line << "' -> " << reply;
    }
  }
  std::filesystem::remove(store);
}

TEST(QueryFuzz, MutatedCursorsAreRejectedReplaysAreIdentical) {
  const std::string store = fuzz_store_path();
  service::CampaignService::Config config;
  config.store_path = store;
  service::CampaignService service(config);
  populate_campaign(service);

  const std::string cursor = first_query_cursor(service, 1);
  ASSERT_FALSE(cursor.empty());

  // Replay: the identical cursor twice serves the identical page — a resume
  // after a dropped connection never skips or duplicates.
  const std::string resume = "query limit 1 cursor " + cursor + "\n";
  EXPECT_EQ(fuzz_serve(service, resume), fuzz_serve(service, resume));

  // Every truncation and every byte flip of the token is rejected with a
  // structured cursor error — never a wrong-but-plausible page.
  for (std::size_t len = 0; len < cursor.size(); ++len) {
    const auto replies = fuzz_serve(
        service, "query cursor " + cursor.substr(0, len) + "\n");
    ASSERT_EQ(replies.size(), 1u) << "prefix " << len;
    // Length 0 leaves `cursor` valueless — a filter error, not a cursor one.
    EXPECT_TRUE(replies[0].rfind("error bad-cursor ", 0) == 0 ||
                replies[0].rfind("error bad-query ", 0) == 0)
        << "prefix " << len << " -> " << replies[0];
  }
  util::Xoshiro256 rng(777);
  for (std::size_t at = 0; at < cursor.size(); ++at) {
    std::string mutated = cursor;
    do {
      mutated[at] = static_cast<char>('!' + rng.next_below(94));
    } while (mutated[at] == cursor[at]);
    const auto replies =
        fuzz_serve(service, "query cursor " + mutated + "\n");
    ASSERT_EQ(replies.size(), 1u) << "flip at " << at;
    EXPECT_EQ(replies[0].rfind("error bad-cursor ", 0), 0u)
        << "flip at " << at << " -> " << replies[0];
  }

  // A cursor that outlives a compaction fails structurally as stale — the
  // offsets it rode on were reclaimed by the rewrite.
  const auto compacted = fuzz_serve(service, "compact\n");
  ASSERT_FALSE(compacted.empty());
  EXPECT_EQ(compacted[0].rfind("ok compact", 0), 0u) << compacted[0];
  const auto stale = fuzz_serve(service, resume);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rfind("error stale-cursor ", 0), 0u) << stale[0];

  // Follow cursors: mutations of a real token are rejected the same way.
  std::string follow_cursor;
  for (const auto& line : fuzz_serve(service, "follow fuzzq\n")) {
    const std::size_t at = line.rfind(" cursor ");
    if (line.rfind("follow ", 0) == 0 && at != std::string::npos) {
      std::istringstream rest(line.substr(at + 8));
      rest >> follow_cursor;
    }
  }
  ASSERT_FALSE(follow_cursor.empty());
  for (std::size_t len = 0; len < follow_cursor.size(); ++len) {
    const auto replies = fuzz_serve(
        service,
        "follow fuzzq from " + follow_cursor.substr(0, len) + "\n");
    ASSERT_EQ(replies.size(), 1u) << "prefix " << len;
    // Length 0 leaves a three-word line — a usage error, not a cursor one.
    EXPECT_TRUE(replies[0].rfind("error bad-cursor ", 0) == 0 ||
                replies[0].rfind("error bad-request ", 0) == 0)
        << "prefix " << len << " -> " << replies[0];
  }
  std::filesystem::remove(store);
}

}  // namespace
}  // namespace ao
