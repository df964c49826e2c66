#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "mem/memory_controller.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/store_index.hpp"
#include "service/frame.hpp"
#include "soc/perf_model.hpp"
#include "temp_dir.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao {
namespace {

using soc::ChipModel;
using soc::GemmImpl;
using soc::kAllChipModels;
using soc::kAllGemmImpls;
using soc::kAllStreamKernels;

/// Property sweeps over the full (chip x implementation) grid — the
/// invariants every calibration retune must preserve.
class ChipImplProperty
    : public ::testing::TestWithParam<std::tuple<ChipModel, GemmImpl>> {
 protected:
  ChipModel chip() const { return std::get<0>(GetParam()); }
  GemmImpl impl() const { return std::get<1>(GetParam()); }
};

TEST_P(ChipImplProperty, TimeStrictlyIncreasesWithSize) {
  soc::Soc soc(chip());
  soc::PerfModel perf(soc);
  double prev = 0.0;
  for (std::size_t n = 32; n <= 16384; n *= 2) {
    const double t = perf.gemm_time_ns(impl(), n);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_P(ChipImplProperty, TimeScalesSuperQuadratically) {
  // Doubling n multiplies flops by ~8; even with saturation effects the
  // modeled time at 2n must exceed 4x the time at n once overheads are
  // amortized (n >= 1024).
  soc::Soc soc(chip());
  soc::PerfModel perf(soc);
  for (std::size_t n = 1024; n <= 8192; n *= 2) {
    EXPECT_GT(perf.gemm_time_ns(impl(), 2 * n),
              4.0 * perf.gemm_time_ns(impl(), n))
        << "n=" << n;
  }
}

TEST_P(ChipImplProperty, GflopsNeverExceedCalibratedPeak) {
  soc::Soc soc(chip());
  soc::PerfModel perf(soc);
  const double peak = soc::gemm_calibration(chip(), impl()).peak_gflops;
  for (std::size_t n = 32; n <= 16384; n *= 2) {
    EXPECT_LE(perf.gemm_gflops(impl(), n), peak * 1.0001) << "n=" << n;
  }
}

TEST_P(ChipImplProperty, PowerMonotoneInSizeAndBounded) {
  soc::Soc soc(chip());
  soc::PerfModel perf(soc);
  const double cap = soc::gemm_calibration(chip(), impl()).power_watts;
  double prev = 0.0;
  for (std::size_t n = 32; n <= 16384; n *= 2) {
    const double w = perf.gemm_power_watts(impl(), n);
    EXPECT_GE(w, prev);
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, cap + 1e-9);
    prev = w;
  }
}

TEST_P(ChipImplProperty, ThrottlingNeverSpeedsUp) {
  soc::Soc soc(chip());
  soc::PerfModel perf(soc);
  const double cold = perf.gemm_time_ns(impl(), 2048);
  soc.thermal().integrate(20.0, 7200.0);  // two hours of 20 W
  const double hot = perf.gemm_time_ns(impl(), 2048);
  EXPECT_GE(hot, cold);
}

std::string chip_impl_name(
    const ::testing::TestParamInfo<std::tuple<ChipModel, GemmImpl>>& info) {
  std::string name = soc::to_string(std::get<0>(info.param)) + "_" +
                     soc::to_string(std::get<1>(info.param));
  std::erase(name, '-');
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, ChipImplProperty,
                         ::testing::Combine(::testing::ValuesIn(kAllChipModels),
                                            ::testing::ValuesIn(kAllGemmImpls)),
                         chip_impl_name);

/// Per-chip properties.
class ChipProperty : public ::testing::TestWithParam<ChipModel> {};

TEST_P(ChipProperty, StreamBandwidthMonotoneInThreads) {
  soc::Soc soc(GetParam());
  soc::PerfModel perf(soc);
  for (const auto kernel : kAllStreamKernels) {
    double prev = 0.0;
    for (int t = 1; t <= soc.spec().total_cpu_cores(); ++t) {
      const double bw = perf.stream_bandwidth_gbs(soc::MemoryAgent::kCpu,
                                                  kernel, t);
      EXPECT_GE(bw, prev);
      prev = bw;
    }
  }
}

TEST_P(ChipProperty, NoAgentBeatsTheFabric) {
  soc::Soc soc(GetParam());
  soc::PerfModel perf(soc);
  const double fabric = soc.spec().memory_bandwidth_gbs;
  for (const auto kernel : kAllStreamKernels) {
    EXPECT_LE(perf.stream_bandwidth_gbs(soc::MemoryAgent::kCpu, kernel,
                                        soc.spec().total_cpu_cores()),
              fabric);
    EXPECT_LE(perf.stream_bandwidth_gbs(soc::MemoryAgent::kGpu, kernel, 1),
              fabric);
    EXPECT_LE(perf.stream_bandwidth_gbs(soc::MemoryAgent::kNeuralEngine,
                                        kernel, 1),
              fabric);
  }
}

TEST_P(ChipProperty, ArbitrationConservesFabricBandwidth) {
  soc::Soc soc(GetParam());
  mem::MemoryController mc(soc);
  const std::array<bool, 3> all_active = {true, true, true};
  double total = 0.0;
  for (const auto agent : {soc::MemoryAgent::kCpu, soc::MemoryAgent::kGpu,
                           soc::MemoryAgent::kNeuralEngine}) {
    const double bw = mc.arbitrated_bandwidth_gbs(agent, all_active);
    EXPECT_GT(bw, 0.0);
    EXPECT_LE(bw, mc.link_ceiling_gbs(agent) + 1e-9);
    total += bw;
  }
  EXPECT_LE(total, mc.fabric_ceiling_gbs() + 1e-9);
}

TEST_P(ChipProperty, GenericGpuKernelCostIsMonotone) {
  soc::Soc soc(GetParam());
  soc::PerfModel perf(soc);
  double prev = 0.0;
  for (double flops = 1e6; flops <= 1e13; flops *= 10) {
    const double t = perf.gpu_kernel_time_ns(flops, flops / 4.0);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST_P(ChipProperty, IdlePowerIsTiny) {
  const auto& idle = soc::calibration(GetParam()).idle;
  EXPECT_LT(idle.cpu_watts + idle.gpu_watts + idle.dram_watts, 0.5);
  EXPECT_GT(idle.cpu_watts, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllChips, ChipProperty,
                         ::testing::ValuesIn(kAllChipModels),
                         [](const auto& info) { return to_string(info.param); });

/// Generational properties across the series.
TEST(GenerationalProperty, EverySuccessorIsFasterAtPeak) {
  // Each generation's MPS and Accelerate peaks strictly improve (Fig. 2).
  for (const auto impl : {GemmImpl::kCpuAccelerate, GemmImpl::kGpuMps,
                          GemmImpl::kGpuNaive}) {
    double prev = 0.0;
    for (const auto chip : kAllChipModels) {
      const double peak = soc::gemm_calibration(chip, impl).peak_gflops;
      EXPECT_GT(peak, prev) << soc::to_string(chip) << "/" << soc::to_string(impl);
      prev = peak;
    }
  }
}

TEST(GenerationalProperty, StreamPeaksNeverRegress) {
  double prev_cpu = 0.0;
  double prev_gpu = 0.0;
  for (const auto chip : kAllChipModels) {
    const auto& s = soc::calibration(chip).stream;
    EXPECT_GE(s.cpu_peak_gbs(), prev_cpu) << soc::to_string(chip);
    EXPECT_GE(s.gpu_peak_gbs(), prev_gpu) << soc::to_string(chip);
    prev_cpu = s.cpu_peak_gbs();
    prev_gpu = s.gpu_peak_gbs();
  }
}

TEST(GenerationalProperty, CalibrationNeverExceedsTheoretical) {
  for (const auto chip : kAllChipModels) {
    const auto& spec = soc::chip_spec(chip);
    const auto& s = soc::calibration(chip).stream;
    EXPECT_LE(s.cpu_peak_gbs(), spec.memory_bandwidth_gbs);
    EXPECT_LE(s.gpu_peak_gbs(), spec.memory_bandwidth_gbs);
    // MPS peak below the GPU's theoretical FP32 peak.
    EXPECT_LE(soc::gemm_calibration(chip, GemmImpl::kGpuMps).peak_gflops,
              spec.gpu_peak_fp32_gflops());
  }
}

// ------------------------------------------------------- wire framing ------

/// Random payload bytes of the given size: full byte range, so newlines,
/// NULs and header-lookalike sequences all occur.
std::string random_payload(util::Xoshiro256& rng, std::size_t size) {
  std::string payload;
  payload.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload.push_back(static_cast<char>(rng.next_below(256)));
  }
  return payload;
}

/// Size grid for the frame round-trip property: the degenerate sizes
/// (0 and 1 byte), sizes straddling internal powers of two, and the hard
/// kMaxFramePayload ceiling itself (64 MiB — a reader must accept exactly
/// the boundary and refuse one byte more).
class FramePayloadSizeProperty
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FramePayloadSizeProperty, EncodeThenReadIsIdentity) {
  util::Xoshiro256 rng(0xf4a3e5 + GetParam());
  const std::string payload = random_payload(rng, GetParam());
  std::stringstream wire;
  service::FrameWriter writer;
  writer.write(wire, service::kFrameRecords, payload);
  std::string error;
  const auto frame = service::read_frame(wire, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  EXPECT_EQ(frame->type, service::kFrameRecords);
  EXPECT_EQ(frame->payload, payload);
  EXPECT_FALSE(service::read_frame(wire, &error).has_value());
  EXPECT_EQ(error, "closed");
}

INSTANTIATE_TEST_SUITE_P(
    BoundarySizes, FramePayloadSizeProperty,
    ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                      std::size_t{127}, std::size_t{128}, std::size_t{4095},
                      std::size_t{65536}, service::kMaxFramePayload),
    [](const auto& info) { return "bytes" + std::to_string(info.param); });

TEST(FrameProperty, OversizedPayloadsRefusedOnBothSides) {
  // One byte past the ceiling must fail at encode time...
  const std::string big(service::kMaxFramePayload + 1, 'x');
  std::string scratch;
  EXPECT_THROW(service::encode_frame_into(scratch, "records", big),
               util::InvalidArgument);
  std::ostringstream sink;
  service::FrameWriter writer;
  EXPECT_THROW(writer.write(sink, "records", big), util::InvalidArgument);
  // ...and a forged header claiming that length must fail at read time
  // before the reader allocates anything.
  std::ostringstream hex;
  hex << std::hex << (service::kMaxFramePayload + 1);
  std::istringstream in("@frame1 records " + hex.str() + " 0\n");
  std::string error;
  EXPECT_FALSE(service::read_frame(in, &error).has_value());
  EXPECT_EQ(error, "frame-oversized");
}

TEST(FrameProperty, WriterReusesItsBufferAcrossFrames) {
  // After a warm-up frame at the session's peak payload size, later frames
  // (any smaller size) must not grow the reused encode buffer: the steady
  // state of a long worker conversation is allocation-free.
  util::Xoshiro256 rng(1234);
  std::ostringstream sink;
  service::FrameWriter writer;
  constexpr std::size_t kPeak = 1 << 16;
  writer.write(sink, "records", random_payload(rng, kPeak));
  const std::size_t warm = writer.buffer_capacity();
  for (int round = 0; round < 50; ++round) {
    writer.write(sink, "records", random_payload(rng, rng.next_below(kPeak)));
    EXPECT_EQ(writer.buffer_capacity(), warm) << "round " << round;
  }
}

TEST(FrameProperty, WriterMatchesEncodeFrameByteForByte) {
  // The reused-buffer writer is an optimization, not a dialect: its wire
  // bytes are exactly encode_frame()'s for every frame of a conversation.
  util::Xoshiro256 rng(4321);
  std::ostringstream actual;
  std::string expected;
  service::FrameWriter writer;
  for (int round = 0; round < 30; ++round) {
    const std::string payload = random_payload(rng, rng.next_below(2048));
    writer.write(actual, "records", payload);
    expected += service::encode_frame({"records", payload});
  }
  EXPECT_EQ(actual.str(), expected);
}

TEST(FrameProperty, ConcurrentSessionsNeverAliasWriterBuffers) {
  // Two sessions, each with its own writer (the documented ownership rule):
  // interleaved writes must keep both wires clean — no frame ever carries
  // bytes from the other session's buffer.
  util::Xoshiro256 rng(777);
  std::stringstream wire_a;
  std::stringstream wire_b;
  service::FrameWriter writer_a;
  service::FrameWriter writer_b;
  std::vector<std::string> sent_a;
  std::vector<std::string> sent_b;
  for (int round = 0; round < 40; ++round) {
    const std::string payload =
        "session-" + std::string(1, "ab"[round % 2]) + ":" +
        random_payload(rng, rng.next_below(512));
    if (round % 2 == 0) {
      writer_a.write(wire_a, "records", payload);
      sent_a.push_back(payload);
    } else {
      writer_b.write(wire_b, "records", payload);
      sent_b.push_back(payload);
    }
  }
  std::string error;
  for (const std::string& expected : sent_a) {
    const auto frame = service::read_frame(wire_a, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_EQ(frame->payload, expected);
  }
  for (const std::string& expected : sent_b) {
    const auto frame = service::read_frame(wire_b, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_EQ(frame->payload, expected);
  }
}

TEST(FrameProperty, BatchedRecordLinesSplitBackExactly) {
  // The batched `records` payload shape: entry lines joined with single
  // '\n' separators, no trailing newline. The daemon's getline splitter
  // must recover exactly the coalesced lines, for every batch size.
  util::Xoshiro256 rng(2468);
  for (std::size_t batch = 1; batch <= 32; ++batch) {
    std::vector<std::string> lines;
    std::string payload;
    for (std::size_t i = 0; i < batch; ++i) {
      // Entry-line-shaped content: printable, newline-free.
      std::string line = "entry " + std::to_string(i);
      const std::size_t extra = rng.next_below(40);
      for (std::size_t j = 0; j < extra; ++j) {
        line.push_back(static_cast<char>('a' + rng.next_below(26)));
      }
      if (!payload.empty()) {
        payload += '\n';
      }
      payload += line;
      lines.push_back(std::move(line));
    }
    // A batch of one is byte-identical to the historical single-record
    // frame, so old daemons and new workers interoperate.
    if (batch == 1) {
      EXPECT_EQ(payload, lines[0]);
    }
    std::stringstream wire;
    service::write_frame(wire, {"records", payload});
    std::string error;
    const auto frame = service::read_frame(wire, &error);
    ASSERT_TRUE(frame.has_value()) << error;
    std::vector<std::string> split;
    std::istringstream entries(frame->payload);
    std::string line;
    while (std::getline(entries, line)) {
      split.push_back(line);
    }
    EXPECT_EQ(split, lines) << "batch " << batch;
  }
}

// ----------------------------------------------------- query properties ----

/// A store with duplicate appends and kind/chip/size diversity — the
/// worst-case shape for an index that must keep the newest line per key.
std::string build_query_store(orchestrator::ResultCache& cache,
                              const std::string& tag) {
  const auto path =
      test::unique_temp_dir("ao_queryprop_" + tag) / "query.store";
  cache.persist_to(path.string());
  util::Xoshiro256 rng(607);
  for (std::size_t i = 0; i < 36; ++i) {
    orchestrator::CacheKey key;
    key.kind = i % 2 == 0 ? orchestrator::JobKind::kGemmMeasure
                          : orchestrator::JobKind::kSmeGemm;
    key.chip = kAllChipModels[i % 4];
    key.impl = kAllGemmImpls[i % 6];
    key.n = 16 * (1 + i % 5);
    key.payload_fingerprint = 400 + i;
    key.options_fingerprint = 3;
    if (key.kind == orchestrator::JobKind::kSmeGemm) {
      orchestrator::SmeRecord r;
      r.chip = key.chip;
      r.n = key.n;
      r.seed = key.payload_fingerprint;
      r.modeled_gflops = 150.0 + static_cast<double>(i);
      cache.insert(key, r);
    } else {
      harness::GemmMeasurement m;
      m.n = key.n;
      m.chip = key.chip;
      m.impl = key.impl;
      m.best_gflops = 80.0 + static_cast<double>(i);
      m.time_ns.add(1e6 + static_cast<double>(rng.next_below(1000)));
      cache.insert(key, m);
    }
    if (rng.next_below(3) == 0) {
      // Duplicate append: same key, refreshed record — the store now holds
      // a dead line the index must shadow.
      cache.insert(key, *cache.lookup(key));
    }
  }
  return path.string();
}

/// The ground truth a paged traversal must reproduce: every valid entry
/// line of the store file, deduplicated by key (last line wins, exactly the
/// load() replay rule), filtered, in cache_key_less order.
std::vector<std::string> brute_force_scan(
    const std::string& path, const orchestrator::QueryFilter& filter) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::pair<orchestrator::CacheKey, std::string>> newest;
  while (std::getline(in, line)) {
    const auto parsed = orchestrator::parse_store_entry(line);
    if (!parsed.has_value()) {
      continue;
    }
    bool replaced = false;
    for (auto& [key, kept] : newest) {
      if (key == parsed->first) {
        kept = line;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      newest.emplace_back(parsed->first, line);
    }
  }
  std::vector<std::pair<orchestrator::CacheKey, std::string>> matching;
  for (auto& entry : newest) {
    if (filter.matches(entry.first)) {
      matching.push_back(std::move(entry));
    }
  }
  std::sort(matching.begin(), matching.end(),
            [](const auto& a, const auto& b) {
              return orchestrator::cache_key_less(a.first, b.first);
            });
  std::vector<std::string> lines;
  for (auto& [key, kept] : matching) {
    lines.push_back(std::move(kept));
  }
  return lines;
}

/// Concatenation of a full paged traversal at `page_size`, resuming from
/// the cursor of each page.
std::vector<std::string> paged_traversal(
    const orchestrator::ResultCache& cache,
    const orchestrator::QueryFilter& filter, std::size_t page_size) {
  std::vector<std::string> lines;
  std::string cursor;
  while (true) {
    std::string code;
    const auto page = cache.query(filter, page_size, cursor, &code);
    EXPECT_TRUE(page.has_value()) << code;
    if (!page.has_value()) {
      return lines;
    }
    EXPECT_LE(page->lines.size(), page_size);
    lines.insert(lines.end(), page->lines.begin(), page->lines.end());
    if (page->exhausted) {
      return lines;
    }
    EXPECT_FALSE(page->cursor.empty());
    cursor = page->cursor;
  }
}

TEST(QueryProperty, EveryPageSizeConcatenatesBitIdenticallyToTheFullScan) {
  orchestrator::ResultCache cache;
  const std::string path = build_query_store(cache, "pagesizes");

  std::vector<orchestrator::QueryFilter> filters(3);
  filters[1].kind = orchestrator::JobKind::kSmeGemm;
  filters[2].chip = soc::ChipModel::kM2;
  filters[2].n_min = 32;
  filters[2].n_max = 64;

  for (std::size_t f = 0; f < filters.size(); ++f) {
    const auto expected = brute_force_scan(path, filters[f]);
    const auto unpaged = paged_traversal(cache, filters[f], 4096);
    EXPECT_EQ(unpaged, expected) << "filter " << f << " unpaged";
    ASSERT_FALSE(f == 0 && expected.empty());  // the store must have content
    // Every page size from 1 to N reassembles the identical byte stream.
    for (std::size_t page_size = 1; page_size <= expected.size() + 1;
         ++page_size) {
      EXPECT_EQ(paged_traversal(cache, filters[f], page_size), expected)
          << "filter " << f << " page size " << page_size;
    }
  }
  std::filesystem::remove(path);
}

TEST(QueryProperty, RebuiltIndexIsEquivalentToTheIncrementalOne) {
  orchestrator::ResultCache incremental;
  const std::string path = build_query_store(incremental, "rebuild");
  const auto live = incremental.store_index().snapshot();
  ASSERT_FALSE(live.empty());

  // Cold attach of the same file: the scanned-up index must agree with the
  // incrementally maintained one on every key, offset and length.
  {
    orchestrator::ResultCache cold;
    cold.persist_to(path);
    EXPECT_EQ(cold.store_index().snapshot(), live);
  }

  // Compaction rewrites the file; the rebuilt index must again agree with a
  // cold scan of the rewritten bytes — and pages identically.
  orchestrator::QueryFilter all;
  const auto before = paged_traversal(incremental, all, 5);
  incremental.load(path);  // keep evicted lines loadable before the rewrite
  incremental.compact();
  const auto rebuilt = incremental.store_index().snapshot();
  orchestrator::ResultCache cold;
  cold.persist_to(path);
  EXPECT_EQ(cold.store_index().snapshot(), rebuilt);
  EXPECT_EQ(paged_traversal(incremental, all, 5), before);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ao
