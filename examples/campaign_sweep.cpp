// Campaign sweep: run a multi-chip, multi-workload benchmark campaign
// through the orchestrator — concurrent scheduling over all nine JobKinds
// (GEMM measure + verify, CPU and GPU STREAM, mixed-precision study, ANE
// inference, FP64 emulation, SME GEMM, idle power), batched operand
// allocation, and a disk-backed result cache that services repeated points
// within AND across processes.
//
// Build & run:  ./build/example_campaign_sweep [workers] [cache-file]
//                                              [--json] [--expect-disk-hits]
//
// Run it twice with the same cache file: the second process starts with a
// cold in-memory cache, loads the store, and serves every repeated point
// from disk. Pass --expect-disk-hits (the CI smoke test does) to fail the
// run unless the store actually served hits. --json replaces the prose
// report with one machine-readable object on stdout for scripting.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "core/ao.hpp"
#include "harness/reporting.hpp"
#include "obs/profiler.hpp"
#include "orchestrator/campaign.hpp"

namespace {

bool all_digits(const char* s) {
  for (; *s != '\0'; ++s) {
    if (!std::isdigit(static_cast<unsigned char>(*s))) {
      return false;
    }
  }
  return true;
}

/// One run's summary, straight from the scheduler's CampaignStats — the
/// scheduler already counts hits and misses per cacheable job, so the
/// report never recomputes them from record counts.
struct RunReport {
  const char* label;
  const ao::orchestrator::CampaignResult* result;
};

/// The cache path is the one caller-controlled string in the JSON object.
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

void print_json(std::ostream& out, std::size_t workers, std::size_t jobs,
                const std::string& cache_path, std::size_t warmed,
                const std::vector<RunReport>& runs,
                const std::vector<ao::obs::Span>& spans) {
  out << "{\n  \"workers\": " << workers << ",\n  \"jobs\": " << jobs
      << ",\n  \"store\": {\"path\": \"" << json_escape(cache_path)
      << "\", \"entries_loaded\": " << warmed << "},\n  \"profile\": {";
  // Per-phase wall time over all three runs, from the attached timeline
  // profiler — the same phase names the service's `profile` command reports.
  bool first_phase = true;
  for (const auto& [phase, ps] : ao::obs::phase_stats(spans)) {
    out << (first_phase ? "" : ", ") << "\"" << ao::obs::phase_name(phase)
        << "\": {\"count\": " << ps.count << ", \"total_ns\": " << ps.total_ns
        << ", \"p50_ns\": " << ps.p50_ns << ", \"p95_ns\": " << ps.p95_ns
        << ", \"max_ns\": " << ps.max_ns << "}";
    first_phase = false;
  }
  out << "},\n  \"runs\": [";
  bool first_run = true;
  for (const RunReport& run : runs) {
    const auto& stats = run.result->stats;
    out << (first_run ? "" : ",") << "\n    {\"label\": \"" << run.label
        << "\", \"executed\": " << stats.jobs_executed
        << ", \"cache_hits\": " << stats.cache_hits
        << ", \"cache_misses\": " << stats.cache_misses
        << ", \"verifications\": " << stats.verifications
        << ", \"batches\": " << stats.batches_allocated
        << ", \"systems\": " << stats.systems_built
        << ", \"records\": {\"gemm\": " << run.result->gemm.size()
        << ", \"stream\": " << run.result->stream.size()
        << ", \"precision\": " << run.result->precision.size()
        << ", \"ane\": " << run.result->ane.size()
        << ", \"fp64emu\": " << run.result->fp64emu.size()
        << ", \"sme\": " << run.result->sme.size()
        << ", \"power\": " << run.result->power.size() << "}}";
    first_run = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ao;

  std::size_t workers = 4;
  std::string cache_path;
  bool expect_disk_hits = false;
  bool json = false;
  bool workers_seen = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--expect-disk-hits") == 0) {
      expect_disk_hits = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (!workers_seen && all_digits(argv[i])) {
      workers = std::stoul(argv[i]);
      workers_seen = true;
    } else {
      cache_path = argv[i];
    }
  }

  // Campaign options: the paper's five repetitions, functional execution at
  // small sizes (with verification against the reference SGEMM), power
  // sampling on every point.
  harness::GemmExperiment::Options options;
  options.repetitions = 5;

  // A cache shared across campaigns — and, given a store file, across
  // processes: warm from the previous run, write-through every new point.
  orchestrator::ResultCache cache(/*capacity=*/4096);
  std::size_t warmed = 0;
  if (!cache_path.empty()) {
    warmed = cache.load(cache_path);
    cache.persist_to(cache_path);
    if (!json) {
      std::cout << "Cache store " << cache_path << ": " << warmed
                << " entries loaded\n";
    }
  }

  // A mixed-kind sweep: every JobKind the orchestrator schedules. The
  // timeline profiler rides along: --json reports per-phase wall time
  // (schedule/execute/serialize/merge) next to the run counters.
  obs::TimelineProfiler profiler;
  orchestrator::Campaign campaign;
  campaign.chips({soc::ChipModel::kM1, soc::ChipModel::kM2,
                  soc::ChipModel::kM3, soc::ChipModel::kM4})
      .impls({soc::GemmImpl::kCpuAccelerate, soc::GemmImpl::kGpuCutlass,
              soc::GemmImpl::kGpuMps})
      .sizes({256, 512, 1024, 2048})
      .options(options)
      .stream_sweep({1, 4, 8}, /*repetitions=*/10)
      .gpu_stream(/*repetitions=*/20)
      .precision_study({128})
      .ane_inference({256})
      .fp64_emulation({128})
      .sme_gemm({256})
      .power_idle(1.0)
      .cache(&cache)
      .profiler(&profiler)
      .concurrency(workers);

  if (!json) {
    std::cout << "Campaign: " << campaign.jobs().size() << " jobs on "
              << workers << " workers\n";
  }
  const auto first = campaign.run();
  if (!json) {
    std::cout << "First run : " << first.stats.jobs_executed << " executed, "
              << first.stats.cache_hits << " cache hits, "
              << first.stats.cache_misses << " misses, "
              << first.stats.batches_allocated << " operand batches, "
              << first.stats.systems_built << " simulated systems, "
              << first.stats.verifications << " verifications\n";
    std::cout << "  records: " << first.gemm.size() << " gemm, "
              << first.stream.size() << " stream, " << first.precision.size()
              << " precision, " << first.ane.size() << " ane, "
              << first.fp64emu.size() << " fp64emu, " << first.sme.size()
              << " sme, " << first.power.size() << " power\n";
  }

  // The repeated campaign is serviced from the cache: no System is leased,
  // no matrices are allocated.
  const auto second = campaign.run();
  if (!json) {
    std::cout << "Second run: " << second.stats.jobs_executed
              << " executed, " << second.stats.cache_hits << " cache hits, "
              << second.stats.cache_misses << " misses, "
              << second.stats.batches_allocated << " operand batches\n\n";
  }

  // A widened campaign overlaps the cached grid: only new points execute.
  campaign.sizes({256, 512, 1024, 2048, 4096});
  const auto widened = campaign.run();
  if (json) {
    print_json(std::cout, workers, campaign.jobs().size(), cache_path, warmed,
               {{"first", &first}, {"second", &second}, {"widened", &widened}},
               profiler.snapshot());
  } else {
    std::cout << "Widened   : " << widened.stats.jobs_executed
              << " executed, " << widened.stats.cache_hits << " cache hits, "
              << widened.stats.cache_misses << " misses\n\n";
    harness::peak_gflops_table(widened.gemm)
        .print(std::cout, "Peak GFLOPS per (chip, implementation)");
    if (!cache_path.empty()) {
      std::cout << "\nDisk-warmed points served this process: "
                << first.stats.cache_hits << " (store had " << warmed
                << " entries at startup)\n";
    }
  }
  if (expect_disk_hits && (warmed == 0 || first.stats.cache_hits == 0)) {
    std::cerr << "FAIL: expected the disk store to serve cache hits on a "
                 "cold in-memory cache\n";
    return 1;
  }
  return 0;
}
