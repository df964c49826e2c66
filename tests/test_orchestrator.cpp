#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "ane/neural_engine.hpp"
#include "core/system.hpp"
#include "harness/experiment.hpp"
#include "harness/matrix_workload.hpp"
#include "orchestrator/campaign.hpp"
#include "orchestrator/job.hpp"
#include "orchestrator/plan_cache.hpp"
#include "orchestrator/record.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/store_index.hpp"
#include "precision/precision_study.hpp"
#include "stream/cpu_stream.hpp"
#include "temp_dir.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace ao::orchestrator {
namespace {

// ------------------------------------------------------------- job queue ---

ExperimentJob gemm_job(std::size_t n, int priority = 0) {
  ExperimentJob job;
  job.kind = JobKind::kGemmMeasure;
  job.n = n;
  job.priority = priority;
  return job;
}

TEST(JobQueue, PriorityOrdersReadyJobs) {
  JobQueue queue;
  const JobId small = queue.push(gemm_job(32, /*priority=*/32));
  const JobId large = queue.push(gemm_job(4096, /*priority=*/4096));
  const JobId mid = queue.push(gemm_job(256, /*priority=*/256));

  EXPECT_EQ(queue.pop_ready()->id, large);
  EXPECT_EQ(queue.pop_ready()->id, mid);
  EXPECT_EQ(queue.pop_ready()->id, small);
  // Equal priority falls back to submission order.
  JobQueue tie;
  const JobId first = tie.push(gemm_job(64, 7));
  tie.push(gemm_job(64, 7));
  EXPECT_EQ(tie.pop_ready()->id, first);
}

TEST(JobQueue, PopReadyReturnsNulloptWhenDrained) {
  JobQueue queue;
  const JobId a = queue.push(gemm_job(64));
  EXPECT_EQ(queue.pop_ready()->id, a);
  // Drained once every job is popped, whether or not it is done yet.
  EXPECT_FALSE(queue.pop_ready().has_value());
  EXPECT_FALSE(queue.all_done());
  queue.mark_done(a);
  EXPECT_TRUE(queue.all_done());
  EXPECT_THROW(queue.mark_done(a), util::InvalidArgument);
  EXPECT_FALSE(JobQueue{}.pop_ready().has_value());
}

// ----------------------------------------------------------- result cache --

harness::GemmMeasurement measurement_stub(std::size_t n) {
  harness::GemmMeasurement m;
  m.n = n;
  m.best_gflops = static_cast<double>(n);
  return m;
}

CacheKey gemm_key(soc::ChipModel chip, soc::GemmImpl impl, std::size_t n,
                  std::uint64_t options_fp) {
  CacheKey key;
  key.kind = JobKind::kGemmMeasure;
  key.chip = chip;
  key.impl = impl;
  key.n = n;
  key.options_fingerprint = options_fp;
  return key;
}

const harness::GemmMeasurement& as_gemm(
    const std::optional<MeasurementRecord>& record) {
  return std::get<harness::GemmMeasurement>(record.value());
}

TEST(ResultCache, HitMissAndLruEviction) {
  ResultCache cache(2);
  const std::uint64_t fp = 1;
  const CacheKey k1 = gemm_key(soc::ChipModel::kM1, soc::GemmImpl::kGpuMps, 64, fp);
  const CacheKey k2 = gemm_key(soc::ChipModel::kM1, soc::GemmImpl::kGpuMps, 128, fp);
  const CacheKey k3 = gemm_key(soc::ChipModel::kM2, soc::GemmImpl::kGpuMps, 64, fp);

  EXPECT_FALSE(cache.lookup(k1).has_value());
  cache.insert(k1, measurement_stub(64));
  cache.insert(k2, measurement_stub(128));
  EXPECT_EQ(cache.size(), 2u);

  // Touch k1 so k2 becomes the least recently used, then overflow.
  EXPECT_TRUE(cache.lookup(k1).has_value());
  cache.insert(k3, measurement_stub(64));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));  // evicted
  EXPECT_TRUE(cache.contains(k3));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(as_gemm(cache.lookup(k1)).n, 64u);
}

TEST(ResultCache, OptionsFingerprintCoversMeasurementIdentity) {
  harness::GemmExperiment::Options base;
  const std::uint64_t fp = options_fingerprint(base);
  EXPECT_EQ(fp, options_fingerprint(base));  // stable

  auto seeded = base;
  seeded.matrix_seed = 43;
  EXPECT_NE(fp, options_fingerprint(seeded));

  auto reps = base;
  reps.repetitions = 7;
  EXPECT_NE(fp, options_fingerprint(reps));

  auto ceilings = base;
  ceilings.functional_n_max[soc::GemmImpl::kGpuMps] = 0;
  EXPECT_NE(fp, options_fingerprint(ceilings));

  auto power = base;
  power.use_powermetrics = false;
  EXPECT_NE(fp, options_fingerprint(power));
}

// ------------------------------------------------------- disk persistence --

std::string temp_store(const std::string& name) {
  return (test::unique_temp_dir("ao_test_" + name) / "store.aocache").string();
}

StreamRecord stream_stub(soc::ChipModel chip, bool gpu) {
  StreamRecord r;
  r.chip = chip;
  r.gpu = gpu;
  r.run.threads = gpu ? 0 : 4;
  for (std::size_t k = 0; k < 4; ++k) {
    r.run.kernels[k].kernel = soc::kAllStreamKernels[k];
    r.run.kernels[k].bytes_per_pass = 1000 + k;
    r.run.kernels[k].best_gbs = 100.5 + static_cast<double>(k);
    r.run.kernels[k].avg_gbs = 90.25 + static_cast<double>(k);
    r.run.kernels[k].min_time_ns = 1e6 / (k + 1);
  }
  return r;
}

PrecisionRecord precision_stub() {
  PrecisionRecord r;
  r.chip = soc::ChipModel::kM3;
  r.n = 64;
  r.seed = 7;
  precision::StudyResult row;
  row.format = precision::Format::kFp16;
  row.n = 64;
  row.max_abs_error = 0.125;
  row.mean_abs_error = 0.03125;
  row.significant_digits = 3.5;
  row.modeled_gflops = 4321.0;
  row.executing_unit = "GPU/ANE (FP16)";
  r.rows.push_back(row);
  return r;
}

AneRecord ane_stub() {
  AneRecord r;
  r.chip = soc::ChipModel::kM4;
  r.m = 64;
  r.n = 64;
  r.k = 64;
  r.target = ane::DispatchTarget::kNeuralEngine;
  r.duration_ns = 123456.5;
  r.gflops = 9300.0;
  r.gflops_per_watt = 2200.0;
  r.mean_output = 16.02;
  return r;
}

PowerRecord power_stub() {
  PowerRecord r;
  r.chip = soc::ChipModel::kM2;
  r.sample.window_seconds = 1.0;
  r.sample.cpu_mw = 95.5;
  r.sample.gpu_mw = 10.25;
  r.sample.ane_mw = 1.5;
  r.sample.dram_mw = 30.0;
  r.sample.combined_mw = 107.25;
  return r;
}

Fp64EmuRecord fp64emu_stub() {
  Fp64EmuRecord r;
  r.chip = soc::ChipModel::kM1;
  r.n = 24;
  r.seed = 11;
  r.emu_max_abs_error = 2.5e-13;
  r.fp32_max_abs_error = 4.0e-6;
  r.emulated_gflops = 250.5;
  r.fp32_gflops = 2630.25;
  return r;
}

SmeRecord sme_stub() {
  SmeRecord r;
  r.chip = soc::ChipModel::kM4;
  r.n = 32;
  r.seed = 13;
  r.max_abs_diff = 0.0;
  r.matches_amx = true;
  r.mean_output = 7.98;
  r.modeled_gflops = 1780.5;
  return r;
}

/// One key per record family, as key_for_job would build them.
std::map<std::string, std::pair<CacheKey, MeasurementRecord>> sample_entries() {
  std::map<std::string, std::pair<CacheKey, MeasurementRecord>> entries;
  harness::GemmMeasurement m = measurement_stub(64);
  m.chip = soc::ChipModel::kM1;
  m.impl = soc::GemmImpl::kGpuMps;
  m.time_ns.add(1.5e6);
  m.time_ns.add(2.5e6);
  m.functional = true;
  m.verified = true;
  m.max_error = 1.25e-4f;
  entries["gemm"] = {gemm_key(m.chip, m.impl, 64, 42), m};

  ExperimentJob stream_job;
  stream_job.kind = JobKind::kStream;
  stream_job.chip = soc::ChipModel::kM2;
  stream_job.stream_threads = 4;
  entries["stream"] = {key_for_job(stream_job, 0),
                       stream_stub(soc::ChipModel::kM2, false)};

  ExperimentJob gpu_job;
  gpu_job.kind = JobKind::kGpuStream;
  gpu_job.chip = soc::ChipModel::kM2;
  entries["gpu-stream"] = {key_for_job(gpu_job, 0),
                           stream_stub(soc::ChipModel::kM2, true)};

  ExperimentJob study_job;
  study_job.kind = JobKind::kPrecisionStudy;
  study_job.chip = soc::ChipModel::kM3;
  study_job.n = 64;
  study_job.study_seed = 7;
  entries["precision"] = {key_for_job(study_job, 0), precision_stub()};

  ExperimentJob ane_job;
  ane_job.kind = JobKind::kAneInference;
  ane_job.chip = soc::ChipModel::kM4;
  ane_job.n = 64;
  entries["ane"] = {key_for_job(ane_job, 0), ane_stub()};

  ExperimentJob power_job;
  power_job.kind = JobKind::kPowerIdle;
  power_job.chip = soc::ChipModel::kM2;
  entries["power"] = {key_for_job(power_job, 0), power_stub()};

  ExperimentJob fp64emu_job;
  fp64emu_job.kind = JobKind::kFp64Emulation;
  fp64emu_job.chip = soc::ChipModel::kM1;
  fp64emu_job.n = 24;
  fp64emu_job.study_seed = 11;
  entries["fp64emu"] = {key_for_job(fp64emu_job, 0), fp64emu_stub()};

  ExperimentJob sme_job;
  sme_job.kind = JobKind::kSmeGemm;
  sme_job.chip = soc::ChipModel::kM4;
  sme_job.n = 32;
  sme_job.study_seed = 13;
  entries["sme"] = {key_for_job(sme_job, 0), sme_stub()};
  return entries;
}

TEST(MeasurementRecord, SerializationRoundTripsEveryKind) {
  for (const auto& [name, entry] : sample_entries()) {
    const auto round_tripped = deserialize_record(serialize_record(entry.second));
    ASSERT_TRUE(round_tripped.has_value()) << name;
    EXPECT_EQ(record_kind(*round_tripped), record_kind(entry.second)) << name;
    EXPECT_TRUE(*round_tripped == entry.second) << name;
  }
}

// ------------------------------------------------------ entry codec corpus --

/// The payload (everything before " # ") re-framed with its own digest, so a
/// mutation reaches the tokenizer instead of failing the digest.
std::string with_digest(const std::string& payload) {
  return payload + kStoreDigestSeparator +
         util::to_hex_u64(store_digest(payload.data(), payload.size()));
}

/// Mutations of one well-formed entry line, each named for what it probes,
/// paired with the verdict the istream-based codec gave it (checked against
/// that codec over this same corpus): whitespace runs of any of the six
/// characters `operator>>` skips separate tokens; a newline ends the record
/// tokens (the old reader took them with one getline); tokens are 1-16
/// lowercase hex digits; a record takes exactly its own token count.
std::vector<std::tuple<std::string, std::string, bool>> entry_corpus(
    const std::string& line) {
  const std::string prefix = kStoreEntryPrefix;
  const std::string payload = line.substr(0, line.rfind(kStoreDigestSeparator));
  const std::string body = payload.substr(prefix.size());
  // `body` with its i-th separating space replaced by separator(i).
  const auto respaced = [&](const auto& separator) {
    std::string out = prefix;
    std::size_t i = 0;
    for (const char c : body) {
      if (c == ' ') {
        out += separator(i++);
      } else {
        out += c;
      }
    }
    return with_digest(out);
  };
  const auto only = [](std::size_t at, std::string separator) {
    return [=](std::size_t i) { return i == at ? separator : " "; };
  };
  // Uppercases the first hex letter of key token `token` (0-5), if any.
  const auto upcased_key = [&](std::size_t token) {
    std::string out = body;
    std::size_t at = 0;
    for (std::size_t t = 0; t < token; ++t) {
      at = out.find(' ', at) + 1;
    }
    const std::size_t end = out.find(' ', at);
    for (std::size_t i = at; i < end; ++i) {
      if (out[i] >= 'a' && out[i] <= 'f') {
        out[i] = static_cast<char>(out[i] - 'a' + 'A');
        return std::optional<std::string>(with_digest(prefix + out));
      }
    }
    return std::optional<std::string>();
  };
  const std::size_t first_space = body.find(' ');
  const std::size_t last_space = body.rfind(' ');
  const std::string last_token = body.substr(last_space + 1);

  std::vector<std::tuple<std::string, std::string, bool>> cases{
      {"as-written", line, true},
      {"tabs", respaced([](std::size_t) { return "\t"; }), true},
      {"repeated-spaces", respaced([](std::size_t) { return "   "; }), true},
      {"vt-ff-cr-mix", respaced([](std::size_t i) {
         constexpr const char* kSeparators[] = {"\v", "\f", "\r", " \t "};
         return std::string(kSeparators[i % 4]);
       }),
       true},
      {"newline-between-key-tokens", respaced(only(2, "\n")), true},
      {"newline-before-record", respaced(only(5, "\n")), false},
      {"newline-inside-record", respaced(only(8, "\n")), false},
      {"nbsp-separator", respaced(only(7, "\xa0")), false},
      {"nul-inside-token", respaced(only(9, std::string("\0 ", 2))), false},
      {"leading-space", with_digest(prefix + " " + body), true},
      {"trailing-space", with_digest(payload + " "), true},
      {"trailing-token", with_digest(payload + " 0"), false},
      {"trailing-token-after-newline", with_digest(payload + "\n0"), true},
      {"trailing-dash", with_digest(payload + " -"), false},
      {"16-digit-token",
       with_digest(prefix + std::string(16 - first_space, '0') + body), true},
      {"17-digit-token",
       with_digest(prefix + std::string(17 - first_space, '0') + body), false},
      {"dropped-last-token", with_digest(prefix + body.substr(0, last_space)),
       false},
      {"truncated-half", line.substr(0, line.size() / 2), false},
      {"truncated-digest", line.substr(0, line.size() - 1), false},
      {"no-digest", payload, false},
      {"digest-trailing-space", line + " ", false},
      {"wrong-prefix", "Entry" + line.substr(5), false},
  };
  if (last_token.size() < 16) {
    cases.emplace_back(
        "17-digit-last-token",
        with_digest(prefix + body.substr(0, last_space + 1) +
                    std::string(17 - last_token.size(), '0') + last_token),
        false);
  }
  for (std::size_t token = 0; token < 6; ++token) {
    if (const auto upcased = upcased_key(token)) {
      cases.emplace_back("uppercase-key-token-" + std::to_string(token),
                         *upcased, false);
    }
  }
  return cases;
}

TEST(MeasurementRecord, EntryCodecAcceptsAndRejectsExactlyAsTheIstreamCodec) {
  std::size_t checked = 0;
  for (const auto& [name, entry] : sample_entries()) {
    const std::string line = format_store_entry(entry.first, entry.second);
    for (const auto& [mutation, mutated, accepted] : entry_corpus(line)) {
      const auto parsed = parse_store_entry(mutated);
      EXPECT_EQ(parsed.has_value(), accepted) << name << "/" << mutation;
      if (parsed.has_value() && accepted) {
        // Separators never change what a token means.
        EXPECT_TRUE(parsed->first == entry.first) << name << "/" << mutation;
        EXPECT_TRUE(parsed->second == entry.second) << name << "/" << mutation;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 8u * 22u);
}

TEST(ResultCachePersistence, SaveLoadRoundTripHitsEveryKind) {
  const std::string path = temp_store("round_trip");
  const auto entries = sample_entries();

  ResultCache cache;
  for (const auto& [name, entry] : entries) {
    cache.insert(entry.first, entry.second);
  }
  EXPECT_EQ(cache.save(path), entries.size());

  ResultCache cold;  // a separate process's cold in-memory cache
  EXPECT_EQ(cold.load(path), entries.size());
  EXPECT_EQ(cold.size(), entries.size());
  for (const auto& [name, entry] : entries) {
    const auto hit = cold.lookup(entry.first);
    ASSERT_TRUE(hit.has_value()) << name;
    EXPECT_TRUE(*hit == entry.second) << name;
  }
  EXPECT_EQ(cold.stats().loaded, entries.size());
  EXPECT_EQ(cold.stats().load_rejected, 0u);
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, WriteThroughAppendsEachInsertion) {
  const std::string path = temp_store("write_through");
  const auto entries = sample_entries();
  {
    ResultCache cache;
    cache.persist_to(path);
    std::size_t inserted = 0;
    for (const auto& [name, entry] : entries) {
      cache.insert(entry.first, entry.second);
      ++inserted;
      // Every insertion is already on disk — a crash loses nothing.
      ResultCache probe;
      EXPECT_EQ(probe.load(path), inserted) << name;
    }
  }
  ResultCache cold;
  EXPECT_EQ(cold.load(path), entries.size());
  // Warm-then-persist across a third process keeps the store coherent.
  cold.persist_to(path);
  ExperimentJob extra;
  extra.kind = JobKind::kPowerIdle;
  extra.chip = soc::ChipModel::kM4;
  cold.insert(key_for_job(extra, 0), power_stub());
  ResultCache final_probe;
  EXPECT_EQ(final_probe.load(path), entries.size() + 1);
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, SaveOntoActivePathCompactsAndKeepsAppending) {
  const std::string path = temp_store("compact");
  ResultCache cache;
  cache.persist_to(path);
  const auto entries = sample_entries();
  const auto& gemm_entry = entries.at("gemm");
  // Insert the same key twice: the write-through log now holds a duplicate.
  cache.insert(gemm_entry.first, gemm_entry.second);
  cache.insert(gemm_entry.first, gemm_entry.second);
  // save() onto the active path compacts the store...
  EXPECT_EQ(cache.save(path), 1u);
  // ...and the append stream must follow the new file, not the old inode.
  cache.insert(entries.at("power").first, entries.at("power").second);
  ResultCache cold;
  EXPECT_EQ(cold.load(path), 2u);
  EXPECT_TRUE(cold.contains(gemm_entry.first));
  EXPECT_TRUE(cold.contains(entries.at("power").first));
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, StreamKeyNormalizesTheDefaultElementsSentinel) {
  ExperimentJob implicit_default;
  implicit_default.kind = JobKind::kStream;
  implicit_default.stream_threads = 4;
  auto explicit_default = implicit_default;
  explicit_default.stream_elements = stream::CpuStream::kDefaultElements;
  // 0 means "module default": both describe the identical measurement.
  EXPECT_TRUE(key_for_job(implicit_default, 0) ==
              key_for_job(explicit_default, 0));
}

TEST(ResultCachePersistence, AneKeyCoversOperandSeed) {
  ExperimentJob job;
  job.kind = JobKind::kAneInference;
  job.chip = soc::ChipModel::kM1;
  job.n = 64;
  auto reseeded = job;
  reseeded.study_seed = job.study_seed + 1;
  // mean_output depends on the operand seed, so the keys must differ.
  EXPECT_FALSE(key_for_job(job, 0) == key_for_job(reseeded, 0));
}

TEST(ResultCachePersistence, VersionMismatchRejectsWholeFile) {
  const std::string path = temp_store("version_mismatch");
  ResultCache cache;
  const auto entries = sample_entries();
  for (const auto& [name, entry] : entries) {
    cache.insert(entry.first, entry.second);
  }
  cache.save(path);

  // Rewrite the header to a future version; every entry line stays intact.
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  const auto newline = content.find('\n');
  ASSERT_NE(newline, std::string::npos);
  std::ofstream out(path, std::ios::trunc);
  out << "ao-result-cache v999" << content.substr(newline);
  out.close();

  ResultCache cold;
  EXPECT_EQ(cold.load(path), 0u);
  EXPECT_EQ(cold.size(), 0u);
  EXPECT_EQ(cold.stats().load_rejected, 1u);
  // And write-through refuses to append to it.
  EXPECT_THROW(cold.persist_to(path), util::Error);
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, CorruptEntriesAreSkippedNotFatal) {
  const std::string path = temp_store("corruption");
  const auto entries = sample_entries();
  {
    ResultCache cache;
    for (const auto& [name, entry] : entries) {
      cache.insert(entry.first, entry.second);
    }
    cache.save(path);
  }
  // Flip a byte inside the second entry, append a garbage line and a
  // truncated entry (a write-through run killed mid-append).
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  in.close();
  ASSERT_GE(lines.size(), 3u);
  lines[2][lines[2].size() / 2] ^= 0x1;
  std::ofstream out(path, std::ios::trunc);
  for (const auto& l : lines) {
    out << l << '\n';
  }
  out << "not an entry at all\n";
  out << lines[1].substr(0, lines[1].size() / 2);  // no trailing newline
  out.close();

  ResultCache cold;
  // All but the flipped entry load (the truncated tail re-adds a duplicate
  // prefix that fails its digest).
  EXPECT_EQ(cold.load(path), entries.size() - 1);
  EXPECT_EQ(cold.stats().load_rejected, 3u);
  std::remove(path.c_str());
}

// ------------------------------------------------- system + batch leasing --

TEST(SystemPool, LeaseHandsOutBootStateAndRecycles) {
  SystemPool pool;
  {
    auto lease = pool.acquire(soc::ChipModel::kM1);
    EXPECT_EQ(lease.system().soc().clock().now(), 0u);
    EXPECT_EQ(lease.system().soc().clock().epoch(), lease.boot_epoch());
    lease.system().soc().idle(5e9);  // dirty the clock
  }
  auto again = pool.acquire(soc::ChipModel::kM1);
  // Same System object, recycled through a reset: boot state, new epoch.
  EXPECT_EQ(again.system().soc().clock().now(), 0u);
  EXPECT_GE(again.system().soc().clock().epoch(), 1u);
  EXPECT_EQ(pool.systems_built(), 1u);
}

TEST(MatrixBatch, SharedOperandsMatchTheSerialSuite) {
  harness::MatrixSet reference(64, /*fill=*/true, /*seed=*/42);
  MatrixBatch batch(64, /*fill=*/true, /*seed=*/42);
  auto out = batch.acquire_out();
  const harness::MatrixView view = out->view();
  EXPECT_EQ(view.n, 64u);
  EXPECT_EQ(view.memory_length, reference.memory_length());
  for (std::size_t i = 0; i < 64 * 64; ++i) {
    ASSERT_EQ(view.left[i], reference.left()[i]);
    ASSERT_EQ(view.right[i], reference.right()[i]);
    ASSERT_EQ(view.out[i], 0.0f);
  }
  view.out[7] = 1.0f;
  out.reset();  // recycle: buffer is re-zeroed for the next job
  auto out2 = batch.acquire_out();
  EXPECT_EQ(out2->view().out[7], 0.0f);
  EXPECT_EQ(batch.out_buffers_built(), 1u);

  // A multi-page output written in several pages reads zero everywhere once
  // it comes back from the free list.
  MatrixBatch wide(256, /*fill=*/false, /*seed=*/0);
  auto lease = wide.acquire_out();
  float* const first = lease->view().out;
  const std::size_t floats = lease->view().memory_length / sizeof(float);
  for (std::size_t i = 0; i < floats; i += floats / 7) {
    first[i] = 2.5f;
  }
  first[floats - 1] = -1.0f;
  lease.reset();
  auto again = wide.acquire_out();
  ASSERT_EQ(again->view().out, first);  // the same, recycled buffer
  for (std::size_t i = 0; i < floats; ++i) {
    ASSERT_EQ(again->view().out[i], 0.0f) << "float " << i;
  }
  EXPECT_EQ(wide.out_buffers_built(), 1u);
}

long thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(MatrixBatch, ModelOnlyBuffersStayUntouched) {
  constexpr std::size_t n = 4096;
  const long before = thread_minor_faults();
  {
    MatrixBatch batch(n, /*fill=*/false, /*seed=*/0);
    auto out = batch.acquire_out();
  }  // the lease goes back through release_out(), then the batch is freed
  const long faults = thread_minor_faults() - before;
  // left, right and one output of 64 MiB each, in 4 KiB host pages.
  const long pages = static_cast<long>(3 * n * n * sizeof(float) / 4096);
  EXPECT_LT(faults, pages / 16) << "of " << pages << " pages";
}

TEST(MatrixBatch, NumericSlotsClaimOncePerImplAndReleaseParkedOnSettle) {
  MatrixBatch batch(32, /*fill=*/true, /*seed=*/42);
  // The shared reference product is the reference SGEMM of the operands.
  harness::MatrixSet operands(32, /*fill=*/true, /*seed=*/42);
  std::vector<float> expected(32 * 32);
  accelerate::reference::sgemm(false, false, 32, 32, 32, 1.0f,
                               operands.left(), 32, operands.right(), 32, 0.0f,
                               expected.data(), 32);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), batch.expected()));
  EXPECT_EQ(batch.expected(), batch.expected());  // computed once

  EXPECT_TRUE(batch.claim(soc::GemmImpl::kCpuSingle));
  EXPECT_FALSE(batch.claim(soc::GemmImpl::kCpuSingle));
  EXPECT_TRUE(batch.claim(soc::GemmImpl::kGpuMps));  // slots are per impl

  MatrixBatch::Parked waiting;
  waiting.job.chip = soc::ChipModel::kM2;
  waiting.measurement.functional = true;
  EXPECT_FALSE(
      batch.copy_verdict_or_park(soc::GemmImpl::kCpuSingle, waiting));
  // Another impl's verdict releases nothing parked under this one.
  EXPECT_TRUE(batch.settle(soc::GemmImpl::kGpuMps, {0.5f, false}).empty());

  const auto released = batch.settle(soc::GemmImpl::kCpuSingle, {0.25f, true});
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].job.chip, soc::ChipModel::kM2);
  EXPECT_EQ(released[0].measurement.max_error, 0.25f);
  EXPECT_TRUE(released[0].measurement.verified);

  // After the verdict exists a late measure job copies it at once.
  const auto late = batch.copy_verdict_or_park(soc::GemmImpl::kGpuMps, waiting);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(late->measurement.max_error, 0.5f);
  EXPECT_FALSE(late->measurement.verified);
}

// --------------------------------------------------------------- campaign --

bool same_measurement(const harness::GemmMeasurement& a,
                      const harness::GemmMeasurement& b) {
  return a.chip == b.chip && a.impl == b.impl && a.n == b.n &&
         a.time_ns.values() == b.time_ns.values() &&
         a.best_gflops == b.best_gflops && a.mean_gflops == b.mean_gflops &&
         a.power_mw == b.power_mw && a.cpu_power_mw == b.cpu_power_mw &&
         a.gpu_power_mw == b.gpu_power_mw &&
         a.gflops_per_watt == b.gflops_per_watt &&
         a.functional == b.functional && a.verified == b.verified &&
         a.max_error == b.max_error;
}

void expect_same_measurement_sets(std::vector<harness::GemmMeasurement> a,
                                  std::vector<harness::GemmMeasurement> b) {
  ASSERT_EQ(a.size(), b.size());
  const auto canonical = [](const harness::GemmMeasurement& x,
                            const harness::GemmMeasurement& y) {
    return std::tuple(x.chip, x.n, x.impl) < std::tuple(y.chip, y.n, y.impl);
  };
  std::sort(a.begin(), a.end(), canonical);
  std::sort(b.begin(), b.end(), canonical);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_measurement(a[i], b[i]))
        << "mismatch at " << soc::to_string(a[i].chip) << " "
        << soc::to_string(a[i].impl) << " n=" << a[i].n;
  }
}

/// The pre-orchestrator serial loop, kept verbatim as the equivalence
/// reference: one System per chip, matrices allocated per size and shared
/// across implementations, measure() in sweep order.
std::vector<harness::GemmMeasurement> legacy_serial_sweep(
    const std::vector<soc::ChipModel>& chips,
    const std::vector<soc::GemmImpl>& impls,
    const std::vector<std::size_t>& sizes,
    const harness::GemmExperiment::Options& opts) {
  std::vector<harness::GemmMeasurement> results;
  for (const auto chip : chips) {
    core::System system(chip);
    harness::GemmExperiment experiment(system.gemm_context(), opts);
    for (const std::size_t n : sizes) {
      bool any_functional = false;
      for (const auto impl : impls) {
        any_functional |= !harness::paper_skips(impl, n) &&
                          harness::functional_at(opts, impl, n);
      }
      harness::MatrixSet matrices(n, any_functional, opts.matrix_seed);
      for (const auto impl_kind : impls) {
        if (harness::paper_skips(impl_kind, n)) {
          continue;
        }
        auto impl = gemm::create_gemm(impl_kind, system.gemm_context());
        matrices.clear_out();
        results.push_back(experiment.measure(*impl, matrices));
      }
    }
  }
  return results;
}

TEST(Campaign, ExpansionIsOneJobPerPointAndHonorsSkips) {
  harness::GemmExperiment::Options opts;  // defaults: functional small sizes
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1})
      .impls({soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps})
      .sizes({64, 8192})
      .options(opts);

  JobQueue queue;
  campaign.expand(queue);
  const auto jobs = queue.jobs();
  EXPECT_EQ(jobs.size(), campaign.jobs().size());

  // CPU-Single skips 8192; n=64 is functional + verified for both impls,
  // inside its measure job.
  ASSERT_EQ(jobs.size(), 3u);
  for (const auto& job : jobs) {
    EXPECT_EQ(job.kind, JobKind::kGemmMeasure);
    EXPECT_FALSE(job.impl == soc::GemmImpl::kCpuSingle && job.n == 8192);
  }
}

TEST(Campaign, BatchedOperandsAreAllocatedOncePerSize) {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 1;
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1})
      .sizes({64})
      .options(opts)
      .concurrency(1);
  const auto result = campaign.run();

  // All six implementations at n=64: 6 verified measure jobs, one shared
  // operand batch, and — serially — one recycled output buffer.
  EXPECT_EQ(result.gemm.size(), 6u);
  EXPECT_EQ(result.stats.jobs_total, 6u);
  EXPECT_EQ(result.stats.jobs_executed, 6u);
  EXPECT_EQ(result.stats.verifications, 6u);
  EXPECT_EQ(result.stats.batches_allocated, 1u);
  EXPECT_EQ(result.stats.out_buffers_allocated, 1u);
  for (const auto& m : result.gemm) {
    EXPECT_TRUE(m.functional);
    EXPECT_TRUE(m.verified) << soc::to_string(m.impl);
  }
}

TEST(Campaign, ConcurrentRunMatchesTheSerialSuite) {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 2;
  const std::vector<soc::ChipModel> chips{soc::ChipModel::kM1};
  const std::vector<soc::GemmImpl> impls{soc::kAllGemmImpls.begin(),
                                         soc::kAllGemmImpls.end()};
  const std::vector<std::size_t> sizes{32, 64, 128};

  const auto serial = legacy_serial_sweep(chips, impls, sizes, opts);

  Campaign campaign;
  campaign.chips(chips).impls(impls).sizes(sizes).options(opts).concurrency(4);
  const auto result = campaign.run();

  expect_same_measurement_sets(serial, result.gemm);
}

TEST(Campaign, StreamAndPowerJobsProducePoints) {
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM2})
      .impls({})
      .sizes({})
      .stream_sweep({1, 4}, /*repetitions=*/2)
      .power_idle(0.5)
      .concurrency(2);
  const auto result = campaign.run();
  EXPECT_TRUE(result.gemm.empty());
  ASSERT_EQ(result.stream.size(), 2u);
  ASSERT_EQ(result.power.size(), 1u);
  for (const auto& point : result.stream) {
    EXPECT_EQ(point.chip, soc::ChipModel::kM2);
    EXPECT_GT(point.run.best_overall_gbs(), 0.0);
  }
  EXPECT_GT(result.power.front().sample.combined_mw, 0.0);
}

// The ISSUE's acceptance sweep: >= 3 chips x 6 impls x the paper's sizes
// through the scheduler equals the serial suite, and a repeated campaign is
// served from the cache. Model-only options keep the host cost bounded the
// same way the figure benches do.
TEST(Campaign, AcceptanceThreeChipPaperSweepWithCache) {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 2;
  for (auto& [impl, ceiling] : opts.functional_n_max) {
    ceiling = 0;  // model-only: the full grid reaches n=16384
  }
  const std::vector<soc::ChipModel> chips{
      soc::ChipModel::kM1, soc::ChipModel::kM2, soc::ChipModel::kM4};
  const std::vector<soc::GemmImpl> impls{soc::kAllGemmImpls.begin(),
                                         soc::kAllGemmImpls.end()};
  const auto& sizes = harness::paper_sizes();

  const auto serial = legacy_serial_sweep(chips, impls, sizes, opts);

  ResultCache cache;
  Campaign campaign;
  campaign.chips(chips).impls(impls).sizes(sizes).options(opts).cache(&cache)
      .concurrency(4);

  const auto first = campaign.run();
  expect_same_measurement_sets(serial, first.gemm);
  EXPECT_EQ(first.stats.cache_hits, 0u);

  const auto second = campaign.run();
  expect_same_measurement_sets(serial, second.gemm);
  // Every point was measured by the first run: >= 90% (here: all) of the
  // repeated campaign is serviced from the cache without touching a System.
  EXPECT_GE(second.stats.cache_hits,
            static_cast<std::size_t>(0.9 * second.gemm.size()));
  EXPECT_EQ(second.stats.cache_hits, second.gemm.size());
  EXPECT_EQ(second.stats.batches_allocated, 0u);
}

TEST(Campaign, CacheKeyedOnOptionsNotJustThePoint) {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 1;
  ResultCache cache;
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM3})
      .impls({soc::GemmImpl::kGpuMps})
      .sizes({64})
      .options(opts)
      .cache(&cache)
      .concurrency(1);
  const auto first = campaign.run();
  EXPECT_EQ(first.stats.cache_hits, 0u);

  // Same point, different seed: a different experiment, so no cache hit.
  auto reseeded = opts;
  reseeded.matrix_seed = 7;
  campaign.options(reseeded);
  const auto second = campaign.run();
  EXPECT_EQ(second.stats.cache_hits, 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// ------------------------------------------- multi-kind campaigns + disk ---

/// A small campaign exercising every JobKind: verified GEMM measurements at
/// a functional size, CPU STREAM at two thread counts, GPU STREAM, a
/// precision study, an ANE dispatch, an FP64-emulation study, an SME GEMM,
/// and an idle power sample.
Campaign every_kind_campaign() {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 2;
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1, soc::ChipModel::kM3})
      .impls({soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps})
      .sizes({64})
      .options(opts)
      .stream_sweep({1, 2}, /*repetitions=*/2, /*elements=*/1u << 10)
      .gpu_stream(/*repetitions=*/2, /*elements=*/1u << 10)
      .precision_study({32}, /*seed=*/5)
      .ane_inference({64})
      .fp64_emulation({24}, /*seed=*/11)
      .sme_gemm({48}, /*seed=*/13)
      .power_idle(0.25)
      .concurrency(4);
  return campaign;
}

TEST(Campaign, SchedulesEveryJobKindAndProducesTypedRecords) {
  Campaign campaign = every_kind_campaign();

  // The expansion covers every kind.
  JobQueue queue;
  campaign.expand(queue);
  std::map<JobKind, std::size_t> kinds;
  for (const auto& job : queue.jobs()) {
    ++kinds[job.kind];
  }
  EXPECT_EQ(kinds.size(), kAllJobKinds.size());
  EXPECT_EQ(queue.jobs().size(), campaign.jobs().size());

  const auto result = campaign.run();
  EXPECT_EQ(result.gemm.size(), 4u);  // 2 chips x 2 impls
  ASSERT_EQ(result.stream.size(), 6u);  // 2 chips x (2 cpu + 1 gpu)
  ASSERT_EQ(result.precision.size(), 2u);
  ASSERT_EQ(result.ane.size(), 2u);
  ASSERT_EQ(result.power.size(), 2u);
  ASSERT_EQ(result.fp64emu.size(), 2u);
  ASSERT_EQ(result.sme.size(), 2u);

  for (const auto& r : result.fp64emu) {
    EXPECT_EQ(r.n, 24u);
    EXPECT_EQ(r.seed, 11u);
    // The double-single shader restores most of the FP64 accuracy the plain
    // FP32 path loses, at a modeled throughput cost.
    EXPECT_LT(r.emu_max_abs_error, r.fp32_max_abs_error / 100.0);
    EXPECT_GT(r.fp32_gflops, r.emulated_gflops);
    EXPECT_GT(r.emulated_gflops, 0.0);
  }
  for (const auto& r : result.sme) {
    EXPECT_EQ(r.n, 48u);
    EXPECT_EQ(r.seed, 13u);
    // SME FMOPA tiling must agree with the AMX reference bit-for-bit.
    EXPECT_TRUE(r.matches_amx);
    EXPECT_EQ(r.max_abs_diff, 0.0);
    EXPECT_GT(r.mean_output, 0.0);
    EXPECT_GT(r.modeled_gflops, 0.0);
  }

  std::size_t gpu_points = 0;
  for (const auto& point : result.stream) {
    EXPECT_GT(point.run.best_overall_gbs(), 0.0);
    if (point.gpu) {
      ++gpu_points;
      EXPECT_EQ(point.run.threads, 0);
    }
  }
  EXPECT_EQ(gpu_points, 2u);

  for (const auto& study : result.precision) {
    ASSERT_EQ(study.rows.size(), 4u);  // FP64, FP64-emu, FP32, FP16
    EXPECT_EQ(study.n, 32u);
    EXPECT_EQ(study.seed, 5u);
    EXPECT_GT(study.rows.back().modeled_gflops, 0.0);
  }

  for (const auto& r : result.ane) {
    // 64 is ANE-compatible (multiple of 16), so the plan keeps it on-engine;
    // uniform [0,1) operands make the expected mean element ~k/4.
    EXPECT_EQ(r.target, ane::DispatchTarget::kNeuralEngine);
    EXPECT_NEAR(r.mean_output, 16.0, 1.0);
    EXPECT_GT(r.gflops, 0.0);
    EXPECT_GT(r.gflops_per_watt, 0.0);
  }
}

TEST(Campaign, AneIncompatibleShapeFallsBackToGpu) {
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM2})
      .impls({})
      .sizes({})
      .ane_inference({40})  // not a multiple of 16
      .concurrency(1);
  const auto result = campaign.run();
  ASSERT_EQ(result.ane.size(), 1u);
  EXPECT_EQ(result.ane.front().target, ane::DispatchTarget::kGpu);
  EXPECT_NEAR(result.ane.front().mean_output, 10.0, 1.0);
}

// The ANE product is computed once per campaign and shared: every chip's
// mean_output is the mean of a standalone FP16 product on the seeded
// operands, on-engine (64) and on the GPU fallback (40) alike.
TEST(Campaign, EveryChipsAneMeanIsTheStandaloneFp16Mean) {
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1, soc::ChipModel::kM2,
                  soc::ChipModel::kM3, soc::ChipModel::kM4})
      .impls({})
      .sizes({})
      .ane_inference({64, 40})
      .concurrency(4);
  const auto result = campaign.run();
  ASSERT_EQ(result.ane.size(), 8u);
  for (const std::size_t n : {64u, 40u}) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n);
    const std::uint64_t seed = ExperimentJob{}.study_seed;
    util::fill_uniform(std::span<float>(a), seed);
    util::fill_uniform(std::span<float>(b), seed + 1);
    ane::gemm_fp16_host(n, n, n, a.data(), b.data(), c.data());
    double sum = 0.0;
    for (const float v : c) {
      sum += v;
    }
    const double mean = sum / static_cast<double>(c.size());
    std::size_t chips = 0;
    for (const AneRecord& r : result.ane) {
      if (r.n == n) {
        ++chips;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(r.mean_output),
                  std::bit_cast<std::uint64_t>(mean))
            << soc::to_string(r.chip) << " n=" << n;
      }
    }
    EXPECT_EQ(chips, 4u);
  }
}

// A campaign mixing every JobKind runs twice in (simulated) separate
// processes — a cold in-memory cache warmed only from the disk store serves
// every repeated point of the second run.
TEST(Campaign, EveryKindCampaignRepeatsAcrossProcessesViaDiskStore) {
  const std::string path = temp_store("every_kind");

  Campaign campaign = every_kind_campaign();
  CampaignResult first;
  {
    ResultCache cache;  // process 1
    cache.persist_to(path);
    campaign.cache(&cache);
    first = campaign.run();
    EXPECT_EQ(first.stats.cache_hits, 0u);
  }

  ResultCache cold;  // process 2: cold in-memory cache
  EXPECT_GT(cold.load(path), 0u);
  EXPECT_EQ(cold.stats().hits, 0u);
  campaign.cache(&cold);
  const auto second = campaign.run();

  // Every job is served from disk.
  EXPECT_EQ(second.stats.cache_hits, first.stats.jobs_executed);
  EXPECT_GT(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.stats.jobs_executed, 0u);
  EXPECT_EQ(second.stats.batches_allocated, 0u);
  EXPECT_EQ(second.stats.systems_built, 0u);

  // And the records are bit-identical to the first process's.
  EXPECT_EQ(first.gemm, second.gemm);
  EXPECT_EQ(first.stream, second.stream);
  EXPECT_EQ(first.precision, second.precision);
  EXPECT_EQ(first.ane, second.ane);
  EXPECT_EQ(first.power, second.power);
  EXPECT_EQ(first.fp64emu, second.fp64emu);
  EXPECT_EQ(first.sme, second.sme);
  std::remove(path.c_str());
}

// The store is the cache's second level: a process that only attaches the
// store (no load()) and retains two points in memory still serves every
// repeated point from disk — nothing executes and nothing is appended.
TEST(Campaign, EvictedPointsAreReadThroughTheStoreNotReexecuted) {
  const std::string path = temp_store("read_through_campaign");
  Campaign campaign = every_kind_campaign();
  CampaignResult first;
  {
    ResultCache cache;  // process 1
    cache.persist_to(path);
    campaign.cache(&cache);
    first = campaign.run();
  }
  std::ifstream before_in(path, std::ios::binary);
  const std::string before((std::istreambuf_iterator<char>(before_in)),
                           std::istreambuf_iterator<char>());

  ResultCache tiny(/*capacity=*/2);  // process 2: attached, never loaded
  tiny.persist_to(path);
  campaign.cache(&tiny);
  const auto second = campaign.run();
  const std::size_t cacheable = first.stats.jobs_executed;
  EXPECT_EQ(second.stats.cache_hits, cacheable);
  EXPECT_EQ(second.stats.jobs_executed, 0u);
  EXPECT_EQ(tiny.stats().hits, cacheable);
  EXPECT_EQ(tiny.stats().misses, 0u);
  EXPECT_GT(tiny.stats().evictions, 0u);
  EXPECT_EQ(first.gemm, second.gemm);
  EXPECT_EQ(first.precision, second.precision);
  EXPECT_EQ(first.sme, second.sme);

  std::ifstream after_in(path, std::ios::binary);
  const std::string after((std::istreambuf_iterator<char>(after_in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(after, before);
  std::remove(path.c_str());
}

/// Overwrites the bytes of the file at `path` from `offset` on.
void overwrite_at(const std::string& path, std::uint64_t offset,
                  const std::string& bytes) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  io.seekp(static_cast<std::streamoff>(offset));
  io.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A read-back is checked by digest and key, not parsed: a line whose digest
// is intact but whose key tokens name another key is rejected like a line
// with one flipped record byte. Each counts once in load_rejected, and the
// campaign re-measures both points bit for bit.
TEST(Campaign, ReadBackRejectsARekeyedLineAndAFlippedRecordByte) {
  const std::string path = temp_store("read_back_check");
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1})
      .sizes({})
      .sme_gemm({32, 48}, 13)
      .concurrency(1);
  CampaignResult first;
  std::vector<ResultCache::Entry> stored;
  {
    ResultCache cache;  // process 1
    cache.persist_to(path);
    campaign.cache(&cache);
    first = campaign.run();
    stored = cache.entries();
  }
  ASSERT_EQ(stored.size(), 2u);
  const CacheKey rekeyed_key = stored[0].first;
  const CacheKey flipped_key = stored[1].first;

  ResultCache cache(/*capacity=*/1);  // process 2: attached, never loaded
  cache.persist_to(path);
  const auto rekeyed_ref = cache.store_index().find(rekeyed_key);
  const auto flipped_ref = cache.store_index().find(flipped_key);
  ASSERT_TRUE(rekeyed_ref.has_value());
  ASSERT_TRUE(flipped_ref.has_value());

  // The same record under another key, in a line of the same length: a
  // well-formed line with an intact digest, at the indexed key's offset.
  std::string rekeyed_line;
  CacheKey other = rekeyed_key;
  for (std::uint64_t bit = 1;
       bit != 0 && rekeyed_line.size() != rekeyed_ref->length; bit <<= 1) {
    other.payload_fingerprint = rekeyed_key.payload_fingerprint ^ bit;
    rekeyed_line = format_store_entry(other, stored[0].second);
  }
  ASSERT_EQ(rekeyed_line.size(), rekeyed_ref->length);
  ASSERT_TRUE(parse_store_entry(rekeyed_line).has_value());
  overwrite_at(path, rekeyed_ref->offset, rekeyed_line);

  // One flipped byte in the last record token before the digest.
  std::string flipped_line(flipped_ref->length, '\0');
  {
    std::ifstream in(path, std::ios::binary);
    in.seekg(static_cast<std::streamoff>(flipped_ref->offset));
    in.read(flipped_line.data(), flipped_ref->length);
  }
  flipped_line[flipped_line.rfind(kStoreDigestSeparator) - 1] ^= 0x1;
  overwrite_at(path, flipped_ref->offset, flipped_line);

  campaign.cache(&cache);
  const auto second = campaign.run();
  EXPECT_EQ(second.stats.cache_hits, 0u);
  EXPECT_EQ(second.stats.jobs_executed, 2u);
  EXPECT_EQ(cache.stats().load_rejected, 2u);
  EXPECT_EQ(first.sme, second.sme);
  // Both re-measured lines were appended and indexed in the bad ones' place.
  EXPECT_EQ(cache.store_entries(), 4u);
  EXPECT_GT(cache.store_index().find(rekeyed_key)->offset,
            rekeyed_ref->offset);
  EXPECT_GT(cache.store_index().find(flipped_key)->offset,
            flipped_ref->offset);
  EXPECT_EQ(campaign.run().stats.cache_hits, 2u);
  EXPECT_EQ(cache.stats().load_rejected, 2u);  // counted once each
  std::remove(path.c_str());
}

// Golden store digest: FNV-1a over a fixed mixed campaign's sorted store
// entry lines. Entries serialize FP as bit patterns, so a change under
// execute that moves one record bit changes the digest. Optimisations of
// execute must keep it; never re-capture the constant to make one pass.
// (Captured with GCC on x86-64 Linux; libm results enter the records.)
// Re-captured once, on purpose, when the record model changed: the default
// functional ceilings fell to verify_n_max, which moves every GEMM key's
// options fingerprint, and the study's FP16 row became the ANE datapath.
TEST(Campaign, GoldenStoreDigestIsUnchanged) {
  harness::GemmExperiment::Options opts;
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1, soc::ChipModel::kM3})
      .sizes({32, 64, 128, 256})  // all six impls run functionally + verify
      .options(opts)
      .precision_study({64})
      .fp64_emulation({64})
      .ane_inference({64})
      .sme_gemm({64});
  JobQueue queue;
  campaign.expand(queue);
  CampaignScheduler scheduler(opts, {2});

  const std::uint64_t options_fp = options_fingerprint(opts);
  std::mutex mutex;
  std::vector<std::string> lines;
  scheduler.run(queue, [&](const ExperimentJob& job,
                           const MeasurementRecord& record, bool) {
    std::string line = format_store_entry(key_for_job(job, options_fp), record);
    std::lock_guard lock(mutex);
    lines.push_back(std::move(line));
  });
  std::sort(lines.begin(), lines.end());
  std::uint64_t digest = util::kFnv1aOffset;
  for (const std::string& line : lines) {
    digest = util::fnv1a_bytes(line.data(), line.size(), digest);
    digest = util::fnv1a_bytes("\n", 1, digest);
  }
  EXPECT_EQ(lines.size(), 2u * (4u * 6u + 4u));
  EXPECT_EQ(digest, 0x3e96412138cbb6abull) << std::hex << "digest 0x" << digest;
}

// A study's key is (n, seed) plus the accuracy model's epoch. A store entry
// written under the key from before the epoch existed, when the FP16 row
// accumulated in half, must never be served: the point executes again and
// its rows are the current model's.
TEST(Campaign, PreEpochPrecisionStudyEntryIsNotServed) {
  const std::string path = temp_store("pre_epoch_study");
  const auto chip = soc::ChipModel::kM3;
  const std::size_t n = 64;
  const std::uint64_t seed = 7;
  ExperimentJob job;
  job.kind = JobKind::kPrecisionStudy;
  job.chip = chip;
  job.n = n;
  job.study_seed = seed;
  CacheKey old_key = key_for_job(job, 0);
  old_key.payload_fingerprint = util::fnv1a_mix(util::kFnv1aOffset, seed);
  EXPECT_FALSE(old_key == key_for_job(job, 0));

  PrecisionRecord sentinel = precision_stub();
  sentinel.chip = chip;
  sentinel.n = n;
  sentinel.seed = seed;
  {
    ResultCache writer;
    writer.persist_to(path);
    writer.insert(old_key, sentinel);
  }

  ResultCache cold;
  ASSERT_EQ(cold.load(path), 1u);
  ASSERT_TRUE(cold.contains(old_key));  // the old entry is there, unserved
  Campaign campaign;
  campaign.chips({chip}).impls({}).sizes({}).precision_study({n}, seed);
  campaign.cache(&cold);
  const auto result = campaign.run();
  EXPECT_EQ(result.stats.jobs_executed, 1u);
  EXPECT_EQ(result.stats.cache_hits, 0u);
  ASSERT_EQ(result.precision.size(), 1u);
  auto want = precision::gemm_accuracy_pass(n, seed);
  precision::fill_modeled_gflops(want, chip);
  EXPECT_EQ(result.precision.front().rows, want);
  EXPECT_NE(result.precision.front().rows, sentinel.rows);
  std::remove(path.c_str());
}

// Under the default options no product is computed that nothing checks:
// every functional GEMM record of a sweep across the ceiling is verified,
// the same check perfbench's check_campaign makes on every campaign.
TEST(Campaign, DefaultOptionsVerifyEveryFunctionalRecord) {
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1}).sizes({128, 256, 512, 1024})
      .options(harness::GemmExperiment::Options{})
      .concurrency(4);
  const auto result = campaign.run();
  ASSERT_EQ(result.gemm.size(), 4u * 6u);
  std::size_t functional = 0;
  for (const auto& m : result.gemm) {
    EXPECT_EQ(m.functional, m.n <= 256)
        << soc::to_string(m.impl) << " n=" << m.n;
    if (m.functional) {
      ++functional;
      EXPECT_TRUE(m.verified) << soc::to_string(m.impl) << " n=" << m.n;
    }
  }
  EXPECT_EQ(functional, 2u * 6u);
}

const std::vector<soc::ChipModel> kFourChips{
    soc::ChipModel::kM1, soc::ChipModel::kM2, soc::ChipModel::kM3,
    soc::ChipModel::kM4};

/// The four-chip GEMM grid whose every point runs functionally and verifies.
Campaign functional_grid(std::vector<soc::ChipModel> chips) {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 2;
  Campaign campaign;
  campaign.chips(std::move(chips)).sizes({32, 64, 128, 256}).options(opts)
      .concurrency(4);
  return campaign;
}

// Only timing and power depend on the chip: a four-chip campaign computes
// one product and one verdict per (impl, n), yet every record equals the
// one a campaign of that chip alone produces (which in turn matches the
// serial loop: ConcurrentRunMatchesTheSerialSuite).
TEST(Campaign, FourChipCampaignComputesEachProductOnce) {
  const auto result = functional_grid(kFourChips).run();
  ASSERT_EQ(result.gemm.size(), 4u * 4u * 6u);
  const std::size_t points = 4u * 6u;  // (impl, n) verify points
  EXPECT_EQ(result.stats.verifications, points);
  EXPECT_EQ(result.stats.jobs_executed, result.gemm.size());
  for (const auto& m : result.gemm) {
    EXPECT_TRUE(m.functional);
    EXPECT_TRUE(m.verified) << soc::to_string(m.impl) << " n=" << m.n;
  }

  std::vector<harness::GemmMeasurement> separate;
  for (const auto chip : kFourChips) {
    const auto alone = functional_grid({chip}).run();
    EXPECT_EQ(alone.stats.verifications, points);
    separate.insert(separate.end(), alone.gemm.begin(), alone.gemm.end());
  }
  EXPECT_EQ(result.gemm, separate);  // both sorted (chip, n, impl)
}

// Studies share their chip-free accuracy per (n, seed): one run mixing two
// seeds over four chips equals per-chip studies and single-chip campaigns.
TEST(Campaign, StudiesShareAccuracyPerSizeAndSeedAcrossChips) {
  const auto studies = [](std::vector<soc::ChipModel> chips,
                          std::uint64_t seed) {
    Campaign campaign;
    campaign.chips(std::move(chips)).impls({}).sizes({})
        .precision_study({32, 48}, seed)
        .fp64_emulation({24}, seed)
        .sme_gemm({32}, seed)
        .concurrency(4);
    return campaign;
  };
  JobQueue queue;
  studies(kFourChips, 5).expand(queue);
  studies(kFourChips, 6).expand(queue);
  CampaignScheduler scheduler(harness::GemmExperiment::Options{}, {4});
  const auto mixed = scheduler.run(queue);
  ASSERT_EQ(mixed.precision.size(), 4u * 2u * 2u);
  ASSERT_EQ(mixed.fp64emu.size(), 4u * 2u);
  ASSERT_EQ(mixed.sme.size(), 4u * 2u);

  for (const auto& record : mixed.precision) {
    EXPECT_EQ(record.rows, precision::run_gemm_precision_study(
                               record.chip, record.n, record.seed))
        << soc::to_string(record.chip) << " n=" << record.n
        << " seed=" << record.seed;
  }
  std::vector<Fp64EmuRecord> fp64emu;
  std::vector<SmeRecord> sme;
  for (const auto chip : kFourChips) {
    for (const std::uint64_t seed : {5u, 6u}) {
      const auto alone = studies({chip}, seed).run();
      fp64emu.insert(fp64emu.end(), alone.fp64emu.begin(),
                     alone.fp64emu.end());
      sme.insert(sme.end(), alone.sme.begin(), alone.sme.end());
    }
  }
  EXPECT_EQ(mixed.fp64emu, fp64emu);  // both sorted (chip, n, seed)
  EXPECT_EQ(mixed.sme, sme);
  EXPECT_NE(mixed.sme[0].mean_output, mixed.sme[1].mean_output);
}

// m1 and m3 already cached, m2 and m4 missing: the cached chips never
// execute (nor claim a product), the missing ones compute and verify it,
// and the records equal a cold run's.
TEST(Campaign, PartiallyCachedCampaignExecutesOnlyTheMissingChips) {
  const auto grid = [](std::vector<soc::ChipModel> chips) {
    Campaign campaign = functional_grid(std::move(chips));
    campaign.precision_study({32}, 5).fp64_emulation({24}, 5).sme_gemm({32},
                                                                      5);
    return campaign;
  };
  ResultCache cache;
  const auto seeded = grid({soc::ChipModel::kM1, soc::ChipModel::kM3})
                          .cache(&cache)
                          .run();
  EXPECT_EQ(seeded.stats.cache_hits, 0u);

  Campaign campaign = grid(kFourChips);
  JobQueue queue;
  campaign.expand(queue);
  harness::GemmExperiment::Options opts;
  opts.repetitions = 2;
  CampaignScheduler scheduler(opts, {4}, &cache);
  std::mutex mutex;
  std::map<soc::ChipModel, std::pair<std::size_t, std::size_t>> per_chip;
  const auto result = scheduler.run(
      queue, [&](const ExperimentJob& job, const MeasurementRecord&,
                 bool from_cache) {
        std::lock_guard lock(mutex);
        auto& [hits, fresh] = per_chip[job.chip];
        ++(from_cache ? hits : fresh);
      });

  const std::size_t per_chip_records = 4u * 6u + 3u;
  for (const auto chip : kFourChips) {
    const bool cached =
        chip == soc::ChipModel::kM1 || chip == soc::ChipModel::kM3;
    EXPECT_EQ(per_chip[chip].first, cached ? per_chip_records : 0u)
        << soc::to_string(chip);
    EXPECT_EQ(per_chip[chip].second, cached ? 0u : per_chip_records)
        << soc::to_string(chip);
  }
  EXPECT_EQ(result.stats.cache_hits, 2u * per_chip_records);
  EXPECT_EQ(result.stats.verifications, 4u * 6u);
  EXPECT_EQ(result.stats.jobs_executed, 2u * per_chip_records);

  const auto cold = grid(kFourChips).run();
  EXPECT_EQ(result.gemm, cold.gemm);
  EXPECT_EQ(result.precision, cold.precision);
  EXPECT_EQ(result.fp64emu, cold.fp64emu);
  EXPECT_EQ(result.sme, cold.sme);
}

// --------------------------------------------------- compaction + merging --

/// Writes a store file line by line: the header, then one entry line per
/// (key, record), duplicates included. insert() never appends a key the
/// store already holds, so the duplicate-heavy stores the compaction tests
/// need (left by older writers) are written directly.
void write_store(const std::string& path,
                 const std::vector<ResultCache::Entry>& lines) {
  std::ofstream out(path, std::ios::trunc);
  out << store_header_line() << '\n';
  for (const auto& [key, record] : lines) {
    out << format_store_entry(key, record) << '\n';
  }
}

TEST(ResultCachePersistence, ManualCompactRewritesTheStoreToTheLiveSet) {
  const std::string path = temp_store("manual_compact");
  const auto entries = sample_entries();
  const auto& gemm_entry = entries.at("gemm");
  write_store(path, std::vector<ResultCache::Entry>(5, gemm_entry));
  ResultCache cache;
  cache.persist_to(path);
  EXPECT_EQ(cache.store_entries(), 5u);
  EXPECT_EQ(cache.compact(), 1u);
  EXPECT_EQ(cache.store_entries(), 1u);
  EXPECT_EQ(cache.stats().compactions, 1u);
  ResultCache cold;
  EXPECT_EQ(cold.load(path), 1u);
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, DuplicateHeavyWriteThroughAutoCompacts) {
  const std::string path = temp_store("auto_compact");
  const auto entries = sample_entries();
  const auto& gemm_entry = entries.at("gemm");
  const auto& power_entry = entries.at("power");
  const auto& ane_entry = entries.at("ane");
  std::vector<ResultCache::Entry> lines{power_entry};
  lines.insert(lines.end(), 12, gemm_entry);
  write_store(path, lines);
  ResultCache cache;
  cache.persist_to(path);
  // Tight policy so the test stays small: compact as soon as fewer than
  // half of >= 8 store lines are live.
  cache.set_compaction_policy(/*min_live_ratio=*/0.5, /*min_entries=*/8);
  // Re-inserting stored keys appends nothing; the first new key's append
  // is what finds 3 live keys among 14 lines.
  cache.insert(gemm_entry.first, gemm_entry.second);
  EXPECT_EQ(cache.stats().compactions, 0u);
  cache.insert(ane_entry.first, ane_entry.second);
  // The policy must have fired, keeping the store well below the 14 lines
  // an uncompacted log would hold.
  EXPECT_GE(cache.stats().compactions, 1u);
  EXPECT_LE(cache.store_entries(), 8u);
  // The store still reconstructs exactly the live set.
  ResultCache cold;
  EXPECT_EQ(cold.load(path), cache.store_entries());
  EXPECT_EQ(cold.size(), 3u);
  EXPECT_TRUE(cold.contains(gemm_entry.first));
  EXPECT_TRUE(cold.contains(power_entry.first));
  EXPECT_TRUE(cold.contains(ane_entry.first));
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, CompactWithoutAStoreThrows) {
  ResultCache cache;
  EXPECT_THROW(cache.compact(), util::InvalidArgument);
}

TEST(ResultCachePersistence, AutoCompactionSuspendsOnceAnEntryIsEvicted) {
  const std::string path = temp_store("evicted_no_compact");
  const auto entries = sample_entries();
  ResultCache cache(/*capacity=*/2);  // 8 distinct sample keys: evictions
  cache.persist_to(path);
  cache.set_compaction_policy(/*min_live_ratio=*/0.9, /*min_entries=*/2);
  for (const auto& [name, entry] : entries) {
    cache.insert(entry.first, entry.second);
  }
  // Evicted entries live only in the store now. Every line is a distinct
  // key, so the ratio policy has nothing to drop and must not have fired.
  EXPECT_EQ(cache.stats().compactions, 0u);
  EXPECT_EQ(cache.store_entries(), entries.size());
  ResultCache cold;
  EXPECT_EQ(cold.load(path), entries.size());
  EXPECT_EQ(cold.size(), entries.size());
  std::remove(path.c_str());
}

TEST(ResultCachePersistence, AutoCompactionSparesAStoreThatWasNeverLoaded) {
  const std::string path = temp_store("foreign_no_compact");
  const auto entries = sample_entries();
  const auto& gemm_entry = entries.at("gemm");
  // A store from an earlier writer: every sample entry, then 12 duplicate
  // lines of one of them.
  std::vector<ResultCache::Entry> lines;
  for (const auto& [name, entry] : entries) {
    lines.push_back(entry);
  }
  lines.insert(lines.end(), 12, gemm_entry);
  write_store(path, lines);
  {
    ResultCache cold;
    EXPECT_EQ(cold.load(path), entries.size() + 12);  // every line is there
    EXPECT_EQ(cold.size(), entries.size());
  }
  // A restarted process attaches write-through WITHOUT load(): the store
  // holds entries this cache never saw. The compaction a new point's append
  // triggers rewrites from the index, so it keeps every one of them.
  ResultCache restarted(/*capacity=*/1);
  restarted.persist_to(path);
  restarted.set_compaction_policy(/*min_live_ratio=*/0.5, /*min_entries=*/2);
  for (int i = 0; i < 12; ++i) {
    restarted.insert(gemm_entry.first, gemm_entry.second);  // stored: no-op
  }
  EXPECT_EQ(restarted.stats().compactions, 0u);
  EXPECT_EQ(restarted.store_entries(), entries.size() + 12);
  CacheKey fresh_key = gemm_entry.first;
  fresh_key.n += 1;
  restarted.insert(fresh_key, gemm_entry.second);
  EXPECT_GE(restarted.stats().compactions, 1u);
  EXPECT_EQ(restarted.store_entries(), entries.size() + 1);
  ResultCache after;
  EXPECT_EQ(after.load(path), entries.size() + 1);
  EXPECT_EQ(after.size(), entries.size() + 1);  // compaction was lossless
  for (const auto& [name, entry] : entries) {
    EXPECT_TRUE(after.contains(entry.first)) << name;
  }
  // load()-then-persist_to() changes nothing: a warmed cache compacts the
  // same duplicate pressure just as losslessly.
  write_store(path, lines);
  ResultCache warmed;
  warmed.load(path);
  EXPECT_EQ(warmed.size(), entries.size());
  warmed.persist_to(path);
  warmed.set_compaction_policy(/*min_live_ratio=*/0.5, /*min_entries=*/2);
  warmed.insert(fresh_key, gemm_entry.second);
  EXPECT_GE(warmed.stats().compactions, 1u);
  ResultCache reloaded;
  reloaded.load(path);
  EXPECT_EQ(reloaded.size(), entries.size() + 1);
  std::remove(path.c_str());
}

// The wire twin of the disk store: serialize_store() must be byte-for-byte
// what save() writes — the shared framing constants and the single
// store_digest() definition are what keep the disk and socket codecs from
// drifting.
TEST(ResultCachePersistence, SerializeStoreMatchesSaveByteForByte) {
  ResultCache cache;
  for (std::size_t i = 0; i < 5; ++i) {
    cache.insert(gemm_key(soc::ChipModel::kM1, soc::GemmImpl::kCpuSingle,
                          32 + i, /*options_fp=*/9),
                 measurement_stub(32 + i));
  }
  const std::string path = temp_store("serialize_twin");
  EXPECT_EQ(cache.save(path), 5u);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream file_bytes;
  file_bytes << in.rdbuf();
  EXPECT_EQ(cache.serialize_store(), file_bytes.str());
  std::remove(path.c_str());
}

// merge_buffer() ingests a serialized store into a persistent cache: every
// entry is retained, and each one the attached store lacks is appended — in
// buffer order, so the receiving store ends up byte-for-byte the file save()
// writes for the source.
TEST(ResultCachePersistence, MergeBufferPropagatesToTheWriteThroughStore) {
  ResultCache shard;
  for (std::size_t i = 0; i < 6; ++i) {
    shard.insert(gemm_key(soc::kAllChipModels[i % 4],
                          soc::GemmImpl::kGpuMps, 64 + i, /*options_fp=*/3),
                 measurement_stub(64 + i));
  }
  const std::string shard_path = temp_store("merge_src");
  EXPECT_EQ(shard.save(shard_path), 6u);

  const std::string service_path = temp_store("merge_service");
  {
    ResultCache service;
    service.persist_to(service_path);
    EXPECT_EQ(service.merge_buffer(shard.serialize_store()), 6u);
    EXPECT_EQ(service.size(), 6u);
    EXPECT_EQ(service.stats().loaded, 6u);
    EXPECT_EQ(service.stats().load_rejected, 0u);
    EXPECT_EQ(service.store_entries(), 6u);
  }
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  EXPECT_EQ(file_bytes(service_path), file_bytes(shard_path));
  // Unlike load(), the merge landed in the receiving cache's own store.
  ResultCache cold;
  EXPECT_EQ(cold.load(service_path), 6u);
  const auto bits = [](ResultCache& cache) {
    std::map<std::uint64_t, std::string> out;
    for (const auto& [key, record] : cache.entries()) {
      out[key.fingerprint()] = serialize_record(record);
    }
    return out;
  };
  EXPECT_EQ(bits(cold), bits(shard));
  std::remove(shard_path.c_str());
  std::remove(service_path.c_str());
}

TEST(ResultCachePersistence, MergeBufferRejectsCorruptionLikeTheDiskPath) {
  ResultCache source;
  for (std::size_t i = 0; i < 4; ++i) {
    source.insert(gemm_key(soc::ChipModel::kM3, soc::GemmImpl::kCpuOmp,
                           128 + i, /*options_fp=*/1),
                  measurement_stub(128 + i));
  }
  std::string buffer = source.serialize_store();

  // One mangled entry line is skipped and counted; the rest still merges.
  const std::size_t first_entry =
      buffer.find(kStoreEntryPrefix, buffer.find('\n') + 1);
  ASSERT_NE(first_entry, std::string::npos);
  buffer[first_entry] = 'x';
  ResultCache partial;
  EXPECT_EQ(partial.merge_buffer(buffer), 3u);
  EXPECT_EQ(partial.stats().load_rejected, 1u);

  // A foreign version header rejects the whole buffer.
  ResultCache rejecting;
  EXPECT_EQ(rejecting.merge_buffer("ao-result-cache v999\nentry junk\n"), 0u);
  EXPECT_EQ(rejecting.stats().load_rejected, 1u);
  EXPECT_EQ(rejecting.size(), 0u);

  // And so does an empty buffer (no header at all).
  ResultCache empty;
  EXPECT_EQ(empty.merge_buffer(""), 0u);
}

// The multi-tenant campaign service shares one write-through cache between
// concurrently executing schedulers: hammer lookup/insert from many threads
// and require the surviving store to be bit-identical to a serial build of
// the same points (serialize_record writes hex bit patterns, so string
// equality IS bit equality).
TEST(ResultCacheConcurrency, ConcurrentInsertLookupMatchesSerialBitForBit) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 64;

  const auto key_for = [](std::size_t thread, std::size_t i) {
    // Distinct (impl, n) per point; threads interleave chips so neighbors
    // collide on the same cache shard-free mutex from all sides.
    return gemm_key(soc::kAllChipModels[thread % 4],
                    soc::kAllGemmImpls[i % 6], 8 + thread * kPerThread + i,
                    /*options_fp=*/7);
  };

  const std::string serial_path = temp_store("concurrent_serial");
  {
    ResultCache serial(kThreads * kPerThread);
    serial.persist_to(serial_path);
    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        serial.insert(key_for(t, i), measurement_stub(8 + t * kPerThread + i));
      }
    }
  }

  const std::string concurrent_path = temp_store("concurrent_threads");
  {
    ResultCache cache(kThreads * kPerThread);
    cache.persist_to(concurrent_path);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &key_for, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          cache.insert(key_for(t, i), measurement_stub(8 + t * kPerThread + i));
          // Interleave lookups of our own and of a neighbor's keys: hits,
          // misses and LRU splices race the other threads' inserts.
          ASSERT_TRUE(cache.lookup(key_for(t, i)).has_value());
          cache.lookup(key_for((t + 1) % kThreads, i));
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_EQ(cache.size(), kThreads * kPerThread);
  }

  // Both stores reload into identical key → record-bits maps.
  const auto snapshot = [](const std::string& path) {
    ResultCache cold(kThreads * kPerThread);
    EXPECT_EQ(cold.load(path), kThreads * kPerThread);
    EXPECT_EQ(cold.stats().load_rejected, 0u);
    std::map<std::uint64_t, std::string> out;
    for (const auto& [key, record] : cold.entries()) {
      out[key.fingerprint()] = serialize_record(record);
    }
    return out;
  };
  EXPECT_EQ(snapshot(concurrent_path), snapshot(serial_path));
  std::remove(serial_path.c_str());
  std::remove(concurrent_path.c_str());
}

// Auto-compaction racing concurrent writers must never lose an entry: every
// key, stored before or inserted during the race, is still loadable after
// the dust settles.
TEST(ResultCacheConcurrency, AutoCompactionUnderConcurrencyLosesNothing) {
  const std::string path = temp_store("concurrent_compact");
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kKeys = 32;
  const auto key_at = [](std::size_t i) {
    return gemm_key(soc::kAllChipModels[i % 4], soc::kAllGemmImpls[i % 6],
                    16 + i, /*options_fp=*/3);
  };
  // The first half of the keyspace arrives as a duplicate-heavy store (8
  // lines per key, as an earlier writer left it); the threads then insert
  // all of it, so their appends of the second half trip the live/stored
  // ratio while other threads are appending and reading.
  std::vector<ResultCache::Entry> lines;
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < kKeys / 2; ++i) {
      lines.emplace_back(key_at(i), measurement_stub(16 + i));
    }
  }
  write_store(path, lines);
  {
    ResultCache cache(kKeys);
    cache.persist_to(path);
    cache.set_compaction_policy(0.5, 16);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cache, &key_at] {
        for (std::size_t round = 0; round < 8; ++round) {
          for (std::size_t i = 0; i < kKeys; ++i) {
            // All threads write the same keyspace with identical records —
            // the determinism contract concurrent campaigns rely on.
            cache.insert(key_at(i), measurement_stub(16 + i));
          }
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    EXPECT_GT(cache.stats().compactions, 0u);
    EXPECT_EQ(cache.store_entries(), kKeys);  // one line per key is left
  }
  ResultCache cold(kKeys);
  EXPECT_EQ(cold.load(path), kKeys);
  EXPECT_EQ(cold.size(), kKeys);
  EXPECT_EQ(cold.stats().load_rejected, 0u);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- plan cache --

Campaign plan_cache_campaign() {
  harness::GemmExperiment::Options opts;
  opts.repetitions = 1;
  Campaign campaign;
  campaign.chips({soc::ChipModel::kM1})
      .impls({soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps})
      .sizes({64, 128})
      .options(opts);
  return campaign;
}

TEST(PlanCache, CompiledExpansionRebuildsTheExactJobGraph) {
  const Campaign campaign = plan_cache_campaign();
  const std::vector<ExperimentJob> compiled = campaign.jobs();

  // A queue rebuilt from the compilation is indistinguishable — job for
  // job, id for id — from one the campaign expanded directly: a cache-hit
  // run must be bit-identical to a cold run.
  JobQueue direct;
  campaign.expand(direct);
  JobQueue rebuilt;
  push_jobs(rebuilt, compiled);
  const auto expected = direct.jobs();
  const auto actual = rebuilt.jobs();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "job " << i;
    EXPECT_EQ(actual[i].kind, expected[i].kind) << "job " << i;
    EXPECT_EQ(actual[i].priority, expected[i].priority) << "job " << i;
    EXPECT_EQ(actual[i].chip, expected[i].chip) << "job " << i;
    EXPECT_EQ(actual[i].impl, expected[i].impl) << "job " << i;
    EXPECT_EQ(actual[i].n, expected[i].n) << "job " << i;
  }

  // The subset form addresses the same job indices a full expansion
  // would — the shard-task path reuses the compilation too.
  JobQueue subset_direct;
  campaign.expand_subset(subset_direct, {0, 2});
  JobQueue subset_rebuilt;
  push_job_subset(subset_rebuilt, compiled, {0, 2});
  EXPECT_EQ(subset_rebuilt.jobs().size(), subset_direct.jobs().size());
}

TEST(PlanCache, CheckoutSharesOneCompilationPerKey) {
  PlanCache cache(4);
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return plan_cache_campaign().jobs();
  };
  const auto first = cache.checkout("key-a", compile);
  const auto second = cache.checkout("key-a", compile);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(compiles, 1);
  const auto third = cache.checkout("key-b", compile);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(compiles, 2);

  const PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(PlanCache, LruBoundEvictsTheColdestEntryOnly) {
  PlanCache cache(2);
  int compiles = 0;
  const auto compile = [&] {
    ++compiles;
    return std::vector<ExperimentJob>(static_cast<std::size_t>(compiles));
  };
  const auto held = cache.checkout("k0", compile);
  cache.checkout("k1", compile);
  cache.checkout("k2", compile);  // evicts k0, the least recently used
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Holders of an evicted compilation keep a valid shared snapshot.
  EXPECT_EQ(held->size(), 1u);

  // k1 is still resident (a hit); k0 must recompile.
  cache.checkout("k1", compile);
  EXPECT_EQ(compiles, 3);
  cache.checkout("k0", compile);
  EXPECT_EQ(compiles, 4);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.size(), 2u);
  // Capacity is clamped to at least one retained entry.
  EXPECT_GE(PlanCache(0).capacity(), 1u);
}

TEST(PlanCache, ShardPartitionMemoizesPerShardCountAndNeedsResidency) {
  PlanCache cache(2);
  int plans = 0;
  const auto plan = [&] {
    ++plans;
    return std::vector<std::vector<std::size_t>>{{0, 2}, {1}};
  };
  // A key that was never checked out has nothing to remember the partition
  // on: the memo must not resurrect (or invent) cache entries.
  EXPECT_EQ(cache.shard_partition("ghost", 2, plan), nullptr);
  EXPECT_EQ(plans, 0);

  cache.checkout("k", [] { return std::vector<ExperimentJob>{}; });
  const auto first = cache.shard_partition("k", 2, plan);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(plans, 1);
  EXPECT_EQ(first->size(), 2u);
  const auto second = cache.shard_partition("k", 2, plan);
  EXPECT_EQ(second.get(), first.get());
  EXPECT_EQ(plans, 1);
  // Each shard count is its own memo — a resharded rerun replans once.
  const auto three = cache.shard_partition("k", 3, plan);
  ASSERT_NE(three, nullptr);
  EXPECT_EQ(plans, 2);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.shard_partition("k", 2, plan), nullptr);
}

// serialize_store() promises one allocation: the reserve driven by
// serialize_size_hint() must bound the final byte count for stores holding
// every record kind (the precision kind carries variable-length strings —
// the hint folds them in).
TEST(ResultCachePersistence, SerializeSizeHintBoundsTheSingleAllocation) {
  ResultCache cache;
  EXPECT_EQ(cache.serialize_size_hint(), cache.serialize_store().size());

  for (const auto& [name, entry] : sample_entries()) {
    cache.insert(entry.first, entry.second);
  }
  const std::size_t hint = cache.serialize_size_hint();
  const std::string store = cache.serialize_store();
  EXPECT_GE(hint, store.size());
  // The hint is a bound, not a fantasy: within a small factor of the real
  // store, so the reserve never balloons.
  EXPECT_LE(hint, 4 * store.size());
  // Capacity probe: the serialized string never outgrew its reserve — its
  // capacity matches what a single reserve(hint) yields.
  std::string probe;
  probe.reserve(hint);
  EXPECT_LE(store.capacity(), probe.capacity());
}

}  // namespace
}  // namespace ao::orchestrator
