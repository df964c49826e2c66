#include "orchestrator/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <tuple>
#include <utility>

#include "accelerate/reference_blas.hpp"
#include "amx/amx_gemm.hpp"
#include "amx/sme_engine.hpp"
#include "ane/neural_engine.hpp"
#include "fp64emu/double_single.hpp"
#include "fp64emu/gemm_fp64_shader.hpp"
#include "gemm/gemm_interface.hpp"
#include "harness/matrix_workload.hpp"
#include "power/powermetrics.hpp"
#include "precision/precision_study.hpp"
#include "soc/perf_model.hpp"
#include "stream/cpu_stream.hpp"
#include "stream/gpu_stream.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao::orchestrator {

// ------------------------------------------------------------ SystemPool ---

SystemPool::Lease::Lease(SystemPool& pool,
                         std::unique_ptr<core::System> system)
    : pool_(&pool),
      system_(std::move(system)),
      epoch_at_acquire_(system_->soc().clock().epoch()) {}

SystemPool::Lease::~Lease() {
  if (system_ != nullptr) {
    pool_->release(std::move(system_));
  }
}

SystemPool::Lease SystemPool::acquire(soc::ChipModel chip) {
  std::unique_ptr<core::System> system;
  {
    std::lock_guard lock(mutex_);
    auto& free_list = free_[chip];
    if (!free_list.empty()) {
      system = std::move(free_list.back());
      free_list.pop_back();
    }
  }
  if (system == nullptr) {
    system = std::make_unique<core::System>(chip);
    std::lock_guard lock(mutex_);
    ++built_;
  }
  // The lease hands out boot state — the paper's reboot-and-idle protocol.
  // A nonzero clock here would mean a previous job leaked out of its lease.
  AO_REQUIRE(system->soc().clock().now() == 0 &&
                 system->soc().activity().empty(),
             "leased System is not at boot state");
  return Lease(*this, std::move(system));
}

void SystemPool::release(std::unique_ptr<core::System> system) {
  system->soc().reset();  // next lease starts a fresh boot epoch
  std::lock_guard lock(mutex_);
  free_[system->soc().spec().model].push_back(std::move(system));
}

std::size_t SystemPool::systems_built() const {
  std::lock_guard lock(mutex_);
  return built_;
}

// ------------------------------------------------------------ MatrixBatch --

MatrixBatch::MatrixBatch(std::size_t n, bool fill, std::uint64_t seed)
    : n_(n),
      left_(n * n * sizeof(float)),
      right_(n * n * sizeof(float)) {
  if (fill) {
    // The canonical operand convention, so batched operands are
    // bit-identical to the serial suite's.
    harness::fill_left_operand(left_.as_span<float>().data(), n, seed);
    harness::fill_right_operand(right_.as_span<float>().data(), n, seed);
  }
}

MatrixBatch::OutLease::OutLease(MatrixBatch& batch,
                                std::unique_ptr<util::AlignedBuffer> out)
    : batch_(&batch), out_(std::move(out)) {}

MatrixBatch::OutLease::~OutLease() {
  if (out_ != nullptr) {
    batch_->release_out(std::move(out_));
  }
}

harness::MatrixView MatrixBatch::OutLease::view() {
  return {batch_->n(), batch_->memory_length(),
          batch_->left_.as_span<float>().data(),
          batch_->right_.as_span<float>().data(),
          out_->as_span<float>().data()};
}

std::unique_ptr<MatrixBatch::OutLease> MatrixBatch::acquire_out() {
  std::unique_ptr<util::AlignedBuffer> out;
  {
    std::lock_guard lock(mutex_);
    if (!free_outs_.empty()) {
      out = std::move(free_outs_.back());
      free_outs_.pop_back();
    } else {
      ++outs_built_;
    }
  }
  if (out == nullptr) {
    // Fresh AlignedBuffers read zero and recycled ones are cleared on
    // release, so every lease starts as clear_out() leaves a MatrixSet. Only
    // the pages a functional run writes are ever committed.
    out = std::make_unique<util::AlignedBuffer>(n_ * n_ * sizeof(float));
  }
  return std::make_unique<OutLease>(*this, std::move(out));
}

void MatrixBatch::release_out(std::unique_ptr<util::AlignedBuffer> out) {
  out->clear();
  std::lock_guard lock(mutex_);
  free_outs_.push_back(std::move(out));
}

std::size_t MatrixBatch::out_buffers_built() const {
  std::lock_guard lock(mutex_);
  return outs_built_;
}

const float* MatrixBatch::expected() {
  std::call_once(expected_once_, [this] {
    expected_.resize(n_ * n_);
    accelerate::reference::sgemm(false, false, n_, n_, n_, 1.0f,
                                 left_.as_span<float>().data(), n_,
                                 right_.as_span<float>().data(), n_, 0.0f,
                                 expected_.data(), n_);
  });
  return expected_.data();
}

bool MatrixBatch::claim(soc::GemmImpl impl) {
  std::lock_guard lock(mutex_);
  return !std::exchange(slots_[impl].claimed, true);
}

namespace {

void apply(const MatrixBatch::Verdict& verdict, harness::GemmMeasurement& m) {
  m.max_error = verdict.max_error;
  m.verified = verdict.verified;
}

}  // namespace

std::vector<MatrixBatch::Parked> MatrixBatch::settle(soc::GemmImpl impl,
                                                     Verdict verdict) {
  std::vector<Parked> parked;
  {
    std::lock_guard lock(mutex_);
    NumericSlot& slot = slots_[impl];
    slot.verdict = verdict;
    parked.swap(slot.parked);
  }
  for (Parked& p : parked) {
    apply(verdict, p.measurement);
  }
  return parked;
}

std::optional<MatrixBatch::Parked> MatrixBatch::copy_verdict_or_park(
    soc::GemmImpl impl, Parked waiting) {
  std::lock_guard lock(mutex_);
  NumericSlot& slot = slots_[impl];
  if (!slot.verdict.has_value()) {
    slot.parked.push_back(std::move(waiting));
    return std::nullopt;
  }
  apply(*slot.verdict, waiting.measurement);
  return waiting;
}

// ------------------------------------------------------ CampaignScheduler --

namespace {

/// The chip-free fields of an FP64-emulation record: the accuracy of the
/// double-single GEMM on the simulated FP32-only GPU and of a plain FP32
/// GEMM, both against a host FP64 reference. The emulated product does not
/// depend on the device's chip.
Fp64EmuRecord fp64emu_accuracy(metal::Device& device, std::size_t n,
                               std::uint64_t seed) {
  // Deterministic FP64 operands and host reference (the accuracy baseline).
  std::vector<double> a(n * n);
  std::vector<double> b(a.size());
  util::fill_uniform(std::span<double>(a), seed);
  util::fill_uniform(std::span<double>(b), seed + 1);
  const std::vector<double> expected = precision::gemm_fp64(a, b, n);

  // Double-single GEMM — the X3 extension bench's dispatch, shared via
  // run_emulated_gemm.
  const std::vector<double> emu = fp64emu::run_emulated_gemm(
      device, a.data(), b.data(), static_cast<std::uint32_t>(n));

  // Plain FP32 GEMM of the same operands, each element summed in k order.
  const std::vector<float> a32(a.begin(), a.end());
  const std::vector<float> b32(b.begin(), b.end());
  std::vector<float> c32(a.size());
  ane::gemm_fp32_accumulate(n, n, n, a32.data(), b32.data(), c32.data());

  Fp64EmuRecord record;
  record.n = n;
  record.seed = seed;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    record.emu_max_abs_error =
        std::max(record.emu_max_abs_error, std::abs(expected[i] - emu[i]));
    record.fp32_max_abs_error =
        std::max(record.fp32_max_abs_error,
                 std::abs(expected[i] - static_cast<double>(c32[i])));
  }
  return record;
}

/// The chip-free fields of an SME record: the FMOPA-tiled SGEMM through the
/// SME engine vs the AMX emulator — the Section 2.1 "fairly similar at its
/// core" claim, checked bit-for-bit.
SmeRecord sme_accuracy(std::size_t n, std::uint64_t seed) {
  std::vector<float> a(n * n);
  std::vector<float> b(a.size());
  util::fill_uniform(std::span<float>(a), seed);
  util::fill_uniform(std::span<float>(b), seed + 1);

  std::vector<float> c_sme(a.size(), 0.0f);
  amx::sme_sgemm(n, n, n, a.data(), n, b.data(), n, c_sme.data(), n);
  std::vector<float> c_amx(a.size(), 0.0f);
  amx::amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c_amx.data(),
                 n, /*threads=*/1);

  SmeRecord record;
  record.n = n;
  record.seed = seed;
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    record.max_abs_diff =
        std::max(record.max_abs_diff,
                 static_cast<double>(std::abs(c_sme[i] - c_amx[i])));
    sum += c_sme[i];
  }
  record.matches_amx = record.max_abs_diff == 0.0;
  record.mean_output = sum / static_cast<double>(a.size());
  return record;
}

/// Values computed once per key within one run(): (n, seed) for the
/// studies. The first job to ask computes; a concurrent job asking for the
/// same key waits for that result rather than computing it again.
template <typename T, typename Key = std::pair<std::size_t, std::uint64_t>>
class OnceMap {
 public:
  template <typename Compute>
  T get(const Key& key, Compute&& compute) {
    Entry* entry;
    {
      std::lock_guard lock(mutex_);
      entry = &entries_[key];  // map nodes never move
    }
    std::call_once(entry->once, [&] { entry->value = compute(); });
    return entry->value;
  }

 private:
  struct Entry {
    std::once_flag once;
    T value;
  };
  std::mutex mutex_;
  std::map<Key, Entry> entries_;
};

/// The mean element of the functional m x n x k FP16 product on the seeded
/// operands: the one numeric field of an ANE record, the same on every chip
/// and every dispatch target.
double ane_mean_output(std::size_t m, std::size_t n, std::size_t k,
                       std::uint64_t seed) {
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  std::vector<float> c(m * n);
  util::fill_uniform(std::span<float>(a), seed);
  util::fill_uniform(std::span<float>(b), seed + 1);
  ane::gemm_fp16_host(m, n, k, a.data(), b.data(), c.data());
  double sum = 0.0;
  for (const float v : c) {
    sum += v;
  }
  return sum / static_cast<double>(c.size());
}

}  // namespace

struct CampaignScheduler::StudyMemos {
  OnceMap<PrecisionRecord> precision;
  OnceMap<Fp64EmuRecord> fp64emu;
  OnceMap<SmeRecord> sme;
  /// mean_output per (m, n, k, seed) of the functional ANE jobs.
  OnceMap<double, std::tuple<std::size_t, std::size_t, std::size_t,
                             std::uint64_t>>
      ane;
};

CampaignScheduler::CampaignScheduler(
    harness::GemmExperiment::Options experiment_options)
    : CampaignScheduler(std::move(experiment_options), Options{}) {}

CampaignScheduler::CampaignScheduler(
    harness::GemmExperiment::Options experiment_options, Options options,
    ResultCache* cache)
    : experiment_options_(std::move(experiment_options)),
      options_(options),
      cache_(cache),
      fingerprint_(options_fingerprint(experiment_options_)) {}

CampaignScheduler::~CampaignScheduler() = default;

void CampaignScheduler::set_profile_sink(obs::TimelineProfiler* profiler,
                                         std::uint64_t parent_span) {
  profiler_ = profiler;
  profile_parent_ = parent_span;
}

CampaignOutputs CampaignScheduler::run(JobQueue& queue,
                                       RecordCallback on_record,
                                       StopFn should_stop) {
  // A scheduler runs one campaign at a time; every campaign the service
  // runs builds its own, and this guard turns any misuse into a loud
  // failure instead of corrupted batches.
  AO_REQUIRE(!run_active_.exchange(true, std::memory_order_acq_rel),
             "CampaignScheduler::run() is not reentrant");
  struct RunGuard {
    std::atomic<bool>& active;
    ~RunGuard() { active.store(false, std::memory_order_release); }
  } run_guard{run_active_};

  CampaignOutputs outputs;
  stats_ = {};
  batches_.clear();
  memos_ = std::make_unique<StudyMemos>();
  on_record_ = std::move(on_record);
  // The callback's captures live on the caller's stack; never let a failed
  // run leave it dangling in this long-lived scheduler.
  struct CallbackGuard {
    RecordCallback& callback;
    ~CallbackGuard() { callback = {}; }
  } callback_guard{on_record_};

  // Plan the per-size batches: how many gemm jobs touch each size (so the
  // operands can be freed the moment the last one finishes) and whether any
  // of them executes numerically (so model-only sizes are never filled).
  const auto jobs = queue.jobs();
  stats_.jobs_total = jobs.size();
  for (const auto& job : jobs) {
    if (job.kind != JobKind::kGemmMeasure) {
      continue;
    }
    BatchState& bs = batches_[job.n];
    ++bs.jobs_remaining;
    if (harness::functional_at(experiment_options_, job.impl, job.n)) {
      bs.fill = true;
    }
  }

  // Workers on a private pool: jobs themselves fan subtasks (matrix fills,
  // simulated GPU threadgroups) onto util::global_pool(), so running jobs
  // on the global pool would let blocked jobs starve their own subtasks.
  std::size_t workers = options_.concurrency;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }

  std::mutex error_mutex;
  std::string first_error;
  std::string stop_code;  // guarded by error_mutex
  std::atomic<bool> failed{false};
  std::atomic<bool> stopped{false};
  {
    util::ThreadPool pool(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit([this, &queue, &outputs, &error_mutex, &first_error,
                   &stop_code, &failed, &stopped, &should_stop] {
        while (auto job = queue.pop_ready()) {
          // The cooperative stop point: abort commands and expired
          // deadlines take effect here, between jobs — never inside a
          // measurement, whose simulated timeline must settle whole.
          if (should_stop && !stopped.load(std::memory_order_acquire) &&
              !failed.load(std::memory_order_acquire)) {
            std::string code = should_stop();
            if (!code.empty()) {
              stopped.store(true, std::memory_order_release);
              std::lock_guard lock(error_mutex);
              if (stop_code.empty()) {
                stop_code = std::move(code);
              }
            }
          }
          // After the first failure (or a stop) the campaign's outputs are
          // discarded anyway; drain the queue without executing instead of
          // burning hours of simulated work.
          if (!failed.load(std::memory_order_acquire) &&
              !stopped.load(std::memory_order_acquire)) {
            try {
              // One `execute` span per job actually attempted, labelled by
              // kind and parented under the caller's campaign/shard span
              // (explicit — worker threads carry no inherited scope).
              obs::TimelineProfiler::Scope span(profiler_, obs::Phase::kExecute,
                                                profile_parent_,
                                                to_string(job->kind));
              execute(*job, outputs);
            } catch (const std::exception& e) {
              failed.store(true, std::memory_order_release);
              std::lock_guard lock(error_mutex);
              if (first_error.empty()) {
                first_error = e.what();
              }
            }
          }
          queue.mark_done(job->id);
        }
      });
    }
    queue.wait_all_done();
  }  // pool drains deterministically here; workers exit via pop_ready()

  if (!first_error.empty()) {
    throw util::Error("campaign job failed: " + first_error);
  }
  if (!stop_code.empty()) {
    throw CampaignStopped(stop_code);
  }

  stats_.systems_built = systems_.systems_built();
  // Canonical result order per family, independent of completion
  // interleaving.
  std::sort(outputs.gemm.begin(), outputs.gemm.end(),
            [](const harness::GemmMeasurement& a,
               const harness::GemmMeasurement& b) {
              return std::tuple(a.chip, a.n, a.impl) <
                     std::tuple(b.chip, b.n, b.impl);
            });
  std::sort(outputs.stream.begin(), outputs.stream.end(),
            [](const StreamRecord& a, const StreamRecord& b) {
              return std::tuple(a.chip, a.gpu, a.run.threads) <
                     std::tuple(b.chip, b.gpu, b.run.threads);
            });
  std::sort(outputs.precision.begin(), outputs.precision.end(),
            [](const PrecisionRecord& a, const PrecisionRecord& b) {
              return std::tuple(a.chip, a.n, a.seed) <
                     std::tuple(b.chip, b.n, b.seed);
            });
  std::sort(outputs.ane.begin(), outputs.ane.end(),
            [](const AneRecord& a, const AneRecord& b) {
              return std::tuple(a.chip, a.m, a.n, a.k) <
                     std::tuple(b.chip, b.m, b.n, b.k);
            });
  std::sort(outputs.power.begin(), outputs.power.end(),
            [](const PowerRecord& a, const PowerRecord& b) {
              return std::tuple(a.chip, a.sample.window_seconds) <
                     std::tuple(b.chip, b.sample.window_seconds);
            });
  std::sort(outputs.fp64emu.begin(), outputs.fp64emu.end(),
            [](const Fp64EmuRecord& a, const Fp64EmuRecord& b) {
              return std::tuple(a.chip, a.n, a.seed) <
                     std::tuple(b.chip, b.n, b.seed);
            });
  std::sort(outputs.sme.begin(), outputs.sme.end(),
            [](const SmeRecord& a, const SmeRecord& b) {
              return std::tuple(a.chip, a.n, a.seed) <
                     std::tuple(b.chip, b.n, b.seed);
            });
  outputs.stats = stats_;
  return outputs;
}

void CampaignScheduler::execute(const ExperimentJob& job,
                                CampaignOutputs& outputs) {
  switch (job.kind) {
    case JobKind::kGemmMeasure:
      run_gemm_measure(job, outputs);
      return;
    case JobKind::kStream:
    case JobKind::kGpuStream:
      run_stream(job, outputs);
      return;
    case JobKind::kPowerIdle:
      run_power_idle(job, outputs);
      return;
    case JobKind::kPrecisionStudy:
      run_precision_study(job, outputs);
      return;
    case JobKind::kAneInference:
      run_ane_inference(job, outputs);
      return;
    case JobKind::kFp64Emulation:
      run_fp64_emulation(job, outputs);
      return;
    case JobKind::kSmeGemm:
      run_sme_gemm(job, outputs);
      return;
  }
  throw util::InvalidArgument("unknown JobKind");
}

void CampaignScheduler::append_record(const MeasurementRecord& record,
                                      CampaignOutputs& outputs) {
  std::lock_guard lock(state_mutex_);
  std::visit(
      [&outputs](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, harness::GemmMeasurement>) {
          outputs.gemm.push_back(value);
        } else if constexpr (std::is_same_v<T, StreamRecord>) {
          outputs.stream.push_back(value);
        } else if constexpr (std::is_same_v<T, PrecisionRecord>) {
          outputs.precision.push_back(value);
        } else if constexpr (std::is_same_v<T, AneRecord>) {
          outputs.ane.push_back(value);
        } else if constexpr (std::is_same_v<T, PowerRecord>) {
          outputs.power.push_back(value);
        } else if constexpr (std::is_same_v<T, Fp64EmuRecord>) {
          outputs.fp64emu.push_back(value);
        } else {
          outputs.sme.push_back(value);
        }
      },
      record);
}

bool CampaignScheduler::serve_from_cache(const ExperimentJob& job,
                                         CampaignOutputs& outputs) {
  if (cache_ == nullptr) {
    return false;
  }
  // The cache lookup runs outside state_mutex_ (ResultCache locks itself);
  // only the stats tick needs the scheduler lock.
  auto cached = cache_->lookup(key_for_job(job, fingerprint_));
  {
    std::lock_guard lock(state_mutex_);
    if (cached.has_value()) {
      ++stats_.cache_hits;
    } else {
      ++stats_.cache_misses;
    }
  }
  if (!cached.has_value()) {
    return false;
  }
  append_record(*cached, outputs);
  if (on_record_) {
    on_record_(job, *cached, /*from_cache=*/true);
  }
  return true;
}

void CampaignScheduler::publish_record(const ExperimentJob& job,
                                       const MeasurementRecord& record,
                                       CampaignOutputs& outputs) {
  if (cache_ != nullptr) {
    cache_->insert(key_for_job(job, fingerprint_), record);
  }
  append_record(record, outputs);
  if (on_record_) {
    on_record_(job, record, /*from_cache=*/false);
  }
}

std::shared_ptr<MatrixBatch> CampaignScheduler::batch_for(std::size_t n) {
  std::lock_guard lock(state_mutex_);
  const auto it = batches_.find(n);
  AO_REQUIRE(it != batches_.end(), "gemm job for an unplanned matrix size");
  BatchState& bs = it->second;
  if (bs.batch == nullptr) {
    bs.batch = std::make_shared<MatrixBatch>(n, bs.fill,
                                             experiment_options_.matrix_seed);
    ++stats_.batches_allocated;
  }
  return bs.batch;
}

void CampaignScheduler::batch_job_finished(std::size_t n) {
  std::lock_guard lock(state_mutex_);
  const auto it = batches_.find(n);
  if (it == batches_.end()) {
    return;
  }
  BatchState& bs = it->second;
  if (--bs.jobs_remaining == 0) {
    if (bs.batch != nullptr) {
      stats_.out_buffers_allocated += bs.batch->out_buffers_built();
    }
    // Last job of this size: drop the scheduler's reference.
    batches_.erase(it);
  }
}

void CampaignScheduler::run_gemm_measure(const ExperimentJob& job,
                                         CampaignOutputs& outputs) {
  // Every gemm job decrements the plan count exactly once, on every exit
  // path (including a throwing simulator) — otherwise the shared operands
  // of this size would be retained for the rest of the campaign.
  struct BatchFinisher {
    CampaignScheduler& scheduler;
    std::size_t n;
    ~BatchFinisher() { scheduler.batch_job_finished(n); }
  } finisher{*this, job.n};

  if (serve_from_cache(job, outputs)) {
    return;
  }

  auto batch = batch_for(job.n);
  // One functional run per (impl, n): the first chip to miss the cache
  // computes the product and its verdict; the others charge the same
  // simulated time model-only and take that verdict.
  const bool compute =
      harness::functional_at(experiment_options_, job.impl, job.n) &&
      batch->claim(job.impl);
  auto out = batch->acquire_out();
  harness::GemmMeasurement m;
  {
    auto lease = systems_.acquire(job.chip);
    gemm::GemmContext& ctx = lease.system().gemm_context();
    harness::GemmExperiment experiment(ctx, experiment_options_);
    auto impl = gemm::create_gemm(job.impl, ctx);
    {
      std::lock_guard lock(state_mutex_);
      ++stats_.jobs_executed;
    }
    m = experiment.measure_timed(*impl, out->view(), compute);
    // Per-job clock isolation: the lease's boot epoch must still be
    // current — a bump here would mean another job interleaved on this
    // System's clock.
    AO_REQUIRE(lease.system().soc().clock().epoch() == lease.boot_epoch(),
               "clock epoch changed under a running job");
  }  // verification needs host buffers only: the System goes back first

  if (!harness::verified_at(experiment_options_, job.impl, job.n)) {
    publish_record(job, m, outputs);
    return;
  }
  if (!compute) {
    // Another chip's job computes this (impl, n): copy its verdict, or park
    // until that job settles the verdict and publishes this record.
    auto ready = batch->copy_verdict_or_park(job.impl, {job, m});
    if (ready.has_value()) {
      publish_record(ready->job, ready->measurement, outputs);
    }
    return;
  }
  // The cached value always carries its verdict: verify, then publish this
  // record and every record parked waiting for the verdict.
  harness::verify_measurement(m, out->view(), batch->expected());
  out.reset();  // recycle the output buffer
  const auto parked = batch->settle(job.impl, {m.max_error, m.verified});
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.verifications;
  }
  publish_record(job, m, outputs);
  for (const MatrixBatch::Parked& p : parked) {
    publish_record(p.job, p.measurement, outputs);
  }
}

void CampaignScheduler::run_stream(const ExperimentJob& job,
                                   CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  auto lease = systems_.acquire(job.chip);
  StreamRecord record;
  record.chip = job.chip;
  record.gpu = job.kind == JobKind::kGpuStream;
  if (record.gpu) {
    stream::GpuStream gpu(lease.system().device(),
                          job.stream_elements != 0
                              ? job.stream_elements
                              : stream::GpuStream::kDefaultElements);
    record.run = gpu.run(job.stream_repetitions, /*functional=*/false);
  } else {
    stream::CpuStream cpu(lease.system().soc(),
                          job.stream_elements != 0
                              ? job.stream_elements
                              : stream::CpuStream::kDefaultElements);
    record.run = cpu.run(job.stream_threads, job.stream_repetitions,
                         /*functional=*/false);
  }
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

void CampaignScheduler::run_power_idle(const ExperimentJob& job,
                                       CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  auto lease = systems_.acquire(job.chip);
  soc::Soc& soc = lease.system().soc();
  power::PowerMetrics monitor(soc, power::SamplerSet{true, true, true});
  monitor.start();
  soc.idle(job.power_window_seconds * 1e9);
  PowerRecord record;
  record.chip = job.chip;
  record.sample = monitor.siginfo();
  monitor.stop();
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

void CampaignScheduler::run_precision_study(const ExperimentJob& job,
                                            CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  // The study needs no leased timeline: accuracy is host math, shared by
  // every chip of the run, and throughput comes from the calibrated model.
  PrecisionRecord record = memos_->precision.get({job.n, job.study_seed}, [&] {
    PrecisionRecord accuracy;
    accuracy.n = job.n;
    accuracy.seed = job.study_seed;
    accuracy.rows = precision::gemm_accuracy_pass(job.n, job.study_seed);
    return accuracy;
  });
  record.chip = job.chip;
  precision::fill_modeled_gflops(record.rows, job.chip);
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

void CampaignScheduler::run_ane_inference(const ExperimentJob& job,
                                          CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  const std::size_t m = job.ane_rows();
  const std::size_t n = job.n;
  const std::size_t k = job.ane_depth();
  AO_REQUIRE(m > 0 && n > 0 && k > 0, "ANE job needs GEMM dimensions");

  AneRecord record;
  if (job.ane_functional) {
    // One product per (m, n, k, seed), shared by every chip: the datapath is
    // the same wherever the plan lands, and the operands are seeded, so
    // cached and fresh records agree bit for bit.
    record.mean_output = memos_->ane.get({m, n, k, job.study_seed}, [&] {
      return ane_mean_output(m, n, k, job.study_seed);
    });
  }

  auto lease = systems_.acquire(job.chip);
  ane::CoreMLRuntime runtime(lease.system().soc());
  const ane::Prediction prediction =
      runtime.predict_gemm(m, n, k, nullptr, nullptr, nullptr,
                           /*functional=*/false);

  record.chip = job.chip;
  record.m = m;
  record.n = n;
  record.k = k;
  record.target = prediction.target;
  record.duration_ns = prediction.duration_ns;
  record.gflops = prediction.gflops;
  record.gflops_per_watt = record.gflops / prediction.watts;
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

void CampaignScheduler::run_fp64_emulation(const ExperimentJob& job,
                                           CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  const std::size_t n = job.n;
  AO_REQUIRE(n > 0, "fp64-emulation job needs a matrix size");

  auto lease = systems_.acquire(job.chip);
  Fp64EmuRecord record = memos_->fp64emu.get({n, job.study_seed}, [&] {
    return fp64emu_accuracy(lease.system().device(), n, job.study_seed);
  });
  record.chip = job.chip;
  // Throughput cost of the emulation: the FP32 roofline divided by the
  // per-ds_fma operation count (2 real flops delivered per emulated FMA).
  const soc::PerfModel perf(lease.system().soc());
  record.fp32_gflops = perf.gemm_gflops(soc::GemmImpl::kGpuMps, n);
  record.emulated_gflops =
      record.fp32_gflops / fp64emu::kFlopsPerDsFma * 2.0;
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

void CampaignScheduler::run_sme_gemm(const ExperimentJob& job,
                                     CampaignOutputs& outputs) {
  if (serve_from_cache(job, outputs)) {
    return;
  }
  const std::size_t n = job.n;
  AO_REQUIRE(n > 0, "sme-gemm job needs a matrix size");

  SmeRecord record = memos_->sme.get(
      {n, job.study_seed}, [&] { return sme_accuracy(n, job.study_seed); });
  record.chip = job.chip;

  auto lease = systems_.acquire(job.chip);
  const soc::PerfModel perf(lease.system().soc());
  // The M4's SME unit is AMX-class hardware behind the same Accelerate
  // calibration, so that curve models its throughput.
  record.modeled_gflops = perf.gemm_gflops(soc::GemmImpl::kCpuAccelerate, n);
  {
    std::lock_guard lock(state_mutex_);
    ++stats_.jobs_executed;
  }
  publish_record(job, record, outputs);
}

}  // namespace ao::orchestrator
