#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/system.hpp"
#include "harness/experiment.hpp"
#include "obs/profiler.hpp"
#include "orchestrator/job.hpp"
#include "orchestrator/record.hpp"
#include "orchestrator/result_cache.hpp"
#include "util/aligned_buffer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ao::orchestrator {

/// Thrown by CampaignScheduler::run() when its stop predicate cancelled the
/// campaign between jobs (abort command, expired deadline). Distinct from
/// util::Error so the service can reply with the predicate's protocol code
/// ("aborted", "deadline-exceeded") instead of a generic exec-failed.
class CampaignStopped : public util::Error {
 public:
  explicit CampaignStopped(std::string code)
      : util::Error("campaign stopped: " + code), code_(std::move(code)) {}

  /// The stop predicate's verdict — a stable protocol error code.
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Pool of simulated Systems, one leased per running job.
///
/// A System's SimClock is strictly single-owner: two jobs interleaving on
/// one timeline would corrupt both measurements. Leasing hands each job a
/// System reset to boot state (clock at zero, package at ambient, activity
/// log empty — exactly the paper's reboot-and-idle protocol), so a
/// measurement is a pure function of (chip, impl, n, options) no matter how
/// many jobs run concurrently. Returned Systems are reset and reused, so a
/// campaign builds at most one System per chip per worker.
class SystemPool {
 public:
  class Lease {
   public:
    Lease(SystemPool& pool, std::unique_ptr<core::System> system);
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    core::System& system() { return *system_; }

    /// The SimClock boot epoch observed when the lease was taken. While the
    /// lease is held the clock's epoch must not move — a change means some
    /// other job reset or shared this System's timeline.
    std::uint64_t boot_epoch() const { return epoch_at_acquire_; }

   private:
    SystemPool* pool_;
    std::unique_ptr<core::System> system_;
    std::uint64_t epoch_at_acquire_;
  };

  Lease acquire(soc::ChipModel chip);

  /// Systems constructed over the pool's lifetime (not currently leased).
  std::size_t systems_built() const;

 private:
  void release(std::unique_ptr<core::System> system);

  mutable std::mutex mutex_;
  std::map<soc::ChipModel, std::vector<std::unique_ptr<core::System>>> free_;
  std::size_t built_ = 0;
};

/// Shared GEMM operands for every job of one matrix size: the page-aligned
/// left/right inputs are allocated (and filled) once, while each concurrent
/// measurement checks out its own output buffer from a small free list.
/// This extends the per-size sharing the serial suite does to a concurrent
/// setting — inputs are immutable after construction, outputs never alias.
///
/// The batch also holds what is chip-independent about its size: the
/// reference product, and one numeric slot per impl. No numeric kernel reads
/// the chip, so one functional run and one verdict per (impl, n) serve every
/// chip of the campaign.
class MatrixBatch {
 public:
  MatrixBatch(std::size_t n, bool fill, std::uint64_t seed);

  std::size_t n() const { return n_; }
  std::size_t memory_length() const { return left_.capacity(); }

  /// The reference SGEMM of the operands, computed on first use and shared
  /// by every impl's verification at this size.
  const float* expected();

  /// The chip-independent outcome of one impl's product at this size.
  struct Verdict {
    float max_error = 0.0f;
    bool verified = false;
  };

  /// A measurement waiting for its impl's verdict, with the job it is
  /// published under.
  struct Parked {
    ExperimentJob job;
    harness::GemmMeasurement measurement;
  };

  /// True for the first caller per impl: its job runs the functional
  /// repetition and verifies it; every other chip's job runs model-only.
  bool claim(soc::GemmImpl impl);

  /// Stores `impl`'s verdict and hands back, verdict applied, every
  /// measurement parked waiting for it — the caller publishes them.
  std::vector<Parked> settle(soc::GemmImpl impl, Verdict verdict);

  /// Applies `impl`'s verdict to `waiting` and returns it when the verdict
  /// exists; otherwise parks it until settle() and returns nullopt.
  std::optional<Parked> copy_verdict_or_park(soc::GemmImpl impl,
                                             Parked waiting);

  /// RAII checkout of one zeroed output buffer.
  class OutLease {
   public:
    OutLease(MatrixBatch& batch, std::unique_ptr<util::AlignedBuffer> out);
    ~OutLease();
    OutLease(const OutLease&) = delete;
    OutLease& operator=(const OutLease&) = delete;

    /// The full operand view for a measurement using this output buffer.
    harness::MatrixView view();

   private:
    MatrixBatch* batch_;
    std::unique_ptr<util::AlignedBuffer> out_;
  };

  std::unique_ptr<OutLease> acquire_out();

  /// Output buffers ever allocated (they are recycled between jobs).
  std::size_t out_buffers_built() const;

 private:
  void release_out(std::unique_ptr<util::AlignedBuffer> out);

  struct NumericSlot {
    bool claimed = false;
    std::optional<Verdict> verdict;
    std::vector<Parked> parked;
  };

  std::size_t n_;
  util::AlignedBuffer left_;
  util::AlignedBuffer right_;
  std::once_flag expected_once_;
  std::vector<float> expected_;
  mutable std::mutex mutex_;  ///< guards the free list and the slots
  std::vector<std::unique_ptr<util::AlignedBuffer>> free_outs_;
  std::size_t outs_built_ = 0;
  std::map<soc::GemmImpl, NumericSlot> slots_;
};

/// Aggregate counters for one scheduler run.
struct CampaignStats {
  std::size_t jobs_total = 0;
  /// Jobs that did work: ran a measurement or a study (every job the cache
  /// did not serve).
  std::size_t jobs_executed = 0;
  std::size_t cache_hits = 0;       ///< jobs serviced from the ResultCache
  std::size_t cache_misses = 0;     ///< jobs the cache lacked
  std::size_t verifications = 0;    ///< verdicts computed: one per (impl, n)
  std::size_t batches_allocated = 0;
  std::size_t out_buffers_allocated = 0;
  std::size_t systems_built = 0;
};

/// Everything a scheduler run produced, one typed vector per record family
/// (the MeasurementRecord alternatives of orchestrator/record.hpp).
struct CampaignOutputs {
  std::vector<harness::GemmMeasurement> gemm;
  std::vector<StreamRecord> stream;  ///< CPU and GPU (`gpu` distinguishes)
  std::vector<PrecisionRecord> precision;
  std::vector<AneRecord> ane;
  std::vector<PowerRecord> power;
  std::vector<Fp64EmuRecord> fp64emu;
  std::vector<SmeRecord> sme;
  CampaignStats stats;
};

/// Streaming hook: invoked once per settled record — after a measurement
/// publishes (a verified GEMM point waits for its (impl, n) verdict) or a
/// cache hit is served. `job` is the job the record answers, so
/// key_for_job(job, fp) addresses the cache entry. Called from worker
/// threads with no lock held; the callee synchronizes its own sinks.
using RecordCallback = std::function<void(
    const ExperimentJob& job, const MeasurementRecord& record, bool from_cache)>;

/// Cooperative stop predicate, polled by scheduler workers *between* jobs
/// (never mid-measurement — a half-run job would poison the simulated
/// clock's determinism). Returns a stable protocol code ("aborted",
/// "deadline-exceeded") to cancel the run, "" to keep going. Called from
/// worker threads; must be thread-safe and cheap.
using StopFn = std::function<std::string()>;

/// Runs a JobQueue to completion on a private util::ThreadPool.
///
/// Workers pop jobs, lease a System for the job's chip, execute, and mark
/// the job done. Every job consults the ResultCache (when attached) before
/// executing and publishes its record into it afterwards (a verified GEMM
/// measurement once its verdict is settled); batched operands are allocated
/// lazily on the first non-cached job of a size and released when the last
/// job of that size completes.
///
/// Numeric results are computed once per run and shared by every chip,
/// since only timing and power depend on the chip: the first GEMM measure
/// job of an (impl, n) to miss the cache runs the functional repetition
/// (MatrixBatch::claim) and, when n <= verify_n_max, verifies it once its
/// System lease is released; the other chips' jobs run model-only and copy
/// that verdict, parking their measurement until it exists. Precision,
/// FP64-emulation and SME jobs share their chip-free accuracy results per
/// (n, seed) the same way.
class CampaignScheduler {
 public:
  struct Options {
    /// Worker count; 0 means hardware concurrency. 1 reproduces the serial
    /// suite's execution order.
    std::size_t concurrency = 0;
  };

  explicit CampaignScheduler(harness::GemmExperiment::Options experiment_options);
  CampaignScheduler(harness::GemmExperiment::Options experiment_options,
                    Options options, ResultCache* cache = nullptr);
  ~CampaignScheduler();

  /// Drains `queue`, returning aggregated outputs. Every record family is
  /// sorted into a canonical order independent of completion order (GEMM by
  /// (chip, n, impl), the others by chip then their identifying fields).
  /// `on_record` (when set) streams each record as it settles — the campaign
  /// service's incremental result feed. `should_stop` (when set) is polled
  /// between jobs: a non-empty code drains the queue without executing and
  /// run() throws CampaignStopped carrying it — jobs already settled kept
  /// their cache entries (or whatever `on_record` settled them into), so a
  /// resubmit completes only the remainder. Sequential run() calls on one
  /// scheduler measure what a fresh scheduler would (every System lease is
  /// in boot state), but run() itself is not reentrant.
  CampaignOutputs run(JobQueue& queue, RecordCallback on_record = {},
                      StopFn should_stop = {});

  /// Attaches a timeline profiler for subsequent run() calls: every executed
  /// job records an `execute` span labelled with its kind, parented under
  /// `parent_span` (the caller's campaign or shard span — worker threads
  /// have no inherited scope). nullptr detaches.
  void set_profile_sink(obs::TimelineProfiler* profiler,
                        std::uint64_t parent_span = 0);

 private:
  struct StudyMemos;  // chip-free study results of one run, per (n, seed)

  struct BatchState {
    std::shared_ptr<MatrixBatch> batch;  ///< allocated lazily on first miss
    bool fill = false;
    std::size_t jobs_remaining = 0;  ///< gemm jobs of this n
  };

  void execute(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_gemm_measure(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_stream(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_power_idle(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_precision_study(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_ane_inference(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_fp64_emulation(const ExperimentJob& job, CampaignOutputs& outputs);
  void run_sme_gemm(const ExperimentJob& job, CampaignOutputs& outputs);

  std::shared_ptr<MatrixBatch> batch_for(std::size_t n);
  void batch_job_finished(std::size_t n);

  /// Appends `record` to its typed output vector (caller must NOT hold
  /// state_mutex_).
  void append_record(const MeasurementRecord& record, CampaignOutputs& outputs);
  /// Serves a job from the attached cache; true on a hit (the cached record
  /// was appended to `outputs` and the job is finished).
  bool serve_from_cache(const ExperimentJob& job, CampaignOutputs& outputs);
  /// Publishes a record: inserts it into the cache, appends it to `outputs`
  /// and streams it.
  void publish_record(const ExperimentJob& job, const MeasurementRecord& record,
                      CampaignOutputs& outputs);

  harness::GemmExperiment::Options experiment_options_;
  Options options_;
  ResultCache* cache_;
  std::uint64_t fingerprint_;
  SystemPool systems_;
  RecordCallback on_record_;  ///< set for the duration of one run()
  std::atomic<bool> run_active_{false};  ///< run() reentrancy guard
  obs::TimelineProfiler* profiler_ = nullptr;
  std::uint64_t profile_parent_ = 0;

  /// Lock contract: state_mutex_ guards outputs, batches_ and stats_, and
  /// is only ever held for in-memory bookkeeping — never across a
  /// measurement, a cache_ call (ResultCache locks itself; nesting the two
  /// would couple every scheduler sharing the service's cache), or the
  /// on_record_ callback (the callee synchronizes its own sinks).
  std::mutex state_mutex_;
  std::map<std::size_t, BatchState> batches_;
  CampaignStats stats_;
  std::unique_ptr<StudyMemos> memos_;  ///< replaced at the start of run()
};

}  // namespace ao::orchestrator
