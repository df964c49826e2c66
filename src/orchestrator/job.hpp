#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "soc/benchmark_taxonomy.hpp"
#include "soc/chip_spec.hpp"

namespace ao::orchestrator {

/// Queue-assigned job identity. 0 is never assigned.
using JobId = std::uint64_t;
inline constexpr JobId kInvalidJob = 0;

/// The measurement families a campaign schedules. Each code is part of the
/// on-disk store format (entry keys, key hashes, query cursors), so codes
/// are fixed: code 1 is retired (it named a separate GEMM verification job)
/// and is never reused.
enum class JobKind {
  kGemmMeasure = 0,     ///< one (chip, impl, n) timing + power point
  kStream = 2,          ///< one CPU STREAM run at a fixed thread count
  kPowerIdle = 3,       ///< one powermetrics idle-floor sample
  kGpuStream = 4,       ///< one GPU STREAM run (Figure 1's MSL port)
  kPrecisionStudy = 5,  ///< one mixed-precision GEMM accuracy study at size n
  kAneInference = 6,    ///< one Core ML FP16 GEMM dispatch (ANE or fallback)
  kFp64Emulation = 7,   ///< one double-single FP64 GEMM study on the GPU
  kSmeGemm = 8,         ///< one SME FMOPA GEMM vs the AMX reference at size n
};

// Pinned: store entries, key hashes, query cursors and perfbench's JOB_KINDS
// table all carry these codes.
static_assert(static_cast<int>(JobKind::kGemmMeasure) == 0);
static_assert(static_cast<int>(JobKind::kStream) == 2);
static_assert(static_cast<int>(JobKind::kPowerIdle) == 3);
static_assert(static_cast<int>(JobKind::kGpuStream) == 4);
static_assert(static_cast<int>(JobKind::kPrecisionStudy) == 5);
static_assert(static_cast<int>(JobKind::kAneInference) == 6);
static_assert(static_cast<int>(JobKind::kFp64Emulation) == 7);
static_assert(static_cast<int>(JobKind::kSmeGemm) == 8);

/// Every JobKind, in code order.
inline constexpr std::array<JobKind, 8> kAllJobKinds = {
    JobKind::kGemmMeasure,   JobKind::kStream,
    JobKind::kPowerIdle,     JobKind::kGpuStream,
    JobKind::kPrecisionStudy, JobKind::kAneInference,
    JobKind::kFp64Emulation, JobKind::kSmeGemm,
};

std::string to_string(JobKind kind);

/// The JobKind whose on-disk code is `code`; nullopt for a code that names
/// none (out of range, or the retired code 1).
std::optional<JobKind> job_kind_from_code(std::uint64_t code);

/// One schedulable unit of campaign work. A job is a *description* — the
/// CampaignScheduler interprets it against a leased simulated System. Only
/// the fields relevant to `kind` are meaningful.
struct ExperimentJob {
  JobId id = kInvalidJob;  ///< assigned by JobQueue::push
  JobKind kind = JobKind::kGemmMeasure;
  /// Higher-priority jobs are popped first (ties break on id, so
  /// equal-priority work keeps submission order). Campaigns use the matrix
  /// size, starting the heavyweight points early.
  int priority = 0;

  soc::ChipModel chip = soc::ChipModel::kM1;

  /// GEMM payload (kGemmMeasure). `n` doubles as the matrix size of
  /// kPrecisionStudy and kAneInference jobs.
  soc::GemmImpl impl = soc::GemmImpl::kCpuSingle;
  std::size_t n = 0;

  /// STREAM payload (kStream / kGpuStream). `stream_threads` is CPU-only;
  /// `stream_elements` 0 means the module's paper-default array size.
  int stream_threads = 1;
  int stream_repetitions = 10;
  std::size_t stream_elements = 0;

  /// Power payload (kPowerIdle).
  double power_window_seconds = 1.0;

  /// Operand seed for the kinds that generate their own matrices
  /// (kPrecisionStudy, kAneInference, kFp64Emulation, kSmeGemm); the size of
  /// all four is `n`.
  std::uint64_t study_seed = 99;

  /// ANE payload (kAneInference): an ane_m x n x ane_k FP16 GEMM through the
  /// Core ML dispatch model; 0 dimensions default to `n` (square).
  std::size_t ane_m = 0;
  std::size_t ane_k = 0;
  bool ane_functional = true;

  /// The ANE GEMM's m and k, with 0 standing for n.
  std::size_t ane_rows() const { return ane_m != 0 ? ane_m : n; }
  std::size_t ane_depth() const { return ane_k != 0 ? ane_k : n; }
};

/// Thread-safe, priority-ordered queue of independent experiment jobs.
/// Workers drain it with pop_ready()/mark_done(); wait_all_done() blocks
/// until every popped job has been marked done.
class JobQueue {
 public:
  /// Adds a job. Returns the assigned id.
  JobId push(ExperimentJob job);

  /// The highest-priority job not yet popped; nullopt once every pushed job
  /// has been popped.
  std::optional<ExperimentJob> pop_ready();

  /// Marks a popped job complete.
  void mark_done(JobId id);

  /// Blocks until every pushed job has been marked done.
  void wait_all_done();

  std::size_t total() const;
  std::size_t done_count() const;
  bool all_done() const;

  /// Snapshot of every job ever pushed, in id order — the scheduler plans
  /// its per-size batches from this before draining the queue.
  std::vector<ExperimentJob> jobs() const;

 private:
  struct Node {
    ExperimentJob job;
    bool done = false;
  };

  // Ready ordering: (-priority, id) so the set's begin() is the
  // highest-priority, earliest-submitted job.
  using ReadyKey = std::pair<int, JobId>;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::map<JobId, Node> nodes_;
  std::set<ReadyKey> ready_;
  JobId next_id_ = 1;
  std::size_t done_count_ = 0;
};

}  // namespace ao::orchestrator
