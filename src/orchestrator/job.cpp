#include "orchestrator/job.hpp"

#include "util/error.hpp"

namespace ao::orchestrator {

std::string to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kGemmMeasure:
      return "gemm-measure";
    case JobKind::kStream:
      return "stream";
    case JobKind::kPowerIdle:
      return "power-idle";
    case JobKind::kGpuStream:
      return "gpu-stream";
    case JobKind::kPrecisionStudy:
      return "precision-study";
    case JobKind::kAneInference:
      return "ane-inference";
    case JobKind::kFp64Emulation:
      return "fp64-emulation";
    case JobKind::kSmeGemm:
      return "sme-gemm";
  }
  throw util::InvalidArgument("unknown JobKind");
}

std::optional<JobKind> job_kind_from_code(std::uint64_t code) {
  for (const JobKind kind : kAllJobKinds) {
    if (static_cast<std::uint64_t>(kind) == code) {
      return kind;
    }
  }
  return std::nullopt;
}

JobId JobQueue::push(ExperimentJob job) {
  std::lock_guard lock(mutex_);
  const JobId id = next_id_++;
  job.id = id;
  ready_.insert({-job.priority, id});
  nodes_.emplace(id, Node{std::move(job)});
  return id;
}

std::optional<ExperimentJob> JobQueue::pop_ready() {
  std::lock_guard lock(mutex_);
  if (ready_.empty()) {
    return std::nullopt;
  }
  const auto it = ready_.begin();
  const JobId id = it->second;
  ready_.erase(it);
  return nodes_.at(id).job;
}

void JobQueue::mark_done(JobId id) {
  std::lock_guard lock(mutex_);
  const auto it = nodes_.find(id);
  AO_REQUIRE(it != nodes_.end(), "mark_done on an unknown job");
  Node& node = it->second;
  AO_REQUIRE(!node.done, "job marked done twice");
  node.done = true;
  ++done_count_;
  if (done_count_ == nodes_.size()) {
    done_cv_.notify_all();
  }
}

void JobQueue::wait_all_done() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return done_count_ == nodes_.size(); });
}

std::size_t JobQueue::total() const {
  std::lock_guard lock(mutex_);
  return nodes_.size();
}

std::size_t JobQueue::done_count() const {
  std::lock_guard lock(mutex_);
  return done_count_;
}

bool JobQueue::all_done() const {
  std::lock_guard lock(mutex_);
  return done_count_ == nodes_.size();
}

std::vector<ExperimentJob> JobQueue::jobs() const {
  std::lock_guard lock(mutex_);
  std::vector<ExperimentJob> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    out.push_back(node.job);
  }
  return out;
}

}  // namespace ao::orchestrator
