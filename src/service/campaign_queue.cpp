#include "service/campaign_queue.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"

namespace ao::service {

ResourceMask resources_for(orchestrator::JobKind kind, soc::GemmImpl impl) {
  using orchestrator::JobKind;
  switch (kind) {
    case JobKind::kGemmMeasure:
      return soc::is_gpu_impl(impl) ? kResourceGpu : kResourceCpu;
    case JobKind::kStream:
      return kResourceCpu;
    case JobKind::kGpuStream:
      return kResourceGpu;
    case JobKind::kPowerIdle:
      // Package power samples the whole SoC: any concurrent activity on any
      // unit would show up in the window.
      return kResourceAll;
    case JobKind::kPrecisionStudy:
      // Accuracy is host math; throughput comes from the CPU/AMX curves.
      return kResourceCpu;
    case JobKind::kAneInference:
      return kResourceAne;
    case JobKind::kFp64Emulation:
      return kResourceGpu;
    case JobKind::kSmeGemm:
      return kResourceCpu;
  }
  throw util::InvalidArgument("unknown JobKind");
}

ResourceMask resources_for(const CampaignRequest& request) {
  using orchestrator::JobKind;
  ResourceMask mask = 0;
  if (!request.impls.empty() && !request.sizes.empty()) {
    for (const auto impl : request.impls) {
      mask |= resources_for(JobKind::kGemmMeasure, impl);
    }
  }
  const auto impl0 = soc::GemmImpl::kCpuSingle;  // ignored for non-GEMM kinds
  if (!request.stream_threads.empty()) {
    mask |= resources_for(JobKind::kStream, impl0);
  }
  if (request.gpu_stream) {
    mask |= resources_for(JobKind::kGpuStream, impl0);
  }
  if (!request.precision_sizes.empty()) {
    mask |= resources_for(JobKind::kPrecisionStudy, impl0);
  }
  if (!request.ane_sizes.empty()) {
    mask |= resources_for(JobKind::kAneInference, impl0);
  }
  if (!request.fp64emu_sizes.empty()) {
    mask |= resources_for(JobKind::kFp64Emulation, impl0);
  }
  if (!request.sme_sizes.empty()) {
    mask |= resources_for(JobKind::kSmeGemm, impl0);
  }
  if (request.power_idle) {
    mask |= resources_for(JobKind::kPowerIdle, impl0);
  }
  return mask;
}

std::string resources_to_string(ResourceMask mask) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) {
      out += '+';
    }
    out += name;
  };
  if (mask & kResourceCpu) {
    add("cpu");
  }
  if (mask & kResourceGpu) {
    add("gpu");
  }
  if (mask & kResourceAne) {
    add("ane");
  }
  return out.empty() ? "none" : out;
}

CampaignQueue::CampaignQueue() : CampaignQueue(Limits{}) {}

CampaignQueue::CampaignQueue(Limits limits) : limits_(limits) {}

CampaignQueue::~CampaignQueue() {
  // Tickets borrow the queue; a live ticket here is a caller bug.
  AO_REQUIRE(entries_.empty(), "CampaignQueue destroyed with live tickets");
}

std::unique_ptr<CampaignQueue::Ticket> CampaignQueue::submit(
    const std::string& client, int priority, ResourceMask resources,
    Rejection* rejection, const std::string& name) {
  std::lock_guard lock(mutex_);
  if (limits_.max_queued_per_client != 0) {
    std::size_t queued = 0;
    for (const auto& [seq, entry] : entries_) {
      if (!entry.running && entry.client == client) {
        ++queued;
      }
    }
    if (queued >= limits_.max_queued_per_client) {
      ++rejections_;
      if (rejection != nullptr) {
        rejection->code = "quota-queued";
        rejection->message =
            "client '" + client + "' already has " + std::to_string(queued) +
            " queued campaign(s) (limit " +
            std::to_string(limits_.max_queued_per_client) + ")";
      }
      return nullptr;
    }
  }
  Entry entry;
  entry.seq = next_seq_++;
  entry.priority = priority;
  entry.client = client;
  entry.name = name;
  entry.resources = resources;
  const std::uint64_t seq = entry.seq;
  entries_.emplace(seq, std::move(entry));
  // A new waiter changes every later ticket's position.
  changed_.notify_all();
  return std::unique_ptr<Ticket>(new Ticket(*this, seq));
}

bool CampaignQueue::admissible_locked(const Entry& entry) const {
  if (limits_.max_running != 0 && running_ >= limits_.max_running) {
    return false;
  }
  std::map<std::string, std::size_t> running_per_client;
  for (const auto& [seq, other] : entries_) {
    if (!other.running) {
      continue;
    }
    if (other.resources & entry.resources) {
      return false;  // conflicts with an executing campaign
    }
    ++running_per_client[other.client];
  }
  const auto at_running_quota = [&](const std::string& client) {
    if (limits_.max_running_per_client == 0) {
      return false;
    }
    const auto it = running_per_client.find(client);
    return it != running_per_client.end() &&
           it->second >= limits_.max_running_per_client;
  };
  if (at_running_quota(entry.client)) {
    return false;
  }
  // Never overtake a conflicting better-ranked waiter: a lower-priority
  // campaign may backfill around a blocked one only when their resources
  // are disjoint (starting it cannot delay the better-ranked start).
  // Exception: a waiter held back by its *own client's* running quota does
  // not reserve its place against other clients — one tenant saturating
  // its quota must not idle a unit another tenant could use.
  for (const auto& [seq, other] : entries_) {
    if (other.running || other.seq == entry.seq) {
      continue;
    }
    if (rank_of(other) < rank_of(entry) &&
        (other.resources & entry.resources) &&
        !at_running_quota(other.client)) {
      return false;
    }
  }
  return true;
}

void CampaignQueue::start_locked(Entry& entry) {
  entry.running = true;
  ++running_;
  peak_running_ = std::max(peak_running_, running_);
  // Positions behind this ticket just improved.
  changed_.notify_all();
}

void CampaignQueue::release(std::uint64_t seq) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(seq);
  if (it == entries_.end()) {
    return;
  }
  if (it->second.running) {
    --running_;
  }
  entries_.erase(it);
  changed_.notify_all();
}

std::size_t CampaignQueue::position_locked(const Entry& entry) const {
  std::size_t ahead = 0;
  for (const auto& [seq, other] : entries_) {
    if (!other.running && other.seq != entry.seq &&
        rank_of(other) < rank_of(entry)) {
      ++ahead;
    }
  }
  return ahead + 1;
}

std::size_t CampaignQueue::running_count() const {
  std::lock_guard lock(mutex_);
  return running_;
}

std::size_t CampaignQueue::queued_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size() - running_;
}

std::size_t CampaignQueue::peak_running() const {
  std::lock_guard lock(mutex_);
  return peak_running_;
}

std::size_t CampaignQueue::rejections() const {
  std::lock_guard lock(mutex_);
  return rejections_;
}

std::map<std::string, CampaignQueue::ClientStats> CampaignQueue::client_stats()
    const {
  std::lock_guard lock(mutex_);
  std::map<std::string, ClientStats> stats;
  for (const auto& [seq, entry] : entries_) {
    ClientStats& s = stats[entry.client];
    if (entry.running) {
      ++s.running;
    } else {
      ++s.queued;
    }
  }
  return stats;
}

std::vector<CampaignQueue::WaitingCampaign> CampaignQueue::waiting() const {
  std::lock_guard lock(mutex_);
  std::vector<const Entry*> pending;
  for (const auto& [seq, entry] : entries_) {
    if (!entry.running) {
      pending.push_back(&entry);
    }
  }
  std::sort(pending.begin(), pending.end(),
            [](const Entry* a, const Entry* b) {
              return rank_of(*a) < rank_of(*b);
            });
  std::vector<WaitingCampaign> out;
  out.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    out.push_back({i + 1, pending[i]->name.empty() ? "-" : pending[i]->name,
                   pending[i]->client, pending[i]->priority,
                   pending[i]->resources});
  }
  return out;
}

void CampaignQueue::poke() {
  std::lock_guard lock(mutex_);
  changed_.notify_all();
}

CampaignQueue::Ticket::~Ticket() { queue_->release(seq_); }

bool CampaignQueue::Ticket::wait(
    const std::function<void(std::size_t)>& on_queued,
    const std::function<bool()>& cancelled) {
  // How often a waiting ticket re-polls its cancel predicate when nothing
  // else wakes it — the deadline-expiry detection latency for a queued
  // campaign (aborts are immediate via poke()).
  constexpr auto kPollInterval = std::chrono::milliseconds(50);
  std::unique_lock lock(queue_->mutex_);
  std::size_t reported = 0;  // 0 = nothing reported yet
  for (;;) {
    Entry& entry = queue_->entries_.at(seq_);
    if (entry.running) {
      return true;
    }
    // Cancellation beats admission: an aborted/expired campaign must never
    // grab its resources in the same wakeup that delivered the cancel.
    if (cancelled && cancelled()) {
      return false;
    }
    if (queue_->admissible_locked(entry)) {
      queue_->start_locked(entry);
      return true;
    }
    const std::size_t pos = queue_->position_locked(entry);
    if (on_queued && pos != reported) {
      reported = pos;
      // The callback runs with the queue lock RELEASED: the service writes
      // (and flushes) a protocol line here, and a client that stops reading
      // its socket must stall only its own session, never the whole queue.
      lock.unlock();
      on_queued(pos);
      lock.lock();
      continue;  // the queue may have changed while unlocked — re-evaluate
    }
    if (cancelled) {
      queue_->changed_.wait_for(lock, kPollInterval);
    } else {
      queue_->changed_.wait(lock);
    }
  }
}

bool CampaignQueue::Ticket::try_start() {
  std::lock_guard lock(queue_->mutex_);
  Entry& entry = queue_->entries_.at(seq_);
  if (entry.running) {
    return true;
  }
  if (!queue_->admissible_locked(entry)) {
    return false;
  }
  queue_->start_locked(entry);
  return true;
}

bool CampaignQueue::Ticket::started() const {
  std::lock_guard lock(queue_->mutex_);
  return queue_->entries_.at(seq_).running;
}

std::size_t CampaignQueue::Ticket::position() const {
  std::lock_guard lock(queue_->mutex_);
  const Entry& entry = queue_->entries_.at(seq_);
  return entry.running ? 0 : queue_->position_locked(entry);
}

}  // namespace ao::service
