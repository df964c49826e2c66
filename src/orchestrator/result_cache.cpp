#include "orchestrator/result_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "orchestrator/store_index.hpp"
#include "precision/precision_study.hpp"
#include "stream/cpu_stream.hpp"
#include "stream/gpu_stream.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/hex.hpp"

namespace ao::orchestrator {
namespace {

// On-disk store framing (entry payloads are serialize_record() token
// streams; the full layout is specified in docs/orchestrator.md):
//
//   ao-result-cache v1
//   entry <kind> <chip> <impl> <n> <payload_fp> <options_fp> <record...> # <digest>
//
// One line per entry; every numeric token is lowercase hex; <digest> is the
// FNV-1a of the line up to (excluding) " # ". A truncated or bit-flipped
// line fails its digest and is skipped, so a crashed write-through run
// never poisons later loads.

std::string header_line() {
  return kStoreHeaderPrefix + std::to_string(ResultCache::kFormatVersion);
}

std::uint64_t mix_double(std::uint64_t h, double value) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return util::fnv1a_mix(h, bits);
}

/// The record alternative each JobKind produces — an entry whose
/// record shape disagrees with its key is corrupt.
RecordKind expected_record_kind(JobKind kind) {
  switch (kind) {
    case JobKind::kGemmMeasure:
      return RecordKind::kGemm;
    case JobKind::kStream:
    case JobKind::kGpuStream:
      return RecordKind::kStream;
    case JobKind::kPowerIdle:
      return RecordKind::kPower;
    case JobKind::kPrecisionStudy:
      return RecordKind::kPrecision;
    case JobKind::kAneInference:
      return RecordKind::kAne;
    case JobKind::kFp64Emulation:
      return RecordKind::kFp64Emu;
    case JobKind::kSmeGemm:
      return RecordKind::kSme;
  }
  throw util::InvalidArgument("unknown JobKind");
}

/// Upper bound on format_entry(key, record).size(), mirroring it piece for
/// piece: the "entry " prefix, six key tokens (each at most 16 hex digits
/// plus its separator space), the record tokens, the digest separator and
/// the 16-digit digest.
std::size_t entry_size_bound(const MeasurementRecord& record) {
  return std::strlen(kStoreEntryPrefix) + 6 * 17 +
         serialized_record_size_bound(record) +
         std::strlen(kStoreDigestSeparator) + 16;
}

/// Appends the entry line for (key, record) to `line` — no newline.
void append_entry(std::string& line, const CacheKey& key,
                  const MeasurementRecord& record) {
  const std::size_t start = line.size();
  line += kStoreEntryPrefix;
  for (const std::uint64_t field :
       {static_cast<std::uint64_t>(key.kind),
        static_cast<std::uint64_t>(key.chip),
        static_cast<std::uint64_t>(key.impl),
        static_cast<std::uint64_t>(key.n), key.payload_fingerprint,
        key.options_fingerprint}) {
    util::append_hex_u64(line, field);
    line += ' ';
  }
  append_serialized_record(line, record);
  const std::size_t payload_length = line.size() - start;
  line += kStoreDigestSeparator;
  util::append_hex_u64(line,
                       store_digest(line.data() + start, payload_length));
}

std::string format_entry(const CacheKey& key, const MeasurementRecord& record) {
  std::string line;
  line.reserve(entry_size_bound(record));
  append_entry(line, key, record);
  return line;
}

std::optional<std::pair<CacheKey, MeasurementRecord>> parse_entry(
    std::string_view line) {
  if (!line.starts_with(kStoreEntryPrefix)) {
    return std::nullopt;
  }
  const std::size_t digest_at = line.rfind(kStoreDigestSeparator);
  if (digest_at == std::string_view::npos) {
    return std::nullopt;
  }
  std::uint64_t digest = 0;
  if (!util::parse_hex_u64(
          line.substr(digest_at + std::strlen(kStoreDigestSeparator)),
          digest) ||
      digest != store_digest(line.data(), digest_at)) {
    return std::nullopt;
  }

  std::string_view rest = line.substr(
      std::strlen(kStoreEntryPrefix), digest_at - std::strlen(kStoreEntryPrefix));
  std::uint64_t kind = 0;
  std::uint64_t chip = 0;
  std::uint64_t impl = 0;
  std::uint64_t n = 0;
  std::uint64_t payload_fp = 0;
  std::uint64_t options_fp = 0;
  for (std::uint64_t* field : {&kind, &chip, &impl, &n, &payload_fp, &options_fp}) {
    if (!util::parse_hex_u64(util::next_token(rest), *field)) {
      return std::nullopt;
    }
  }
  const std::optional<JobKind> job_kind = job_kind_from_code(kind);
  if (!job_kind.has_value() ||
      chip > static_cast<std::uint64_t>(soc::ChipModel::kM4) ||
      impl > static_cast<std::uint64_t>(soc::GemmImpl::kGpuMps)) {
    return std::nullopt;
  }

  CacheKey key;
  key.kind = *job_kind;
  key.chip = static_cast<soc::ChipModel>(chip);
  key.impl = static_cast<soc::GemmImpl>(impl);
  key.n = static_cast<std::size_t>(n);
  key.payload_fingerprint = payload_fp;
  key.options_fingerprint = options_fp;

  // The record tokens end at the first newline, as a getline of the
  // remainder would end them.
  auto record = deserialize_record(rest.substr(0, rest.find('\n')));
  if (!record.has_value() ||
      record_kind(*record) != expected_record_kind(key.kind)) {
    return std::nullopt;
  }
  return std::pair{key, std::move(*record)};
}

/// Writes `path` through a sibling temp file renamed into place, so a reader
/// (or a crash) never observes a half-written store.
template <typename WriteFn>
void write_replacing(const std::string& path, WriteFn&& write) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw util::Error("cannot write result-cache store: " + tmp);
    }
    write(out);
    if (!out.flush()) {
      throw util::Error("short write to result-cache store: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw util::Error("cannot move result-cache store into place: " + path);
  }
}

}  // namespace

std::uint64_t store_digest(const void* data, std::size_t size) {
  return util::fnv1a_bytes(data, size);
}

std::string format_store_entry(const CacheKey& key,
                               const MeasurementRecord& record) {
  return format_entry(key, record);
}

std::optional<std::pair<CacheKey, MeasurementRecord>> parse_store_entry(
    std::string_view line) {
  return parse_entry(line);
}

std::string store_header_line() { return header_line(); }

std::uint64_t CacheKey::fingerprint() const {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(kind));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(chip));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(impl));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(n));
  h = util::fnv1a_mix(h, payload_fingerprint);
  h = util::fnv1a_mix(h, options_fingerprint);
  return h;
}

std::size_t CacheKeyHash::operator()(const CacheKey& key) const {
  return static_cast<std::size_t>(key.fingerprint());
}

CacheKey key_for_job(const ExperimentJob& job, std::uint64_t options_fp) {
  CacheKey key;
  key.kind = job.kind;
  key.chip = job.chip;
  std::uint64_t h = util::kFnv1aOffset;
  switch (job.kind) {
    case JobKind::kGemmMeasure:
      key.impl = job.impl;
      key.n = job.n;
      // Only the GEMM family depends on the experiment options; leaving the
      // other kinds' options_fingerprint at 0 lets their points hit across
      // campaigns that differ only in GEMM settings.
      key.options_fingerprint = options_fp;
      return key;
    case JobKind::kStream:
      h = util::fnv1a_mix(h, static_cast<std::uint64_t>(job.stream_threads));
      h = util::fnv1a_mix(h,
                          static_cast<std::uint64_t>(job.stream_repetitions));
      // Normalize the 0-means-default sentinel so an explicit default-sized
      // run hits the same entry as an implicit one.
      h = util::fnv1a_mix(h, job.stream_elements != 0
                                 ? job.stream_elements
                                 : stream::CpuStream::kDefaultElements);
      break;
    case JobKind::kGpuStream:
      h = util::fnv1a_mix(h,
                          static_cast<std::uint64_t>(job.stream_repetitions));
      h = util::fnv1a_mix(h, job.stream_elements != 0
                                 ? job.stream_elements
                                 : stream::GpuStream::kDefaultElements);
      break;
    case JobKind::kPowerIdle:
      h = mix_double(h, job.power_window_seconds);
      break;
    case JobKind::kPrecisionStudy:
      key.n = job.n;
      h = util::fnv1a_mix(h, job.study_seed);
      h = util::fnv1a_mix(h, precision::kAccuracyModelEpoch);
      break;
    case JobKind::kAneInference:
      key.n = job.n;
      h = util::fnv1a_mix(h, job.ane_rows());
      h = util::fnv1a_mix(h, job.ane_depth());
      h = util::fnv1a_mix(h, job.ane_functional ? 1 : 0);
      // The functional operands (and so mean_output) come from this seed.
      h = util::fnv1a_mix(h, job.study_seed);
      break;
    case JobKind::kFp64Emulation:
    case JobKind::kSmeGemm:
      // Both run functionally on seed-generated operands at size n.
      key.n = job.n;
      h = util::fnv1a_mix(h, job.study_seed);
      break;
  }
  key.payload_fingerprint = h;
  return key;
}

std::uint64_t options_fingerprint(
    const harness::GemmExperiment::Options& options) {
  std::uint64_t h = util::kFnv1aOffset;
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(options.repetitions));
  h = util::fnv1a_mix(h, static_cast<std::uint64_t>(options.verify_n_max));
  h = util::fnv1a_mix(h, options.use_powermetrics ? 1 : 0);
  h = mix_double(h, options.warmup_seconds);
  h = util::fnv1a_mix(h, options.matrix_seed);
  // std::map iterates in key order, so the digest is independent of how the
  // caller built the ceiling table.
  for (const auto& [impl, ceiling] : options.functional_n_max) {
    h = util::fnv1a_mix(h, static_cast<std::uint64_t>(impl));
    h = util::fnv1a_mix(h, static_cast<std::uint64_t>(ceiling));
  }
  return h;
}

ResultCache::ResultCache(std::size_t capacity)
    : capacity_(capacity), store_index_(std::make_unique<StoreIndex>()) {
  AO_REQUIRE(capacity >= 1, "ResultCache capacity must be positive");
}

ResultCache::~ResultCache() = default;

std::optional<MeasurementRecord> ResultCache::lookup(const CacheKey& key) {
  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      return it->second->second;
    }
  }
  // LRU miss: the store is the second level. The read runs with no cache
  // lock held; a concurrent lookup of the same key may read it too, and
  // both promote the same bits.
  std::optional<Entry> stored = read_through(key, nullptr);
  std::lock_guard lock(mutex_);
  if (!stored.has_value()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  retain_locked(key, stored->second);
  return std::move(stored->second);
}

std::optional<ResultCache::Entry> ResultCache::read_through(
    const CacheKey& key, std::string* line_out) const {
  const auto located = store_index_->locate(key);
  if (!located.has_value()) {
    return std::nullopt;
  }
  // The ref and the file come from one revision, so a compaction racing
  // this read cannot move the bytes under it: what fails here is corrupt.
  std::string line;
  if (located->file->read(located->ref, line)) {
    auto entry = parse_entry(line);
    if (entry.has_value() && entry->first == key) {
      if (line_out != nullptr) {
        *line_out = std::move(line);
      }
      return entry;
    }
  }
  // Forget the line, so the re-measured record is appended and indexed in
  // its place. Counted once, by whichever reader removed it.
  if (store_index_->erase(located->ref, located->generation)) {
    count_rejected(1);
  }
  return std::nullopt;
}

void ResultCache::count_rejected(std::size_t lines) const {
  std::lock_guard lock(mutex_);
  stats_.load_rejected += lines;
}

void ResultCache::retain_locked(const CacheKey& key, MeasurementRecord record) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(record);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() == capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.emplace_front(key, std::move(record));
  index_[key] = lru_.begin();
  ++stats_.insertions;
}

void ResultCache::append_if_absent(const CacheKey& key,
                                   const MeasurementRecord& record) {
  if (store_index_->generation() == 0 || store_index_->find(key)) {
    return;  // detached, or the store already holds this key
  }
  // Formatted before io_mutex_ is taken, so concurrent inserts format in
  // parallel and only the write itself is serialized.
  std::string line = format_entry(key, record);
  line += '\n';
  std::lock_guard io(io_mutex_);
  // Re-checked under the write lock: a concurrent insert of the same key
  // may have appended it meanwhile.
  if (!persist_out_.is_open() || store_index_->find(key)) {
    return;
  }
  // store_bytes_ tracks the file size exactly (every write goes through
  // this path or through a rewrite that resets it), so the new line's
  // offset is known without asking the stream.
  const std::uint64_t offset = store_bytes_;
  persist_out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  persist_out_.flush();
  store_bytes_ += line.size();
  ++store_entries_;
  store_index_->add(key, offset, line.size() - 1);
  if (compact_min_live_ratio_ > 0.0 &&
      store_entries_ >= compact_min_entries_ &&
      static_cast<double>(store_index_->size()) <
          compact_min_live_ratio_ * static_cast<double>(store_entries_)) {
    compact_locked();
  }
}

void ResultCache::insert(const CacheKey& key, const MeasurementRecord& record) {
  {
    std::lock_guard lock(mutex_);
    retain_locked(key, record);
  }
  // insert() returns only after the entry is flushed — the service tails
  // shard stores live, so a published record must be durable on return.
  append_if_absent(key, record);
}

bool ResultCache::contains(const CacheKey& key) const {
  std::lock_guard lock(mutex_);
  return index_.find(key) != index_.end();
}

std::size_t ResultCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

void ResultCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  index_.clear();
}

std::vector<ResultCache::Entry> ResultCache::entries() const {
  std::lock_guard lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

CacheStats ResultCache::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t ResultCache::save(const std::string& path) {
  obs::TimelineProfiler::Scope span(profiler_, obs::Phase::kSerialize,
                                    obs::TimelineProfiler::kInheritParent,
                                    "save");
  {
    std::lock_guard io(io_mutex_);
    if (!persist_path_.empty() && path == persist_path_) {
      return compact_locked();
    }
  }
  std::string body;
  std::size_t written = 0;
  {
    std::lock_guard lock(mutex_);
    body = serialize_locked();
    written = lru_.size();
  }
  write_replacing(path, [&](std::ostream& out) {
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
  });
  return written;
}

std::size_t ResultCache::compact_locked() {
  const std::string& path = persist_path_;
  // Every indexed line, in store order: a reload replays them oldest
  // first, as it would have replayed the uncompacted file.
  StoreIndex::Selection all = store_index_->collect(
      {}, std::nullopt, std::numeric_limits<std::size_t>::max());
  std::sort(all.refs.begin(), all.refs.end(),
            [](const StoreRef& a, const StoreRef& b) {
              return a.offset < b.offset;
            });
  std::vector<StoreRef> kept;
  kept.reserve(all.refs.size());
  std::size_t rejected = 0;
  std::uint64_t offset = 0;
  write_replacing(path, [&](std::ostream& out) {
    const std::string header = header_line();
    out << header << '\n';
    offset = header.size() + 1;
    std::string line;
    for (const StoreRef& ref : all.refs) {
      // Copied verbatim, after the same check a read-through makes: a line
      // corrupted on disk since it was indexed is dropped, not carried on.
      const auto entry =
          all.file->read(ref, line) ? parse_entry(line) : std::nullopt;
      if (!entry.has_value() || !(entry->first == ref.key)) {
        ++rejected;
        continue;
      }
      out << line << '\n';
      kept.push_back({ref.key, offset, ref.length});
      offset += line.size() + 1;
    }
  });
  // The rename unlinked the inode the append stream was writing to;
  // reattach it to the rewritten store so later insertions keep landing on
  // disk. Readers holding the old revision's StoreFile finish on the old
  // inode; new ones get the rewritten file with its fresh offsets.
  persist_out_.close();
  persist_out_.open(path, std::ios::app | std::ios::binary);
  if (!persist_out_) {
    throw util::Error("cannot reopen result-cache store: " + path);
  }
  const std::size_t written = kept.size();
  store_entries_ = written;
  store_bytes_ = offset;
  store_index_->rebuild(std::move(kept), ++next_generation_,
                        std::make_shared<StoreFile>(path));
  std::lock_guard lock(mutex_);
  ++stats_.compactions;
  stats_.load_rejected += rejected;
  return written;
}

std::string ResultCache::serialize_locked() const {
  std::string out;
  // One reserve up front (the hint bounds the final size), then append —
  // the repeated-append growth path never fires and the whole snapshot is
  // a single allocation.
  out.reserve(serialize_size_hint_locked());
  out += header_line();
  out += '\n';
  // Least recent first: reloading replays insertions in recency order.
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    append_entry(out, it->first, it->second);
    out += '\n';
  }
  return out;
}

std::size_t ResultCache::serialize_size_hint_locked() const {
  std::size_t bound = header_line().size() + 1;
  for (const Entry& entry : lru_) {
    bound += entry_size_bound(entry.second) + 1;
  }
  return bound;
}

std::size_t ResultCache::serialize_size_hint() const {
  std::lock_guard lock(mutex_);
  return serialize_size_hint_locked();
}

std::string ResultCache::serialize_store() const {
  obs::TimelineProfiler::Scope span(profiler_, obs::Phase::kSerialize,
                                    obs::TimelineProfiler::kInheritParent,
                                    "wire");
  std::lock_guard lock(mutex_);
  return serialize_locked();
}

std::size_t ResultCache::compact() {
  std::lock_guard io(io_mutex_);
  AO_REQUIRE(!persist_path_.empty(),
             "compact() needs an attached write-through store");
  return compact_locked();
}

void ResultCache::set_compaction_policy(double min_live_ratio,
                                        std::size_t min_entries) {
  AO_REQUIRE(min_live_ratio >= 0.0 && min_live_ratio <= 1.0,
             "compaction ratio must be in [0, 1]");
  std::lock_guard io(io_mutex_);
  compact_min_live_ratio_ = min_live_ratio;
  compact_min_entries_ = std::max<std::size_t>(1, min_entries);
}

std::size_t ResultCache::store_entries() const {
  std::lock_guard io(io_mutex_);
  return persist_path_.empty() ? 0 : store_entries_;
}

std::size_t ResultCache::load(const std::string& path) {
  return load_impl(path, /*write_through=*/false);
}

std::size_t ResultCache::merge_store(const std::string& path) {
  obs::TimelineProfiler::Scope span(profiler_, obs::Phase::kMerge,
                                    obs::TimelineProfiler::kInheritParent,
                                    "store");
  return load_impl(path, /*write_through=*/true);
}

std::size_t ResultCache::merge_buffer(const std::string& buffer) {
  obs::TimelineProfiler::Scope span(profiler_, obs::Phase::kMerge,
                                    obs::TimelineProfiler::kInheritParent,
                                    "wire");
  std::istringstream in(buffer);
  return load_stream(in, /*write_through=*/true);
}

std::size_t ResultCache::load_impl(const std::string& path,
                                   bool write_through) {
  std::ifstream in(path);
  if (!in) {
    return 0;  // nothing persisted yet — a cold start, not an error
  }
  return load_stream(in, write_through);
}

std::size_t ResultCache::load_stream(std::istream& in, bool write_through) {
  std::string line;
  if (!std::getline(in, line) || line != header_line()) {
    // A different format version (or not a cache store at all): refuse the
    // whole file rather than guess at its layout.
    std::lock_guard lock(mutex_);
    ++stats_.load_rejected;
    return 0;
  }
  std::size_t loaded = 0;
  std::vector<Entry> to_append;
  {
    std::lock_guard lock(mutex_);
    while (std::getline(in, line)) {
      if (line.empty()) {
        continue;
      }
      if (auto entry = parse_entry(line)) {
        retain_locked(entry->first, entry->second);
        if (write_through) {
          to_append.push_back(std::move(*entry));
        }
        ++loaded;
      } else {
        ++stats_.load_rejected;
      }
    }
    stats_.loaded += loaded;
  }
  // merge_store propagation: appended after the LRU lock is released, each
  // entry only if the store lacks its key.
  for (const Entry& entry : to_append) {
    append_if_absent(entry.first, entry.second);
  }
  return loaded;
}

void ResultCache::persist_to(const std::string& path) {
  std::lock_guard io(io_mutex_);
  persist_out_.close();
  persist_path_.clear();
  store_entries_ = 0;
  store_bytes_ = 0;
  store_index_->reset(0);  // generation 0: no store attached
  if (path.empty()) {
    return;
  }
  bool needs_header = false;
  // A SIGKILLed writer can leave the file without a trailing newline; a
  // later append would then glue two lines together, corrupting both. The
  // scan detects that and the attach terminates the tail first.
  bool tail_unterminated = false;
  std::uint64_t scanned_bytes = 0;
  std::vector<StoreRef> refs;
  {
    std::ifstream existing(path, std::ios::binary);
    std::string first_line;
    if (!existing || !std::getline(existing, first_line)) {
      needs_header = true;  // absent or empty file: start a fresh store
    } else if (first_line != header_line()) {
      throw util::Error("refusing write-through to a foreign store: " + path);
    } else {
      // Cold index scan: count the pre-existing entry lines (the
      // auto-compaction ratio sees the whole store, not just this
      // process's appends) and record every valid line's byte offset —
      // lookups and queries read through it, nothing is loaded. Corrupt
      // lines are skipped here exactly as load() would skip them, so a
      // torn tail is never indexed.
      tail_unterminated = existing.eof();
      scanned_bytes = first_line.size() + (tail_unterminated ? 0 : 1);
      std::string line;
      while (std::getline(existing, line)) {
        const bool terminated = !existing.eof();
        if (!line.empty()) {
          ++store_entries_;
          if (auto entry = parse_entry(line)) {
            refs.push_back({entry->first, scanned_bytes,
                            static_cast<std::uint32_t>(line.size())});
          }
        }
        scanned_bytes += line.size() + (terminated ? 1 : 0);
        tail_unterminated = !terminated;
      }
    }
  }
  persist_out_.open(path, std::ios::app | std::ios::binary);
  if (!persist_out_) {
    throw util::Error("cannot open result-cache store: " + path);
  }
  if (needs_header) {
    persist_out_ << header_line() << '\n';
    persist_out_.flush();
    scanned_bytes = header_line().size() + 1;
  } else if (tail_unterminated) {
    persist_out_ << '\n';
    persist_out_.flush();
    ++scanned_bytes;
  }
  store_bytes_ = scanned_bytes;
  store_index_->rebuild(std::move(refs), ++next_generation_,
                        std::make_shared<StoreFile>(path));
  persist_path_ = path;
}

std::uint64_t ResultCache::store_generation() const {
  return store_index_->generation();
}

std::optional<ResultCache::QueryPage> ResultCache::query(
    const QueryFilter& filter, std::size_t limit,
    const std::string& cursor_token, std::string* error_code) const {
  const auto fail = [&](const char* code) {
    if (error_code != nullptr) {
      *error_code = code;
    }
    return std::optional<QueryPage>{};
  };
  if (store_generation() == 0) {
    return fail("no-store");
  }
  std::optional<CacheKey> after;
  std::optional<std::uint64_t> required_generation;
  if (!cursor_token.empty()) {
    const auto cursor = decode_query_cursor(cursor_token);
    if (!cursor.has_value()) {
      return fail("bad-cursor");
    }
    if (cursor->generation == 0) {
      return fail("stale-cursor");
    }
    required_generation = cursor->generation;
    after = cursor->last;
  }
  // Snapshot isolation without holding a cache lock: the refs, their
  // generation and that revision's file are taken in one step, so every
  // line read below is the line the index described, even if a compaction
  // renames a rewritten store into place meanwhile.
  for (;;) {
    const StoreIndex::Selection selection =
        store_index_->collect(filter, after, limit);
    if (selection.generation == 0) {
      return fail("no-store");
    }
    if (required_generation.has_value() &&
        selection.generation != *required_generation) {
      return fail("stale-cursor");
    }
    QueryPage page;
    page.generation = selection.generation;
    page.matched = selection.matched;
    page.exhausted = selection.exhausted;
    bool corrupt = false;
    std::string line;
    for (const StoreRef& ref : selection.refs) {
      ++page.entries_read;
      const auto parsed =
          selection.file->read(ref, line) ? parse_entry(line) : std::nullopt;
      if (!parsed.has_value() || !(parsed->first == ref.key)) {
        // Corrupt on disk since it was indexed: drop it as lookup() would,
        // and cut the page again without it.
        if (store_index_->erase(ref, selection.generation)) {
          count_rejected(1);
        }
        corrupt = true;
        break;
      }
      page.lines.push_back(line);
    }
    if (corrupt) {
      continue;
    }
    if (!page.exhausted && !selection.refs.empty()) {
      page.cursor =
          encode_query_cursor(selection.generation, selection.refs.back().key);
    }
    return page;
  }
}

std::optional<std::string> ResultCache::fetch_entry(const CacheKey& key) const {
  {
    std::lock_guard lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      // Serve from memory without touching recency: format_entry is a pure
      // function of (key, record), so this is bit-identical to the line the
      // store holds for the same entry.
      return format_entry(key, it->second->second);
    }
  }
  std::string line;
  if (!read_through(key, &line).has_value()) {
    return std::nullopt;
  }
  return line;
}

}  // namespace ao::orchestrator
