#include "orchestrator/store_index.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <tuple>

#include "util/error.hpp"
#include "util/hex.hpp"

namespace ao::orchestrator {
namespace {

constexpr char kQueryCursorMagic[] = "aoq1";

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t, std::uint64_t>
key_tuple(const CacheKey& key) {
  return {static_cast<std::uint64_t>(key.kind),
          static_cast<std::uint64_t>(key.chip),
          static_cast<std::uint64_t>(key.impl),
          static_cast<std::uint64_t>(key.n),
          key.payload_fingerprint,
          key.options_fingerprint};
}

/// Smallest possible key of `kind` — the lower bound of a kind range.
CacheKey kind_floor(JobKind kind) {
  CacheKey key;
  key.kind = kind;
  key.chip = static_cast<soc::ChipModel>(0);
  key.impl = static_cast<soc::GemmImpl>(0);
  key.n = 0;
  key.payload_fingerprint = 0;
  key.options_fingerprint = 0;
  return key;
}

}  // namespace

StoreFile::StoreFile(const std::string& path)
    : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
  if (fd_ < 0) {
    throw util::Error("cannot read result-cache store: " + path);
  }
}

StoreFile::~StoreFile() { ::close(fd_); }

bool StoreFile::read(const StoreRef& ref, std::string& line) const {
  line.resize(ref.length);
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t got =
        ::pread(fd_, line.data() + done, line.size() - done,
                static_cast<off_t>(ref.offset + done));
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got <= 0) {
      return false;
    }
    done += static_cast<std::size_t>(got);
  }
  return true;
}

bool cache_key_less(const CacheKey& a, const CacheKey& b) {
  return key_tuple(a) < key_tuple(b);
}

bool QueryFilter::matches(const CacheKey& key) const {
  if (kind.has_value() && key.kind != *kind) {
    return false;
  }
  if (chip.has_value() && key.chip != *chip) {
    return false;
  }
  if (impl.has_value() && key.impl != *impl) {
    return false;
  }
  if (n_min.has_value() && static_cast<std::uint64_t>(key.n) < *n_min) {
    return false;
  }
  if (n_max.has_value() && static_cast<std::uint64_t>(key.n) > *n_max) {
    return false;
  }
  return true;
}

void StoreIndex::reset(std::uint64_t generation) {
  rebuild({}, generation, nullptr);
}

void StoreIndex::rebuild(std::vector<Ref> refs, std::uint64_t generation,
                         std::shared_ptr<const StoreFile> file) {
  std::map<CacheKey, Ref, KeyLess> fresh;
  for (const Ref& ref : refs) {
    fresh.insert_or_assign(ref.key, ref);
  }
  std::lock_guard lock(mutex_);
  refs_.swap(fresh);
  generation_ = generation;
  file_ = std::move(file);
  // `fresh` (the old map) is freed after the lock is released.
}

void StoreIndex::add(const CacheKey& key, std::uint64_t offset,
                     std::size_t length) {
  std::lock_guard lock(mutex_);
  refs_.insert_or_assign(
      key, Ref{key, offset, static_cast<std::uint32_t>(length)});
}

std::uint64_t StoreIndex::generation() const {
  std::lock_guard lock(mutex_);
  return generation_;
}

std::size_t StoreIndex::size() const {
  std::lock_guard lock(mutex_);
  return refs_.size();
}

StoreIndex::Selection StoreIndex::collect(
    const QueryFilter& filter, const std::optional<CacheKey>& after,
    std::size_t limit) const {
  std::lock_guard lock(mutex_);
  Selection out;
  out.generation = generation_;
  out.file = file_;
  auto it = after.has_value() ? refs_.upper_bound(*after) : refs_.begin();
  if (filter.kind.has_value()) {
    // Kind is the major sort field, so a kind filter is one contiguous map
    // range — skip straight to it and stop at its end, never touching the
    // rest of the index.
    auto floor = refs_.lower_bound(kind_floor(*filter.kind));
    if (it != refs_.end() && floor != refs_.end() &&
        cache_key_less(it->first, floor->first)) {
      it = floor;  // only ever forward — a cursor must not rewind
    }
  }
  for (; it != refs_.end(); ++it) {
    if (filter.kind.has_value() && it->first.kind != *filter.kind) {
      if (static_cast<int>(it->first.kind) > static_cast<int>(*filter.kind)) {
        break;  // past the kind range; nothing further can match
      }
      continue;
    }
    if (!filter.matches(it->first)) {
      continue;
    }
    ++out.matched;
    if (out.refs.size() < limit) {
      out.refs.push_back(it->second);
    }
  }
  out.exhausted = out.matched == out.refs.size();
  return out;
}

std::optional<StoreIndex::Ref> StoreIndex::find(const CacheKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = refs_.find(key);
  if (it == refs_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<StoreIndex::Located> StoreIndex::locate(
    const CacheKey& key) const {
  std::lock_guard lock(mutex_);
  const auto it = refs_.find(key);
  if (it == refs_.end() || file_ == nullptr) {
    return std::nullopt;
  }
  return Located{it->second, generation_, file_};
}

bool StoreIndex::erase(const Ref& ref, std::uint64_t generation) {
  std::lock_guard lock(mutex_);
  const auto it = refs_.find(ref.key);
  if (generation != generation_ || it == refs_.end() || !(it->second == ref)) {
    return false;
  }
  refs_.erase(it);
  return true;
}

std::vector<StoreIndex::Ref> StoreIndex::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<Ref> out;
  out.reserve(refs_.size());
  for (const auto& [key, ref] : refs_) {
    out.push_back(ref);
  }
  return out;
}

std::string encode_query_cursor(std::uint64_t generation,
                                const CacheKey& last) {
  std::string body = kQueryCursorMagic;
  for (const std::uint64_t field :
       {generation, static_cast<std::uint64_t>(last.kind),
        static_cast<std::uint64_t>(last.chip),
        static_cast<std::uint64_t>(last.impl),
        static_cast<std::uint64_t>(last.n), last.payload_fingerprint,
        last.options_fingerprint}) {
    body += '.';
    body += util::to_hex_u64(field);
  }
  return body + '.' + util::to_hex_u64(store_digest(body.data(), body.size()));
}

std::optional<QueryCursor> decode_query_cursor(const std::string& token) {
  // aoq1.<gen>.<kind>.<chip>.<impl>.<n>.<payload_fp>.<options_fp>.<digest>
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = token.find('.', start);
    if (dot == std::string::npos) {
      fields.push_back(token.substr(start));
      break;
    }
    fields.push_back(token.substr(start, dot - start));
    start = dot + 1;
  }
  if (fields.size() != 9 || fields[0] != kQueryCursorMagic) {
    return std::nullopt;
  }
  std::uint64_t digest = 0;
  const std::size_t body_length = token.rfind('.');
  if (!util::parse_hex_u64(fields[8], digest) ||
      digest != store_digest(token.data(), body_length)) {
    return std::nullopt;
  }
  std::uint64_t values[7] = {};
  for (std::size_t i = 0; i < 7; ++i) {
    if (!util::parse_hex_u64(fields[i + 1], values[i])) {
      return std::nullopt;
    }
  }
  if (values[1] > static_cast<std::uint64_t>(JobKind::kSmeGemm) ||
      values[2] > static_cast<std::uint64_t>(soc::ChipModel::kM4) ||
      values[3] > static_cast<std::uint64_t>(soc::GemmImpl::kGpuMps)) {
    return std::nullopt;
  }
  QueryCursor cursor;
  cursor.generation = values[0];
  cursor.last.kind = static_cast<JobKind>(values[1]);
  cursor.last.chip = static_cast<soc::ChipModel>(values[2]);
  cursor.last.impl = static_cast<soc::GemmImpl>(values[3]);
  cursor.last.n = static_cast<std::size_t>(values[4]);
  cursor.last.payload_fingerprint = values[5];
  cursor.last.options_fingerprint = values[6];
  return cursor;
}

}  // namespace ao::orchestrator
