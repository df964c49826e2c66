#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "orchestrator/result_cache.hpp"

namespace ao::orchestrator {

/// Total order over CacheKey — kind major, then chip, impl, n and the two
/// fingerprints. This is THE deterministic order of every query reply: two
/// stores holding the same entries page identically regardless of insertion
/// or compaction history.
bool cache_key_less(const CacheKey& a, const CacheKey& b);

/// Filter predicates of the `query` protocol command (docs/service.md).
/// Every field is optional; an empty filter matches the whole store. Exact
/// size is expressed as n_min == n_max.
struct QueryFilter {
  std::optional<JobKind> kind;
  std::optional<soc::ChipModel> chip;
  std::optional<soc::GemmImpl> impl;
  std::optional<std::uint64_t> n_min;
  std::optional<std::uint64_t> n_max;

  bool matches(const CacheKey& key) const;
};

/// A read-only descriptor on one revision of the store file, shared by every
/// reader of that revision. A compaction renames a rewritten file into
/// place; a reader still holding the previous revision's handle keeps
/// reading the old inode, so a ref and the file it was taken with always
/// agree. Closed when the last holder lets go.
class StoreFile {
 public:
  /// Throws util::Error when `path` cannot be opened for reading.
  explicit StoreFile(const std::string& path);
  ~StoreFile();
  StoreFile(const StoreFile&) = delete;
  StoreFile& operator=(const StoreFile&) = delete;

  /// Reads the line `ref` points at into `line` with one pread; false on a
  /// short read or an I/O error.
  bool read(const StoreRef& ref, std::string& line) const;

 private:
  int fd_ = -1;
};

/// In-memory secondary index over the write-through result store: CacheKey
/// -> byte offset of that key's newest entry line. The owning ResultCache
/// keeps it current on every append, rebuilds it (with fresh offsets) on
/// compaction, and scans it up from a cold store on attach — queries then
/// seek straight to their matching lines instead of replaying the file.
///
/// Snapshot isolation contract: the index carries the store `generation`,
/// bumped on every rewrite of the backing file, and the StoreFile of that
/// revision. A reader takes its refs, the generation and the file in one
/// locked step (locate(), collect()), so every read it makes lands on the
/// bytes those refs describe, however many rewrites happen meanwhile. Only
/// a client token carried across a rewrite goes stale: its generation no
/// longer matches (`stale-cursor`).
///
/// Thread-safe; one internal mutex, never held by callers.
class StoreIndex {
 public:
  /// (key, offset, length) of one entry line — StoreRef from
  /// result_cache.hpp, so ResultCache can name it without a cycle.
  using Ref = StoreRef;

  /// A page worth of matching refs, in cache_key_less order.
  struct Selection {
    std::vector<Ref> refs;
    std::size_t matched = 0;  ///< total keys matching the filter
    bool exhausted = false;   ///< no match remains beyond refs.back()
    std::uint64_t generation = 0;  ///< revision the refs belong to
    std::shared_ptr<const StoreFile> file;  ///< that revision's bytes
  };

  /// One key's newest line, with the revision it belongs to.
  struct Located {
    Ref ref;
    std::uint64_t generation = 0;
    std::shared_ptr<const StoreFile> file;
  };

  /// Drops every ref and the file, and stamps the next store revision.
  /// Generation 0 means "no store attached".
  void reset(std::uint64_t generation);

  /// Wholesale replacement — attach and compaction: `file` holds the bytes
  /// every ref points into.
  void rebuild(std::vector<Ref> refs, std::uint64_t generation,
               std::shared_ptr<const StoreFile> file);

  /// Records (or refreshes) the newest line for `key`. Later offsets win:
  /// a duplicate append shadows the older line, exactly like load() replay.
  void add(const CacheKey& key, std::uint64_t offset, std::size_t length);

  std::uint64_t generation() const;
  std::size_t size() const;

  /// Matching refs strictly after `after` (exclusive; nullopt = from the
  /// start), capped at `limit`. `matched` counts every remaining match, so
  /// a pager can report totals without fetching lines. Kind-bounded filters
  /// stop at the end of their kind range instead of walking the whole map.
  Selection collect(const QueryFilter& filter,
                    const std::optional<CacheKey>& after,
                    std::size_t limit) const;

  std::optional<Ref> find(const CacheKey& key) const;

  /// find() plus the generation and file to read the ref from; nullopt when
  /// the key is not indexed (or no store is attached).
  std::optional<Located> locate(const CacheKey& key) const;

  /// Forgets a line found corrupt — only while the index still holds
  /// exactly `ref` at `generation`, so a racing rewrite or re-append is
  /// never undone. True when this call removed it.
  bool erase(const Ref& ref, std::uint64_t generation);

  /// Every ref in cache_key_less order — the rebuild-equivalence tests
  /// compare incremental and cold-scanned indexes through this.
  std::vector<Ref> snapshot() const;

 private:
  struct KeyLess {
    bool operator()(const CacheKey& a, const CacheKey& b) const {
      return cache_key_less(a, b);
    }
  };

  mutable std::mutex mutex_;
  std::map<CacheKey, Ref, KeyLess> refs_;
  std::uint64_t generation_ = 0;
  std::shared_ptr<const StoreFile> file_;
};

/// Resume token of a paged query: `aoq1.<generation>.<six key fields>.<digest>`,
/// every numeric field lowercase hex, digest = store_digest of the token up
/// to (excluding) its final dot — a truncated, bit-flipped or hand-rolled
/// token fails decode instead of resuming from a wrong position.
std::string encode_query_cursor(std::uint64_t generation, const CacheKey& last);

struct QueryCursor {
  std::uint64_t generation = 0;
  CacheKey last;  ///< last key the client saw; resume strictly after it
};

/// Returns nullopt on any malformation: wrong magic, missing fields,
/// non-hex digits, out-of-range enumerators or a digest mismatch.
std::optional<QueryCursor> decode_query_cursor(const std::string& token);

}  // namespace ao::orchestrator
