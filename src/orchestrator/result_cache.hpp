#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/profiler.hpp"
#include "orchestrator/job.hpp"
#include "orchestrator/record.hpp"

namespace ao::orchestrator {

/// Content identity of one measurement point, for any JobKind.
/// Two campaigns that agree on every field would measure bit-identical
/// results (the simulator is a pure function of the job description and the
/// experiment options), so the cached record can stand in for a re-run.
///
/// `impl` and `n` stay structured for the GEMM family (the hot path and the
/// one humans debug); every other kind-specific field — thread counts,
/// array sizes, repetitions, ANE shapes, study seeds — is folded into
/// `payload_fingerprint` by key_for_job().
struct CacheKey {
  JobKind kind = JobKind::kGemmMeasure;
  soc::ChipModel chip = soc::ChipModel::kM1;
  soc::GemmImpl impl = soc::GemmImpl::kCpuSingle;
  std::size_t n = 0;
  std::uint64_t payload_fingerprint = 0;
  std::uint64_t options_fingerprint = 0;

  bool operator==(const CacheKey&) const = default;

  /// Digest of all six fields — the in-memory hash and the key's content
  /// address. (The on-disk store writes the six fields individually, not
  /// this digest, so entries stay inspectable.)
  std::uint64_t fingerprint() const;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const;
};

/// Location of one entry line inside a write-through store file — the unit
/// the StoreIndex (store_index.hpp) maps keys to.
struct StoreRef {
  CacheKey key;
  std::uint64_t offset = 0;  ///< byte offset of the entry line
  std::uint32_t length = 0;  ///< line length, excluding the newline

  bool operator==(const StoreRef&) const = default;
};

class StoreIndex;
struct QueryFilter;

/// Builds the cache key for a job: structured fields plus the digest of the
/// kind-specific payload. `options_fp` is the campaign-wide
/// options_fingerprint().
CacheKey key_for_job(const ExperimentJob& job, std::uint64_t options_fp);

/// FNV-1a digest of every Options field that can change a measurement:
/// repetitions, verification ceiling, power sampling, warm-up, matrix seed
/// and the per-impl functional ceilings.
std::uint64_t options_fingerprint(const harness::GemmExperiment::Options& options);

struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;
  std::size_t loaded = 0;          ///< entries read from disk stores
  std::size_t load_rejected = 0;   ///< corrupt / mismatched entries skipped
  std::size_t compactions = 0;     ///< write-through store rewrites
};

// Store framing constants, shared by every codec that reads or writes store
// content: the disk store, the service's streamed `record` replies and the
// wire frames of the distributed shard transport (docs/service.md). One
// definition, so the disk and socket paths cannot drift.
inline constexpr char kStoreHeaderPrefix[] = "ao-result-cache v";
inline constexpr char kStoreEntryPrefix[] = "entry ";
inline constexpr char kStoreDigestSeparator[] = " # ";

/// The digest every store codec shares: FNV-1a over the raw bytes. Entry
/// lines digest the line up to (excluding) kStoreDigestSeparator; wire
/// frames digest their whole payload.
std::uint64_t store_digest(const void* data, std::size_t size);

/// One on-disk store entry line for (key, record): the "entry ... # digest"
/// framing the versioned store and the service's streamed `record` replies
/// share (layout in docs/orchestrator.md).
std::string format_store_entry(const CacheKey& key,
                               const MeasurementRecord& record);

/// Parses a line written by format_store_entry(). Returns nullopt on any
/// corruption: bad digest, missing tokens, out-of-range enumerators, or a
/// record shape that disagrees with the key's kind.
std::optional<std::pair<CacheKey, MeasurementRecord>> parse_store_entry(
    std::string_view line);

/// The store's "ao-result-cache v<N>" first line.
std::string store_header_line();

/// Thread-safe LRU cache of finished measurements — any MeasurementRecord
/// alternative, keyed by CacheKey. Repeated campaigns and overlapping sweeps
/// service already-measured points from here instead of re-running the
/// simulator.
///
/// Thread-safety contract (docs/orchestrator.md#thread-safety): every
/// public method may be called concurrently from any number of threads —
/// the campaign service shares one instance between concurrently executing
/// scheduler instances. Internally two locks split the work: `mutex_`
/// guards the LRU state and is never held across disk I/O, while
/// `io_mutex_` serializes everything that writes the store file (appends,
/// rewrites, attach) — so a slow write-through append never stalls another
/// campaign's lookup(). insert() still returns only after its entry is
/// flushed to the attached store (the service's shard tailing depends on
/// that). Keys are content addresses: equal keys carry bit-identical
/// records.
///
/// The cache can be backed by a versioned on-disk store (the format is
/// specified in docs/orchestrator.md). persist_to() attaches one: its lines
/// are indexed (StoreIndex), not loaded, and every later insertion of a key
/// the store lacks is appended immediately — so a campaign that dies
/// mid-run still leaves its finished points behind. The store is the
/// cache's second level: lookup() reads an LRU miss through the index, so a
/// point that left the LRU is never measured (or appended) again. load()
/// warms memory from a store file; save() snapshots memory.
class ResultCache {
 public:
  /// Bumped whenever the entry layout changes; load() rejects files written
  /// by any other version.
  static constexpr int kFormatVersion = 1;

  using Entry = std::pair<CacheKey, MeasurementRecord>;

  /// `capacity` = maximum retained measurements; at least 1.
  explicit ResultCache(std::size_t capacity = 4096);
  ~ResultCache();

  /// Returns the cached record and refreshes its recency, or nullopt. On an
  /// LRU miss with a store attached, the key's newest indexed line is read
  /// back (one pread), its digest, key and record shape checked exactly as
  /// parse_store_entry() checks them, and the record promoted into the LRU:
  /// a hit, with nothing appended. A corrupt line counts in
  /// stats().load_rejected, leaves the index (so the re-measured record's
  /// insert() appends a replacement) and is a miss.
  std::optional<MeasurementRecord> lookup(const CacheKey& key);

  /// Inserts (or refreshes) a record, evicting the least recently used
  /// entry when full. In write-through mode the entry is also appended to
  /// the backing file — unless the store already holds the key.
  void insert(const CacheKey& key, const MeasurementRecord& record);

  /// True when the key is retained in memory (the store is not consulted).
  bool contains(const CacheKey& key) const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Drops every in-memory entry; a write-through backing file is untouched.
  void clear();

  /// Snapshot of the retained entries, most recently used first — the
  /// service's shard merge and the tests inspect stores through this.
  std::vector<Entry> entries() const;

  CacheStats stats() const;

  // ------------------------------------------------------- persistence ----

  /// Writes a snapshot of the IN-MEMORY entries to `path` (least recent
  /// first, so a reload reconstructs the recency order). Returns entries
  /// written. Saving onto the attached write-through store compacts it
  /// instead (see compact()): the store holds every entry memory holds and
  /// more, so nothing is lost. Throws util::Error when the file cannot be
  /// created.
  std::size_t save(const std::string& path);

  /// Merges the entries of a store written by save() or write-through into
  /// this cache. Individually corrupt entries (bad digest, truncated tail,
  /// unknown record shape) are skipped and counted in stats().load_rejected;
  /// a missing file loads nothing; a version-mismatched or unrecognizable
  /// header rejects the whole file. Returns entries loaded.
  std::size_t load(const std::string& path);

  /// Like load(), but every merged entry the attached write-through store
  /// lacks is also appended to it — ingesting a foreign store (a shard
  /// worker's, a peer machine's) into a persistent cache. load() stays
  /// append-free.
  std::size_t merge_store(const std::string& path);

  /// The store exactly as save() would write it (version header + retained
  /// entries, least recent first), as one in-memory buffer: the wire twin
  /// of save(). A remote shard worker ships this over its socket instead of
  /// writing a store file (docs/service.md#wire-format-frames). The buffer
  /// is built behind one up-front reserve of serialize_size_hint() bytes —
  /// a whole snapshot costs a single allocation, not one per appended
  /// entry.
  std::string serialize_store() const;

  /// Upper bound on serialize_store().size(), computed from token counts
  /// without formatting anything (see serialized_record_size_bound()).
  /// serialize_store() reserves exactly this, so `hint >= size` is the
  /// single-allocation invariant the regression tests probe.
  std::size_t serialize_size_hint() const;

  /// merge_store() from an in-memory buffer — the receiving end of
  /// serialize_store(): same header check, per-entry digest validation,
  /// load_rejected accounting and write-through propagation. Returns
  /// entries merged; a version-mismatched or unrecognizable first line
  /// rejects the whole buffer.
  std::size_t merge_buffer(const std::string& buffer);

  /// Write-through mode: indexes `path` (one scan, nothing loaded into
  /// memory) and appends every future insertion the store lacks, creating
  /// the file (with its version header) if absent. Pass "" to detach.
  /// Throws util::Error when the file cannot be opened.
  void persist_to(const std::string& path);

  /// Path of the write-through backing file ("" when detached).
  const std::string& persist_path() const { return persist_path_; }

  /// Rewrites the write-through store as the index's newest line per key,
  /// copied verbatim in store order: duplicate and corrupt lines go, every
  /// indexed entry stays, in memory or not. Requires write-through mode;
  /// returns entries written.
  std::size_t compact();

  /// Auto-compaction policy for write-through mode: after an append, when
  /// the store holds at least `min_entries` lines and the live/stored ratio
  /// (indexed keys / store lines) drops below `min_live_ratio`, the store
  /// is compacted in place. Duplicate and corrupt lines are what push the
  /// ratio down: a store written by an earlier version, or one whose
  /// corrupt lines were re-measured. Ratio 0 disables.
  void set_compaction_policy(double min_live_ratio,
                             std::size_t min_entries = 256);

  /// Entry lines the active write-through store currently holds (indexed +
  /// duplicates + corrupt); 0 when detached.
  std::size_t store_entries() const;

  // ------------------------------------------------------ query engine ----

  /// One page of a `query` reply: verbatim store entry lines in
  /// cache_key_less order (store_index.hpp), plus the cursor that resumes
  /// strictly after them.
  struct QueryPage {
    std::vector<std::string> lines;  ///< store bytes, newest line per key
    std::size_t matched = 0;   ///< matches at/after this page's start
    bool exhausted = true;     ///< no match remains past lines.back()
    std::string cursor;        ///< resume token; "" when exhausted
    std::uint64_t generation = 0;  ///< store revision the page was cut from
    std::size_t entries_read = 0;  ///< store lines actually fetched
  };

  /// Serves one page of matching store entries through the secondary index —
  /// at most `limit` seeks into the store file instead of a full replay.
  /// Snapshot isolation: the page is cut and read against one store
  /// revision; a cursor minted before a compaction rewrote the store fails
  /// with "stale-cursor" (the caller restarts its traversal). A corrupt line
  /// is dropped from the index like lookup() drops it, and the page is cut
  /// again without it. `cursor` is the token of a previous page (""
  /// for the first). On failure returns nullopt with *error_code set to
  /// "no-store", "bad-cursor" or "stale-cursor".
  std::optional<QueryPage> query(const QueryFilter& filter, std::size_t limit,
                                 const std::string& cursor,
                                 std::string* error_code) const;

  /// The newest store entry line for `key`: formatted from memory when the
  /// key is retained (without perturbing recency), else read out of the
  /// indexed store (checked like lookup(), not promoted). nullopt when
  /// neither holds it. The `follow` replay path reads through this.
  std::optional<std::string> fetch_entry(const CacheKey& key) const;

  /// Store revision counter: stamped on attach, bumped by every rewrite of
  /// the active store (compaction, save() onto it). 0 = detached. Cursors
  /// carry it so stale readers fail structurally (docs/service.md).
  std::uint64_t store_generation() const;

  /// The live secondary index (docs/orchestrator.md#store-index).
  const StoreIndex& store_index() const { return *store_index_; }

  /// Attaches a timeline profiler: save()/serialize_store() record
  /// `serialize` spans and merge_store()/merge_buffer() record `merge`
  /// spans, inheriting the calling thread's open scope (so a merge inside a
  /// shard conversation nests under that transport span). Set before the
  /// cache is shared between threads; nullptr (the default) detaches.
  void set_profiler(obs::TimelineProfiler* profiler) { profiler_ = profiler; }

 private:
  /// LRU bookkeeping under mutex_: inserts or refreshes `key`, evicting the
  /// least recently used entry when full.
  void retain_locked(const CacheKey& key, MeasurementRecord record);
  /// Write-through half of insert(): appends (key, record) to the attached
  /// store unless the index already holds the key. Takes io_mutex_ only.
  void append_if_absent(const CacheKey& key, const MeasurementRecord& record);
  /// Reads `key`'s indexed line back and parses it; a corrupt line is
  /// dropped from the index and counted. `line_out` receives the verbatim
  /// line. No lock held across the read.
  std::optional<Entry> read_through(const CacheKey& key,
                                    std::string* line_out) const;
  /// Counts lines found corrupt after they were indexed.
  void count_rejected(std::size_t lines) const;
  /// compact() under io_mutex_.
  std::size_t compact_locked();
  /// Header + retained entries (least recent first) under mutex_.
  std::string serialize_locked() const;
  std::size_t serialize_size_hint_locked() const;
  std::size_t load_impl(const std::string& path, bool write_through);
  /// The shared merge loop behind load()/merge_store()/merge_buffer().
  std::size_t load_stream(std::istream& in, bool write_through);

  /// Lock order: io_mutex_ before mutex_ (a rewrite counts itself under
  /// mutex_); mutex_ is never held while taking io_mutex_.
  mutable std::mutex mutex_;     ///< LRU list, index, stats
  mutable std::mutex io_mutex_;  ///< the store file and its metadata below
  std::size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> index_;
  /// Mutable: the const readers (fetch_entry(), query()) count the corrupt
  /// lines they find.
  mutable CacheStats stats_;
  std::ofstream persist_out_;  ///< append stream; guarded by io_mutex_
  std::string persist_path_;   ///< guarded by io_mutex_ ("" = detached)
  std::size_t store_entries_ = 0;  ///< entry lines in the active store
  std::uint64_t store_bytes_ = 0;  ///< store file size
  /// Monotonic store-revision source; the current revision lives in
  /// store_index_.
  std::uint64_t next_generation_ = 0;
  /// Secondary index over the active store (internally locked; its mutex is
  /// a leaf — taken under mutex_/io_mutex_, never the reverse).
  std::unique_ptr<StoreIndex> store_index_;
  double compact_min_live_ratio_ = 0.5;
  std::size_t compact_min_entries_ = 256;
  obs::TimelineProfiler* profiler_ = nullptr;  ///< set before sharing
};

}  // namespace ao::orchestrator
