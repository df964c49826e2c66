#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "orchestrator/result_cache.hpp"
#include "orchestrator/store_index.hpp"
#include "temp_dir.hpp"

namespace ao::orchestrator {
namespace {

// The secondary index and its resume tokens, exercised directly: ordering,
// paging, generation stamping, and the sub-linear acceptance bound the
// query engine exists for.

std::string temp_store(const std::string& name) {
  return (test::unique_temp_dir("ao_idx_" + name) / "index.store").string();
}

/// Deterministic key spread across three record-shape-compatible kinds, all
/// four chips, every impl and a handful of sizes; `payload_fingerprint`
/// keeps every i distinct even where the structured fields collide.
CacheKey key_at(std::size_t i) {
  CacheKey key;
  switch (i % 3) {
    case 0:
      key.kind = JobKind::kGemmMeasure;
      break;
    case 1:
      key.kind = JobKind::kFp64Emulation;
      break;
    default:
      key.kind = JobKind::kSmeGemm;
      break;
  }
  key.chip = soc::kAllChipModels[i % 4];
  key.impl = soc::kAllGemmImpls[i % 6];
  key.n = 16 + (i % 7) * 16;
  key.payload_fingerprint = 1000 + i;
  key.options_fingerprint = 5;
  return key;
}

MeasurementRecord record_for(const CacheKey& key, double salt = 0.0) {
  if (key.kind == JobKind::kFp64Emulation) {
    Fp64EmuRecord r;
    r.chip = key.chip;
    r.n = key.n;
    r.seed = key.payload_fingerprint;
    r.emulated_gflops = 50.0 + salt;
    r.fp32_gflops = 100.0 + salt;
    return r;
  }
  if (key.kind == JobKind::kSmeGemm) {
    SmeRecord r;
    r.chip = key.chip;
    r.n = key.n;
    r.seed = key.payload_fingerprint;
    r.matches_amx = true;
    r.modeled_gflops = 200.0 + salt;
    return r;
  }
  harness::GemmMeasurement m;
  m.n = key.n;
  m.chip = key.chip;
  m.impl = key.impl;
  m.best_gflops = 100.5 + salt;
  m.time_ns.add(1.25e6 + salt);
  return m;
}

// ------------------------------------------------------------ ordering ----

TEST(StoreIndex, CollectPagesInKeyOrderWithExactTotals) {
  StoreIndex index;
  index.reset(1);
  for (std::size_t i = 0; i < 30; ++i) {
    index.add(key_at(i), 100 * i, 90);
  }
  ASSERT_EQ(index.size(), 30u);

  // An empty filter pages the whole index in cache_key_less order.
  QueryFilter all;
  std::optional<CacheKey> after;
  std::vector<StoreIndex::Ref> walked;
  while (true) {
    const auto page = index.collect(all, after, 7);
    EXPECT_EQ(page.matched, 30u - walked.size());
    walked.insert(walked.end(), page.refs.begin(), page.refs.end());
    if (page.exhausted) {
      break;
    }
    ASSERT_FALSE(page.refs.empty());
    after = page.refs.back().key;
  }
  ASSERT_EQ(walked.size(), 30u);
  for (std::size_t i = 1; i < walked.size(); ++i) {
    EXPECT_TRUE(cache_key_less(walked[i - 1].key, walked[i].key))
        << "page walk not strictly increasing at " << i;
  }
  EXPECT_EQ(walked, index.snapshot());
}

TEST(StoreIndex, KindFilterMatchesBruteForceAndLatestOffsetWins) {
  StoreIndex index;
  index.reset(3);
  for (std::size_t i = 0; i < 24; ++i) {
    index.add(key_at(i), 10 * i, 9);
  }
  // A duplicate append shadows the older line.
  index.add(key_at(4), 7777, 42);
  ASSERT_EQ(index.size(), 24u);
  const auto found = index.find(key_at(4));
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->offset, 7777u);
  EXPECT_EQ(found->length, 42u);

  QueryFilter filter;
  filter.kind = JobKind::kSmeGemm;
  filter.n_min = 32;
  const auto page = index.collect(filter, std::nullopt, 100);
  std::size_t expected = 0;
  for (const auto& ref : index.snapshot()) {
    if (filter.matches(ref.key)) {
      ++expected;
    }
  }
  EXPECT_EQ(page.refs.size(), expected);
  EXPECT_EQ(page.matched, expected);
  EXPECT_TRUE(page.exhausted);
  for (const auto& ref : page.refs) {
    EXPECT_EQ(ref.key.kind, JobKind::kSmeGemm);
    EXPECT_GE(ref.key.n, 32u);
  }
}

// -------------------------------------------------------- cursor codec ----

TEST(QueryCursor, RoundTripsAndRejectsEveryMutation) {
  for (std::size_t i = 0; i < 12; ++i) {
    const CacheKey key = key_at(i);
    const std::uint64_t generation = 1 + i * 17;
    const std::string token = encode_query_cursor(generation, key);
    const auto decoded = decode_query_cursor(token);
    ASSERT_TRUE(decoded.has_value()) << token;
    EXPECT_EQ(decoded->generation, generation);
    EXPECT_TRUE(decoded->last == key);

    // Every proper prefix is structurally rejected.
    for (std::size_t len = 0; len < token.size(); ++len) {
      EXPECT_FALSE(decode_query_cursor(token.substr(0, len)).has_value())
          << "prefix of length " << len << " of " << token;
    }
    // So is every single-character corruption (the digest covers the body;
    // a flip inside the digest breaks the digest itself).
    for (std::size_t at = 0; at < token.size(); ++at) {
      std::string mutated = token;
      mutated[at] = mutated[at] == 'z' ? 'y' : 'z';
      if (mutated == token) {
        continue;
      }
      EXPECT_FALSE(decode_query_cursor(mutated).has_value())
          << "flip at " << at << " of " << token;
    }
  }
  EXPECT_FALSE(decode_query_cursor("").has_value());
  EXPECT_FALSE(decode_query_cursor("aof1.0.0.0").has_value());  // wrong magic
}

// ------------------------------------------------------ cache integration --

TEST(ResultCacheQuery, DetachedCacheAnswersNoStore) {
  ResultCache cache;
  cache.insert(key_at(0), record_for(key_at(0)));
  std::string code;
  EXPECT_FALSE(cache.query(QueryFilter{}, 8, "", &code).has_value());
  EXPECT_EQ(code, "no-store");
  EXPECT_EQ(cache.store_generation(), 0u);
}

TEST(ResultCacheQuery, PagesMatchEntriesAndGenerationIsStamped) {
  const std::string path = temp_store("pages");
  ResultCache cache;
  cache.persist_to(path);
  EXPECT_EQ(cache.store_generation(), 1u);
  for (std::size_t i = 0; i < 20; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }

  std::string code;
  std::string cursor;
  std::vector<std::string> lines;
  while (true) {
    const auto page = cache.query(QueryFilter{}, 6, cursor, &code);
    ASSERT_TRUE(page.has_value()) << code;
    EXPECT_EQ(page->generation, 1u);
    lines.insert(lines.end(), page->lines.begin(), page->lines.end());
    if (page->exhausted) {
      EXPECT_TRUE(page->cursor.empty());
      break;
    }
    cursor = page->cursor;
  }
  ASSERT_EQ(lines.size(), 20u);
  for (const auto& line : lines) {
    const auto parsed = parse_store_entry(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    const auto memory = cache.lookup(parsed->first);
    ASSERT_TRUE(memory.has_value());
    EXPECT_TRUE(*memory == parsed->second);
  }
  std::filesystem::remove(path);
}

TEST(ResultCacheQuery, CompactionInvalidatesInFlightCursorsStructurally) {
  const std::string path = temp_store("compact");
  ResultCache cache;
  cache.persist_to(path);
  for (std::size_t i = 0; i < 12; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }
  std::string code;
  const auto first = cache.query(QueryFilter{}, 4, "", &code);
  ASSERT_TRUE(first.has_value()) << code;
  ASSERT_FALSE(first->exhausted);
  const std::string cursor = first->cursor;

  const std::uint64_t before = cache.store_generation();
  cache.compact();
  EXPECT_GT(cache.store_generation(), before);

  // The resumed read must fail structurally — never serve bytes at offsets
  // the rewrite reclaimed.
  EXPECT_FALSE(cache.query(QueryFilter{}, 4, cursor, &code).has_value());
  EXPECT_EQ(code, "stale-cursor");

  // A fresh first page works and carries the new generation.
  const auto fresh = cache.query(QueryFilter{}, 4, "", &code);
  ASSERT_TRUE(fresh.has_value()) << code;
  EXPECT_EQ(fresh->generation, cache.store_generation());
  std::filesystem::remove(path);
}

TEST(ResultCacheQuery, FetchEntryServesRetainedAndEvictedKeys) {
  const std::string path = temp_store("fetch");
  ResultCache cache(4);  // tiny LRU: most keys live only in the store
  cache.persist_to(path);
  for (std::size_t i = 0; i < 16; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const auto line = cache.fetch_entry(key_at(i));
    ASSERT_TRUE(line.has_value()) << "key " << i;
    const auto parsed = parse_store_entry(*line);
    ASSERT_TRUE(parsed.has_value()) << *line;
    EXPECT_TRUE(parsed->first == key_at(i));
  }
  CacheKey missing = key_at(0);
  missing.payload_fingerprint = 999999;
  EXPECT_FALSE(cache.fetch_entry(missing).has_value());
  std::filesystem::remove(path);
}

TEST(ResultCacheQuery, ColdAttachRebuildsTheIndexFromTheFile) {
  const std::string path = temp_store("cold");
  {
    ResultCache writer;
    writer.persist_to(path);
    for (std::size_t i = 0; i < 18; ++i) {
      writer.insert(key_at(i), record_for(key_at(i)));
    }
  }
  ResultCache reader;
  reader.persist_to(path);  // existing file: index scanned up cold
  EXPECT_EQ(reader.size(), 0u);  // persist_to never loads entries to memory
  std::string code;
  const auto page = reader.query(QueryFilter{}, 100, "", &code);
  ASSERT_TRUE(page.has_value()) << code;
  EXPECT_EQ(page->lines.size(), 18u);
  EXPECT_TRUE(page->exhausted);
  for (const auto& line : page->lines) {
    EXPECT_TRUE(parse_store_entry(line).has_value()) << line;
  }
  std::filesystem::remove(path);
}

// --------------------------------------------------------- read-through ----

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ReadThrough, EvictedKeyIsServedFromTheStoreAndAppendsNothing) {
  const std::string path = temp_store("read_through");
  ResultCache cache(4);  // the store holds 16 keys; memory holds 4
  cache.persist_to(path);
  for (std::size_t i = 0; i < 16; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }
  ASSERT_FALSE(cache.contains(key_at(0)));
  const std::string before = file_bytes(path);
  const CacheStats stats_before = cache.stats();

  for (std::size_t i = 0; i < 16; ++i) {
    const auto hit = cache.lookup(key_at(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(*hit == record_for(key_at(i))) << "key " << i;
    // A served point re-inserted (what a scheduler does with a miss) is
    // already stored: nothing is appended.
    cache.insert(key_at(i), *hit);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits - stats_before.hits, 16u);
  EXPECT_EQ(stats.misses, stats_before.misses);
  EXPECT_EQ(stats.load_rejected, 0u);
  EXPECT_TRUE(cache.contains(key_at(15)));  // promoted into the LRU
  EXPECT_EQ(cache.store_entries(), 16u);
  EXPECT_EQ(file_bytes(path), before);

  // A key the store never held is still a miss.
  CacheKey missing = key_at(0);
  missing.payload_fingerprint = 999999;
  EXPECT_FALSE(cache.lookup(missing).has_value());
  EXPECT_EQ(cache.stats().misses, stats_before.misses + 1);
  std::filesystem::remove(path);
}

/// Flips one bit in the middle of the line `ref` points at — corruption
/// that happens after the line was indexed.
void flip_bit(const std::string& path, const StoreRef& ref) {
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto at = static_cast<std::streamoff>(ref.offset + ref.length / 2);
  io.seekg(at);
  char byte = 0;
  io.get(byte);
  io.seekp(at);
  io.put(static_cast<char>(byte ^ 0x1));
}

TEST(ReadThrough, BitFlippedLineIsAMissAndItsRemeasureReplacesIt) {
  const std::string path = temp_store("bit_flip");
  {
    ResultCache writer;
    writer.persist_to(path);
    for (std::size_t i = 0; i < 6; ++i) {
      writer.insert(key_at(i), record_for(key_at(i)));
    }
  }
  ResultCache cache(2);
  cache.persist_to(path);  // indexes all six lines, loads none
  const auto ref = cache.store_index().find(key_at(3));
  ASSERT_TRUE(ref.has_value());
  flip_bit(path, *ref);

  EXPECT_FALSE(cache.lookup(key_at(3)).has_value());
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_FALSE(cache.store_index().find(key_at(3)).has_value());
  EXPECT_FALSE(cache.fetch_entry(key_at(3)).has_value());
  EXPECT_EQ(cache.stats().load_rejected, 1u);  // counted once

  // The re-measured record is appended and indexed in the corrupt line's
  // place; once evicted again it is served from the new line.
  cache.insert(key_at(3), record_for(key_at(3)));
  EXPECT_EQ(cache.store_entries(), 7u);
  const auto fresh = cache.store_index().find(key_at(3));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_GT(fresh->offset, ref->offset);
  cache.lookup(key_at(0));
  cache.lookup(key_at(1));
  ASSERT_FALSE(cache.contains(key_at(3)));
  const auto served = cache.lookup(key_at(3));
  ASSERT_TRUE(served.has_value());
  EXPECT_TRUE(*served == record_for(key_at(3)));
  EXPECT_EQ(cache.stats().load_rejected, 1u);

  // A later attach indexes the new line and skips the corrupt one.
  ResultCache restarted;
  restarted.persist_to(path);
  EXPECT_EQ(restarted.store_index().find(key_at(3)), fresh);
  std::filesystem::remove(path);
}

// A page that meets a line corrupted after indexing drops it like lookup()
// does and is cut again without it, instead of failing the query.
TEST(ReadThrough, QueryDropsACorruptLineAndServesTheRest) {
  const std::string path = temp_store("query_flip");
  ResultCache cache(2);
  cache.persist_to(path);
  for (std::size_t i = 0; i < 6; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }
  const auto ref = cache.store_index().find(key_at(4));
  ASSERT_TRUE(ref.has_value());
  flip_bit(path, *ref);

  std::string code;
  const auto page = cache.query(QueryFilter{}, 100, "", &code);
  ASSERT_TRUE(page.has_value()) << code;
  EXPECT_EQ(page->lines.size(), 5u);
  EXPECT_EQ(page->matched, 5u);
  for (const auto& line : page->lines) {
    const auto parsed = parse_store_entry(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_FALSE(parsed->first == key_at(4));
  }
  EXPECT_EQ(cache.stats().load_rejected, 1u);
  EXPECT_FALSE(cache.store_index().find(key_at(4)).has_value());
  std::filesystem::remove(path);
}

TEST(ReadThrough, CompactionAfterEvictionsKeepsEveryDiskOnlyKey) {
  const std::string path = temp_store("compact_evicted");
  ResultCache cache(3);
  cache.persist_to(path);
  for (std::size_t i = 0; i < 20; ++i) {
    cache.insert(key_at(i), record_for(key_at(i)));
  }
  ASSERT_EQ(cache.size(), 3u);  // 17 keys live only on disk
  EXPECT_EQ(cache.compact(), 20u);
  EXPECT_EQ(cache.store_entries(), 20u);
  EXPECT_EQ(cache.save(path), 20u);  // save() onto the store compacts too

  ResultCache cold;
  EXPECT_EQ(cold.load(path), 20u);
  EXPECT_EQ(cold.stats().load_rejected, 0u);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto hit = cache.lookup(key_at(i));  // read through the rewrite
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(*hit == record_for(key_at(i))) << "key " << i;
    EXPECT_TRUE(cold.contains(key_at(i))) << "key " << i;
  }
  std::filesystem::remove(path);
}

// Lookups reading through a tiny LRU, inserts of new keys and explicit
// compactions, all at once: every lookup of a stored key hits with its own
// bits, and the final store holds every key exactly once. Part of the TSan
// job's suite.
TEST(ReadThrough, ConcurrentLookupInsertAndCompactLoseNothing) {
  const std::string path = temp_store("stress");
  constexpr std::size_t kStored = 64;
  constexpr std::size_t kInserted = 64;
  {
    ResultCache writer;
    writer.persist_to(path);
    for (std::size_t i = 0; i < kStored; ++i) {
      writer.insert(key_at(i), record_for(key_at(i)));
    }
  }
  ResultCache cache(8);
  cache.persist_to(path);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < 16; ++round) {
        for (std::size_t i = t; i < kStored; i += 3) {
          const auto hit = cache.lookup(key_at(i));
          if (!hit.has_value() || !(*hit == record_for(key_at(i)))) {
            ++wrong;
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (std::size_t i = kStored; i < kStored + kInserted; ++i) {
      cache.insert(key_at(i), record_for(key_at(i)));
      if (!cache.fetch_entry(key_at(i)).has_value()) {
        ++wrong;
      }
    }
    done = true;
  });
  threads.emplace_back([&] {
    while (!done) {
      cache.compact();
      std::string code;
      if (!cache.query(QueryFilter{}, 16, "", &code).has_value()) {
        ++wrong;
      }
    }
  });
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(cache.stats().load_rejected, 0u);
  cache.compact();
  EXPECT_EQ(cache.store_entries(), kStored + kInserted);
  ResultCache cold(kStored + kInserted);
  EXPECT_EQ(cold.load(path), kStored + kInserted);
  for (std::size_t i = 0; i < kStored + kInserted; ++i) {
    const auto hit = cold.lookup(key_at(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_TRUE(*hit == record_for(key_at(i))) << "key " << i;
  }
  std::filesystem::remove(path);
}

// ----------------------------------------------------------- acceptance ----

TEST(ResultCacheQuery, PagedQueryOverTenThousandRecordsReadsSubLinearly) {
  const std::string path = temp_store("tenk");
  ResultCache cache(16);  // the store holds 10k lines; memory holds 16
  cache.persist_to(path);
  constexpr std::size_t kStoreSize = 10000;
  for (std::size_t i = 0; i < kStoreSize; ++i) {
    CacheKey key = key_at(i);
    key.payload_fingerprint = 1'000'000 + i;  // all distinct
    cache.insert(key, record_for(key, static_cast<double>(i)));
  }
  ASSERT_EQ(cache.store_entries(), kStoreSize);

  // One page answers with at most `limit` entry reads — the index seeks
  // straight to the matching lines instead of replaying the 10k-line store.
  std::string code;
  const auto page = cache.query(QueryFilter{}, 25, "", &code);
  ASSERT_TRUE(page.has_value()) << code;
  EXPECT_EQ(page->lines.size(), 25u);
  EXPECT_EQ(page->entries_read, 25u);
  EXPECT_LT(page->entries_read, kStoreSize / 100);

  // A selective filter stays bounded by its match count, not the store.
  QueryFilter narrow;
  narrow.kind = JobKind::kSmeGemm;
  narrow.chip = soc::ChipModel::kM3;
  narrow.n_min = narrow.n_max = 48;
  const auto filtered = cache.query(narrow, 4096, "", &code);
  ASSERT_TRUE(filtered.has_value()) << code;
  EXPECT_GT(filtered->lines.size(), 0u);
  EXPECT_EQ(filtered->entries_read, filtered->lines.size());
  EXPECT_LT(filtered->entries_read, kStoreSize / 10);

  // Resuming mid-store is as cheap as the first page.
  const auto resumed =
      cache.query(QueryFilter{}, 25, page->cursor, &code);
  ASSERT_TRUE(resumed.has_value()) << code;
  EXPECT_EQ(resumed->entries_read, 25u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ao::orchestrator
