#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/ascii_chart.hpp"
#include "util/csv_writer.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/statistics.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ao::util {
namespace {

// ---------------------------------------------------------------- units ----

// ------------------------------------------------------------ hex tokens --

TEST(HexTokens, AppendMatchesPrintfAndParseRoundTrips) {
  Xoshiro256 rng(11);
  std::vector<std::uint64_t> values{0, 1, 0xf, 0x10, ~0ull, 1ull << 63};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.next() >> rng.next_below(64));
  }
  for (const std::uint64_t value : values) {
    char expected[32];
    std::snprintf(expected, sizeof expected, "%" PRIx64, value);
    std::string out = "x";
    append_hex_u64(out, value);
    EXPECT_EQ(out, std::string("x") + expected);
    EXPECT_EQ(to_hex_u64(value), expected);
    std::uint64_t parsed = 0;
    ASSERT_TRUE(parse_hex_u64(out.substr(1), parsed));
    EXPECT_EQ(parsed, value);
  }
  std::uint64_t ignored = 0;
  EXPECT_TRUE(parse_hex_u64("0000000000000001", ignored));  // 16 digits
  EXPECT_FALSE(parse_hex_u64("00000000000000001", ignored));  // 17 digits
  EXPECT_FALSE(parse_hex_u64("", ignored));
  EXPECT_FALSE(parse_hex_u64("A", ignored));  // lowercase only
  EXPECT_FALSE(parse_hex_u64("1 ", ignored));
  EXPECT_FALSE(parse_hex_u64(std::string("1\0", 2), ignored));
}

// next_token() replaced an istringstream: it must split every byte string
// exactly as `operator>>` does, and leave the same remainder a getline
// after any number of tokens would read.
TEST(HexTokens, NextTokenSplitsExactlyLikeAnIstream) {
  const std::string alphabet("ab0F- \t\n\v\f\r\xa0\x85\0#", 15);
  Xoshiro256 rng(5);
  std::vector<std::string> corpus{"", " ", "a", " a ", "a\tb", "\n\na  b\n",
                                  "a\v\f\rb", "entry 0 1\t2  3\n4 rest"};
  for (int i = 0; i < 3000; ++i) {
    std::string text;
    const std::size_t length = rng.next_below(24);
    for (std::size_t j = 0; j < length; ++j) {
      text += alphabet[rng.next_below(alphabet.size())];
    }
    corpus.push_back(text);
  }
  for (const std::string& text : corpus) {
    std::vector<std::string> expected;
    {
      std::istringstream in(text);
      std::string token;
      while (in >> token) {
        expected.push_back(token);
      }
    }
    std::vector<std::string> actual;
    std::string_view rest = text;
    for (std::string_view token = next_token(rest); !token.empty();
         token = next_token(rest)) {
      actual.emplace_back(token);
    }
    ASSERT_EQ(actual, expected) << "text of " << text.size() << " bytes";
    for (std::size_t taken = 0; taken <= expected.size(); ++taken) {
      std::istringstream in(text);
      std::string token;
      for (std::size_t k = 0; k < taken; ++k) {
        in >> token;
      }
      std::string line;
      std::getline(in, line);
      std::string_view view = text;
      for (std::size_t k = 0; k < taken; ++k) {
        next_token(view);
      }
      EXPECT_EQ(std::string(view.substr(0, view.find('\n'))), line)
          << "after " << taken << " tokens";
    }
  }
}

TEST(Units, BandwidthConversion) {
  // 1e9 bytes in 1e9 ns (1 s) is 1 GB/s.
  EXPECT_DOUBLE_EQ(gb_per_s(1e9, 1e9), 1.0);
  // 100 GB in 1 s.
  EXPECT_DOUBLE_EQ(gb_per_s(100e9, 1e9), 100.0);
}

TEST(Units, GflopsConversion) {
  EXPECT_DOUBLE_EQ(gflops(2e9, 1e9), 2.0);
  EXPECT_DOUBLE_EQ(gflops(1e12, 1e9), 1000.0);  // 1 TFLOP in 1 s
}

TEST(Units, GflopsPerWatt) {
  EXPECT_DOUBLE_EQ(gflops_per_watt(200.0, 1000.0), 200.0);  // 1 W
  EXPECT_DOUBLE_EQ(gflops_per_watt(200.0, 2000.0), 100.0);  // 2 W
  EXPECT_DOUBLE_EQ(gflops_per_watt(200.0, 0.0), 0.0);       // guarded
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(16384), "16 KiB");
  EXPECT_EQ(format_bytes(8ull * kGiB), "8 GiB");
  EXPECT_EQ(format_bytes(100), "100 B");
}

TEST(Units, ApplePageSizeIs16K) { EXPECT_EQ(kApplePageSize, 16384u); }

// ------------------------------------------------------- aligned buffer ----

TEST(AlignedBuffer, AlignsToApplePage) {
  AlignedBuffer buf(100);
  EXPECT_TRUE(AlignedBuffer::is_aligned(buf.data(), kApplePageSize));
  EXPECT_EQ(buf.length(), 100u);
  EXPECT_EQ(buf.capacity(), kApplePageSize);
}

TEST(AlignedBuffer, RoundsUpToWholePages) {
  AlignedBuffer buf(kApplePageSize + 1);
  EXPECT_EQ(buf.capacity(), 2 * kApplePageSize);
  AlignedBuffer exact(3 * kApplePageSize);
  EXPECT_EQ(exact.capacity(), 3 * kApplePageSize);
}

TEST(AlignedBuffer, ZeroInitialized) {
  for (const std::size_t length :
       {std::size_t{1}, std::size_t{4096}, std::size_t{kApplePageSize + 1},
        static_cast<std::size_t>(3 * kMiB + 5)}) {
    AlignedBuffer buf(length);
    ASSERT_EQ(buf.capacity(), AlignedBuffer::round_up(length, kApplePageSize));
    const auto* bytes = static_cast<const std::uint8_t*>(buf.data());
    for (std::size_t i = 0; i < buf.capacity(); ++i) {
      ASSERT_EQ(bytes[i], 0u) << "length " << length << " byte " << i;
    }
  }
}

TEST(AlignedBuffer, HonoursAlignmentsAboveTheApplePage) {
  AlignedBuffer buf(100000, 65536);
  EXPECT_TRUE(AlignedBuffer::is_aligned(buf.data(), 65536));
  EXPECT_EQ(buf.capacity(), 2u * 65536);
  EXPECT_EQ(buf.alignment(), 65536u);
}

TEST(AlignedBuffer, ClearZeroesWrittenBytesInPlace) {
  AlignedBuffer buf(5 * kApplePageSize + 7);
  void* const data = buf.data();
  const std::size_t capacity = buf.capacity();
  auto* bytes = static_cast<std::uint8_t*>(data);
  for (const std::size_t i : {std::size_t{0}, std::size_t{4095},
                              kApplePageSize + 3, 3 * kApplePageSize,
                              capacity - 1}) {
    bytes[i] = 0xA5;
  }
  buf.clear();
  EXPECT_EQ(buf.data(), data);
  EXPECT_EQ(buf.capacity(), capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    ASSERT_EQ(bytes[i], 0u) << "byte " << i;
  }
  bytes[17] = 1;  // the cleared buffer stays writable
  EXPECT_EQ(bytes[17], 1u);
}

// True while the page at the page-aligned `ptr` belongs to some mapping.
bool is_mapped(void* ptr) {
  unsigned char resident = 0;
  return ::mincore(ptr, 1, &resident) == 0;
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(1000);
  void* ptr = a.data();
  AlignedBuffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.length(), 0u);
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_TRUE(is_mapped(ptr));
}

TEST(AlignedBuffer, MoveAssignReleasesTheTargetsMapping) {
  AlignedBuffer source(3 * kApplePageSize);
  AlignedBuffer target(2 * kApplePageSize);
  void* const moved = source.data();
  void* const old = target.data();
  static_cast<std::uint8_t*>(moved)[5] = 9;
  target = std::move(source);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.capacity(), 0u);
  EXPECT_EQ(target.data(), moved);
  EXPECT_EQ(target.capacity(), 3 * kApplePageSize);
  EXPECT_EQ(static_cast<const std::uint8_t*>(target.data())[5], 9u);
  EXPECT_FALSE(is_mapped(old));
  EXPECT_TRUE(is_mapped(moved));
}

TEST(AlignedBuffer, RejectsZeroLength) {
  EXPECT_THROW(AlignedBuffer(0), InvalidArgument);
}

TEST(AlignedBuffer, RejectsNonPowerOfTwoAlignment) {
  EXPECT_THROW(AlignedBuffer(100, 3000), InvalidArgument);
}

TEST(AlignedBuffer, TypedSpanCoversRequestedLength) {
  AlignedBuffer buf(256 * sizeof(float));
  EXPECT_EQ(buf.as_span<float>().size(), 256u);
}

// --------------------------------------------------------------- rng -------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, FloatsInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.next_float();
    ASSERT_GE(v, 0.0f);
    ASSERT_LT(v, 1.0f);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  std::vector<float> data(100000);
  fill_uniform(std::span<float>(data), 99);
  const double mean =
      std::accumulate(data.begin(), data.end(), 0.0) / data.size();
  EXPECT_NEAR(mean, 0.5, 0.01);
}

TEST(Rng, FillValueSetsEveryElement) {
  std::vector<float> data(1000, -1.0f);
  fill_value(std::span<float>(data), 3.5f);
  for (const float v : data) {
    ASSERT_EQ(v, 3.5f);
  }
}

// --------------------------------------------------------- statistics ------

TEST(SampleSet, OrderStatistics) {
  SampleSet s;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    s.add(v);
  }
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(75), 7.5);
}

TEST(SampleSet, RejectsBadPercentile) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), InvalidArgument);
  EXPECT_THROW(s.percentile(101), InvalidArgument);
}

// --------------------------------------------------------------- csv -------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, RoundTrip) {
  CsvWriter csv({"name", "value", "note"});
  csv.add_row({"alpha", "1.5", "has,comma"});
  csv.add_row({"beta", "2.0", "has \"quotes\""});
  const auto rows = parse_csv(csv.to_string());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"name", "value", "note"}));
  EXPECT_EQ(rows[1][2], "has,comma");
  EXPECT_EQ(rows[2][2], "has \"quotes\"");
}

TEST(Csv, NumericRowHelper) {
  CsvWriter csv({"k", "a", "b"});
  csv.add_row("row", {1.25, 2.5}, 2);
  const auto rows = parse_csv(csv.to_string());
  EXPECT_EQ(rows[1], (std::vector<std::string>{"row", "1.25", "2.50"}));
}

TEST(Csv, ArityMismatchThrows) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), InvalidArgument);
}

// ------------------------------------------------------- table printer -----

TEST(TablePrinter, RendersHeaderAndRows) {
  TablePrinter t({"Feature", "M1", "M4"});
  t.add_row({"Cores", "8", "10"});
  const std::string out = t.to_string("Title");
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("Feature"), std::string::npos);
  EXPECT_NE(out.find("Cores"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
}

TEST(TablePrinter, ArityEnforced) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), InvalidArgument);
}

TEST(TablePrinter, ColumnsAlign) {
  TablePrinter t({"x", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-label", "22"});
  const std::string out = t.to_string();
  // All lines between rules must have equal length.
  std::size_t expected = 0;
  std::istringstream iss(out);
  std::string line;
  while (std::getline(iss, line)) {
    if (expected == 0) {
      expected = line.size();
    }
    EXPECT_EQ(line.size(), expected);
  }
}

// ----------------------------------------------------------- charts --------

TEST(BarChart, RendersBarsAndReference) {
  BarChart chart("Bandwidth", "GB/s");
  chart.set_reference_line(100.0, "theoretical");
  chart.add_group("M1");
  chart.add_bar("Copy", 55.0);
  chart.add_bar("Triad", 59.0);
  const std::string out = chart.render(40);
  EXPECT_NE(out.find("Copy"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
  EXPECT_NE(out.find("59.0"), std::string::npos);
}

TEST(BarChart, BarBeforeGroupThrows) {
  BarChart chart("x", "u");
  EXPECT_THROW(chart.add_bar("oops", 1.0), InvalidArgument);
}

TEST(LinePlot, RendersLogLogSeries) {
  LinePlot plot("GFLOPS", "n", "GFLOPS");
  plot.set_log_x(true);
  plot.set_log_y(true);
  plot.add_series("mps", 'm', {256, 1024, 4096, 16384}, {10, 300, 2000, 2900});
  const std::string out = plot.render(60, 15);
  EXPECT_NE(out.find('m'), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(LinePlot, MismatchedSeriesThrows) {
  LinePlot plot("t", "x", "y");
  EXPECT_THROW(plot.add_series("s", 's', {1, 2}, {1}), InvalidArgument);
}

TEST(LinePlot, EmptyPlotDoesNotCrash) {
  LinePlot plot("t", "x", "y");
  EXPECT_NE(plot.render().find("no data"), std::string::npos);
}

// -------------------------------------------------------- thread pool ------

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, RunsConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> active{0};
  std::atomic<int> peak{0};
  pool.parallel_for(8, [&](std::size_t) {
    const int now = active.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    active.fetch_sub(1);
  });
  EXPECT_GE(peak.load(), 2) << "workers never overlapped";
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
  EXPECT_GE(global_pool().worker_count(), 1u);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    // Tasks that submit more tasks: the nested work must also survive the
    // drain, since in_flight_ stays positive until the whole chain ran.
    for (int i = 0; i < 32; ++i) {
      pool.submit([&counter, &pool] {
        counter.fetch_add(1);
        pool.submit([&counter] { counter.fetch_add(1); });
      });
    }
  }  // destructor = shutdown(): deterministic drain
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ShutdownIsIdempotentAndSubmitAfterThrows) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.shutdown();
  pool.shutdown();  // second call is a no-op
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(pool.submit([] {}), InvalidArgument);
}

TEST(ThreadPool, ConcurrentParallelForCallersDoNotCrossWait) {
  // Two threads issue parallel_for on the same pool; per-call latches mean
  // both complete with each caller seeing exactly its own index space.
  ThreadPool pool(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(16, [&](std::size_t) { a.fetch_add(1); });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 50; ++round) {
      pool.parallel_for(16, [&](std::size_t) { b.fetch_add(1); });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 50 * 16);
  EXPECT_EQ(b.load(), 50 * 16);
}

// ------------------------------------------------------------------- axpy ---

/// util::axpy against a scalar loop for every length 0..70 at pointer
/// offsets 0..3, so unaligned heads, every vector width's body and every
/// tail length run. Each clone must give the scalar loop's bits.
TEST(Axpy, FloatMatchesAScalarLoopBitForBit) {
  constexpr std::size_t kMaxN = 70;
  constexpr std::size_t kMaxOffset = 3;
  std::vector<float> x(kMaxN + kMaxOffset);
  std::vector<float> y0(kMaxN + kMaxOffset);
  util::fill_uniform(std::span<float>(x), 11);
  util::fill_uniform(std::span<float>(y0), 12);
  const float a = 0.7310585786300049f;
  for (std::size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (std::size_t n = 0; n <= kMaxN; ++n) {
      // x and y misaligned against each other too.
      const std::size_t y_offset = kMaxOffset - offset;
      std::vector<float> y = y0;
      std::vector<float> expected = y0;
      for (std::size_t j = 0; j < n; ++j) {
        expected[y_offset + j] += a * x[offset + j];
      }
      axpy(n, a, x.data() + offset, y.data() + y_offset);
      ASSERT_EQ(
          std::memcmp(y.data(), expected.data(), y.size() * sizeof(float)), 0)
          << "n=" << n << " offset=" << offset;
    }
  }
}

// ----------------------------------------------------------- gemm_korder ---

/// The loop gemm_korder replaces: an i-k-j sweep of axpy row updates, each
/// row of C from zero, one multiply then one add per k step.
template <typename TA, typename TC>
void axpy_rows(std::size_t m, std::size_t n, std::size_t k, const TA* a,
               std::size_t lda, const TA* b, std::size_t ldb, TC* c,
               std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    TC* c_row = c + i * ldc;
    std::fill(c_row, c_row + n, TC{0});
    for (std::size_t kk = 0; kk < k; ++kk) {
      const auto a_ik = static_cast<TC>(a[i * lda + kk]);
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ik * static_cast<TC>(b[kk * ldb + j]);
      }
    }
  }
}

/// gemm_korder against axpy_rows, bit for bit, on strided operands whose
/// first elements sit 1..15 elements past a vector boundary. C's padding
/// (the columns past n in each row of stride ldc, and the elements before
/// the first) must keep its bits. Every (m, n) pair in 1..70 runs at k 1
/// and 13, every k in 0..70 at a few (m, n) around the tile edges.
template <typename TA, typename TC>
void check_gemm_korder_matches_axpy_rows() {
  constexpr std::size_t kMax = 70;
  constexpr std::size_t kMaxShift = 15;
  std::vector<TA> a(kMaxShift + kMax * (kMax + 3));
  std::vector<TA> b(kMaxShift + kMax * (kMax + 5));
  util::fill_uniform(std::span<TA>(a), 21);
  util::fill_uniform(std::span<TA>(b), 22);
  // Mixed signs, so sums cancel and any reordering shows in the bits.
  for (std::size_t i = 0; i < a.size(); i += 3) {
    a[i] = -a[i];
  }
  for (std::size_t i = 1; i < b.size(); i += 4) {
    b[i] = -b[i];
  }
  auto check = [&](std::size_t m, std::size_t n, std::size_t k) {
    const std::size_t shift = 1 + (m + 3 * n + 7 * k) % kMaxShift;
    const std::size_t lda = k + 3;
    const std::size_t ldb = n + 5;
    const std::size_t ldc = n + 7;
    const TA* a0 = a.data() + shift;
    const TA* b0 = b.data() + kMaxShift - shift + 1;
    std::vector<TC> expected(shift + m * ldc, TC(-1.5));
    std::vector<TC> c = expected;
    axpy_rows(m, n, k, a0, lda, b0, ldb, expected.data() + shift, ldc);
    gemm_korder(m, n, k, a0, lda, b0, ldb, c.data() + shift, ldc);
    ASSERT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(TC)),
              0)
        << "m=" << m << " n=" << n << " k=" << k;
  };
  for (std::size_t m = 1; m <= kMax; ++m) {
    for (std::size_t n = 1; n <= kMax; ++n) {
      for (const std::size_t k : {1, 13}) {
        ASSERT_NO_FATAL_FAILURE(check(m, n, k));
      }
    }
  }
  for (std::size_t k = 0; k <= kMax; ++k) {
    for (const std::size_t m : {1, 4, 5, 9}) {
      for (const std::size_t n : {1, 9, 33, 64, 70}) {
        ASSERT_NO_FATAL_FAILURE(check(m, n, k));
      }
    }
  }
}

TEST(GemmKorder, FloatMatchesAxpyRowsBitForBit) {
  check_gemm_korder_matches_axpy_rows<float, float>();
}

TEST(GemmKorder, DoubleMatchesAxpyRowsBitForBit) {
  check_gemm_korder_matches_axpy_rows<double, double>();
}

TEST(GemmKorder, FloatIntoDoubleMatchesAxpyRowsBitForBit) {
  check_gemm_korder_matches_axpy_rows<float, double>();
}

}  // namespace
}  // namespace ao::util
