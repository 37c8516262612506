#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"
#include "util/table.hpp"

namespace omega {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);  // all of -2..2 should appear
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, LognormalIsPositiveAndSkewed) {
  Rng rng(13);
  double max_v = 0, sum = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.lognormal(0.0, 1.5);
    EXPECT_GT(x, 0.0);
    max_v = std::max(max_v, x);
    sum += x;
  }
  // Heavy tail: the max should dwarf the mean.
  EXPECT_GT(max_v, 10.0 * (sum / n));
}

TEST(RngTest, WeightedIndexHonorsZeros) {
  Rng rng(17);
  const std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(w), 1u);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), Error);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  Rng rng(19);
  const DiscreteSampler sampler({1.0, 3.0});
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += (sampler.sample(rng) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(FormatTest, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
}

TEST(FormatTest, SiSuffix) {
  EXPECT_EQ(si_suffix(950.0, 0), "950");
  EXPECT_EQ(si_suffix(1536.0), "1.54K");
  EXPECT_EQ(si_suffix(-2.5e9, 1), "-2.5G");
}

TEST(FormatTest, FixedAndPadding) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(FormatTest, SplitTrimLower) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_TRUE(starts_with("PP_AC", "PP"));
  EXPECT_FALSE(starts_with("PP", "PP_AC"));
}

TEST(TableTest, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, CsvEscaping) {
  TextTable t({"a", "b"});
  t.add_row({"x,y", "q\"z"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"z\""), std::string::npos);
}

TEST(ParallelTest, PropagatesExceptions) {
  EXPECT_THROW(parallel_blocks(
                   100,
                   [](std::size_t begin, std::size_t end) {
                     for (std::size_t i = begin; i < end; ++i) {
                       if (i == 57) throw InvalidArgumentError("boom");
                     }
                   },
                   4, /*grain=*/1),
               Error);
}

TEST(ParallelTest, BlocksPartitionExactly) {
  std::atomic<std::size_t> total{0};
  parallel_blocks(
      1000, [&](std::size_t b, std::size_t e) { total += e - b; }, 8);
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ParallelTest, ZeroAndOneElement) {
  int calls = 0;
  std::size_t covered = 0;
  const auto body = [&](std::size_t begin, std::size_t end) {
    ++calls;
    covered += end - begin;
  };
  parallel_blocks(0, body);
  EXPECT_EQ(calls, 0);
  parallel_blocks(1, body);  // one block: runs inline on the caller
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(covered, 1u);
}

TEST(ParallelTest, ParallelBlocksCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1013);
  parallel_blocks(
      hits.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) hits[i]++;
      },
      4, /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// The single-core CI path runs the global pool inline, so exercise the
// worker threads with an explicitly sized pool.
TEST(ThreadPoolTest, ExplicitWorkersCoverAllIndices) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(4099);
  auto body = [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i]++;
  };
  using Body = decltype(body);
  pool.run_blocks(
      hits.size(),
      [](void* ctx, std::size_t b, std::size_t e) {
        (*static_cast<Body*>(ctx))(b, e);
      },
      &body, 0, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReusedAcrossManyJobs) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    pool.run_blocks(
        100,
        [](void* ctx, std::size_t b, std::size_t e) {
          static_cast<std::atomic<std::uint64_t>*>(ctx)->fetch_add(e - b);
        },
        &total, 0, 3);
  }
  EXPECT_EQ(total.load(), 20000u);
}

TEST(ThreadPoolTest, WorkerExceptionPropagates) {
  ThreadPool pool(3);
  auto body = [](std::size_t begin, std::size_t) {
    if (begin >= 500) throw InvalidArgumentError("boom from worker");
  };
  using Body = decltype(body);
  EXPECT_THROW(pool.run_blocks(
                   1000,
                   [](void* ctx, std::size_t b, std::size_t e) {
                     (*static_cast<Body*>(ctx))(b, e);
                   },
                   &body, 0, 10),
               Error);
}

TEST(ErrorTest, CheckMacroThrowsWithContext) {
  try {
    OMEGA_CHECK(1 == 2, "custom detail");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail"), std::string::npos);
  }
}

// ---- Strict numeric parsing (flags and bench knobs) -------------------------

TEST(ParseTest, CountTakesDecimalDigitsUpToMax) {
  EXPECT_EQ(parse_count("0", "--n"), 0u);
  EXPECT_EQ(parse_count("18446744073709551615", "--n"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_count("65535", "--port", 65535), 65535u);
  for (const char* bad : {"", "-1", "+1", "5x", " 5", "1.5", "abc",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)parse_count(bad, "--n"), InvalidArgumentError) << bad;
  }
  try {
    (void)parse_count("70000", "--port", 65535);
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("--port wants an integer in 0-65535"),
              std::string::npos);
  }
}

TEST(ParseTest, NumberMustParseWholeAndFinite) {
  EXPECT_DOUBLE_EQ(parse_number("0.25", "--scale"), 0.25);
  EXPECT_DOUBLE_EQ(parse_number("-3", "--scale"), -3.0);
  EXPECT_DOUBLE_EQ(parse_number("1e3", "--scale"), 1000.0);
  for (const char* bad : {"", "abc", "0.001ms", "nan", "inf", "1e999"}) {
    EXPECT_THROW((void)parse_number(bad, "OMEGA_X"), InvalidArgumentError)
        << bad;
  }
  try {
    (void)parse_number("abc", "OMEGA_SERVICE_GATE_P99_MS");
    FAIL() << "should have thrown";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("OMEGA_SERVICE_GATE_P99_MS"),
              std::string::npos);
  }
}

// ---- JSON writer/reader -----------------------------------------------------

TEST(JsonWriterTest, EscapesStringsEverywhere) {
  // The bug class the shared writer fixes: names with quotes/backslashes/
  // control characters used to be interpolated raw into JSON output.
  JsonWriter w;
  w.begin_object();
  w.member("na\"me", "a\\b\n\t\x01" "c");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"na\\\"me\":\"a\\\\b\\n\\t\\u0001c\"}");
  // And the escaped document parses back to the original bytes.
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.find("na\"me")->as_string(), "a\\b\n\t\x01" "c");
}

TEST(JsonWriterTest, CompactAndPrettyDocuments) {
  JsonWriter c;
  c.begin_object();
  c.member("a", std::uint64_t{1});
  c.key("b").begin_array().value(true).null().value(2.5).end_array();
  c.end_object();
  EXPECT_EQ(c.str(), "{\"a\":1,\"b\":[true,null,2.5]}");
  EXPECT_EQ(c.str().find('\n'), std::string::npos);  // NDJSON-safe

  JsonWriter p(2);
  p.begin_object();
  p.member("a", std::uint64_t{1});
  p.end_object();
  EXPECT_EQ(p.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriterTest, NumbersRoundTripExactly) {
  // Shortest-round-trip doubles and exact u64 (above the 2^53 mantissa).
  const double tricky = 0.1 + 0.2;
  JsonWriter w;
  w.begin_object();
  w.member("d", tricky);
  w.member("u", std::uint64_t{18446744073709551615ull});
  w.end_object();
  const JsonValue v = JsonValue::parse(w.str());
  EXPECT_EQ(v.find("d")->as_double(), tricky);
  EXPECT_EQ(v.find("u")->as_u64(), 18446744073709551615ull);
  // NaN/Inf are unrepresentable; the writer degrades to null.
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(JsonParseTest, MalformedDocumentsThrow) {
  EXPECT_THROW(JsonValue::parse(""), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("{"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("[1 2]"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("tru"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), InvalidArgumentError);
  EXPECT_THROW(JsonValue::parse("1.5.2"), InvalidArgumentError);
  // Kind mismatches throw with the expected kind named.
  const JsonValue v = JsonValue::parse("{\"a\":1}");
  EXPECT_THROW((void)v.find("a")->as_string(), InvalidArgumentError);
  EXPECT_THROW((void)v.as_bool(), InvalidArgumentError);
  // Fractional numbers refuse exact-integer access.
  EXPECT_THROW((void)JsonValue::parse("1.5").as_u64(), InvalidArgumentError);
  // Integers past 2^64-1 throw instead of silently truncating or wrapping
  // (DESIGN.md "Overflow contract"): 2^64 parses as a double but has no
  // exact u64 value.
  EXPECT_THROW((void)JsonValue::parse("18446744073709551616").as_u64(),
               InvalidArgumentError);
  EXPECT_THROW((void)JsonValue::parse("-1").as_u64(), InvalidArgumentError);
}

TEST(JsonParseTest, UnicodeEscapes) {
  // BMP escape and a surrogate pair, decoded to UTF-8.
  const JsonValue v = JsonValue::parse(R"("a\u00e9\ud83d\ude00b")");
  EXPECT_EQ(v.as_string(), "a\xc3\xa9\xf0\x9f\x98\x80" "b");
  EXPECT_THROW(JsonValue::parse(R"("\ud83d")"), InvalidArgumentError);
}

TEST(JsonParseTest, NestedStructures) {
  const JsonValue v = JsonValue::parse(
      R"({"list":[{"x":1},{"x":2}],"deep":{"a":{"b":[null,false]}}})");
  EXPECT_EQ(v.find("list")->items()[1].find("x")->as_u64(), 2u);
  EXPECT_TRUE(
      v.find("deep")->find("a")->find("b")->items()[0].is_null());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(SaturateTest, AddBoundaries) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(sat_add_u64(0, 0), 0u);
  EXPECT_EQ(sat_add_u64(kMax, 0), kMax);
  EXPECT_EQ(sat_add_u64(kMax - 1, 1), kMax);  // exact, no clamp yet
  EXPECT_EQ(sat_add_u64(kMax, 1), kMax);      // clamps
  EXPECT_EQ(sat_add_u64(kMax, kMax), kMax);
  EXPECT_EQ(sat_add_u64(kMax / 2, kMax / 2 + 1), kMax);  // exact: 2^64-1
}

TEST(SaturateTest, MulBoundaries) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kHalfUp = kMax / 2 + 1;  // 2^63
  EXPECT_EQ(sat_mul_u64(kMax, 0), 0u);
  EXPECT_EQ(sat_mul_u64(kMax, 1), kMax);
  EXPECT_EQ(sat_mul_u64(kMax, 2), kMax);        // clamps
  EXPECT_EQ(sat_mul_u64(kHalfUp, 1), kHalfUp);  // exact at 2^63
  EXPECT_EQ(sat_mul_u64(kHalfUp, 2), kMax);     // 2^64 clamps
  EXPECT_EQ(sat_mul_u64(kHalfUp, kHalfUp), kMax);
  EXPECT_EQ(sat_mul_u64(1u << 31, 1u << 31), 1ull << 62);  // exact, no clamp
}

TEST(SaturateTest, SubClampsAtZero) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(sat_sub_u64(5, 3), 2u);
  EXPECT_EQ(sat_sub_u64(3, 5), 0u);
  EXPECT_EQ(sat_sub_u64(0, kMax), 0u);
  EXPECT_EQ(sat_sub_u64(kMax, kMax), 0u);
}

}  // namespace
}  // namespace omega
