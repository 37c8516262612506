// ChunkSpec grid logic and chunk-timeline invariants across the engines.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"

#include "engine/gemm_engine.hpp"
#include "engine/spmm_engine.hpp"
#include "graph/generators.hpp"

#include "chunk_timeline_oracle.hpp"

namespace omega {
namespace {

TEST(ChunkSpecTest, WholeCoversEverythingInOneChunk) {
  const ChunkSpec s = ChunkSpec::whole(100, 64);
  EXPECT_EQ(s.num_chunks(), 1u);
  EXPECT_EQ(s.chunk_of(0, 0), 0u);
  EXPECT_EQ(s.chunk_of(99, 63), 0u);
}

TEST(ChunkSpecTest, RowMajorGrid) {
  ChunkSpec s;
  s.rows = 100;
  s.cols = 64;
  s.row_block = 25;
  s.col_block = 32;
  s.major = TraversalMajor::kRowMajor;
  EXPECT_EQ(s.row_blocks(), 4u);
  EXPECT_EQ(s.col_blocks(), 2u);
  EXPECT_EQ(s.num_chunks(), 8u);
  EXPECT_EQ(s.chunk_of(0, 0), 0u);
  EXPECT_EQ(s.chunk_of(0, 32), 1u);
  EXPECT_EQ(s.chunk_of(25, 0), 2u);
  EXPECT_EQ(s.chunk_of(99, 63), 7u);
}

TEST(ChunkSpecTest, ColumnMajorGrid) {
  ChunkSpec s;
  s.rows = 100;
  s.cols = 64;
  s.row_block = 50;
  s.col_block = 16;
  s.major = TraversalMajor::kColumnMajor;
  EXPECT_EQ(s.num_chunks(), 8u);
  EXPECT_EQ(s.chunk_of(0, 0), 0u);
  EXPECT_EQ(s.chunk_of(50, 0), 1u);   // next row block, same column
  EXPECT_EQ(s.chunk_of(0, 16), 2u);   // next column block
}

TEST(ChunkSpecTest, RaggedTailBlocks) {
  ChunkSpec s;
  s.rows = 10;
  s.cols = 7;
  s.row_block = 4;
  s.col_block = 3;
  EXPECT_EQ(s.row_blocks(), 3u);  // 4+4+2
  EXPECT_EQ(s.col_blocks(), 3u);  // 3+3+1
  EXPECT_EQ(s.chunk_of(9, 6), 8u);
}

// ---- Run-length encoding ----------------------------------------------------

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
using Values = std::vector<std::uint64_t>;

std::size_t count_runs(const Values& v) {
  std::size_t runs = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    runs += i == 0 || v[i] != v[i - 1] ? 1 : 0;
  }
  return runs;
}

TEST(ChunkTimelineTest, RoundTripsEdgeCases) {
  const ChunkTimeline empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.expand().empty());
  EXPECT_EQ(empty.bytes(), 0u);

  // One chunk, one run, and one run over many chunks.
  for (const Values& v :
       {Values{7}, Values{kMax}, Values(5000, 3), Values(3, kMax)}) {
    const ChunkTimeline d = compress_durations(v);
    EXPECT_EQ(d.runs(), 1u);
    EXPECT_EQ(d.size(), v.size());
    EXPECT_EQ(d.bytes(), 12u);
    EXPECT_EQ(d.expand(), v);
  }
  // Saturated completions: everything from the first UINT64_MAX on.
  const Values saturated{kMax, kMax, kMax};
  const ChunkTimeline c = compress_completions(saturated);
  EXPECT_EQ(c.runs(), 2u);  // increments kMax, 0, 0
  EXPECT_EQ(c.expand(), saturated);
  const Values ramp{1, kMax - 1, kMax, kMax};
  EXPECT_EQ(compress_completions(ramp).expand(), ramp);
  // A linear stretch is one run of its increment.
  EXPECT_EQ(compress_completions(Values{4, 8, 12, 16}).runs(), 1u);
  EXPECT_THROW((void)compress_completions(Values{5, 4}), Error);

  // Durations read as back-to-back completions expand to prefix sums.
  const ChunkTimeline d = compress_durations(Values{2, 2, 5});
  EXPECT_EQ(d.back_to_back_completions().expand(), (Values{2, 4, 9}));
  // Appending zero chunks is a no-op; equal values extend the last run.
  ChunkTimeline a;
  a.append(9, 0);
  EXPECT_TRUE(a.empty());
  a.append(9, 2);
  a.append(9);
  EXPECT_EQ(a.runs(), 1u);
  EXPECT_EQ(a, compress_durations(Values{9, 9, 9}));
}

TEST(ChunkTimelineTest, RoundTripFuzz) {
  Rng rng(4);
  const std::uint64_t picks[] = {0, 1, 2, 17, 1u << 20, kMax / 2, kMax - 1,
                                 kMax};
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t n = 1 + rng.next_below(trial % 5 == 0 ? 2 : 300);
    std::vector<std::uint64_t> v;
    while (v.size() < n) {
      const std::uint64_t x = picks[rng.next_below(std::size(picks))];
      const std::size_t len = 1 + rng.next_below(12);
      for (std::size_t k = 0; k < len && v.size() < n; ++k) v.push_back(x);
    }
    const ChunkTimeline d = compress_durations(v);
    ASSERT_EQ(d.expand(), v) << "trial " << trial;
    EXPECT_EQ(d.size(), n);
    EXPECT_EQ(d.runs(), count_runs(v));
    EXPECT_EQ(d.bytes(), 12 * d.runs());
    // Chunk-at-a-time appends build the same canonical runs.
    ChunkTimeline appended;
    for (const std::uint64_t x : v) appended.append(x);
    EXPECT_EQ(appended, d);

    // Completions: the saturating prefix sums of the same values.
    std::vector<std::uint64_t> done(v.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      total = sat_add_u64(total, v[i]);
      done[i] = total;
    }
    const ChunkTimeline c = compress_completions(done);
    ASSERT_EQ(c.expand(), done) << "trial " << trial;
    EXPECT_EQ(c.size(), n);
    if (total < kMax) {
      EXPECT_EQ(c, d.back_to_back_completions());
    }
  }
}

TEST(ChunkTimelineTest, GemmCompletionsArePrefixSumsWhenMonotone) {
  GemmPhaseConfig cfg;
  cfg.rows = 32;
  cfg.inner = 8;
  cfg.cols = 8;
  cfg.order = LoopOrder::parse("VGF", GnnPhase::kCombination);
  cfg.tiles = {.v = 8, .n = 1, .f = 1, .g = 8};
  cfg.pes = 64;
  cfg.chunks.rows = 32;
  cfg.chunks.cols = 8;
  cfg.chunks.row_block = 8;
  cfg.chunk_target = ChunkTarget::kMatrixA;
  const PhaseResult r = run_gemm_phase(cfg);
  ASSERT_EQ(r.chunk_cycles.size(), 4u);
  const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
  const std::vector<std::uint64_t> completion = r.chunk_completion.expand();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    cum += cycles[i];
    EXPECT_EQ(completion[i], cum) << i;
  }
  EXPECT_EQ(cum, r.cycles);
}

TEST(ChunkTimelineTest, RevisitingProducerCompletesLate) {
  // CA-style producer GVF with T_G=1 sweeps all row blocks once per G
  // value: every chunk's completion lands in the LAST sweep, far after the
  // first visit.
  GemmPhaseConfig cfg;
  cfg.rows = 64;
  cfg.inner = 16;
  cfg.cols = 4;  // 4 G-sweeps
  cfg.order = LoopOrder::parse("GVF", GnnPhase::kCombination);
  cfg.tiles = {.v = 16, .n = 1, .f = 1, .g = 1};
  cfg.pes = 64;
  cfg.chunks.rows = 64;   // intermediate is V x G
  cfg.chunks.cols = 4;
  cfg.chunks.row_block = 16;
  cfg.chunks.col_block = 4;  // handoff width covers all of G
  cfg.chunks.major = TraversalMajor::kColumnMajor;
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  const PhaseResult r = run_gemm_phase(cfg);
  ASSERT_EQ(r.chunk_cycles.size(), 4u);
  const std::vector<std::uint64_t> completion = r.chunk_completion.expand();
  // Even the first chunk (rows 0-15, all G) completes only in the final
  // G sweep: later than 3/4 of the run.
  EXPECT_GT(completion[0], r.cycles * 3 / 4);
  // Completions are ordered by final-sweep traversal.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(completion[i], completion[i - 1]);
  }
}

TEST(ChunkTimelineTest, SpmmCompletionsMatchDurations) {
  Rng rng(5);
  const CSRGraph g = erdos_renyi(60, 240, rng).with_self_loops();
  SpmmPhaseConfig cfg;
  cfg.graph = &g;
  cfg.feat = 16;
  cfg.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  cfg.tiles = {.v = 4, .n = 1, .f = 8, .g = 1};
  cfg.pes = 64;
  cfg.chunks.rows = 60;
  cfg.chunks.cols = 16;
  cfg.chunks.row_block = 12;
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  const PhaseResult r = run_spmm_phase(cfg);
  ASSERT_EQ(r.chunk_cycles.size(), 5u);
  const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
  const std::vector<std::uint64_t> completion = r.chunk_completion.expand();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    cum += cycles[i];
    EXPECT_EQ(completion[i], cum);
  }
  EXPECT_EQ(cum, r.cycles);
}

TEST(ChunkTimelineTest, ElementGranularitySplitsRowBlocks) {
  const CSRGraph g = star_graph(15);  // 16 vertices
  SpmmPhaseConfig cfg;
  cfg.graph = &g;
  cfg.feat = 8;
  cfg.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  cfg.tiles = {.v = 4, .n = 1, .f = 4, .g = 1};
  cfg.pes = 64;
  cfg.chunks.rows = 16;
  cfg.chunks.cols = 8;
  cfg.chunks.row_block = 4;
  cfg.chunks.col_block = 4;
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  const PhaseResult r = run_spmm_phase(cfg);
  ASSERT_EQ(r.chunk_cycles.size(), 8u);  // 4 row blocks x 2 col blocks
  const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
  std::uint64_t sum = 0;
  for (const auto c : cycles) sum += c;
  EXPECT_EQ(sum, r.cycles);
  // The hub's row block dominates the rest.
  const std::uint64_t hub = cycles[0] + cycles[1];
  const std::uint64_t leaf = cycles[6] + cycles[7];
  EXPECT_GT(hub, leaf);
}

}  // namespace
}  // namespace omega
