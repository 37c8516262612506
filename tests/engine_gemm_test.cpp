// GEMM cost-engine tests: access counts must match the closed-form reuse
// model (DESIGN.md "Cost-model semantics") and cycle counts must respond to
// bandwidth, stationarity and psum spills exactly as Table I / Section IV
// describe. A seeded differential fuzz checks every PhaseResult field
// against the naive-walk oracle (gemm_naive_walk.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/saturate.hpp"

#include "engine/gemm_engine.hpp"
#include "chunk_timeline_oracle.hpp"
#include "gemm_naive_walk.hpp"

namespace omega {
namespace {

GemmPhaseConfig base_config(const char* order, TileSizes tiles) {
  GemmPhaseConfig cfg;
  cfg.rows = 8;
  cfg.inner = 4;
  cfg.cols = 6;
  cfg.order = LoopOrder::parse(order, GnnPhase::kCombination);
  cfg.tiles = tiles;
  cfg.pes = 512;
  return cfg;
}

std::uint64_t gb_reads(const PhaseResult& r, TrafficCategory c) {
  return r.traffic.gb_for(c).reads;
}
std::uint64_t gb_writes(const PhaseResult& r, TrafficCategory c) {
  return r.traffic.gb_for(c).writes;
}

TEST(GemmEngineTest, MacsAlwaysEqualVFG) {
  for (const char* order : {"VGF", "VFG", "GVF", "GFV", "FVG", "FGV"}) {
    const auto r = run_gemm_phase(
        base_config(order, {.v = 4, .n = 1, .f = 1, .g = 3}));
    EXPECT_EQ(r.macs, 8u * 4 * 6) << order;
  }
}

TEST(GemmEngineTest, IssueStepsAreTileCountProduct) {
  // C_V = 2, C_F = 4, C_G = 2.
  const auto r =
      run_gemm_phase(base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3}));
  EXPECT_EQ(r.issue_steps, 2u * 4 * 2);
}

TEST(GemmEngineTest, OutputStationaryVGF) {
  // Table I row 1: VsGsFt — output stationary, A and W stream every cycle,
  // temporal reduction -> no psum traffic.
  const auto r =
      run_gemm_phase(base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3}));
  EXPECT_EQ(gb_reads(r, TrafficCategory::kIntermediate), 8u * 4 * 2);  // V*F*C_G
  EXPECT_EQ(gb_reads(r, TrafficCategory::kWeight), 4u * 6 * 2);        // F*G*C_V
  EXPECT_EQ(gb_writes(r, TrafficCategory::kOutput), 8u * 6);           // V*G once
  EXPECT_EQ(gb_writes(r, TrafficCategory::kPsum), 0u);
  EXPECT_EQ(gb_reads(r, TrafficCategory::kPsum), 0u);
}

TEST(GemmEngineTest, PsumSpillsWhenContractionIsNotInnermost) {
  // VFG with C_F = 4 > 1 and C_G = 2 > 1 and an RF too small to keep the
  // swept output row live: every output element spills and reloads once per
  // non-final F tile (the SPhighV energy pathology).
  auto cfg = base_config("VFG", {.v = 4, .n = 1, .f = 1, .g = 3});
  cfg.rf_elements = 2;  // live set is 2 psums/PE; only 1 fits
  const auto r = run_gemm_phase(cfg);
  EXPECT_EQ(gb_writes(r, TrafficCategory::kPsum), 8u * 6 * 3);  // V*G*(C_F-1)
  EXPECT_EQ(gb_reads(r, TrafficCategory::kPsum), 8u * 6 * 3);
  EXPECT_EQ(gb_writes(r, TrafficCategory::kOutput), 8u * 6);
}

TEST(GemmEngineTest, NoPsumWhenWholeOutputTileResident) {
  // VFG but G fully spatial (C_G = 1): the accumulators never get evicted.
  auto cfg = base_config("VFG", {.v = 4, .n = 1, .f = 1, .g = 6});
  cfg.rf_elements = 2;
  const auto r = run_gemm_phase(cfg);
  EXPECT_EQ(gb_writes(r, TrafficCategory::kPsum), 0u);
}

TEST(GemmEngineTest, RfResidentPsumsAvoidSpills) {
  // Same VFG shape, but the default 16-element RF holds the 2-psum live set
  // (C_G / T_F = 2): accumulation stays local — SP2 vs SPhighV in miniature.
  const auto r =
      run_gemm_phase(base_config("VFG", {.v = 4, .n = 1, .f = 1, .g = 3}));
  EXPECT_EQ(gb_writes(r, TrafficCategory::kPsum), 0u);
  EXPECT_EQ(gb_reads(r, TrafficCategory::kPsum), 0u);
  EXPECT_EQ(gb_writes(r, TrafficCategory::kOutput), 8u * 6);
}

TEST(GemmEngineTest, WeightStationaryGFV) {
  // Weight-stationary family: W loaded once per (G,F) tile, A streams.
  const auto r =
      run_gemm_phase(base_config("GFV", {.v = 2, .n = 1, .f = 2, .g = 2}));
  // W tiles: C_G * C_F = 3 * 2 fetches of 2*2 elements = F*G elements once.
  EXPECT_EQ(gb_reads(r, TrafficCategory::kWeight), 4u * 6);
  // A streams every step: V*F per (g,f) tile pair -> V*F*C_G.
  EXPECT_EQ(gb_reads(r, TrafficCategory::kIntermediate), 8u * 4 * 3);
}

TEST(GemmEngineTest, AFromRfRemovesLoadsAndGbReads) {
  // SP-Optimized consumer: the intermediate is already in the PEs.
  auto cfg = base_config("VFG", {.v = 4, .n = 1, .f = 4, .g = 1});
  const auto with_gb = run_gemm_phase(cfg);
  cfg.a_from_rf = true;
  const auto with_rf = run_gemm_phase(cfg);
  EXPECT_EQ(gb_reads(with_rf, TrafficCategory::kIntermediate), 0u);
  EXPECT_GT(gb_reads(with_gb, TrafficCategory::kIntermediate), 0u);
  EXPECT_LT(with_rf.cycles, with_gb.cycles);  // the t_load credit
  EXPECT_EQ(with_rf.load_cycles, 0u);
  EXPECT_GT(with_gb.load_cycles, 0u);
}

TEST(GemmEngineTest, BandwidthStallsAreMonotone) {
  auto cfg = base_config("VGF", {.v = 8, .n = 1, .f = 1, .g = 6});
  cfg.rows = 64;
  cfg.inner = 32;
  cfg.cols = 16;
  cfg.tiles = {.v = 16, .n = 1, .f = 1, .g = 16};
  std::uint64_t prev = 0;
  for (const std::size_t bw : {256u, 64u, 16u, 4u}) {
    cfg.bw_dist = bw;
    const auto r = run_gemm_phase(cfg);
    EXPECT_GE(r.cycles, prev) << "bw=" << bw;
    prev = r.cycles;
  }
}

TEST(GemmEngineTest, UnboundedBandwidthMeansNoStreamStalls) {
  const auto r =
      run_gemm_phase(base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3}));
  // Every step costs 1 plus only final-drain serialization.
  EXPECT_EQ(r.issue_steps + r.stall_cycles + r.load_cycles + r.psum_cycles +
                r.fill_cycles,
            r.cycles);
}

TEST(GemmEngineTest, DramSpillChargesDramTraffic) {
  auto cfg = base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3});
  cfg.a_in_dram = true;
  cfg.a_stream_bw = 2;
  const auto r = run_gemm_phase(cfg);
  EXPECT_EQ(gb_reads(r, TrafficCategory::kIntermediate), 0u);
  EXPECT_EQ(r.traffic.dram.reads, 8u * 4 * 2);
  // DRAM streaming at bw=2 stalls the pipeline.
  const auto on_chip =
      run_gemm_phase(base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3}));
  EXPECT_GT(r.cycles, on_chip.cycles);
}

TEST(GemmEngineTest, PartitionRoutingSeparatesTraffic) {
  auto cfg = base_config("VGF", {.v = 4, .n = 1, .f = 1, .g = 3});
  cfg.a_via_partition = true;
  const auto r = run_gemm_phase(cfg);
  EXPECT_EQ(gb_reads(r, TrafficCategory::kIntermediate), 0u);
  EXPECT_EQ(r.traffic.intermediate_partition.reads, 8u * 4 * 2);
}

TEST(GemmEngineTest, ChunkCyclesSumToTotal) {
  auto cfg = base_config("VGF", {.v = 2, .n = 1, .f = 1, .g = 3});
  cfg.chunks.rows = cfg.rows;
  cfg.chunks.cols = cfg.inner;
  cfg.chunks.row_block = 4;  // two row chunks of the V x F intermediate
  cfg.chunk_target = ChunkTarget::kMatrixA;
  const auto r = run_gemm_phase(cfg);
  const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0] + cycles[1], r.cycles);
  EXPECT_GT(cycles[0], 0u);
  EXPECT_GT(cycles[1], 0u);
}

TEST(GemmEngineTest, PartialTilesKeepTrafficExact) {
  // Extents that do not divide by the tiles: totals must still be exact.
  GemmPhaseConfig cfg;
  cfg.rows = 7;
  cfg.inner = 5;
  cfg.cols = 3;
  cfg.order = LoopOrder::parse("VGF", GnnPhase::kCombination);
  cfg.tiles = {.v = 4, .n = 1, .f = 2, .g = 2};
  cfg.pes = 64;
  const auto r = run_gemm_phase(cfg);
  EXPECT_EQ(r.macs, 7u * 5 * 3);
  EXPECT_EQ(gb_writes(r, TrafficCategory::kOutput), 7u * 3);
}

TEST(GemmEngineTest, RejectsOversizedFootprint) {
  auto cfg = base_config("VGF", {.v = 64, .n = 1, .f = 1, .g = 6});
  cfg.rows = 512;
  cfg.pes = 16;
  EXPECT_THROW(run_gemm_phase(cfg), Error);
}

TEST(GemmEngineTest, UtilizationReflectsEdgeWaste) {
  // 6 cols with T_G = 4 -> the second G tile runs half empty.
  GemmPhaseConfig cfg;
  cfg.rows = 64;
  cfg.inner = 16;
  cfg.cols = 6;
  cfg.order = LoopOrder::parse("VGF", GnnPhase::kCombination);
  cfg.tiles = {.v = 8, .n = 1, .f = 1, .g = 4};
  cfg.pes = 64;
  const auto r = run_gemm_phase(cfg);
  const double util = r.utilization(8 * 4);
  EXPECT_LT(util, 0.9);
  EXPECT_GT(util, 0.5);
}

TEST(GemmEngineTest, SaturatedNestSaturatesTailAndFill) {
  // 2^63 single-element steps overflow the cycle count; the drain tail and
  // the pipeline fill must saturate with it instead of wrapping the chunk
  // timeline back to small values (DESIGN.md "Overflow contract").
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char* order : {"VGF", "VFG", "GVF", "GFV", "FVG", "FGV"}) {
    GemmPhaseConfig cfg;
    cfg.rows = std::size_t{1} << 63;
    cfg.order = LoopOrder::parse(order, GnnPhase::kCombination);
    cfg.tiles = {.v = 1, .n = 1, .f = 1, .g = 1};
    cfg.pes = 1;
    cfg.bw_dist = 1;
    cfg.bw_red = 1;
    const auto r = run_gemm_phase(cfg);
    EXPECT_EQ(r.cycles, kMax) << order;
    ASSERT_EQ(r.chunk_cycles.size(), 1u) << order;
    EXPECT_EQ(r.chunk_cycles.expand()[0], kMax) << order;
    EXPECT_EQ(r.chunk_completion.expand()[0], kMax) << order;

    // Two row chunks: the timeline still sums (saturating) to the total.
    cfg.chunk_target = ChunkTarget::kMatrixOut;
    cfg.chunks.rows = cfg.rows;
    cfg.chunks.row_block = cfg.rows / 2;
    const auto chunked = run_gemm_phase(cfg);
    const std::vector<std::uint64_t> cycles = chunked.chunk_cycles.expand();
    ASSERT_EQ(cycles.size(), 2u) << order;
    EXPECT_EQ(sat_add_u64(cycles[0], cycles[1]), chunked.cycles) << order;
    EXPECT_EQ(chunked.chunk_completion.expand()[1], kMax) << order;
  }
}

TEST(GemmEngineTest, SaturatedPlateausCompleteAtPrefixSums) {
  // 64 chunks walked in order, each taking 2^59 or more F steps:
  // completions pass UINT64_MAX partway through the grid, inside the
  // stretches the collapse replays as runs (one row chunk per V tile; a row
  // of eight column chunks per V tile). Each chunk still completes at the
  // saturating prefix sum of the chunk durations.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const char* order : {"VFG", "VGF"}) {
    GemmPhaseConfig cfg;
    const bool row_chunks = order[1] == 'F';
    cfg.rows = row_chunks ? 64 : 8;
    cfg.inner = std::size_t{1} << (row_chunks ? 60 : 59);
    cfg.cols = row_chunks ? 1 : 8;
    cfg.order = LoopOrder::parse(order, GnnPhase::kCombination);
    cfg.tiles = {.v = 1, .n = 1, .f = 1, .g = 1};
    cfg.pes = 1;
    cfg.chunk_target = ChunkTarget::kMatrixOut;
    cfg.chunks.rows = cfg.rows;
    cfg.chunks.cols = cfg.cols;
    cfg.chunks.row_block = 1;
    cfg.chunks.col_block = 1;
    const PhaseResult r = run_gemm_phase(cfg);
    const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
    const std::vector<std::uint64_t> completion = r.chunk_completion.expand();
    ASSERT_EQ(cycles.size(), 64u) << order;
    ASSERT_EQ(completion.size(), 64u) << order;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < cycles.size(); ++i) {
      sum = sat_add_u64(sum, cycles[i]);
      EXPECT_EQ(completion[i], sum) << order << " chunk " << i;
    }
    EXPECT_LT(completion[3], kMax) << order;
    EXPECT_EQ(completion[40], kMax) << order;
    EXPECT_EQ(sum, r.cycles) << order;
  }
}

TEST(GemmEngineTest, RejectsChunksOutsideTheGrid) {
  // A chunk grid over half the rows the nest walks: the walk's chunk
  // indices run past the grid, and the engine throws rather than charge a
  // chunk its timelines do not hold. VGF row-major walks the chunks in
  // order (runs); GVF column-major goes back a chunk when G advances
  // (per-chunk accumulation) before it leaves the grid.
  const std::pair<const char*, TraversalMajor> walks[] = {
      {"VGF", TraversalMajor::kRowMajor},
      {"GVF", TraversalMajor::kColumnMajor},
  };
  for (const auto& [order, major] : walks) {
    auto cfg = base_config(order, {.v = 1, .n = 1, .f = 1, .g = 3});
    cfg.chunk_target = ChunkTarget::kMatrixOut;
    cfg.chunks.rows = cfg.rows / 2;
    cfg.chunks.cols = cfg.cols;
    cfg.chunks.row_block = 1;
    cfg.chunks.col_block = 3;
    cfg.chunks.major = major;
    try {
      (void)run_gemm_phase(cfg);
      ADD_FAILURE() << order << ": a chunk outside the grid was charged";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("is outside its 8-chunk grid"),
                std::string::npos)
          << order << ": " << e.what();
    }
  }
}

// ---- Differential fuzz against the naive walk ---------------------------

// Tile count of one loop level: 1, 2-3, 4-9 or 10-24, so every level shape
// (trivial, no middle iteration, a few middles, many middles spanning
// several chunk plateaus) shows up at every depth.
std::size_t fuzz_count(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 1;
    case 1: return 2 + rng.next_below(2);
    case 2: return 4 + rng.next_below(6);
    default: return 10 + rng.next_below(15);
  }
}

// A config whose nest is at most 24^3 steps, with a partial last tile in
// about half the dims, chunk blocks unaligned to tiles, both psum regimes,
// finite and unbounded bandwidths and every operand routing.
GemmPhaseConfig fuzz_config(Rng& rng) {
  static const char* const kOrders[] = {"VGF", "VFG", "GVF",
                                        "GFV", "FVG", "FGV"};
  GemmPhaseConfig cfg;
  cfg.order = LoopOrder::parse(kOrders[rng.next_below(6)],
                               GnnPhase::kCombination);
  const auto dim = [&](std::size_t& extent, std::size_t& tile) {
    const std::size_t count = fuzz_count(rng);
    const std::size_t full = 1 + rng.next_below(4);
    extent = (count - 1) * full + 1 + rng.next_below(full);
    tile = count == 1 ? full + rng.next_below(3) : full;  // may exceed extent
  };
  dim(cfg.rows, cfg.tiles.v);
  dim(cfg.inner, cfg.tiles.f);
  dim(cfg.cols, cfg.tiles.g);
  cfg.pes = std::min(cfg.tiles.v, cfg.rows) * std::min(cfg.tiles.f, cfg.inner) *
                std::min(cfg.tiles.g, cfg.cols) +
            rng.next_below(4);

  const auto bandwidth = [&]() -> std::size_t {
    return rng.next_below(3) == 0 ? AcceleratorConfig::kUnbounded
                                  : 1 + rng.next_below(8);
  };
  cfg.bw_dist = bandwidth();
  cfg.bw_red = bandwidth();
  static const std::size_t kRf[] = {1, 2, 3, 4, 8, 16, 64, 4096};
  cfg.rf_elements = kRf[rng.next_below(8)];

  cfg.a_from_rf = rng.next_below(4) == 0;
  cfg.out_to_rf = rng.next_below(4) == 0;
  cfg.a_stream_bw = rng.next_below(3) == 0 ? 1 + rng.next_below(8) : 0;
  cfg.out_drain_bw = rng.next_below(3) == 0 ? 1 + rng.next_below(8) : 0;
  cfg.a_in_dram = rng.next_below(4) == 0;
  cfg.out_in_dram = rng.next_below(4) == 0;
  cfg.a_via_partition = rng.next_below(4) == 0;
  cfg.out_via_partition = rng.next_below(4) == 0;
  const auto category = [&] {
    return static_cast<TrafficCategory>(rng.next_below(kNumTrafficCategories));
  };
  cfg.a_category = category();
  cfg.b_category = category();
  cfg.out_category = category();

  cfg.chunk_target = static_cast<ChunkTarget>(rng.next_below(3));
  if (cfg.chunk_target != ChunkTarget::kNone) {
    cfg.chunks.rows = cfg.rows;
    cfg.chunks.cols =
        cfg.chunk_target == ChunkTarget::kMatrixA ? cfg.inner : cfg.cols;
    const auto block = [&](std::size_t extent) {
      return rng.next_below(5) == 0 ? std::numeric_limits<std::size_t>::max()
                                    : 1 + rng.next_below(extent + 2);
    };
    cfg.chunks.row_block = block(cfg.chunks.rows);
    cfg.chunks.col_block = block(cfg.chunks.cols);
    cfg.chunks.major = rng.next_below(2) == 0 ? TraversalMajor::kRowMajor
                                              : TraversalMajor::kColumnMajor;
  }
  return cfg;
}

std::string describe(const GemmPhaseConfig& cfg) {
  std::ostringstream os;
  os << cfg.order.letters() << " V=" << cfg.rows << " F=" << cfg.inner
     << " G=" << cfg.cols << " tiles=" << cfg.tiles.v << "x" << cfg.tiles.f
     << "x" << cfg.tiles.g << " pes=" << cfg.pes << " bw=" << cfg.bw_dist
     << "/" << cfg.bw_red << " rf=" << cfg.rf_elements
     << " a_from_rf=" << cfg.a_from_rf << " out_to_rf=" << cfg.out_to_rf
     << " a_bw=" << cfg.a_stream_bw << " out_bw=" << cfg.out_drain_bw
     << " dram=" << cfg.a_in_dram << cfg.out_in_dram
     << " partition=" << cfg.a_via_partition << cfg.out_via_partition
     << " target=" << static_cast<int>(cfg.chunk_target)
     << " major=" << static_cast<int>(cfg.chunks.major)
     << " chunks=" << cfg.chunks.rows << "x" << cfg.chunks.cols
     << " blocks=" << cfg.chunks.row_block << "x" << cfg.chunks.col_block;
  return os.str();
}

void expect_same_counts(const AccessCounts& got, const AccessCounts& want,
                        const std::string& what) {
  EXPECT_EQ(got.reads, want.reads) << what << " reads";
  EXPECT_EQ(got.writes, want.writes) << what << " writes";
}

void expect_same_result(const PhaseResult& got, const PhaseResult& want,
                        const std::string& what) {
  EXPECT_EQ(got.cycles, want.cycles) << what;
  EXPECT_EQ(got.issue_steps, want.issue_steps) << what;
  EXPECT_EQ(got.load_cycles, want.load_cycles) << what;
  EXPECT_EQ(got.stall_cycles, want.stall_cycles) << what;
  EXPECT_EQ(got.psum_cycles, want.psum_cycles) << what;
  EXPECT_EQ(got.fill_cycles, want.fill_cycles) << what;
  EXPECT_EQ(got.macs, want.macs) << what;
  EXPECT_EQ(got.active_pe_cycles, want.active_pe_cycles) << what;
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    expect_same_counts(got.traffic.gb[c], want.traffic.gb[c],
                       what + " gb[" + std::to_string(c) + "]");
  }
  expect_same_counts(got.traffic.rf, want.traffic.rf, what + " rf");
  expect_same_counts(got.traffic.dram, want.traffic.dram, what + " dram");
  expect_same_counts(got.traffic.intermediate_partition,
                     want.traffic.intermediate_partition,
                     what + " partition");
}

// ---- Which way the chunk sink builds the timelines ------------------------
// The engine keeps a walk's timelines as runs while its chunk charges arrive
// in chunk order, and accumulates per chunk from the first charge that goes
// back. Two cases follow from the naive walk alone: a walk whose steps never
// go back a chunk charges in order throughout, and a walk that goes back a
// chunk when some level first advances (iteration 0 to 1, every outer level
// at 0) goes back between two steps the collapse executes itself, one
// right after the other.

std::size_t level_count(const GemmPhaseConfig& cfg, std::size_t depth) {
  switch (cfg.order.at(depth)) {
    case Dim::kV: return ceil_div(cfg.rows, std::min(cfg.tiles.v, cfg.rows));
    case Dim::kF: return ceil_div(cfg.inner, std::min(cfg.tiles.f, cfg.inner));
    default: return ceil_div(cfg.cols, std::min(cfg.tiles.g, cfg.cols));
  }
}

bool walks_in_chunk_order(const NaiveGemmWalk& naive) {
  return std::is_sorted(naive.step_chunks.begin(), naive.step_chunks.end());
}

bool goes_back_on_first_advance(const GemmPhaseConfig& cfg,
                                const NaiveGemmWalk& naive) {
  const std::vector<std::size_t>& chunks = naive.step_chunks;
  std::size_t steps_per_iteration = 1;  // of the level at `depth`
  for (std::size_t depth = 3; depth-- > 0;) {
    const std::size_t count = level_count(cfg, depth);
    if (count > 1 &&
        chunks[steps_per_iteration - 1] > chunks[steps_per_iteration]) {
      return true;
    }
    steps_per_iteration *= count;
  }
  return false;
}

// ---- Sweep-sized grids ----------------------------------------------------
// Shaped like the largest GEMM terms of the R-MAT scale-16 sweep: 65,536
// rows and grids of about 10K chunks, in both traversal majors. Each shape
// names the loop order it stands for and the sink regime it must reach.

struct SweepShape {
  const char* name;
  const char* order;
  TraversalMajor major;
  ChunkTarget target;
  std::size_t inner;
  std::size_t cols;
  TileSizes tiles;
  std::size_t row_block;
  std::size_t col_block;
  bool in_order;
};

GemmPhaseConfig sweep_config(const SweepShape& s) {
  GemmPhaseConfig cfg;
  cfg.rows = 65536;
  cfg.inner = s.inner;
  cfg.cols = s.cols;
  cfg.order = LoopOrder::parse(s.order, GnnPhase::kCombination);
  cfg.tiles = s.tiles;
  cfg.pes = s.tiles.v * s.tiles.f * s.tiles.g;
  cfg.bw_dist = 8;
  cfg.bw_red = 4;
  cfg.rf_elements = 4;
  cfg.chunk_target = s.target;
  cfg.chunks.rows = cfg.rows;
  cfg.chunks.cols = s.target == ChunkTarget::kMatrixA ? cfg.inner : cfg.cols;
  cfg.chunks.row_block = s.row_block;
  cfg.chunks.col_block = s.col_block;
  cfg.chunks.major = s.major;
  return cfg;
}

TEST(GemmEngineTest, MatchesNaiveWalkOnSweepSizedGrids) {
  constexpr auto kRow = TraversalMajor::kRowMajor;
  constexpr auto kCol = TraversalMajor::kColumnMajor;
  constexpr auto kOut = ChunkTarget::kMatrixOut;
  constexpr auto kA = ChunkTarget::kMatrixA;
  const TileSizes wide_v{.v = 12, .n = 1, .f = 4, .g = 8};
  const TileSizes wide_g{.v = 4, .n = 1, .f = 4, .g = 32};
  const SweepShape shapes[] = {
      // Each V tile fills one row block, its G tiles walk the columns.
      {"in order, row-major", "VGF", kRow, kOut, 16, 64, wide_v, 12, 32, true},
      // One G tile per column block; three V tiles per row block replay
      // as one run.
      {"in order, column-major", "GVF", kCol, kOut, 16, 64, wide_g, 12, 32,
       true},
      {"in order, row-major A", "VFG", kRow, kA, 32, 16,
       {.v = 12, .n = 1, .f = 16, .g = 8}, 12, 16, true},
      // The minor axis outside the major one.
      {"transposed, row-major", "GVF", kRow, kOut, 16, 64, wide_v, 12, 32,
       false},
      {"transposed, column-major", "VGF", kCol, kOut, 16, 64, wide_g, 12, 32,
       false},
      // The contraction outside a level that moves the chunk.
      {"revisiting, row-major", "FVG", kRow, kOut, 16, 64, wide_v, 12, 32,
       false},
      {"revisiting, column-major", "VFG", kCol, kOut, 16, 64, wide_g, 12, 32,
       false},
      // Eight V tiles per row block, each walking the block's columns.
      {"revisiting rows, row-major A", "VFG", kRow, kA, 64, 16,
       {.v = 2, .n = 1, .f = 16, .g = 8}, 16, 16, false},
  };
  for (const SweepShape& shape : shapes) {
    const GemmPhaseConfig cfg = sweep_config(shape);
    const std::string what = std::string(shape.name) + ": " + describe(cfg);
    const NaiveGemmWalk naive = naive_gemm_walk(cfg);
    const PhaseResult got = run_gemm_phase(cfg);
    EXPECT_GT(naive.chunk_cycles.size(), 10000u) << what;
    expect_same_result(got, naive.result, what);
    EXPECT_EQ(got.chunk_cycles.expand(), naive.chunk_cycles) << what;
    EXPECT_EQ(got.chunk_completion.expand(), naive.chunk_completion) << what;
    if (shape.in_order) {
      EXPECT_TRUE(walks_in_chunk_order(naive)) << what;
    } else {
      EXPECT_TRUE(goes_back_on_first_advance(cfg, naive)) << what;
    }
  }
}

constexpr int kFuzzConfigs = 8000;

TEST(GemmEngineTest, MatchesNaiveWalkOnFuzzedConfigs) {
  Rng rng(24);
  int psum_spills = 0;
  int multi_chunk = 0;
  int long_levels = 0;
  int in_order_sinks = 0;
  int per_chunk_sinks = 0;
  for (int i = 0; i < kFuzzConfigs; ++i) {
    const GemmPhaseConfig cfg = fuzz_config(rng);
    const std::string what = "config " + std::to_string(i) + ": " + describe(cfg);
    const NaiveGemmWalk naive = naive_gemm_walk(cfg);
    const PhaseResult& want = naive.result;
    const PhaseResult got = run_gemm_phase(cfg);
    expect_same_result(got, want, what);
    // The compact timelines expand to the walk's per-chunk values.
    EXPECT_EQ(got.chunk_cycles.expand(), naive.chunk_cycles) << what;
    EXPECT_EQ(got.chunk_completion.expand(), naive.chunk_completion) << what;
    if (::testing::Test::HasFailure()) break;  // one config's diff is enough
    psum_spills += want.psum_cycles > 0;
    multi_chunk += naive.chunk_cycles.size() > 1;
    long_levels += ceil_div(cfg.rows, cfg.tiles.v) >= 10 &&
                   ceil_div(cfg.cols, cfg.tiles.g) >= 4;
    if (naive.chunk_cycles.size() > 1) {
      in_order_sinks += walks_in_chunk_order(naive);
      per_chunk_sinks += goes_back_on_first_advance(cfg, naive);
    }
  }
  // The generator reaches the corners the collapse must get right,
  // including both ways the chunk sink builds a multi-chunk timeline.
  EXPECT_GT(psum_spills, kFuzzConfigs / 20);
  EXPECT_GT(multi_chunk, kFuzzConfigs / 4);
  EXPECT_GT(long_levels, kFuzzConfigs / 20);
  EXPECT_GT(in_order_sinks, kFuzzConfigs / 20);
  EXPECT_GT(per_chunk_sinks, kFuzzConfigs / 20);
}

TEST(GemmEngineTest, FuzzedResultsKeepChunkInvariants) {
  Rng rng(2024);
  for (int i = 0; i < kFuzzConfigs; ++i) {
    const GemmPhaseConfig cfg = fuzz_config(rng);
    const std::string what = "config " + std::to_string(i) + ": " + describe(cfg);
    const PhaseResult r = run_gemm_phase(cfg);
    EXPECT_EQ(r.macs, static_cast<std::uint64_t>(cfg.rows) * cfg.inner * cfg.cols)
        << what;
    const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
    const std::vector<std::uint64_t> completion = r.chunk_completion.expand();
    std::uint64_t sum = 0;
    for (const std::uint64_t c : cycles) sum = sat_add_u64(sum, c);
    EXPECT_EQ(sum, r.cycles) << what;
    ASSERT_FALSE(completion.empty()) << what;
    EXPECT_EQ(completion.size(), cycles.size()) << what;
    EXPECT_TRUE(std::is_sorted(completion.begin(), completion.end())) << what;
    EXPECT_EQ(completion.back(), r.cycles) << what;
    // Compression is canonical: a timeline round-trips through its
    // expansion unchanged.
    EXPECT_EQ(compress_durations(cycles), r.chunk_cycles) << what;
    EXPECT_EQ(compress_completions(completion), r.chunk_completion)
        << what;
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace omega
