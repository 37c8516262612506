// SpMM cost-engine tests: ragged lockstep ("evil rows"), CSR metadata
// traffic, psum behaviour, and the scatter (CA-style) traversal family.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "engine/spmm_engine.hpp"
#include "graph/generators.hpp"

namespace omega {
namespace {

SpmmPhaseConfig base_config(const CSRGraph& g, const char* order,
                            TileSizes tiles, std::size_t feat) {
  SpmmPhaseConfig cfg;
  cfg.graph = &g;
  cfg.feat = feat;
  cfg.order = LoopOrder::parse(order, GnnPhase::kAggregation);
  cfg.tiles = tiles;
  cfg.pes = 512;
  return cfg;
}

TEST(SpmmEngineTest, MacsEqualEdgesTimesFeatures) {
  const CSRGraph g = paper_example_graph();
  for (const char* order : {"VFN", "VNF", "FVN", "NVF", "NFV", "FNV"}) {
    const auto r = run_spmm_phase(
        base_config(g, order, {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
    EXPECT_EQ(r.macs, g.num_edges() * 4) << order;
  }
}

TEST(SpmmEngineTest, InputReadsEqualEdgesTimesFeatures) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kInput).reads,
            g.num_edges() * 4);
}

TEST(SpmmEngineTest, LockstepImbalanceOnStarGraph) {
  // Star: hub degree 8, leaves degree 1. With T_V = 3 and T_N = 1, the tile
  // containing the hub takes 8 steps while its leaves idle.
  const CSRGraph g = star_graph(8);  // 9 vertices, 16 edges
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 3, .n = 1, .f = 1, .g = 1}, 2));
  // Tiles {0,1,2}: max deg 8; {3,4,5}: 1; {6,7,8}: 1. C_F = 2.
  EXPECT_EQ(r.issue_steps, 2u * (8 + 1 + 1));
  // Dynamic utilization is dominated by idle leaf lanes.
  EXPECT_LT(r.utilization(3), 0.7);
}

TEST(SpmmEngineTest, SpatialNeighborsReduceSteps) {
  const CSRGraph g = star_graph(8);
  const auto temporal = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 1, .f = 1, .g = 1}, 2));
  const auto spatial = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 4, .f = 1, .g = 1}, 2));
  // ceil(8/4) + 8*ceil(1/4) vs 8 + 8 per feature tile.
  EXPECT_LT(spatial.issue_steps, temporal.issue_steps);
  EXPECT_EQ(temporal.issue_steps, 2u * (8 + 8));
  EXPECT_EQ(spatial.issue_steps, 2u * (2 + 8));
}

TEST(SpmmEngineTest, AdjacencyReadsScaleWithFRevisits) {
  const CSRGraph g = paper_example_graph();  // E = 11, V = 5
  const std::size_t feat = 4;
  // VFN: F outside N -> edge ids re-fetched per feature tile (C_F = 2).
  const auto vfn = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, feat));
  // VNF: F inside N -> ids fetched once.
  const auto vnf = run_spmm_phase(
      base_config(g, "VNF", {.v = 2, .n = 1, .f = 2, .g = 1}, feat));
  const std::uint64_t vfn_adj =
      vfn.traffic.gb_for(TrafficCategory::kAdjacency).reads;
  const std::uint64_t vnf_adj =
      vnf.traffic.gb_for(TrafficCategory::kAdjacency).reads;
  EXPECT_GT(vfn_adj, vnf_adj);
  // VFN: E ids per f-tile (2) + V row pointers; VNF: E ids + V pointers.
  EXPECT_EQ(vfn_adj, 11u * 2 + 5);
  EXPECT_EQ(vnf_adj, 11u + 5);
}

TEST(SpmmEngineTest, WeightedGraphDoublesMetadata) {
  const CSRGraph g = paper_example_graph().gcn_normalized();
  const auto r = run_spmm_phase(
      base_config(g, "VNF", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  // id + value per edge, plus V row pointers.
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kAdjacency).reads, 2u * 11 + 5);
}

TEST(SpmmEngineTest, VnfSpillsPsumsAcrossNeighborChunks) {
  // VNF with multiple F tiles and an RF too small to hold the feature row:
  // the F sweep inside each neighbor step evicts accumulators between
  // neighbor chunks.
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "VNF", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  cfg.rf_elements = 2;  // live set is feat/(T_N*T_F) = 2 psums; only 1 fits
  const auto r = run_spmm_phase(cfg);
  // Per vertex: F * (deg - 1) spill pairs; total = F * (E - V).
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).writes, 4u * (11 - 5));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).reads, 4u * (11 - 5));
  // VFN (N innermost) must not spill even with the tiny RF.
  auto vfn_cfg = base_config(g, "VFN", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  vfn_cfg.rf_elements = 2;
  const auto vfn = run_spmm_phase(vfn_cfg);
  EXPECT_EQ(vfn.traffic.gb_for(TrafficCategory::kPsum).writes, 0u);
  // With the default 16-element RF the whole 4-feature row stays live.
  const auto roomy = run_spmm_phase(
      base_config(g, "VNF", {.v = 1, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(roomy.traffic.gb_for(TrafficCategory::kPsum).writes, 0u);
}

TEST(SpmmEngineTest, OutputWritesOncePerElement) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4));
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).writes, 5u * 4);
}

TEST(SpmmEngineTest, OutToRfSuppressesDrains) {
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4);
  cfg.bw_red = 1;  // make output drains visible in the throughput bound
  cfg.out_to_rf = true;
  const auto r = run_spmm_phase(cfg);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).writes, 0u);
  auto gb_cfg = base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 4);
  gb_cfg.bw_red = 1;
  const auto gb = run_spmm_phase(gb_cfg);
  EXPECT_LT(r.cycles, gb.cycles);
  EXPECT_GT(gb.traffic.gb_for(TrafficCategory::kIntermediate).writes, 0u);
}

TEST(SpmmEngineTest, ScatterMacsMatchGather) {
  Rng rng(31);
  const CSRGraph g = erdos_renyi(40, 200, rng).with_self_loops();
  const auto gather = run_spmm_phase(
      base_config(g, "VFN", {.v = 2, .n = 1, .f = 2, .g = 1}, 6));
  const auto scatter = run_spmm_phase(
      base_config(g, "NFV", {.v = 1, .n = 2, .f = 2, .g = 1}, 6));
  EXPECT_EQ(gather.macs, scatter.macs);
}

TEST(SpmmEngineTest, ScatterAccumulatesThroughPsumRmw) {
  const CSRGraph g = paper_example_graph();
  const auto r = run_spmm_phase(
      base_config(g, "NFV", {.v = 1, .n = 1, .f = 2, .g = 1}, 4));
  const std::uint64_t updates = 11u * 4;   // one RMW per (edge, feature)
  const std::uint64_t out = 5u * 4;
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kPsum).writes, updates - out);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kOutput).writes +
                r.traffic.gb_for(TrafficCategory::kIntermediate).writes,
            out);
}

TEST(SpmmEngineTest, BFromRfRemovesGbInputReads) {
  const CSRGraph g = paper_example_graph();
  auto cfg = base_config(g, "NFV", {.v = 1, .n = 1, .f = 2, .g = 1}, 4);
  cfg.b_category = TrafficCategory::kIntermediate;
  cfg.b_from_rf = true;
  const auto r = run_spmm_phase(cfg);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).reads, 0u);
  EXPECT_GT(r.traffic.rf.reads, 0u);
}

TEST(SpmmEngineTest, ChunkCyclesSumToTotalRowGranularity) {
  const CSRGraph g = star_graph(8);
  auto cfg = base_config(g, "VFN", {.v = 3, .n = 1, .f = 1, .g = 1}, 2);
  cfg.chunks.rows = g.num_vertices();
  cfg.chunks.cols = 2;
  cfg.chunks.row_block = 3;
  cfg.chunk_target = ChunkTarget::kMatrixOut;
  const auto r = run_spmm_phase(cfg);
  const std::vector<std::uint64_t> cycles = r.chunk_cycles.expand();
  ASSERT_EQ(cycles.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto c : cycles) sum += c;
  EXPECT_EQ(sum, r.cycles);
  // The hub chunk must be the slowest.
  EXPECT_GT(cycles[0], cycles[1]);
}

TEST(SpmmEngineTest, LowBandwidthStallsGatherStreams) {
  Rng rng(37);
  const CSRGraph g = erdos_renyi(64, 512, rng).with_self_loops();
  auto cfg = base_config(g, "VFN", {.v = 8, .n = 1, .f = 16, .g = 1}, 32);
  const auto fast = run_spmm_phase(cfg);
  cfg.bw_dist = 8;
  const auto slow = run_spmm_phase(cfg);
  EXPECT_GT(slow.cycles, fast.cycles);
  EXPECT_GT(slow.stall_cycles, fast.stall_cycles);
}

TEST(SpmmEngineTest, EmptyRowsStillAdvance) {
  // Graph with an isolated vertex: the engine must not divide by zero or
  // skip the row (it still occupies a lockstep slot).
  const CSRGraph g = CSRGraph::from_rows({{1}, {0}, {}});
  const auto r = run_spmm_phase(
      base_config(g, "VFN", {.v = 1, .n = 1, .f = 1, .g = 1}, 2));
  EXPECT_EQ(r.macs, 2u * 2);
  EXPECT_GT(r.cycles, 0u);
}

TEST(SpmmEngineTest, RejectsMissingGraph) {
  SpmmPhaseConfig cfg;
  cfg.feat = 4;
  cfg.order = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  EXPECT_THROW(run_spmm_phase(cfg), Error);
}

}  // namespace
}  // namespace omega
