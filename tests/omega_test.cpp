// Inter-phase cost-model tests: Table III runtime/buffering relations, the
// pipeline recurrence, bandwidth sharing, DRAM spill behaviour, and the
// rigid-substrate flexibility checks of Section V-D.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "graph/generators.hpp"
#include "omega/omega.hpp"

#include "chunk_timeline_oracle.hpp"

namespace omega {
namespace {

GnnWorkload small_workload(std::uint64_t seed = 1, std::size_t v = 96,
                           std::size_t e = 400, std::size_t f = 32) {
  Rng rng(seed);
  GnnWorkload w;
  w.name = "unit";
  w.adjacency = erdos_renyi(v, e, rng).with_self_loops().gcn_normalized();
  w.in_features = f;
  return w;
}

AcceleratorConfig small_hw(std::size_t pes = 64) {
  AcceleratorConfig hw;
  hw.num_pes = pes;
  return hw;
}

DataflowDescriptor seq_df() {
  auto df = DataflowDescriptor::parse("Seq_AC(VsFsNt, VsGsFt)");
  df.agg.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  df.cmb.tiles = {.v = 8, .n = 1, .f = 1, .g = 8};
  return df;
}

namespace {
std::vector<std::uint64_t> prefix_sums(std::vector<std::uint64_t> v) {
  std::uint64_t cum = 0;
  for (auto& x : v) {
    cum += x;
    x = cum;
  }
  return v;
}

/// compose_parallel_pipeline on the compact forms of per-chunk vectors.
std::uint64_t compose_pp(const std::vector<std::uint64_t>& producer,
                         const std::vector<std::uint64_t>& consumer) {
  return compose_parallel_pipeline(compress_completions(producer),
                                   compress_durations(consumer));
}
}  // namespace

TEST(ComposePipelineTest, PerfectOverlapApproachesSlowerPhase) {
  const auto prod_done = prefix_sums(std::vector<std::uint64_t>(100, 10));
  const std::vector<std::uint64_t> cons(100, 4);
  const std::uint64_t total = compose_pp(prod_done, cons);
  // Producer-bound: 100*10 plus the last consumer chunk.
  EXPECT_EQ(total, 100u * 10 + 4);
}

TEST(ComposePipelineTest, ConsumerBoundPipeline) {
  const auto prod_done = prefix_sums(std::vector<std::uint64_t>(50, 2));
  const std::vector<std::uint64_t> cons(50, 9);
  const std::uint64_t total = compose_pp(prod_done, cons);
  // First chunk fills, then the consumer dominates.
  EXPECT_EQ(total, 2u + 50 * 9);
}

TEST(ComposePipelineTest, LateCompletionGatesConsumer) {
  // A producer that only finishes chunk 0 late (revisiting sweeps) holds
  // the consumer back even if later chunks complete promptly after it.
  const std::vector<std::uint64_t> prod_done{90, 91, 92, 93};
  const std::vector<std::uint64_t> cons{5, 5, 5, 5};
  // cons: starts at 90 -> 95, 100, 105, 110.
  EXPECT_EQ(compose_pp(prod_done, cons), 110u);
}

TEST(ComposePipelineTest, MismatchedChunksThrow) {
  EXPECT_THROW((void)compose_pp({1, 2}, {1}), Error);
  EXPECT_THROW((void)compose_pp({}, {}), Error);
}

TEST(OmegaRunTest, SeqCyclesAreSumOfPhases) {
  const Omega omega(small_hw());
  const auto r = omega.run(small_workload(), LayerSpec{16}, seq_df());
  EXPECT_EQ(r.cycles, r.agg.cycles + r.cmb.cycles);
  EXPECT_EQ(r.pes_agg, 64u);
  EXPECT_EQ(r.pes_cmb, 64u);
}

TEST(OmegaRunTest, Table3BufferingReported) {
  const Omega omega(small_hw());
  const GnnWorkload w = small_workload();
  const auto seq = omega.run(w, LayerSpec{16}, seq_df());
  EXPECT_EQ(seq.intermediate_buffer_elements, w.num_vertices() * 32u);

  auto spo = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  spo.agg.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  spo.cmb.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  const auto sp = omega.run(w, LayerSpec{16}, spo);
  EXPECT_EQ(sp.intermediate_buffer_elements, 0u);

  auto pp = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  pp.agg.tiles = {.v = 4, .n = 1, .f = 8, .g = 1};
  pp.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 8};
  const auto ppr = omega.run(w, LayerSpec{16}, pp);
  EXPECT_EQ(ppr.granularity, Granularity::kRow);
  EXPECT_EQ(ppr.intermediate_buffer_elements, 2u * 4 * 32);
}

TEST(OmegaRunTest, SpOptimizedBeatsSpGenericByLoadCredit) {
  // Table III: runtime(SP-Opt) = tA + tC - t_load. Same loop orders and
  // tiles evaluated as SP-Generic must be slower.
  const Omega omega(small_hw());
  const GnnWorkload w = small_workload();
  auto spo = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  spo.agg.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  spo.cmb.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  auto spg = spo;
  spg.inter = InterPhase::kSPGeneric;
  const auto opt = omega.run(w, LayerSpec{16}, spo);
  const auto gen = omega.run(w, LayerSpec{16}, spg);
  EXPECT_LT(opt.cycles, gen.cycles);
  // And the intermediate never touches the GB under SP-Optimized.
  EXPECT_EQ(opt.traffic.gb_for(TrafficCategory::kIntermediate).total(), 0u);
  EXPECT_GT(gen.traffic.gb_for(TrafficCategory::kIntermediate).total(), 0u);
}

TEST(OmegaRunTest, PPOverlapsButSplitsPEs) {
  const Omega omega(small_hw());
  const GnnWorkload w = small_workload();
  auto pp = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  pp.agg.tiles = {.v = 4, .n = 1, .f = 8, .g = 1};
  pp.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 8};
  const auto r = omega.run(w, LayerSpec{16}, pp);
  EXPECT_EQ(r.pes_agg + r.pes_cmb, 64u);
  // Pipeline runtime is bounded by the phases it interleaves.
  EXPECT_GE(r.cycles, std::max(r.agg.cycles, r.cmb.cycles));
  EXPECT_LE(r.cycles, r.agg.cycles + r.cmb.cycles);
  EXPECT_GT(r.pipeline_chunks, 1u);
  // Intermediate goes through the ping-pong partition, not the GB.
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).total(), 0u);
  EXPECT_GT(r.traffic.intermediate_partition.total(), 0u);
}

TEST(OmegaRunTest, PPAllocationShiftsBottleneck) {
  const Omega omega(small_hw(128));
  const GnnWorkload w = small_workload(3, 128, 1200, 64);
  auto pp = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  auto run_with = [&](double frac, TileSizes at, TileSizes ct) {
    pp.pp_agg_pe_fraction = frac;
    pp.agg.tiles = at;
    pp.cmb.tiles = ct;
    return omega.run(w, LayerSpec{16}, pp).cycles;
  };
  // Same tiles, different allocations: the extreme starving of one phase
  // must not beat the balanced split on a balanced workload.
  const auto balanced = run_with(0.5, {.v = 4, .n = 1, .f = 16, .g = 1},
                                 {.v = 4, .n = 1, .f = 1, .g = 16});
  const auto starved = run_with(0.1, {.v = 2, .n = 1, .f = 4, .g = 1},
                                {.v = 8, .n = 1, .f = 1, .g = 14});
  EXPECT_LE(balanced, starved);
}

TEST(OmegaRunTest, SeqSpillsLargeIntermediateToDram) {
  AcceleratorConfig hw = small_hw();
  hw.gb_bytes = 1024;      // force the spill
  hw.dram_bandwidth = 1;   // make the DRAM round-trip visible at toy scale
  const Omega omega(hw);
  const GnnWorkload w = small_workload();
  const auto r = omega.run(w, LayerSpec{16}, seq_df());
  EXPECT_TRUE(r.intermediate_spilled);
  EXPECT_GT(r.traffic.dram.total(), 0u);
  EXPECT_EQ(r.traffic.gb_for(TrafficCategory::kIntermediate).total(), 0u);
  // Spilling costs runtime.
  AcceleratorConfig big = small_hw();
  const auto on_chip = Omega(big).run(w, LayerSpec{16}, seq_df());
  EXPECT_GT(r.cycles, on_chip.cycles);
  EXPECT_FALSE(on_chip.intermediate_spilled);
}

TEST(OmegaRunTest, EnergyBreakdownConsistent) {
  const Omega omega(small_hw());
  const auto r = omega.run(small_workload(), LayerSpec{16}, seq_df());
  double sum = 0;
  for (const double pj : r.energy.gb_by_category_pj) sum += pj;
  EXPECT_DOUBLE_EQ(sum, r.energy.gb_pj);
  EXPECT_GT(r.energy.rf_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.dram_pj, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.on_chip_pj(),
                   r.energy.gb_pj + r.energy.rf_pj + r.energy.partition_pj);
}

TEST(OmegaRunTest, RigidSubstrateRejectsUnsupportedReduction) {
  AcceleratorConfig rigid = small_hw();
  rigid.supports_spatial_reduction = false;
  const Omega omega(rigid);
  auto df = seq_df();
  df.agg.tiles = {.v = 4, .n = 4, .f = 4, .g = 1};  // spatial N needs a tree
  EXPECT_THROW(omega.run(small_workload(), LayerSpec{16}, df), ResourceError);
}

TEST(OmegaRunTest, SharedBandwidthHurtsPPMost) {
  // Section V-C3: lowering GB bandwidth degrades PP more than Seq because
  // the two phases contend.
  const GnnWorkload w = small_workload(7, 128, 900, 64);
  auto pp = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  pp.agg.tiles = {.v = 4, .n = 1, .f = 8, .g = 1};
  pp.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 8};

  auto ratio = [&](const DataflowDescriptor& df) {
    AcceleratorConfig fast = small_hw();
    fast.distribution_bandwidth = 64;
    fast.reduction_bandwidth = 64;
    AcceleratorConfig slow = small_hw();
    slow.distribution_bandwidth = 8;
    slow.reduction_bandwidth = 8;
    const auto f = Omega(fast).run(w, LayerSpec{16}, df);
    const auto s = Omega(slow).run(w, LayerSpec{16}, df);
    return static_cast<double>(s.cycles) / static_cast<double>(f.cycles);
  };
  EXPECT_GT(ratio(pp), ratio(seq_df()) * 0.99);
}

TEST(OmegaRunTest, ValidatesDataflowBeforeRunning) {
  const Omega omega(small_hw());
  auto bad = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  bad.pp_agg_pe_fraction = 0.0;
  EXPECT_THROW(omega.run(small_workload(), LayerSpec{16}, bad), Error);
}

}  // namespace
}  // namespace omega
