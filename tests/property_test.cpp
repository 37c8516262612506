// Property-based sweeps over randomly sampled valid mappings: whatever the
// dataflow, (1) the computation is exactly the reference GCN layer, (2) the
// MAC work is invariant, (3) chunk timelines account for every cycle,
// (4) compulsory traffic lower bounds hold, and (5) more bandwidth never
// hurts.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "dataflow/enumerate.hpp"
#include "engine/functional.hpp"
#include "graph/generators.hpp"
#include "graph/spmm.hpp"
#include "omega/omega.hpp"
#include "tensor/gemm.hpp"

namespace omega {
namespace {

/// Deterministically samples a valid descriptor with pow2 tiles <= budget.
DataflowDescriptor sample_descriptor(std::uint64_t seed, std::size_t pes,
                                     std::size_t v, std::size_t f,
                                     std::size_t g) {
  Rng rng(seed);
  for (int attempt = 0; attempt < 64; ++attempt) {
    DataflowDescriptor df;
    const int inter = static_cast<int>(rng.next_below(3));
    df.inter = inter == 0 ? InterPhase::kSequential
               : inter == 1 ? InterPhase::kSPGeneric
                            : InterPhase::kParallelPipeline;
    df.phase_order =
        rng.next_below(2) == 0 ? PhaseOrder::kAC : PhaseOrder::kCA;
    if (df.inter == InterPhase::kSequential) {
      df.agg.order = all_loop_orders(GnnPhase::kAggregation)[rng.next_below(6)];
      df.cmb.order = all_loop_orders(GnnPhase::kCombination)[rng.next_below(6)];
    } else {
      const auto pairs = feasible_pipeline_pairs(df.phase_order);
      const auto& pair = pairs[rng.next_below(pairs.size())];
      df.agg.order = pair.agg;
      df.cmb.order = pair.cmb;
    }
    df.agg.phase = GnnPhase::kAggregation;
    df.cmb.phase = GnnPhase::kCombination;
    const std::size_t budget =
        df.inter == InterPhase::kParallelPipeline ? pes / 2 : pes;
    auto rand_tile = [&](std::size_t cap) {
      const auto max_log = static_cast<std::size_t>(
          std::bit_width(std::min(cap, budget)) - 1);
      return static_cast<std::size_t>(1)
             << rng.next_below(max_log + 1);
    };
    df.agg.tiles.v = rand_tile(v);
    df.agg.tiles.n = rand_tile(8);
    df.agg.tiles.f = rand_tile(f);
    while (df.agg.spatial_extent() > budget) {
      if (df.agg.tiles.v > 1) df.agg.tiles.v /= 2;
      else if (df.agg.tiles.f > 1) df.agg.tiles.f /= 2;
      else df.agg.tiles.n /= 2;
    }
    df.cmb.tiles.v = rand_tile(v);
    df.cmb.tiles.f = rand_tile(f);
    df.cmb.tiles.g = rand_tile(g);
    while (df.cmb.spatial_extent() > budget) {
      if (df.cmb.tiles.v > 1) df.cmb.tiles.v /= 2;
      else if (df.cmb.tiles.f > 1) df.cmb.tiles.f /= 2;
      else df.cmb.tiles.g /= 2;
    }
    if (!df.validation_error()) return df;
  }
  throw InvalidArgumentError("could not sample a valid descriptor");
}

class RandomMappings : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMappings, FunctionalEquivalence) {
  Rng rng(GetParam() * 7919 + 3);
  const CSRGraph adj =
      erdos_renyi(24, 100, rng).with_self_loops().gcn_normalized();
  MatrixF x(24, 12);
  MatrixF w(12, 6);
  x.fill_uniform(rng);
  w.fill_uniform(rng);
  const DataflowDescriptor df = sample_descriptor(GetParam(), 64, 24, 12, 6);
  const MatrixF ref = gemm(spmm(adj, x), w);
  const MatrixF got = functional_gcn_layer(adj, x, w, df);
  EXPECT_TRUE(approx_equal(got, ref, 1e-3, 1e-3)) << df.to_string();
}

TEST_P(RandomMappings, CostModelInvariants) {
  Rng rng(GetParam() * 104729 + 11);
  GnnWorkload w;
  w.name = "prop";
  w.adjacency = erdos_renyi(96, 420, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  const LayerSpec layer{8};
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const DataflowDescriptor df = sample_descriptor(GetParam(), 64, 96, 24, 8);
  const RunResult r = omega.run(w, layer, df);
  SCOPED_TRACE(df.to_string());

  // (2) Work invariance.
  const std::uint64_t agg_feat =
      df.phase_order == PhaseOrder::kAC ? w.in_features : layer.out_features;
  EXPECT_EQ(r.agg.macs, w.num_edges() * agg_feat);
  EXPECT_EQ(r.cmb.macs, static_cast<std::uint64_t>(w.num_vertices()) *
                            w.in_features * layer.out_features);

  // (3) Chunk timelines cover the phase exactly.
  for (const PhaseResult* p : {&r.agg, &r.cmb}) {
    std::uint64_t sum = 0;
    for (const auto c : p->chunk_cycles.expand()) sum += c;
    EXPECT_EQ(sum, p->cycles);
    ASSERT_FALSE(p->chunk_completion.empty());
    EXPECT_LE(p->chunk_completion.expand().back(), p->cycles);
  }

  // (4) Compulsory traffic: every edge's feature slice must be fetched at
  // least once from somewhere.
  const std::uint64_t min_b = w.num_edges();
  const std::uint64_t b_seen =
      r.traffic.gb_total() + r.traffic.rf.reads + r.traffic.dram.reads +
      r.traffic.intermediate_partition.total();
  EXPECT_GE(b_seen, min_b);

  // Utilization is a fraction.
  EXPECT_LE(r.agg_dynamic_utilization(), 1.0 + 1e-9);
  EXPECT_LE(r.cmb_dynamic_utilization(), 1.0 + 1e-9);

  // Seq composes additively; pipelines never exceed the sum.
  if (df.inter == InterPhase::kSequential) {
    EXPECT_EQ(r.cycles, r.agg.cycles + r.cmb.cycles);
  } else {
    EXPECT_LE(r.cycles, r.agg.cycles + r.cmb.cycles + 1);
  }
}

TEST_P(RandomMappings, MoreBandwidthNeverHurts) {
  Rng rng(GetParam() * 31 + 1);
  GnnWorkload w;
  w.adjacency = erdos_renyi(64, 300, rng).with_self_loops();
  w.in_features = 16;
  const DataflowDescriptor df = sample_descriptor(GetParam(), 64, 64, 16, 8);
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  for (const std::size_t bw : {4u, 16u, 64u, 256u}) {
    AcceleratorConfig hw;
    hw.num_pes = 64;
    hw.distribution_bandwidth = bw;
    hw.reduction_bandwidth = bw;
    const RunResult r = Omega(hw).run(w, LayerSpec{8}, df);
    EXPECT_LE(r.cycles, prev) << df.to_string() << " bw=" << bw;
    prev = r.cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMappings,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace omega
