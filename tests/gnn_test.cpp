// GNN layer/model tests: normalization semantics, reference inference, and
// cost-model integration across layers.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "gnn/inference.hpp"
#include "graph/generators.hpp"
#include "graph/spmm.hpp"
#include "tensor/gemm.hpp"

namespace omega {
namespace {

TEST(GnnLayersTest, ModelSpecsAndLayerWidths) {
  const GnnModelSpec m = gcn_two_layer(128, 16, 7);
  EXPECT_EQ(m.num_layers(), 2u);
  const auto l0 = m.layer_spec(0);
  EXPECT_EQ(l0.in_features, 128u);
  EXPECT_EQ(l0.out_features, 16u);
  EXPECT_TRUE(l0.relu);
  const auto l1 = m.layer_spec(1);
  EXPECT_EQ(l1.out_features, 7u);
  EXPECT_FALSE(l1.relu);
  EXPECT_THROW((void)m.layer_spec(2), Error);
}

TEST(GnnLayersTest, PhaseOrderRules) {
  GnnLayerSpec gcn;
  gcn.model = GnnModel::kGCN;
  EXPECT_TRUE(gcn.allows_phase_order(PhaseOrder::kAC));
  EXPECT_TRUE(gcn.allows_phase_order(PhaseOrder::kCA));
  GnnLayerSpec sage;
  sage.model = GnnModel::kGraphSAGE;
  EXPECT_TRUE(sage.allows_phase_order(PhaseOrder::kAC));
  EXPECT_FALSE(sage.allows_phase_order(PhaseOrder::kCA));
}

TEST(GnnLayersTest, NormalizationPerModel) {
  const CSRGraph raw = cycle_graph(5);
  const CSRGraph gcn = normalize_adjacency(raw, GnnModel::kGCN);
  EXPECT_TRUE(gcn.has_values());
  EXPECT_EQ(gcn.num_edges(), raw.num_edges() + 5);  // self loops
  const CSRGraph sage = normalize_adjacency(raw, GnnModel::kGraphSAGE);
  ASSERT_TRUE(sage.has_values());
  const auto vals = sage.edge_values(0);
  double sum = 0;
  for (const float v : vals) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  const CSRGraph gin = normalize_adjacency(raw, GnnModel::kGIN);
  EXPECT_FALSE(gin.has_values());  // plain sum aggregation
}

TEST(GnnLayersTest, ReluClampsNegatives) {
  MatrixF m(1, 3);
  m(0, 0) = -1.0f;
  m(0, 1) = 0.0f;
  m(0, 2) = 2.0f;
  relu_inplace(m);
  EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m(0, 2), 2.0f);
}

TEST(GnnInferenceTest, FunctionalMatchesReferenceTwoLayers) {
  Rng rng(606);
  const CSRGraph adj =
      normalize_adjacency(erdos_renyi(22, 90, rng), GnnModel::kGCN);
  MatrixF x(22, 12);
  x.fill_uniform(rng);
  std::vector<MatrixF> weights;
  weights.emplace_back(12, 8);
  weights.emplace_back(8, 3);
  weights[0].fill_uniform(rng);
  weights[1].fill_uniform(rng);
  const GnnModelSpec spec = gcn_two_layer(12, 8, 3);
  const MatrixF ref = reference_inference(adj, x, weights, spec);

  auto df = DataflowDescriptor::parse("Seq_AC(VsFsNt, VsGsFt)");
  df.agg.tiles = {.v = 4, .n = 1, .f = 4, .g = 1};
  df.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 4};
  const MatrixF got = functional_inference(adj, x, weights, spec, df);
  EXPECT_TRUE(approx_equal(got, ref, 1e-3, 1e-3));
}

TEST(GnnInferenceTest, RunModelAggregatesLayers) {
  Rng rng(707);
  GnnWorkload w;
  w.name = "toy";
  w.adjacency =
      normalize_adjacency(erdos_renyi(64, 256, rng), GnnModel::kGCN);
  w.in_features = 32;
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnModelSpec spec = gcn_two_layer(32, 16, 4);
  const ModelRunResult r =
      run_model(omega, w, spec, pattern_by_name("SP2"));
  ASSERT_EQ(r.layers.size(), 2u);
  EXPECT_EQ(r.total_cycles, r.layers[0].cycles + r.layers[1].cycles);
  EXPECT_GT(r.total_macs, 0u);
  // Layer 0 moves F=32 -> 16, layer 1 16 -> 4: layer 0 dominates.
  EXPECT_GT(r.layers[0].cycles, r.layers[1].cycles);
}

TEST(GnnInferenceTest, RejectsMismatchedWidths) {
  Rng rng(808);
  GnnWorkload w;
  w.adjacency = normalize_adjacency(erdos_renyi(16, 60, rng), GnnModel::kGCN);
  w.in_features = 10;  // model expects 32
  const Omega omega(AcceleratorConfig{.num_pes = 64});
  EXPECT_THROW(
      run_model(omega, w, gcn_two_layer(32, 16, 4), pattern_by_name("SP2")),
      Error);
}

}  // namespace
}  // namespace omega
