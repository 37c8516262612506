// Table IV dataset-model tests: the synthetic workloads must reproduce the
// statistics the dataflow study depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

#include "graph/datasets.hpp"
#include "graph/stats.hpp"

namespace omega {
namespace {

TEST(DatasetSpecTest, TableIVRows) {
  const auto& specs = table4_datasets();
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(specs[0].name, "Mutag");
  EXPECT_EQ(specs[4].name, "Reddit-bin");
  EXPECT_EQ(specs[4].batch_size, 32u);  // paper: batch of 32 for Reddit-bin
  EXPECT_EQ(specs[3].batch_size, 64u);
  EXPECT_EQ(specs[5].name, "Citeseer");
  EXPECT_TRUE(specs[5].node_classification);
  EXPECT_EQ(specs[5].num_features, 3703u);
  EXPECT_EQ(specs[6].num_features, 1433u);
}

TEST(DatasetSpecTest, Categories) {
  EXPECT_EQ(dataset_by_name("Mutag").category,
            WorkloadCategory::kLowEdgesFeatures);
  EXPECT_EQ(dataset_by_name("Collab").category, WorkloadCategory::kHighEdges);
  EXPECT_EQ(dataset_by_name("Imdb-bin").category,
            WorkloadCategory::kHighEdges);
  EXPECT_EQ(dataset_by_name("cora").category,
            WorkloadCategory::kHighFeatures);
  EXPECT_THROW((void)dataset_by_name("pubmed"), Error);
}

TEST(ClampEdgesTest, DegenerateVertexCountsAdmitNoEdges) {
  // Regression: vertices * (vertices - 1) wrapped to SIZE_MAX for
  // vertices == 0, turning the edge cap into "unlimited".
  EXPECT_EQ(clamp_edges(0, 0), 0u);
  EXPECT_EQ(clamp_edges(0, 100), 0u);
  EXPECT_EQ(clamp_edges(1, 100), 0u);
  EXPECT_EQ(clamp_edges(2, 100), 2u);   // a 2-cycle at most
  EXPECT_EQ(clamp_edges(10, 42), 42u);  // under the cap: untouched
  EXPECT_EQ(clamp_edges(10, 1000), 90u);
}

TEST(SynthesisTest, BatchSizesMatchPaper) {
  SynthesisOptions opt;
  opt.scale = 1.0;
  const GnnWorkload mutag = synthesize_workload(dataset_by_name("Mutag"), opt);
  EXPECT_EQ(mutag.num_graphs_in_batch, 64u);
  // 64 graphs of ~17.9 nodes each.
  EXPECT_NEAR(static_cast<double>(mutag.num_vertices()), 64 * 17.93,
              64 * 17.93 * 0.2);
  EXPECT_EQ(mutag.in_features, 28u);
}

TEST(SynthesisTest, NodeClassificationMatchesSpec) {
  const GnnWorkload cs = synthesize_workload(dataset_by_name("Citeseer"));
  EXPECT_EQ(cs.num_vertices(), 3327u);
  // Self loops add V edges on top of the spec's 9464.
  EXPECT_NEAR(static_cast<double>(cs.num_edges()), 9464.0 + 3327.0,
              0.02 * (9464.0 + 3327.0));
  EXPECT_EQ(cs.in_features, 3703u);
  EXPECT_TRUE(cs.adjacency.has_values());  // GCN-normalized by default
}

TEST(SynthesisTest, CitationNetworksHaveEvilRows) {
  const GnnWorkload cs = synthesize_workload(dataset_by_name("Citeseer"));
  const auto stats = compute_degree_stats(cs.adjacency);
  // Section V-B: a handful of dense rows dominate lockstep dataflows. The
  // real Citeseer has max/mean ~26; require a clearly heavy tail.
  EXPECT_GT(stats.skew_ratio, 8.0);
  EXPECT_GT(static_cast<double>(stats.max_degree), 10 * stats.median_degree);
}

TEST(SynthesisTest, DenseGraphSetsAreDense) {
  SynthesisOptions opt;
  opt.scale = 0.5;  // keep the test fast
  const GnnWorkload collab =
      synthesize_workload(dataset_by_name("Collab"), opt);
  // Collab members are ~45% dense within each graph; after block-diagonal
  // batching the average degree is still the per-graph one (~33 * 0.5).
  EXPECT_GT(collab.adjacency.avg_degree(), 8.0);
}

TEST(SynthesisTest, DeterministicForSameSeed) {
  SynthesisOptions opt;
  opt.seed = 123;
  opt.scale = 0.25;
  const GnnWorkload a = synthesize_workload(dataset_by_name("Proteins"), opt);
  const GnnWorkload b = synthesize_workload(dataset_by_name("Proteins"), opt);
  EXPECT_EQ(a.adjacency.edge_array(), b.adjacency.edge_array());
  opt.seed = 124;
  const GnnWorkload c = synthesize_workload(dataset_by_name("Proteins"), opt);
  EXPECT_NE(a.adjacency.edge_array(), c.adjacency.edge_array());
}

TEST(SynthesisTest, ScaleShrinksEverything) {
  SynthesisOptions full;
  full.scale = 1.0;
  SynthesisOptions tiny;
  tiny.scale = 0.1;
  const auto spec = dataset_by_name("Imdb-bin");
  const GnnWorkload a = synthesize_workload(spec, full);
  const GnnWorkload b = synthesize_workload(spec, tiny);
  EXPECT_LT(b.num_vertices() * 5, a.num_vertices());
  EXPECT_LT(b.in_features, a.in_features);
}

TEST(SynthesisTest, AllWorkloadsSynthesizeAndValidate) {
  SynthesisOptions opt;
  opt.scale = 0.2;
  const auto all = synthesize_all_workloads(opt);
  ASSERT_EQ(all.size(), 7u);
  for (const auto& w : all) {
    SCOPED_TRACE(w.name);
    EXPECT_NO_THROW(w.adjacency.validate());
    EXPECT_GE(w.num_vertices(), 2u);
    EXPECT_GE(w.in_features, 1u);
    // Self-loops guarantee no empty rows, matching GCN semantics.
    EXPECT_GE(w.adjacency.avg_degree(), 1.0);
  }
}

// ---- MatrixMarket loader ----------------------------------------------------

TEST(MatrixMarketTest, LoadsCoordinatePattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "\n"
      "4 4 5\n"
      "1 2\n"
      "2 1\n"
      "3 4\n"
      "4 4\n"
      "1 2\n");  // duplicate entry, deduplicated
  const CSRGraph g = load_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);  // 5 entries, 1 duplicate
  ASSERT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);  // A[1][2] -> vertex 0 aggregates from 1
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(3)[0], 3u);  // self-loop kept
}

TEST(MatrixMarketTest, SymmetricEntriesAreMirrored) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "2 1 0.5\n"
      "3 1 1.5\n"
      "2 2 2.0\n");  // diagonal entry: mirrored once, not twice
  const CSRGraph g = load_matrix_market(in);
  EXPECT_EQ(g.num_edges(), 5u);  // 2 off-diagonal pairs + 1 diagonal
  EXPECT_EQ(g.degree(0), 2u);    // mirrored (1,2) and (1,3)
  EXPECT_EQ(g.degree(1), 2u);
  // Stored values are ignored; adjacency structure only.
  EXPECT_FALSE(g.has_values());
}

TEST(MatrixMarketTest, RejectsMalformedInputs) {
  const auto load = [](const char* text) {
    std::istringstream in(text);
    return load_matrix_market(in);
  };
  // Wrong banner / object / format / field / symmetry.
  EXPECT_THROW(load("%%NotMM matrix coordinate pattern general\n1 1 0\n"),
               InvalidArgumentError);
  EXPECT_THROW(load("%%MatrixMarket vector coordinate pattern general\n"),
               InvalidArgumentError);
  EXPECT_THROW(load("%%MatrixMarket matrix array real general\n2 2\n"),
               InvalidArgumentError);
  EXPECT_THROW(load("%%MatrixMarket matrix coordinate complex general\n"),
               InvalidArgumentError);
  EXPECT_THROW(
      load("%%MatrixMarket matrix coordinate pattern hermitian\n2 2 0\n"),
      InvalidArgumentError);
  // Non-square, out-of-range ids, truncated entries, missing value.
  EXPECT_THROW(
      load("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n"),
      InvalidArgumentError);
  EXPECT_THROW(
      load("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 5\n"),
      InvalidArgumentError);
  EXPECT_THROW(
      load("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n"),
      InvalidArgumentError);
  EXPECT_THROW(
      load("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2\n"),
      InvalidArgumentError);
  // Trailing entries beyond the declared count.
  EXPECT_THROW(load("%%MatrixMarket matrix coordinate pattern general\n"
                    "2 2 1\n1 2\n2 1\n"),
               InvalidArgumentError);
  // Missing file.
  EXPECT_THROW(load_matrix_market(std::string("/nonexistent/x.mtx")),
               InvalidArgumentError);
}

TEST(MatrixMarketTest, WorkloadFromFileIsServable) {
  const std::string path = ::testing::TempDir() + "omega_mtx_test.mtx";
  {
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "5 5 4\n"
        << "2 1\n3 1\n4 2\n5 3\n";
  }
  const GnnWorkload w = workload_from_matrix_market(path, 12);
  EXPECT_EQ(w.name, "omega_mtx_test");
  EXPECT_EQ(w.num_vertices(), 5u);
  EXPECT_EQ(w.in_features, 12u);
  // Default options add self-loops and GCN normalization, like synthesis.
  EXPECT_EQ(w.num_edges(), 2 * 4u + 5u);
  EXPECT_TRUE(w.adjacency.has_values());
  w.adjacency.validate();
  EXPECT_THROW((void)workload_from_matrix_market(path, 0),
               InvalidArgumentError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace omega
