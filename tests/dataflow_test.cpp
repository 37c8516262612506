// Taxonomy unit tests: loop orders, descriptor parsing, the Table II
// pipeline-feasibility rules, SP-Optimized constraints and the Table III
// buffering formulas.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "dataflow/descriptor.hpp"
#include "dataflow/patterns.hpp"

namespace omega {
namespace {

TEST(LoopOrderTest, ParseAndLetters) {
  const LoopOrder o = LoopOrder::parse("VFN", GnnPhase::kAggregation);
  EXPECT_EQ(o.letters(), "VFN");
  EXPECT_EQ(o.depth_of(Dim::kV), 0u);
  EXPECT_EQ(o.depth_of(Dim::kF), 1u);
  EXPECT_EQ(o.depth_of(Dim::kN), 2u);
}

TEST(LoopOrderTest, RejectsWrongPhaseDims) {
  EXPECT_THROW(LoopOrder::parse("VFG", GnnPhase::kAggregation), Error);
  EXPECT_THROW(LoopOrder::parse("VFN", GnnPhase::kCombination), Error);
  EXPECT_THROW(LoopOrder::parse("VVF", GnnPhase::kCombination), Error);
}

TEST(LoopOrderTest, AllOrdersArePermutations) {
  for (const GnnPhase p : {GnnPhase::kAggregation, GnnPhase::kCombination}) {
    const auto orders = all_loop_orders(p);
    for (const auto& o : orders) EXPECT_NO_THROW(o.validate(p));
    // All six must be distinct.
    for (std::size_t i = 0; i < orders.size(); ++i) {
      for (std::size_t j = i + 1; j < orders.size(); ++j) {
        EXPECT_NE(orders[i].letters(), orders[j].letters());
      }
    }
  }
}

TEST(IntraPhaseTest, NotationRoundTrip) {
  IntraPhaseDataflow df =
      IntraPhaseDataflow::parse("VtFsNt", GnnPhase::kAggregation);
  EXPECT_EQ(df.to_string(), "VtFsNt");
  EXPECT_FALSE(df.is_spatial(Dim::kV));
  EXPECT_TRUE(df.is_spatial(Dim::kF));
  df.tiles.f = 64;
  EXPECT_EQ(df.spatial_extent(), 64u);
}

TEST(IntraPhaseTest, UnusedDimMustStayOne) {
  IntraPhaseDataflow df =
      IntraPhaseDataflow::parse("VsGsFt", GnnPhase::kCombination);
  df.tiles.n = 4;  // N is not a Combination dim
  EXPECT_THROW(df.validate(), Error);
}

TEST(DescriptorTest, NotationRoundTrip) {
  const auto df = DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  EXPECT_EQ(df.inter, InterPhase::kParallelPipeline);
  EXPECT_EQ(df.phase_order, PhaseOrder::kAC);
  EXPECT_EQ(df.to_string(), "PP_AC(VtFsNt, VsGsFt)");
}

TEST(DescriptorTest, HyGcnAndAwbGcnDataflowsParse) {
  // Section III-C: HyGCN = PP_AC(VxFsNt, VsGsFt); AWB-GCN = PP_CA(FsNtVs,
  // GtFtVs). Our notation orders Aggregation dims as written in Table II.
  const auto hygcn = DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  EXPECT_FALSE(hygcn.validation_error().has_value())
      << hygcn.validation_error().value_or("");
  const auto awb = DataflowDescriptor::parse("PP_CA(FsNtVs, GtFtVs)");
  EXPECT_FALSE(awb.validation_error().has_value())
      << awb.validation_error().value_or("");
}

// ---- Table II pipeline feasibility --------------------------------------

struct PairCase {
  const char* agg;
  const char* cmb;
  bool feasible;
  Granularity granularity;
};

class PipelinePairsAC : public ::testing::TestWithParam<PairCase> {};

TEST_P(PipelinePairsAC, MatchesTable2) {
  const auto& c = GetParam();
  const auto analysis =
      analyze_pipeline(LoopOrder::parse(c.agg, GnnPhase::kAggregation),
                       LoopOrder::parse(c.cmb, GnnPhase::kCombination),
                       PhaseOrder::kAC);
  EXPECT_EQ(analysis.feasible, c.feasible) << c.agg << "," << c.cmb << ": "
                                           << analysis.reason;
  if (c.feasible) {
    EXPECT_EQ(analysis.granularity, c.granularity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2RowsAC, PipelinePairsAC,
    ::testing::Values(
        // Row 4: element granularity.
        PairCase{"VFN", "VFG", true, Granularity::kElement},
        PairCase{"FVN", "FVG", true, Granularity::kElement},
        // Row 5: row granularity.
        PairCase{"VFN", "VGF", true, Granularity::kRow},
        PairCase{"VNF", "VGF", true, Granularity::kRow},
        PairCase{"VNF", "VFG", true, Granularity::kRow},
        // Row 6: column granularity.
        PairCase{"FVN", "FGV", true, Granularity::kColumn},
        PairCase{"FNV", "FGV", true, Granularity::kColumn},
        PairCase{"FNV", "FVG", true, Granularity::kColumn},
        // Infeasible: producer finishes nothing until the very end.
        PairCase{"NVF", "VGF", false, Granularity::kNone},
        PairCase{"NFV", "VFG", false, Granularity::kNone},
        // Infeasible: consumer needs the whole intermediate per G slice.
        PairCase{"VFN", "GVF", false, Granularity::kNone},
        PairCase{"VFN", "GFV", false, Granularity::kNone},
        // Infeasible: traversal majors disagree.
        PairCase{"VFN", "FVG", false, Granularity::kNone},
        PairCase{"FVN", "VFG", false, Granularity::kNone},
        PairCase{"VNF", "FGV", false, Granularity::kNone}));

class PipelinePairsCA : public ::testing::TestWithParam<PairCase> {};

TEST_P(PipelinePairsCA, MatchesTable2) {
  const auto& c = GetParam();
  const auto analysis =
      analyze_pipeline(LoopOrder::parse(c.agg, GnnPhase::kAggregation),
                       LoopOrder::parse(c.cmb, GnnPhase::kCombination),
                       PhaseOrder::kCA);
  EXPECT_EQ(analysis.feasible, c.feasible) << c.agg << "," << c.cmb << ": "
                                           << analysis.reason;
  if (c.feasible) {
    EXPECT_EQ(analysis.granularity, c.granularity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table2RowsCA, PipelinePairsCA,
    ::testing::Values(
        // Row 7: element granularity — (NFV, VGF) and (FNV, GVF).
        PairCase{"NFV", "VGF", true, Granularity::kElement},
        PairCase{"FNV", "GVF", true, Granularity::kElement},
        // Row 8: row granularity.
        PairCase{"NVF", "VGF", true, Granularity::kRow},
        PairCase{"NVF", "VFG", true, Granularity::kRow},
        PairCase{"NFV", "VFG", true, Granularity::kRow},
        // Row 9: column granularity.
        PairCase{"FVN", "GVF", true, Granularity::kColumn},
        PairCase{"FVN", "GFV", true, Granularity::kColumn},
        PairCase{"FNV", "GFV", true, Granularity::kColumn},
        // Producer with F outermost cannot hand off (psum revisits).
        PairCase{"NFV", "FVG", false, Granularity::kNone},
        // Consumer with V outermost re-reads everything.
        PairCase{"VNF", "VGF", false, Granularity::kNone},
        PairCase{"VFN", "VGF", false, Granularity::kNone}));

TEST(PipelineFeasibilityTest, EightPairsPerPhaseOrder) {
  // Table II rows 4-6 (and 7-9) enumerate exactly eight pipelineable
  // loop-order pairs per phase order: 2 element + 3 row + 3 column.
  for (const PhaseOrder po : {PhaseOrder::kAC, PhaseOrder::kCA}) {
    int element = 0, row = 0, column = 0;
    for (const auto& agg : all_loop_orders(GnnPhase::kAggregation)) {
      for (const auto& cmb : all_loop_orders(GnnPhase::kCombination)) {
        const auto a = analyze_pipeline(agg, cmb, po);
        if (!a.feasible) continue;
        if (a.granularity == Granularity::kElement) element++;
        if (a.granularity == Granularity::kRow) row++;
        if (a.granularity == Granularity::kColumn) column++;
      }
    }
    EXPECT_EQ(element, 2);
    EXPECT_EQ(row, 3);
    EXPECT_EQ(column, 3);
  }
}

// ---- SP-Optimized constraints (Table II row 2) ---------------------------

TEST(SpOptimizedTest, AcceptsRow2Templates) {
  auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  df.agg.tiles = {.v = 8, .n = 1, .f = 64, .g = 1};
  df.cmb.tiles = {.v = 8, .n = 1, .f = 64, .g = 1};
  EXPECT_FALSE(df.validation_error().has_value())
      << df.validation_error().value_or("");
}

TEST(SpOptimizedTest, RejectsSpatialReductionInAggregation) {
  auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  df.agg.tiles = {.v = 8, .n = 4, .f = 16, .g = 1};
  df.cmb.tiles = {.v = 8, .n = 1, .f = 16, .g = 1};
  const auto err = df.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("temporal reduction"), std::string::npos);
}

TEST(SpOptimizedTest, RejectsMismatchedTiles) {
  auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  df.agg.tiles = {.v = 8, .n = 1, .f = 64, .g = 1};
  df.cmb.tiles = {.v = 16, .n = 1, .f = 32, .g = 1};
  const auto err = df.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("matched tiles"), std::string::npos);
}

TEST(SpOptimizedTest, RejectsWrongOrderPair) {
  auto df = DataflowDescriptor::parse("SP_AC(VsNtFs, VsFsGt)");
  const auto err = df.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("loop-order pair"), std::string::npos);
}

TEST(SpOptimizedTest, RejectsSpatialG) {
  auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  df.agg.tiles = {.v = 8, .n = 1, .f = 8, .g = 1};
  df.cmb.tiles = {.v = 8, .n = 1, .f = 8, .g = 4};
  const auto err = df.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("T_G"), std::string::npos);
}

TEST(SpOptimizedTest, CaTemplates) {
  auto df = DataflowDescriptor::parse("SP_CA(NsFsVt, VsGsFt)");
  df.agg.tiles = {.v = 1, .n = 8, .f = 16, .g = 1};
  df.cmb.tiles = {.v = 8, .n = 1, .f = 1, .g = 16};
  EXPECT_FALSE(df.validation_error().has_value())
      << df.validation_error().value_or("");
  // Mismatch: T_N_AGG != T_V_CMB.
  df.agg.tiles.n = 4;
  EXPECT_TRUE(df.validation_error().has_value());
}

// ---- Table III buffering formulas ----------------------------------------

TEST(BufferingTest, Table3Formulas) {
  const std::size_t v = 128, f = 64;

  auto seq = DataflowDescriptor::parse("Seq_AC(VsFsNt, VsGsFt)");
  EXPECT_EQ(seq.intermediate_buffer_elements(v, f), v * f);

  auto spg = DataflowDescriptor::parse("SPg_AC(VsFsNt, VsFtGs)");
  spg.agg.tiles = {.v = 8, .n = 1, .f = 16, .g = 1};
  spg.cmb.tiles = {.v = 4, .n = 1, .f = 1, .g = 4};
  // (VFN, VFG) is element granularity: Pel = T_Vmax * T_Fmax = 8 * 16.
  EXPECT_EQ(spg.granularity(), Granularity::kElement);
  EXPECT_EQ(spg.pipeline_elements(v, f), 8u * 16u);
  EXPECT_EQ(spg.intermediate_buffer_elements(v, f), 8u * 16u);

  auto spo = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  EXPECT_EQ(spo.intermediate_buffer_elements(v, f), 0u);

  // PP row granularity: (VFN, VGF) -> 2 * T_Vmax * F.
  auto ppr = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  ppr.agg.tiles = {.v = 8, .n = 1, .f = 16, .g = 1};
  ppr.cmb.tiles = {.v = 16, .n = 1, .f = 1, .g = 8};
  EXPECT_EQ(ppr.granularity(), Granularity::kRow);
  EXPECT_EQ(ppr.pipeline_elements(v, f), 16u * f);
  EXPECT_EQ(ppr.intermediate_buffer_elements(v, f), 2u * 16u * f);

  // PP column granularity: (FNV, FGV) -> 2 * V * T_Fmax.
  auto ppc = DataflowDescriptor::parse("PP_AC(FsNtVs, FsGsVt)");
  ppc.agg.tiles = {.v = 4, .n = 1, .f = 8, .g = 1};
  ppc.cmb.tiles = {.v = 1, .n = 1, .f = 32, .g = 4};
  EXPECT_EQ(ppc.granularity(), Granularity::kColumn);
  EXPECT_EQ(ppc.pipeline_elements(v, f), v * 32u);
  EXPECT_EQ(ppc.intermediate_buffer_elements(v, f), 2u * v * 32u);
}

TEST(BufferingTest, PelClampsToExtents) {
  auto ppr = DataflowDescriptor::parse("PP_AC(VsFsNt, VsGsFt)");
  ppr.agg.tiles = {.v = 512, .n = 1, .f = 2, .g = 1};
  ppr.cmb.tiles = {.v = 512, .n = 1, .f = 1, .g = 1};
  // Tiny intermediate: Pel cannot exceed it.
  EXPECT_EQ(ppr.pipeline_elements(16, 4), 16u * 4u);
}

// ---- Hardware requirements (Table II support column) ---------------------

TEST(HardwareRequirementsTest, SpatialAggregationNeedsAdderTree) {
  auto df = DataflowDescriptor::parse("Seq_AC(VsFtNs, VsGsFt)");
  df.agg.tiles = {.v = 8, .n = 8, .f = 1, .g = 1};
  const auto req = hardware_requirements(df);
  EXPECT_TRUE(req.needs_spatial_reduction);
  EXPECT_FALSE(req.needs_intermediate_noc);
}

TEST(HardwareRequirementsTest, PPNeedsIntermediateNoc) {
  auto df = DataflowDescriptor::parse("PP_AC(VtFsNt, VsGsFt)");
  const auto req = hardware_requirements(df);
  EXPECT_TRUE(req.needs_intermediate_noc);
  EXPECT_TRUE(req.needs_temporal_reduction);
}

TEST(HardwareRequirementsTest, SpOptimizedNeedsLocalAccumulation) {
  const auto df = DataflowDescriptor::parse("SP_AC(VsFsNt, VsFsGt)");
  EXPECT_TRUE(hardware_requirements(df).needs_local_accumulation);
}

// ---- Table V patterns -----------------------------------------------------

TEST(PatternsTest, TableVHasNineConfigs) {
  const auto& patterns = table5_patterns();
  ASSERT_EQ(patterns.size(), 9u);
  EXPECT_EQ(patterns[0].name, "Seq1");
  EXPECT_EQ(patterns[4].name, "SPhighV");
  EXPECT_EQ(patterns[8].name, "PP4");
}

TEST(PatternsTest, LookupIsCaseInsensitive) {
  EXPECT_EQ(pattern_by_name("sphighv").name, "SPhighV");
  EXPECT_THROW((void)pattern_by_name("nope"), Error);
}

TEST(PatternsTest, PatternStringsMatchTableV) {
  EXPECT_EQ(pattern_by_name("Seq1").to_string(), "Seq_AC(VxFxNt, VxGxFx)");
  EXPECT_EQ(pattern_by_name("PP3").to_string(), "PP_AC(VxFxNt, VsGxFx)");
  EXPECT_EQ(pattern_by_name("SP2").to_string(), "SP_AC(VsFxNt, VsFxGt)");
}

TEST(PatternsTest, TagMatching) {
  const auto p = IntraPhasePattern::parse("VxFsNt", GnnPhase::kAggregation);
  TileSizes t{.v = 4, .n = 1, .f = 8, .g = 1};
  EXPECT_TRUE(p.matches(t));
  t.n = 2;
  EXPECT_FALSE(p.matches(t));
  t.n = 1;
  t.f = 1;
  EXPECT_FALSE(p.matches(t));
}

}  // namespace
}  // namespace omega
