// Table II rule set of N-phase pipelines (omega/pipeline.hpp).
//
// The contracts:
//  * check_pipeline names the first broken rule and where it broke;
//  * every rule's exception type and exact what(), through
//    PipelineSpec::validation_error / validate() and through
//    Omega::run_pipeline, including which message wins when a spec breaks
//    two rules, and the chain-level messages of chain_error;
//  * the cached eval plan agrees with uncached run_pipeline on substrates
//    that lack spatial or temporal reduction (the substrate half of the
//    rules, which the binding-mutation fuzz in eval_core_test never
//    exercises: its substrate supports both);
//  * the enumerator emits only bindings that break no rule;
//  * the classic two-phase descriptor's checks (validation_error and
//    Omega::run) answer the whole tile-1/2 descriptor space exactly as the
//    committed parity table says.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "dse/pipeline_search.hpp"
#include "engine/eval_core.hpp"
#include "graph/generators.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace omega {
namespace {

GnnWorkload small_workload() {
  Rng rng(29);
  GnnWorkload w;
  w.name = "rules";
  w.adjacency = rmat(7, 800, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

AcceleratorConfig small_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
}

PhaseSpec make_phase(const char* name, PhaseEngine engine, const char* order,
                     TileSizes tiles, std::size_t out_features = 0,
                     double density = 1.0) {
  PhaseSpec p;
  p.name = name;
  p.engine = engine;
  p.dataflow = IntraPhaseDataflow::parse(order, taxonomy_phase(engine));
  p.dataflow.tiles = tiles;
  p.out_features = out_features;
  p.weight_density = density;
  return p;
}

/// score=gemm -> agg=spmm -> xform=spgemm(d=0.5), valid under Seq/Seq on
/// the 64-PE substrate; agg reduces spatially (T_N = 2), the others
/// temporally.
PipelineSpec gat_spec(InterPhase b0 = InterPhase::kSequential,
                      InterPhase b1 = InterPhase::kSequential) {
  PipelineSpec s;
  s.phases = {
      make_phase("score", PhaseEngine::kDenseDense, "VsFtGs",
                 {.v = 4, .n = 1, .f = 1, .g = 4}, 16),
      make_phase("agg", PhaseEngine::kSparseDense, "NsFsVt",
                 {.v = 1, .n = 2, .f = 8, .g = 1}),
      make_phase("xform", PhaseEngine::kSparseSparse, "GsVtFt",
                 {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 0.5),
  };
  s.boundaries = {b0, b1};
  return s;
}

/// agg=spmm(VtFtNt) ->b-> cmb=gemm(VtFtGt,G=16): a valid SP-Optimized pair
/// that each SPO test below breaks in exactly one way.
PipelineSpec spo_spec() {
  PipelineSpec s;
  s.phases = {make_phase("agg", PhaseEngine::kSparseDense, "VtFtNt", {}),
              make_phase("cmb", PhaseEngine::kDenseDense, "VtFtGt", {}, 16)};
  s.boundaries = {InterPhase::kSPOptimized};
  return s;
}

/// What a call threw: the dynamic type's name and what(), or empty strings
/// when it returned.
struct Thrown {
  std::string type;
  std::string what;
};

template <class Fn>
Thrown thrown_by(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    if (typeid(e) == typeid(InvalidDataflowError)) {
      return {"InvalidDataflowError", e.what()};
    }
    if (typeid(e) == typeid(ResourceError)) return {"ResourceError", e.what()};
    if (typeid(e) == typeid(InvalidArgumentError)) {
      return {"InvalidArgumentError", e.what()};
    }
    return {"Error", e.what()};
  }
  return {};
}

struct RuleCase {
  std::string rule;
  PipelineSpec spec;
  AcceleratorConfig hw;
  /// run_pipeline's exact exception. An InvalidDataflowError is also what
  /// validate() throws, and validation_error() returns its text after the
  /// "pipeline <spec>: " prefix; a ResourceError is a substrate rule, which
  /// validation_error() does not see.
  Thrown want;
};

void expect_rule(const RuleCase& c, const GnnWorkload& w) {
  SCOPED_TRACE(c.rule);
  const Omega omega(c.hw);
  const Thrown run = thrown_by([&] { (void)omega.run_pipeline(w, c.spec); });
  EXPECT_EQ(run.type, c.want.type);
  EXPECT_EQ(run.what, c.want.what);
  const auto err = c.spec.validation_error();
  const Thrown validate = thrown_by([&] { c.spec.validate(); });
  if (c.want.type == "InvalidDataflowError") {
    const std::string prefix = "pipeline " + c.spec.to_string() + ": ";
    ASSERT_TRUE(c.want.what.starts_with(prefix)) << c.want.what;
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(*err, c.want.what.substr(prefix.size()));
    EXPECT_EQ(validate.type, c.want.type);
    EXPECT_EQ(validate.what, c.want.what);
  } else {
    EXPECT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(validate.type, "");
  }
}

TEST(PipelineRulesTest, EveryRulePinsItsTypeAndMessage) {
  const GnnWorkload w = small_workload();
  std::vector<RuleCase> cases;
  const auto add = [&](std::string rule, PipelineSpec spec, std::string type,
                       std::string what,
                       AcceleratorConfig hw = small_hw()) {
    cases.push_back({std::move(rule), std::move(spec), hw,
                     {std::move(type), std::move(what)}});
  };
  const std::string bad = "InvalidDataflowError";
  const std::string res = "ResourceError";

  add("no phases", PipelineSpec{}, bad,
      "pipeline : pipeline needs at least one phase");
  {
    PipelineSpec s = spo_spec();
    s.boundaries.push_back(InterPhase::kSequential);
    add("boundary arity", s, bad,
        "pipeline agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtFtGt,G=16): pipeline "
        "wants exactly one boundary per adjacent phase pair (2 phases, 2 "
        "boundaries)");
  }
  {
    // A spec short of boundaries still prints every phase.
    PipelineSpec s = gat_spec();
    s.boundaries.pop_back();
    add("too few boundaries", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->?-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): pipeline wants exactly one "
        "boundary per adjacent phase pair (3 phases, 1 boundaries)");
  }
  {
    PipelineSpec s = gat_spec();
    s.pe_fractions = {0.5, 0.5};
    add("fraction arity", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): pe_fractions must be empty or "
        "hold one entry per phase");
  }
  for (const double f : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    PipelineSpec s = gat_spec();
    s.pe_fractions = {0.5, f, 0.5};
    add("fraction value " + std::to_string(f), s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): pe_fractions entries must be "
        "finite and > 0");
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[1].dataflow.phase = GnnPhase::kCombination;
    add("wrong vocabulary", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 1 (agg=spmm(NsFsVt)): "
        "dataflow is expressed in the wrong loop vocabulary for the engine "
        "(sparse-dense phases loop over V/N/F, dense and sparse-weight phases "
        "over V/F/G)");
  }
  {
    // The intra-phase message itself names the checking source line, so it
    // is taken from IntraPhaseDataflow::validate rather than spelled out.
    PipelineSpec s = gat_spec();
    s.phases[1].dataflow.tiles.g = 2;
    const Thrown intra = thrown_by([&] { s.phases[1].dataflow.validate(); });
    ASSERT_EQ(intra.type, "InvalidArgumentError");
    add("intra-phase dataflow", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 1 (agg=spmm(NsFsVt)): " +
            intra.what);
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[1].out_features = 8;
    add("sparse-dense width", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt,G=8) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 1 (agg=spmm(NsFsVt,G=8)): "
        "sparse-dense phases preserve the feature width; leave out_features "
        "0");
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[0].out_features = 0;
    add("missing width", s, bad,
        "pipeline score=gemm(VsFtGs) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 0 (score=gemm(VsFtGs)): "
        "dense and sparse-weight phases need out_features >= 1");
  }
  for (const double d : {0.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    PipelineSpec s = gat_spec();
    s.phases[2].weight_density = d;
    const std::string label = "xform=spgemm(GsVtFt,G=8,d=" + fixed(d, 3) + ")";
    add("density range " + std::to_string(d), s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> " +
            label + ": phase 2 (" + label +
            "): weight_density must lie in (0, 1]");
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[2].dataflow.order = LoopOrder(Dim::kV, Dim::kF, Dim::kG);
    add("sparse-weight order", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(VtFtGs,G=8,d=0.500): phase 2 "
        "(xform=spgemm(VtFtGs,G=8,d=0.500)): sparse-weight phases walk the "
        "compressed W rows G-major over the F contraction; the loop order "
        "must place G outside F (got VFG)");
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[0].weight_density = 0.5;
    add("stray density", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 0 "
        "(score=gemm(VsFtGs,G=16)): weight_density only applies to "
        "sparse-weight phases");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[0].dataflow.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
    add("SPO producer contraction innermost", s, bad,
        "pipeline agg=spmm(VtNtFt) ->SP-> cmb=gemm(VtFtGt,G=16): boundary 0 "
        "(agg=spmm(VtNtFt) ->SP-> cmb=gemm(VtFtGt,G=16)): SP-Optimized needs "
        "the producer's contraction (N) innermost so accumulated data never "
        "leaves the PEs");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[1].dataflow.order = LoopOrder(Dim::kV, Dim::kG, Dim::kF);
    add("SPO consumer third innermost", s, bad,
        "pipeline agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtGtFt,G=16): boundary 0 "
        "(agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtGtFt,G=16)): SP-Optimized "
        "streams the consumer's third dim (G) temporally over the stationary "
        "intermediate (innermost loop)");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[1].dataflow.order = LoopOrder(Dim::kF, Dim::kV, Dim::kG);
    add("SPO major", s, bad,
        "pipeline agg=spmm(VtFtNt) ->SP-> cmb=gemm(FtVtGt,G=16): boundary 0 "
        "(agg=spmm(VtFtNt) ->SP-> cmb=gemm(FtVtGt,G=16)): producer and "
        "consumer must traverse the RF-resident intermediate in the same "
        "major");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[0].dataflow.tiles.n = 2;
    add("SPO temporal producer contraction", s, bad,
        "pipeline agg=spmm(VtFtNs) ->SP-> cmb=gemm(VtFtGt,G=16): boundary 0 "
        "(agg=spmm(VtFtNs) ->SP-> cmb=gemm(VtFtGt,G=16)): SP-Optimized "
        "requires a temporal producer contraction (T_N = 1)");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[1].dataflow.tiles.g = 2;
    add("SPO temporal consumer third", s, bad,
        "pipeline agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtFtGs,G=16): boundary 0 "
        "(agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtFtGs,G=16)): SP-Optimized "
        "streams the consumer's third dim temporally (T_G = 1)");
  }
  {
    PipelineSpec s = spo_spec();
    s.phases[0].dataflow.tiles.v = 2;
    add("SPO tile match", s, bad,
        "pipeline agg=spmm(VsFtNt) ->SP-> cmb=gemm(VtFtGt,G=16): boundary 0 "
        "(agg=spmm(VsFtNt) ->SP-> cmb=gemm(VtFtGt,G=16)): SP-Optimized "
        "requires matched row/col tiles across the pair (the same "
        "intermediate tile stays in the PEs)");
  }
  for (const InterPhase ip :
       {InterPhase::kSPGeneric, InterPhase::kParallelPipeline}) {
    PipelineSpec s;
    s.phases = {make_phase("score", PhaseEngine::kDenseDense, "VsFtGs",
                           {.v = 8, .n = 1, .f = 1, .g = 8}, 16),
                make_phase("agg", PhaseEngine::kSparseDense, "VtNtFs",
                           {.v = 1, .n = 1, .f = 16, .g = 1})};
    s.boundaries = {ip};
    const std::string b = ip == InterPhase::kSPGeneric ? "SPg" : "PP";
    add("infeasible hand-off " + b, s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->" + b +
            "-> agg=spmm(VtNtFs): boundary 0 (score=gemm(VsFtGs,G=16) ->" + b +
            "-> agg=spmm(VtNtFs)): " +
            analyze_handoff(phase_producer_role(PhaseEngine::kDenseDense,
                                                s.phases[0].dataflow.order),
                            phase_consumer_role(PhaseEngine::kSparseDense,
                                                s.phases[1].dataflow.order))
                .reason);
  }
  {
    PipelineSpec s;
    s.phases = {make_phase("agg", PhaseEngine::kSparseDense, "VtFsNt",
                           {.v = 1, .n = 1, .f = 16, .g = 1}),
                make_phase("xform", PhaseEngine::kSparseSparse, "VtGsFt",
                           {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 0.5)};
    s.boundaries = {InterPhase::kSPGeneric};
    add("sparse-weight consumer", s, bad,
        "pipeline agg=spmm(VtFsNt) ->SPg-> xform=spgemm(VtGsFt,G=8,d=0.500): "
        "boundary 0 (xform=spgemm(VtGsFt,G=8,d=0.500)): a sparse-weight phase "
        "cannot consume a chunked intermediate (its walked rows are W rows, "
        "not intermediate rows); use Seq or SP-Optimized upstream");
  }
  {
    PipelineSpec s;
    s.phases = {make_phase("score", PhaseEngine::kDenseDense, "GsVtFt",
                           {.v = 1, .n = 1, .f = 1, .g = 8}, 16),
                make_phase("agg", PhaseEngine::kSparseDense, "FsVtNt",
                           {.v = 1, .n = 1, .f = 8, .g = 1}),
                make_phase("mlp", PhaseEngine::kDenseDense, "FtVtGs",
                           {.v = 1, .n = 1, .f = 1, .g = 8}, 8)};
    s.boundaries = {InterPhase::kSPGeneric, InterPhase::kParallelPipeline};
    add("adjacent chunked boundaries", s, bad,
        "pipeline score=gemm(GsVtFt,G=16) ->SPg-> agg=spmm(FsVtNt) ->PP-> "
        "mlp=gemm(FtVtGs,G=8): phase 1 (agg=spmm(FsVtNt)): a phase can stage "
        "chunks through at most one adjacent boundary (both neighbors are "
        "SP-Generic/PP); separate the chunked boundaries with Seq or "
        "SP-Optimized");
  }

  // Substrate and PP rules: valid specs the hardware cannot run.
  AcceleratorConfig no_spatial = small_hw();
  no_spatial.supports_spatial_reduction = false;
  add("no spatial reduction", gat_spec(), res,
      "agg=spmm(NsFsVt): substrate has no spatial-reduction support (adder "
      "tree / store-and-forward)",
      no_spatial);
  AcceleratorConfig no_temporal = small_hw();
  no_temporal.supports_temporal_reduction = false;
  add("no temporal reduction", gat_spec(), res,
      "score=gemm(VsFtGs,G=16): substrate has no temporal-reduction support "
      "(in-place accumulators)",
      no_temporal);
  {
    AcceleratorConfig one_pe = small_hw();
    one_pe.num_pes = 1;
    add("PP needs two PEs", gat_spec(InterPhase::kParallelPipeline), res,
        "score=gemm(VsFtGs,G=16) ->PP-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): parallel pipeline needs >= 2 PEs "
        "to split the array between the phases",
        one_pe);
  }
  {
    // Both fractions are finite and > 0, yet the first share rounds to 1.
    PipelineSpec s = gat_spec(InterPhase::kParallelPipeline);
    s.pe_fractions = {1.0, 1e-300, 1.0};
    add("PP share inside (0, 1)", s, res,
        "score=gemm(VsFtGs,G=16) ->PP-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): PP PE shares must lie strictly "
        "inside (0, 1) — 0, 1 or NaN would starve a phase of PEs");
  }

  // Two broken rules: the earlier rule in the documented order wins.
  {
    PipelineSpec s = spo_spec();
    s.boundaries.push_back(InterPhase::kSequential);
    s.phases[0].dataflow.phase = GnnPhase::kCombination;
    add("arity beats phase rules", s, bad,
        "pipeline agg=spmm(VtFtNt) ->SP-> cmb=gemm(VtFtGt,G=16): pipeline "
        "wants exactly one boundary per adjacent phase pair (2 phases, 2 "
        "boundaries)");
  }
  {
    PipelineSpec s = gat_spec(InterPhase::kSPOptimized);
    s.phases[2].weight_density = 0.0;
    add("phase rules beat boundary rules", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->SP-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.000): phase 2 "
        "(xform=spgemm(GsVtFt,G=8,d=0.000)): weight_density must lie in (0, "
        "1]");
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[0].out_features = 0;
    s.phases[2].weight_density = 2.0;
    add("lower phase index wins", s, bad,
        "pipeline score=gemm(VsFtGs) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=2.000): phase 0 (score=gemm(VsFtGs)): "
        "dense and sparse-weight phases need out_features >= 1");
  }
  {
    // agg -> xform is a chunked sparse-weight consumer AND the second of two
    // adjacent chunked boundaries: the per-boundary rule fires first.
    PipelineSpec s;
    s.phases = {make_phase("score", PhaseEngine::kDenseDense, "GsVtFt",
                           {.v = 1, .n = 1, .f = 1, .g = 8}, 16),
                make_phase("agg", PhaseEngine::kSparseDense, "FsVtNt",
                           {.v = 1, .n = 1, .f = 8, .g = 1}),
                make_phase("xform", PhaseEngine::kSparseSparse, "GsFtVt",
                           {.v = 1, .n = 1, .f = 1, .g = 8}, 8, 0.5)};
    s.boundaries = {InterPhase::kSPGeneric, InterPhase::kSPGeneric};
    const Thrown got = thrown_by([&] { s.validate(); });
    ASSERT_EQ(got.type, bad);
    add("boundary rule beats adjacent chunking", s, bad, got.what);
    EXPECT_NE(got.what.find("boundary 1 ("), std::string::npos) << got.what;
  }
  {
    PipelineSpec s = gat_spec();
    s.phases[0].weight_density = 0.5;
    add("spec rules beat substrate rules", s, bad,
        "pipeline score=gemm(VsFtGs,G=16) ->Seq-> agg=spmm(NsFsVt) ->Seq-> "
        "xform=spgemm(GsVtFt,G=8,d=0.500): phase 0 "
        "(score=gemm(VsFtGs,G=16)): weight_density only applies to "
        "sparse-weight phases",
        no_spatial);
  }
  {
    PipelineSpec s = gat_spec(InterPhase::kParallelPipeline);
    s.pe_fractions = {1.0, 1e-300, 1.0};
    add("substrate beats PP", s, res,
        "agg=spmm(NsFsVt): substrate has no spatial-reduction support (adder "
        "tree / store-and-forward)",
        no_spatial);
  }
  {
    AcceleratorConfig one_pe = no_temporal;
    one_pe.num_pes = 1;
    add("first phase's substrate rule wins", gat_spec(), res,
        "score=gemm(VsFtGs,G=16): substrate has no temporal-reduction support "
        "(in-place accumulators)",
        one_pe);
  }

  for (const RuleCase& c : cases) expect_rule(c, w);
}

TEST(PipelineRulesTest, ChainErrorsPinTheirMessages) {
  const auto err = [](std::vector<PhaseChainSpec> phases) {
    PipelineChainSpec c;
    c.phases = std::move(phases);
    return c.chain_error().value_or("");
  };
  EXPECT_EQ(err({}), "pipeline needs at least one phase");
  EXPECT_EQ(err({{.name = "agg",
                  .engine = PhaseEngine::kSparseDense,
                  .out_features = 4}}),
            "phase 0 (agg=spmm): sparse-dense phases preserve the feature "
            "width; leave out_features 0");
  EXPECT_EQ(err({{.name = "agg", .engine = PhaseEngine::kSparseDense},
                 {.name = "", .engine = PhaseEngine::kDenseDense}}),
            "phase 1 (phase=gemm): dense and sparse-weight phases need "
            "out_features >= 1");
  EXPECT_EQ(err({{.name = "x",
                  .engine = PhaseEngine::kSparseSparse,
                  .out_features = 8,
                  .weight_density = 0.0}}),
            "phase 0 (x=spgemm): weight_density must lie in (0, 1]");
  EXPECT_EQ(err({{.name = "mlp",
                  .engine = PhaseEngine::kDenseDense,
                  .out_features = 8,
                  .weight_density = 0.5}}),
            "phase 0 (mlp=gemm): weight_density only applies to "
            "sparse-weight phases");
  EXPECT_EQ(err({{.name = "agg", .engine = PhaseEngine::kSparseDense},
                 {.name = "cmb",
                  .engine = PhaseEngine::kDenseDense,
                  .out_features = 16}}),
            "");
}

PipelineChainSpec classic_chain(PhaseOrder order) {
  PipelineChainSpec c;
  const PhaseChainSpec agg{.name = "agg", .engine = PhaseEngine::kSparseDense};
  const PhaseChainSpec cmb{
      .name = "cmb", .engine = PhaseEngine::kDenseDense, .out_features = 16};
  c.phases = order == PhaseOrder::kAC ? std::vector{agg, cmb}
                                      : std::vector{cmb, agg};
  return c;
}

PipelineChainSpec gat_chain() { return PipelineChainSpec::of(gat_spec()); }

/// The ResourceError run_pipeline throws when `hw` cannot reduce the way
/// some phase of `spec` does: the first such phase, by index.
std::string substrate_error(const PipelineSpec& spec,
                            const AcceleratorConfig& hw) {
  for (const PhaseSpec& p : spec.phases) {
    const bool spatial =
        p.dataflow.tiles.get(contraction_dim(taxonomy_phase(p.engine))) > 1;
    if (spatial && !hw.supports_spatial_reduction) {
      return p.to_string() +
             ": substrate has no spatial-reduction support (adder tree / "
             "store-and-forward)";
    }
    if (!spatial && !hw.supports_temporal_reduction) {
      return p.to_string() +
             ": substrate has no temporal-reduction support (in-place "
             "accumulators)";
    }
  }
  return "";
}

TEST(PipelineRulesTest, PlanMatchesRunPipelineOnReducedSubstrates) {
  const GnnWorkload w = small_workload();
  const std::vector<PipelineChainSpec> chains = {
      classic_chain(PhaseOrder::kAC), classic_chain(PhaseOrder::kCA),
      gat_chain()};
  // An 8-PE array keeps the populations small (the GAT chain's is 150k
  // bindings against 2M at 64 PEs) and both reduction styles common. They
  // are enumerated once, on a substrate with both styles.
  AcceleratorConfig no_spatial = small_hw();
  no_spatial.num_pes = 8;
  no_spatial.supports_spatial_reduction = false;
  AcceleratorConfig no_temporal = no_spatial;
  no_temporal.supports_spatial_reduction = true;
  no_temporal.supports_temporal_reduction = false;
  std::vector<std::vector<PipelineCandidate>> samples;
  for (const PipelineChainSpec& chain : chains) {
    const std::vector<PipelineCandidate> pop =
        enumerate_pipeline_candidates(chain, 0, w, no_spatial.num_pes);
    ASSERT_GT(pop.size(), 100u) << chain.to_string();
    std::vector<PipelineCandidate> sample;
    const std::size_t stride = pop.size() / 50 + 1;
    for (std::size_t i = 0; i < pop.size(); i += stride) {
      sample.push_back(pop[i]);
    }
    samples.push_back(std::move(sample));
  }

  for (const AcceleratorConfig& hw : {no_spatial, no_temporal}) {
    SCOPED_TRACE(hw.supports_spatial_reduction ? "no temporal reduction"
                                               : "no spatial reduction");
    const Omega omega(hw);
    const WorkloadContext context(w.adjacency);
    PipelineDeltaState state;
    std::size_t ran = 0;
    std::size_t refused = 0;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      const PipelineChainSpec& chain = chains[c];
      const auto plan = PipelineEvalPlan::obtain(omega, w, chain, context);
      for (const PipelineCandidate& cand : samples[c]) {
        const PipelineBindingView view = cand.view();
        const PipelineSpec spec = chain.bind(view);
        SCOPED_TRACE(spec.to_string());
        EvalOutcome got;
        plan->evaluate_batch({&view, 1}, &got, state);
        const Thrown run =
            thrown_by([&] { (void)omega.run_pipeline(w, spec); });
        EXPECT_EQ(got.ok, run.type.empty()) << run.what;
        const std::string want = substrate_error(spec, hw);
        if (!want.empty()) {
          EXPECT_EQ(run.type, "ResourceError");
          EXPECT_EQ(run.what, want);
          ++refused;
        } else if (run.type.empty()) {
          ++ran;
        }
      }
    }
    // Both verdicts occur on each substrate, or the test proves less than
    // it claims.
    EXPECT_GT(ran, 10u);
    EXPECT_GT(refused, 10u);
  }
}

TEST(PipelineRulesTest, CheckReportsTheRuleAndWhere) {
  const PipelineSpec gat = gat_spec(InterPhase::kSequential,
                                    InterPhase::kSPOptimized);
  const PipelineChainSpec chain = PipelineChainSpec::of(gat);
  std::vector<IntraPhaseDataflow> dfs;
  for (const PhaseSpec& p : gat.phases) dfs.push_back(p.dataflow);
  const PipelineBindingView view{dfs, gat.boundaries, gat.pe_fractions};

  // agg=spmm(NsFsVt) produces with a spatial, outer contraction.
  const PipelineViolation spo = check_pipeline(chain.phases, &view);
  EXPECT_EQ(spo.rule, PipelineRule::kSpoProducerContractionNotInnermost);
  EXPECT_EQ(spo.index, 1u);
  EXPECT_FALSE(spo.substrate());

  // A binding with a dataflow too few.
  const PipelineBindingView short_view{
      std::span<const IntraPhaseDataflow>(dfs).first(2), gat.boundaries,
      gat.pe_fractions};
  const PipelineViolation arity = check_pipeline(chain.phases, &short_view);
  EXPECT_EQ(arity.rule, PipelineRule::kDataflowArity);
  EXPECT_EQ(pipeline_violation_message(arity, chain.phases, &short_view),
            "pipeline binding wants one dataflow per phase (3 phases, 2 "
            "dataflows)");

  // Substrate rules need the substrate: without it, a spec the substrate
  // cannot run passes.
  const PipelineSpec seq = gat_spec();
  std::vector<IntraPhaseDataflow> seq_dfs;
  for (const PhaseSpec& p : seq.phases) seq_dfs.push_back(p.dataflow);
  const PipelineBindingView seq_view{seq_dfs, seq.boundaries,
                                     seq.pe_fractions};
  const AcceleratorConfig full = small_hw();
  AcceleratorConfig no_spatial = full;
  no_spatial.supports_spatial_reduction = false;
  EXPECT_FALSE(check_pipeline(chain.phases, &seq_view));
  EXPECT_FALSE(check_pipeline(chain.phases, &seq_view, &full));
  const PipelineViolation hw =
      check_pipeline(chain.phases, &seq_view, &no_spatial);
  EXPECT_EQ(hw.rule, PipelineRule::kNoSpatialReduction);
  EXPECT_EQ(hw.index, 1u);
  EXPECT_TRUE(hw.substrate());

  // Without a binding only the chain rules apply.
  EXPECT_FALSE(check_pipeline(chain.phases));
  EXPECT_EQ(check_pipeline({}).rule, PipelineRule::kNoPhases);
}

/// gemm(16) -> spmm -> gemm(8): both boundaries admit SP-Generic and PP
/// on their own, so the enumerator must keep chunked boundaries apart.
PipelineChainSpec mlp_chain() {
  PipelineChainSpec c;
  c.phases = {{.name = "a", .engine = PhaseEngine::kDenseDense,
               .out_features = 16},
              {.name = "b", .engine = PhaseEngine::kSparseDense},
              {.name = "c", .engine = PhaseEngine::kDenseDense,
               .out_features = 8}};
  return c;
}

TEST(PipelineRulesTest, EnumeratorEmitsOnlyValidBindings) {
  const GnnWorkload w = small_workload();
  // Four PEs keep the populations small (77k bindings for the longest
  // chain) while PP still splits the array.
  AcceleratorConfig hw = small_hw();
  hw.num_pes = 4;
  const std::vector<PipelineChainSpec> chains = {
      classic_chain(PhaseOrder::kAC), classic_chain(PhaseOrder::kCA),
      gat_chain(), mlp_chain()};
  for (const PipelineChainSpec& chain : chains) {
    SCOPED_TRACE(chain.to_string());
    const std::vector<PipelineCandidate> pop =
        enumerate_pipeline_candidates(chain, 0, w, hw.num_pes);
    ASSERT_GT(pop.size(), 100u);
    std::size_t pp = 0;
    for (const PipelineCandidate& c : pop) {
      const PipelineBindingView view = c.view();
      const PipelineViolation v = check_pipeline(chain.phases, &view, &hw);
      ASSERT_FALSE(v) << chain.bind(view).to_string() << ": "
                      << pipeline_violation_message(v, chain.phases, &view);
      for (const InterPhase b : c.boundaries) {
        pp += b == InterPhase::kParallelPipeline ? 1 : 0;
      }
    }
    EXPECT_GT(pp, 0u);
  }
}


// ---- Two-phase descriptor parity table ---------------------------------------

std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// An OMEGA_CHECK message names the checking source file and line; keep the
/// file name only, so the table does not depend on the checkout or on line
/// numbers.
std::string without_source_location(std::string what) {
  const std::size_t at = what.find(" at /");
  if (at == std::string::npos) return what;
  const std::size_t end = what.find(' ', at + 4);
  const std::string location = what.substr(at + 4, end - at - 4);
  const std::string file =
      location.substr(location.rfind('/') + 1,
                      location.rfind(':') - location.rfind('/') - 1);
  return what.replace(at + 4, end - at - 4, file);
}

/// The two-phase descriptors with tiles 1 and 2: both phase orders, the four
/// strategies, the 36 loop-order pairs, the tile fields a rule reads at 1 or
/// 2, and under PP five Aggregation PE shares (inside (0, 1), tiny, both
/// ends, NaN). SP-Optimized reads all six tile fields (agg V, N, F; cmb V, F,
/// G); the other strategies read only the contraction tiles (agg N, cmb F,
/// through the substrate's reduction support), so the others stay 1 there:
/// 6,624 descriptors, where all six fields everywhere would be 36,864 and
/// take about 2 s. Each gets five rows: validation_error's text, and what
/// Omega::run throws on an 8-vertex graph under the default substrate, one
/// without spatial reduction, one without temporal reduction and a 1-PE one.
/// Returns the FNV-1a digest of every row in order, then a sorted histogram
/// of the rows with the descriptor prefix stripped from their messages.
std::string descriptor_parity_table() {
  GnnWorkload w;
  w.name = "ring8";
  w.adjacency = cycle_graph(8).with_self_loops().gcn_normalized();
  w.in_features = 4;
  const LayerSpec layer{4};
  AcceleratorConfig no_spatial = default_accelerator();
  no_spatial.supports_spatial_reduction = false;
  AcceleratorConfig no_temporal = default_accelerator();
  no_temporal.supports_temporal_reduction = false;
  AcceleratorConfig one_pe = default_accelerator();
  one_pe.num_pes = 1;
  const std::vector<std::pair<std::string, Omega>> runs = {
      {"run default", Omega(default_accelerator())},
      {"run no-spatial", Omega(no_spatial)},
      {"run no-temporal", Omega(no_temporal)},
      {"run 1-pe", Omega(one_pe)}};
  // Phase results are memoized by their full engine config, so one context
  // serves every substrate.
  const WorkloadContext context(w.adjacency);
  const std::vector<std::pair<std::string, double>> pp_shares = {
      {"0.5", 0.5},
      {"1e-9", 1e-9},
      {"0", 0.0},
      {"1", 1.0},
      {"nan", std::numeric_limits<double>::quiet_NaN()}};
  const std::vector<std::pair<std::string, double>> other_shares = {
      {"0.5", 0.5}};

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t rows = 0;
  std::map<std::string, std::size_t> histogram;
  const auto record = [&](const std::string& df, const std::string& share,
                          const std::string& call, const std::string& type,
                          const std::string& what) {
    digest = fnv1a(digest, df + "|" + share + "|" + call + "|" + type + "|" +
                               what + "\n");
    ++rows;
    const std::string prefix = df + ": ";
    std::string message = what.starts_with(prefix)
                              ? what.substr(prefix.size())
                              : what;
    ++histogram[call + "\t" + type + "\t" + message];
  };

  for (const PhaseOrder po : {PhaseOrder::kAC, PhaseOrder::kCA}) {
    for (const InterPhase inter :
         {InterPhase::kSequential, InterPhase::kSPGeneric,
          InterPhase::kSPOptimized, InterPhase::kParallelPipeline}) {
      for (const LoopOrder& agg : all_loop_orders(GnnPhase::kAggregation)) {
        for (const LoopOrder& cmb : all_loop_orders(GnnPhase::kCombination)) {
          for (unsigned bits = 0; bits < 64; ++bits) {
            constexpr unsigned kContractionBits = 1u << 1 | 1u << 4;
            if (inter != InterPhase::kSPOptimized &&
                (bits & ~kContractionBits) != 0) {
              continue;
            }
            const auto tile = [&](unsigned bit) -> std::size_t {
              return (bits >> bit & 1u) + 1;
            };
            DataflowDescriptor df;
            df.inter = inter;
            df.phase_order = po;
            df.agg = {GnnPhase::kAggregation, agg,
                      {.v = tile(0), .n = tile(1), .f = tile(2), .g = 1}};
            df.cmb = {GnnPhase::kCombination, cmb,
                      {.v = tile(3), .n = 1, .f = tile(4), .g = tile(5)}};
            const std::string name = df.to_string();
            for (const auto& [share, f] :
                 inter == InterPhase::kParallelPipeline ? pp_shares
                                                        : other_shares) {
              df.pp_agg_pe_fraction = f;
              const auto err = df.validation_error();
              record(name, share, "validation_error", err ? "error" : "ok",
                     err.value_or(""));
              for (const auto& [call, omega] : runs) {
                const Thrown t =
                    thrown_by([&] { (void)omega.run(w, layer, df, context); });
                record(name, share, call, t.type.empty() ? "ok" : t.type,
                       without_source_location(t.what));
              }
            }
          }
        }
      }
    }
  }

  std::ostringstream out;
  out << "# Two-phase descriptor rule parity: " << rows / 5
      << " descriptors x (validation_error + Omega::run on 4 substrates).\n"
      << "# Regenerating it is a behaviour change that CHANGES.md explains.\n"
      << "digest " << std::hex << digest << std::dec << "\n";
  for (const auto& [key, count] : histogram) out << count << "\t" << key << "\n";
  return out.str();
}

TEST(DescriptorRulesTest, ParityTableMatchesGolden) {
  const std::string got = descriptor_parity_table();
  std::ifstream in(OMEGA_GOLDEN_DIR "/descriptor_rules_parity.txt");
  std::stringstream want;
  want << in.rdbuf();
  if (got != want.str()) {
    std::ofstream("descriptor_rules_parity.actual.txt") << got;
    FAIL() << "the descriptor checks disagree with "
              "tests/golden/descriptor_rules_parity.txt; the table this build "
              "computes is in descriptor_rules_parity.actual.txt in the test's "
              "working directory";
  }
}

}  // namespace
}  // namespace omega
