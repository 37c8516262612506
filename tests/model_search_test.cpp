// Model-level mapping search: per-layer winners against independent
// single-layer searches, lossless pruning, budget handling, and the
// run_model totals contract the combination math relies on.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "dse/model_search.hpp"
#include "graph/generators.hpp"

namespace omega {
namespace {

GnnWorkload toy_workload() {
  Rng rng(42);
  GnnWorkload w;
  w.name = "model-dse-toy";
  w.adjacency = erdos_renyi(80, 400, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

Omega toy_omega() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return Omega(hw);
}

ModelSearchOptions base_options() {
  ModelSearchOptions opt;
  opt.layer.max_candidates = 300;
  opt.layer.top_k = 8;
  opt.layer.prune = false;
  // Off for the bit-parity tests: a standalone search_mappings call has no
  // Table V seed candidates to compare against.
  opt.seed_table5 = false;
  return opt;
}

TEST(ModelSearchTest, PerLayerWinnersMatchIndependentSearch) {
  // With pruning and budgets off, every layer's sweep must be bit-identical
  // to a standalone search_mappings over the same layer dims (the shared
  // WorkloadContext is an optimization, not a semantic change).
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  const ModelSearchOptions opt = base_options();
  const ModelSearchResult model = search_model_mappings(omega, w, spec, opt);
  ASSERT_EQ(model.layers.size(), 2u);

  GnnWorkload lw = w;
  for (std::size_t l = 0; l < spec.num_layers(); ++l) {
    const GnnLayerSpec layer = spec.layer_spec(l);
    lw.in_features = layer.in_features;
    const SearchResult solo = search_mappings(
        omega, lw, LayerSpec{layer.out_features}, opt.layer);
    ASSERT_FALSE(model.layers[l].search.ranked.empty());
    EXPECT_EQ(solo.best().dataflow.to_string(),
              model.layers[l].search.best().dataflow.to_string());
    EXPECT_EQ(solo.best().cycles, model.layers[l].search.best().cycles);
    EXPECT_EQ(solo.best().on_chip_pj,
              model.layers[l].search.best().on_chip_pj);
    EXPECT_EQ(solo.evaluated, model.layers[l].search.evaluated);
  }
}

TEST(ModelSearchTest, BestComboSumsPerLayerWinners) {
  // Runtime is additive across layers, so the model-level best is exactly
  // the per-layer winners stitched together.
  const ModelSearchResult r = search_model_mappings(
      toy_omega(), toy_workload(), gcn_two_layer(24, 16, 8), base_options());
  const ModelCandidate& best = r.best();
  ASSERT_EQ(best.per_layer.size(), 2u);
  std::uint64_t cycles = 0;
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_EQ(best.per_layer[l].to_string(),
              r.layers[l].search.best().dataflow.to_string());
    cycles += r.layers[l].search.best().cycles;
  }
  EXPECT_EQ(best.total_cycles, cycles);
  // Ranked list is sorted and bounded.
  EXPECT_LE(r.ranked.size(), 16u);
  for (std::size_t i = 1; i < r.ranked.size(); ++i) {
    EXPECT_LE(r.ranked[i - 1].score, r.ranked[i].score);
  }
  // Pareto frontier is monotone.
  for (std::size_t i = 1; i < r.pareto.size(); ++i) {
    EXPECT_GE(r.pareto[i].total_cycles, r.pareto[i - 1].total_cycles);
    EXPECT_LT(r.pareto[i].total_on_chip_pj, r.pareto[i - 1].total_on_chip_pj);
  }
}

TEST(ModelSearchTest, PruningReturnsSameBestCandidate) {
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  const ModelSearchResult full = search_model_mappings(omega, w, spec, opt);
  opt.layer.prune = true;
  opt.layer.prune_seed = 16;
  const ModelSearchResult pruned = search_model_mappings(omega, w, spec, opt);
  EXPECT_GT(pruned.pruned, 0u);
  EXPECT_LE(pruned.evaluated, full.evaluated);
  EXPECT_EQ(full.best().to_string(), pruned.best().to_string());
  EXPECT_EQ(full.best().total_cycles, pruned.best().total_cycles);
  EXPECT_EQ(full.best().total_on_chip_pj, pruned.best().total_on_chip_pj);
}

TEST(ModelSearchTest, HeterogeneousMatchesOrBeatsBestFixedPattern) {
  // With Table V seeding on, every layer's sweep contains each fixed
  // pattern's exact binding, so the heterogeneous winner can never lose to
  // the homogeneous baseline — even under a tiny candidate budget that
  // would subsample those bindings away.
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  opt.seed_table5 = true;
  opt.layer.max_candidates = 40;  // aggressively budgeted
  const ModelSearchResult r = search_model_mappings(omega, w, spec, opt);
  const auto fixed = best_fixed_pattern(omega, w, spec);
  ASSERT_TRUE(fixed.has_value());
  EXPECT_LE(r.best().total_cycles, fixed->result.total_cycles)
      << "heterogeneous search lost to " << fixed->name;
}

TEST(ModelSearchTest, CandidateBudgetCapsEvaluationAcrossLayers) {
  ModelSearchOptions opt = base_options();
  opt.layer.max_candidates = 0;  // only the model budget applies
  opt.max_total_candidates = 120;
  opt.fallback_candidates = 16;
  const ModelSearchResult r = search_model_mappings(
      toy_omega(), toy_workload(), gcn_two_layer(24, 16, 8), opt);
  ASSERT_FALSE(r.ranked.empty());
  // Each layer gets its even share (or the floor), so the total stays near
  // the budget instead of sweeping the full population.
  EXPECT_LE(r.evaluated, 120u + 2 * 16u);
  EXPECT_LT(r.evaluated, r.generated);
}

TEST(ModelSearchTest, ZeroFallbackFloorStillCapsExhaustedBudget) {
  // Regression: fallback_candidates == 0 used to produce a per-layer share
  // of 0, which search_mappings reads as "unlimited" — an exhausted budget
  // then swept the full population. The floor clamps to >= 1 instead.
  ModelSearchOptions opt = base_options();
  opt.layer.max_candidates = 0;
  opt.max_total_candidates = 40;
  opt.fallback_candidates = 0;
  const ModelSearchResult r = search_model_mappings(
      toy_omega(), toy_workload(), gcn_two_layer(24, 16, 8), opt);
  ASSERT_FALSE(r.ranked.empty());
  EXPECT_LE(r.evaluated, 60u);
  EXPECT_LT(r.evaluated, r.generated);
}

TEST(ModelSearchTest, RankedOutputIdenticalAcrossThreadCounts) {
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  opt.layer.prune = true;  // pruning decisions must also be thread-invariant
  opt.layer.threads = 1;
  const ModelSearchResult serial = search_model_mappings(omega, w, spec, opt);
  opt.layer.threads = 8;
  const ModelSearchResult parallel =
      search_model_mappings(omega, w, spec, opt);
  ASSERT_EQ(serial.ranked.size(), parallel.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].to_string(), parallel.ranked[i].to_string());
    EXPECT_EQ(serial.ranked[i].total_cycles, parallel.ranked[i].total_cycles);
  }
  EXPECT_EQ(serial.pruned, parallel.pruned);
}

TEST(ModelSearchTest, ModelRunResultTotalsEqualLayerSums) {
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  const ModelRunResult r =
      run_model(omega, w, spec, table5_patterns().front());
  ASSERT_EQ(r.layers.size(), 2u);
  std::uint64_t cycles = 0, macs = 0;
  double on_chip = 0.0, total = 0.0;
  for (const auto& layer : r.layers) {
    cycles += layer.cycles;
    on_chip += layer.energy.on_chip_pj();
    total += layer.energy.total_pj();
    macs += layer.agg.macs + layer.cmb.macs;
  }
  EXPECT_EQ(r.total_cycles, cycles);
  EXPECT_DOUBLE_EQ(r.total_on_chip_pj, on_chip);
  EXPECT_DOUBLE_EQ(r.total_pj, total);
  EXPECT_EQ(r.total_macs, macs);
}

TEST(ModelSearchTest, RejectsMismatchedFeatureWidth) {
  EXPECT_THROW((void)search_model_mappings(toy_omega(), toy_workload(),
                                           gcn_two_layer(999, 16, 8), {}),
               Error);
}

TEST(ModelSearchTest, MacWeightedBudgetFavorsTheDominantLayer) {
  // Layer 0 (24 -> 4) carries ~6x the MACs of layer 1 (4 -> 4) on this
  // workload; the MAC-weighted split must give it the lion's share of the
  // model budget, while the even split hands both layers the same cap.
  ModelSearchOptions opt = base_options();
  opt.layer.max_candidates = 0;
  opt.max_total_candidates = 140;
  opt.fallback_candidates = 8;
  GnnModelSpec spec;
  spec.feature_widths = {24, 4, 4};

  opt.budget_allocation = BudgetAllocation::kMacWeighted;
  const ModelSearchResult mac = search_model_mappings(
      toy_omega(), toy_workload(), spec, opt);
  ASSERT_EQ(mac.layers.size(), 2u);
  EXPECT_GT(mac.layers[0].search.evaluated,
            3 * mac.layers[1].search.evaluated);
  EXPECT_LE(mac.evaluated, 140u + 2 * 8u);

  opt.budget_allocation = BudgetAllocation::kEven;
  const ModelSearchResult even = search_model_mappings(
      toy_omega(), toy_workload(), spec, opt);
  EXPECT_EQ(even.layers[0].search.evaluated, 70u);
  EXPECT_EQ(even.layers[1].search.evaluated, 70u);

  // Same budget spent either way; the weighted split just aims it better.
  EXPECT_LE(even.evaluated, 140u + 2 * 8u);
  ASSERT_FALSE(mac.ranked.empty());
  ASSERT_FALSE(even.ranked.empty());
}

TEST(ModelSearchTest, PipelinedComposedNeverExceedsSequential) {
  // The composed makespan of any candidate is bounded by its layer sum,
  // and the pipelined best is bounded by the sequential best (it could
  // always pick the same assignment and compose it).
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  const ModelSearchResult seq = search_model_mappings(omega, w, spec, opt);
  opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult pipe = search_model_mappings(omega, w, spec, opt);
  EXPECT_EQ(pipe.compose, ModelCompose::kPipelined);
  ASSERT_FALSE(pipe.ranked.empty());
  for (const ModelCandidate& c : pipe.ranked) {
    EXPECT_LE(c.composed_cycles, c.total_cycles);
  }
  EXPECT_LE(pipe.best().composed_cycles, seq.best().total_cycles);
  // Sequential mode reports composed == summed for every candidate.
  for (const ModelCandidate& c : seq.ranked) {
    EXPECT_EQ(c.composed_cycles, c.total_cycles);
  }
}

TEST(ModelSearchTest, PipelinedPpOnlyStudyBeatsSequentialStrictly) {
  // On a banded graph with the search confined to the Parallel-Pipeline
  // corner (the VersaGNN-style substrate), cross-layer chunk overlap must
  // produce a strictly smaller composed makespan than the sequential best —
  // the acceptance scenario for the composition model. The wide->narrow
  // model makes layer 1 Aggregation-bound: a first-phase head the
  // intra-layer pipeline cannot hide, but the cross-layer chain can.
  GnnWorkload w;
  w.name = "band-1024x16";
  w.adjacency = banded_graph(1024, 16).gcn_normalized();
  w.in_features = 64;
  GnnModelSpec spec;
  spec.feature_widths = {64, 64, 8};
  const Omega omega((AcceleratorConfig()));
  ModelSearchOptions opt;
  opt.layer.max_candidates = 300;
  opt.layer.include_seq = false;
  opt.layer.include_sp_generic = false;
  opt.layer.include_sp_optimized = false;
  opt.seed_table5 = false;  // Table V seeds include non-PP patterns
  opt.layer.prune = true;
  const ModelSearchResult seq = search_model_mappings(omega, w, spec, opt);
  opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult pipe = search_model_mappings(omega, w, spec, opt);
  EXPECT_LT(pipe.best().composed_cycles, seq.best().total_cycles);
  EXPECT_GT(pipe.best().overlapped_boundaries, 0u);
}

TEST(ModelSearchTest, PipelinedRankedIdenticalAcrossThreadCounts) {
  // The composed re-ranking runs on the thread pool; its results are stored
  // by index, so the ranked list must be bit-identical across thread counts
  // (the serve/batch/socket byte-identity tests build on this).
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  opt.layer.prune = true;
  opt.compose = ModelCompose::kPipelined;
  opt.layer.threads = 1;
  const ModelSearchResult serial = search_model_mappings(omega, w, spec, opt);
  opt.layer.threads = 8;
  const ModelSearchResult parallel =
      search_model_mappings(omega, w, spec, opt);
  ASSERT_EQ(serial.ranked.size(), parallel.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].to_string(), parallel.ranked[i].to_string());
    EXPECT_EQ(serial.ranked[i].total_cycles, parallel.ranked[i].total_cycles);
    EXPECT_EQ(serial.ranked[i].composed_cycles,
              parallel.ranked[i].composed_cycles);
    EXPECT_EQ(serial.ranked[i].score, parallel.ranked[i].score);
  }
}

TEST(ModelSearchTest, SharedContextMatchesOwnContext) {
  // The service hands search_model_mappings the registry's warmed context;
  // results must be bit-identical to the self-built-context path.
  const Omega omega = toy_omega();
  const GnnWorkload w = toy_workload();
  const GnnModelSpec spec = gcn_two_layer(24, 16, 8);
  ModelSearchOptions opt = base_options();
  opt.layer.prune = true;
  const ModelSearchResult own = search_model_mappings(omega, w, spec, opt);
  const WorkloadContext context(w.adjacency);
  const ModelSearchResult shared =
      search_model_mappings(omega, w, spec, opt, &context);
  ASSERT_EQ(own.ranked.size(), shared.ranked.size());
  for (std::size_t i = 0; i < own.ranked.size(); ++i) {
    EXPECT_EQ(own.ranked[i].to_string(), shared.ranked[i].to_string());
    EXPECT_EQ(own.ranked[i].total_cycles, shared.ranked[i].total_cycles);
    EXPECT_EQ(own.ranked[i].total_on_chip_pj,
              shared.ranked[i].total_on_chip_pj);
  }
  // And the shared context actually absorbed the layers' schedules.
  EXPECT_GT(context.phase_cache_size() + context.schedule_cache_size(), 0u);
}

}  // namespace
}  // namespace omega
