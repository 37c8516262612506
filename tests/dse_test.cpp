// Mapping-search tests: tiling enumeration, objective ranking, Pareto
// structure, and the optimizer's value over the hand-picked Table V configs.
#include <gtest/gtest.h>

#include "util/error.hpp"

#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "graph/generators.hpp"

namespace omega {
namespace {

GnnWorkload toy_workload() {
  Rng rng(42);
  GnnWorkload w;
  w.name = "dse-toy";
  w.adjacency = erdos_renyi(80, 400, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

TEST(TileTriplesTest, RespectsBudgetAndCaps) {
  const auto triples = enumerate_tile_triples(64, 16, 4, 64, 0.5);
  ASSERT_FALSE(triples.empty());
  for (const auto& [a, b, c] : triples) {
    EXPECT_LE(a * b * c, 64u);
    EXPECT_GE(a * b * c, 32u);
    EXPECT_LE(a, 16u);
    EXPECT_LE(b, 4u);
    // Powers of two only.
    EXPECT_EQ(a & (a - 1), 0u);
  }
}

TEST(TileTriplesTest, SmallCapsStillYieldSaturatedPoints) {
  // Caps so small the budget cannot be filled: the saturated corner must
  // still be emitted (utilization floor is waived when nothing can grow).
  const auto triples = enumerate_tile_triples(512, 2, 2, 2, 0.9);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0][0] * triples[0][1] * triples[0][2], 8u);
}

TEST(SearchTest, FindsCandidatesAndRanksByObjective) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  SearchOptions opt;
  opt.max_candidates = 400;
  opt.top_k = 8;
  const SearchResult r =
      search_mappings(omega, toy_workload(), LayerSpec{8}, opt);
  ASSERT_FALSE(r.ranked.empty());
  EXPECT_GT(r.generated, 0u);
  EXPECT_LE(r.ranked.size(), 8u);
  for (std::size_t i = 1; i < r.ranked.size(); ++i) {
    EXPECT_LE(r.ranked[i - 1].score, r.ranked[i].score);
  }
  EXPECT_EQ(r.best().score, static_cast<double>(r.best().cycles));
}

TEST(SearchTest, ParetoFrontierIsMonotone) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  SearchOptions opt;
  opt.max_candidates = 300;
  const SearchResult r =
      search_mappings(omega, toy_workload(), LayerSpec{8}, opt);
  ASSERT_GE(r.pareto.size(), 1u);
  for (std::size_t i = 1; i < r.pareto.size(); ++i) {
    EXPECT_GE(r.pareto[i].cycles, r.pareto[i - 1].cycles);
    EXPECT_LT(r.pareto[i].on_chip_pj, r.pareto[i - 1].on_chip_pj);
  }
}

TEST(SearchTest, EnergyObjectiveChangesWinner) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  SearchOptions runtime_opt;
  runtime_opt.max_candidates = 300;
  SearchOptions energy_opt = runtime_opt;
  energy_opt.objective = Objective::kEnergy;
  const auto by_runtime =
      search_mappings(omega, toy_workload(), LayerSpec{8}, runtime_opt);
  const auto by_energy =
      search_mappings(omega, toy_workload(), LayerSpec{8}, energy_opt);
  EXPECT_LE(by_energy.best().on_chip_pj, by_runtime.best().on_chip_pj);
}

TEST(SearchTest, StrategyFiltersApply) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  SearchOptions opt;
  opt.include_seq = false;
  opt.include_sp_generic = false;
  opt.include_sp_optimized = true;
  opt.include_pp = false;
  opt.max_candidates = 100;
  const auto r = search_mappings(omega, toy_workload(), LayerSpec{8}, opt);
  for (const auto& c : r.ranked) {
    EXPECT_EQ(c.dataflow.inter, InterPhase::kSPOptimized);
  }
}

TEST(SearchTest, SinglePeAcceleratorSearchIsSafe) {
  // Regression: generate_for_pair used to hit clamp(x, 1, pes - 1) with
  // pes == 1 when PP generation was enabled — UB (hi < lo). A 1-PE search
  // must run clean (PP candidates skipped), and the winner is purely
  // temporal by construction.
  AcceleratorConfig hw;
  hw.num_pes = 1;
  const Omega omega(hw);
  SearchOptions opt;  // include_pp defaults to true — the regression trigger
  opt.max_candidates = 200;
  const SearchResult r =
      search_mappings(omega, toy_workload(), LayerSpec{8}, opt);
  ASSERT_FALSE(r.ranked.empty());
  for (const auto& c : r.ranked) {
    EXPECT_NE(c.dataflow.inter, InterPhase::kParallelPipeline);
  }
}

TEST(SearchTest, SinglePeRejectsParallelPipelineDescriptors) {
  // Omega::run on a hand-built PP descriptor must throw (not UB) on a
  // single-PE substrate.
  AcceleratorConfig hw;
  hw.num_pes = 1;
  const Omega omega(hw);
  AcceleratorConfig hw64;
  hw64.num_pes = 64;
  const Omega omega64(hw64);
  const GnnWorkload w = toy_workload();
  SearchOptions opt;
  opt.include_seq = false;
  opt.include_sp_generic = false;
  opt.include_sp_optimized = false;
  opt.max_candidates = 10;
  const auto pp =
      search_mappings(omega64, w, LayerSpec{8}, opt).best().dataflow;
  EXPECT_THROW((void)omega.run(w, LayerSpec{8}, pp), ResourceError);
}

TEST(SearchTest, RankedOutputIdenticalAcrossThreadCounts) {
  // Ranking breaks ties on (score, cycles, on_chip_pj, descriptor key), so
  // the ranked list is a pure function of the candidate population — not of
  // evaluation order or thread count.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  SearchOptions opt;
  opt.max_candidates = 400;
  opt.top_k = 32;
  opt.threads = 1;
  const SearchResult serial = search_mappings(omega, w, LayerSpec{8}, opt);
  opt.threads = 8;
  const SearchResult parallel = search_mappings(omega, w, LayerSpec{8}, opt);
  ASSERT_EQ(serial.ranked.size(), parallel.ranked.size());
  for (std::size_t i = 0; i < serial.ranked.size(); ++i) {
    EXPECT_EQ(serial.ranked[i].dataflow.to_string(),
              parallel.ranked[i].dataflow.to_string());
    EXPECT_EQ(serial.ranked[i].cycles, parallel.ranked[i].cycles);
    EXPECT_EQ(serial.ranked[i].on_chip_pj, parallel.ranked[i].on_chip_pj);
  }
  ASSERT_EQ(serial.pareto.size(), parallel.pareto.size());
  for (std::size_t i = 0; i < serial.pareto.size(); ++i) {
    EXPECT_EQ(serial.pareto[i].dataflow.to_string(),
              parallel.pareto[i].dataflow.to_string());
  }
}

TEST(SearchTest, MacBoundIsALowerBound) {
  // Soundness of the bound the pruner culls with: no evaluated two-phase
  // candidate finishes in fewer cycles than its ideal-MAC bound.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const LayerSpec layer{8};
  SearchOptions opt;
  opt.include_ca = true;
  const auto candidates =
      enumerate_search_candidates(opt, dims_of(w, layer), hw.num_pes);
  ASSERT_FALSE(candidates.empty());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < candidates.size(); i += 7) {
    const auto& df = candidates[i];
    const auto work = pipeline_phase_work(
        PipelineChainSpec::of(two_phase_pipeline(df, layer)), w);
    const std::uint64_t bound = pipeline_mac_cycle_bound(
        work, lower_two_phase_candidate(df, 0, layer, hw.num_pes),
        hw.num_pes);
    try {
      EXPECT_GE(omega.run(w, layer, df).cycles, bound) << df.to_string();
      ++checked;
    } catch (const Error&) {
      // infeasible on the default substrate; irrelevant to the bound
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(SearchTest, PrunedSearchReturnsBitIdenticalBest) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  SearchOptions opt;
  opt.max_candidates = 600;
  const SearchResult full = search_mappings(omega, w, LayerSpec{8}, opt);
  opt.prune = true;
  opt.prune_seed = 16;
  const SearchResult pruned = search_mappings(omega, w, LayerSpec{8}, opt);
  EXPECT_GT(pruned.pruned, 0u);  // the bound actually culls on this workload
  EXPECT_LE(pruned.evaluated, full.evaluated);
  EXPECT_EQ(full.best().dataflow.to_string(),
            pruned.best().dataflow.to_string());
  EXPECT_EQ(full.best().cycles, pruned.best().cycles);
  EXPECT_EQ(full.best().on_chip_pj, pruned.best().on_chip_pj);
}

TEST(SearchTest, ExtraCandidatesSurvivePruning) {
  // extra_candidates are contractually always evaluated — even when their
  // ideal-MAC bound would otherwise let the prune pass cull them.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  SearchOptions opt;
  opt.max_candidates = 300;
  opt.top_k = 100000;  // keep everything evaluated in the ranked list
  const SearchResult full = search_mappings(omega, w, LayerSpec{8}, opt);
  ASSERT_GT(full.ranked.size(), 1u);
  const DataflowDescriptor worst = full.ranked.back().dataflow;

  SearchOptions popt;
  popt.max_candidates = 100;
  popt.top_k = 100000;
  popt.prune = true;
  popt.prune_seed = 8;
  popt.extra_candidates = {worst};
  const SearchResult pruned = search_mappings(omega, w, LayerSpec{8}, popt);
  const std::string key = worst.to_string();
  bool found = false;
  for (const auto& c : pruned.ranked) {
    if (c.dataflow.to_string() == key) found = true;
  }
  EXPECT_TRUE(found) << "seeded candidate " << key << " was culled";
}

TEST(SearchTest, OptimizerMatchesOrBeatsTableVConfigs) {
  // The future-work pitch of Section VI: a search over the taxonomy should
  // never lose to the nine hand-picked configurations.
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  SearchOptions opt;
  opt.max_candidates = 800;
  const auto best = search_mappings(omega, w, LayerSpec{8}, opt).best();
  for (const auto& p : table5_patterns()) {
    const auto r = omega.run_pattern(w, LayerSpec{8}, p);
    EXPECT_LE(best.cycles, r.cycles) << "search lost to " << p.name;
  }
}

}  // namespace
}  // namespace omega
