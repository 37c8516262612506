// Pipeline-space DSE tests (dse/pipeline_search.hpp): the two-phase adapter
// contract (search_mappings == search_pipeline_mappings on classic chains,
// bit-identical), Table V seeds never losing to the searched best, lossless
// EDP pruning with every reported entry matching uncached run_pipeline, the
// soundness of the energy bound the pruner culls with, thread-count
// determinism on a 3-phase chain, and the phase/boundary-indexed validation
// messages the searcher relies on.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "dse/pipeline_search.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "util/error.hpp"

namespace omega {
namespace {

GnnWorkload toy_workload() {
  Rng rng(42);
  GnnWorkload w;
  w.name = "pdse-toy";
  w.adjacency = erdos_renyi(80, 400, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

/// A 3-phase GAT-style chain: dense score head, sparse aggregation, and a
/// half-dense sparse-weight output transform.
PipelineChainSpec gat_chain() {
  PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};
  return chain;
}

using Entry = std::tuple<std::string, std::uint64_t, double, double>;

std::vector<Entry> entries_of(const std::vector<Candidate>& v) {
  std::vector<Entry> out;
  out.reserve(v.size());
  for (const Candidate& c : v) {
    out.emplace_back(c.dataflow.to_string(), c.cycles, c.on_chip_pj, c.score);
  }
  return out;
}

std::vector<Entry> entries_of(const std::vector<RankedPipelineCandidate>& v) {
  std::vector<Entry> out;
  out.reserve(v.size());
  for (const RankedPipelineCandidate& c : v) {
    out.emplace_back(c.key, c.cycles, c.on_chip_pj, c.score);
  }
  return out;
}

/// Mirrors the adapter's chain construction so the direct N-phase call can
/// be compared against search_mappings.
std::vector<PipelineChainSpec> classic_chains(const LayerSpec& layer,
                                              bool include_ca) {
  DataflowDescriptor probe;
  probe.inter = InterPhase::kSequential;
  probe.phase_order = PhaseOrder::kAC;
  probe.agg.phase = GnnPhase::kAggregation;
  probe.agg.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
  probe.cmb.phase = GnnPhase::kCombination;
  probe.cmb.order = LoopOrder(Dim::kV, Dim::kF, Dim::kG);
  std::vector<PipelineChainSpec> chains;
  chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  if (include_ca) {
    probe.phase_order = PhaseOrder::kCA;
    chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  }
  return chains;
}

TEST(PipelineAdapterTest, TwoPhaseParityRankedAndPareto) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const LayerSpec layer{8};

  for (const bool prune : {false, true}) {
    SearchOptions legacy;
    legacy.max_candidates = 300;
    legacy.top_k = 8;
    legacy.include_ca = true;
    legacy.prune = prune;
    const SearchResult lr = search_mappings(omega, w, layer, legacy);

    PipelineSearchOptions popt;
    popt.max_candidates = 300;
    popt.top_k = 8;
    popt.prune = prune;  // runtime objective: adapter passes prune through
    popt.seed_table5 = false;
    const PipelineSearchResult pr = search_pipeline_mappings(
        omega, w, classic_chains(layer, true), popt);

    EXPECT_EQ(lr.generated, pr.generated);
    EXPECT_EQ(lr.evaluated, pr.evaluated);
    EXPECT_EQ(lr.pruned, pr.pruned);
    EXPECT_EQ(entries_of(lr.ranked), entries_of(pr.ranked));
    EXPECT_EQ(entries_of(lr.pareto), entries_of(pr.pareto));
    // Classic-chain candidates carry the lowered legacy descriptor, and the
    // ranking key is exactly its notation.
    for (const RankedPipelineCandidate& rc : pr.ranked) {
      ASSERT_TRUE(rc.candidate.legacy.has_value());
      EXPECT_EQ(rc.key, rc.candidate.legacy->to_string());
    }
  }
}

TEST(PipelineSeedTest, Table5SeedsNeverBeatSearchedBest) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  const std::vector<PipelineCandidate> seeds =
      table5_pipeline_seeds(omega, w, chain, 0);
  ASSERT_FALSE(seeds.empty());

  PipelineSearchOptions opt;
  opt.max_candidates = 400;
  opt.seed_table5 = true;
  const PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, opt);
  ASSERT_FALSE(r.ranked.empty());

  // Every seed is a valid binding the evaluator accepts, and none scores
  // better than the searched best (they ride inside the same sweep).
  for (const PipelineCandidate& seed : seeds) {
    const PipelineResult pr = omega.run_pipeline(w, chain.bind(seed.view()));
    EXPECT_LE(r.best().score, static_cast<double>(pr.cycles));
  }
}

TEST(PipelinePruneTest, EdpPruningIsLossless) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.objective = Objective::kEnergyDelayProduct;
  opt.max_candidates = 400;
  const PipelineSearchResult full = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  opt.prune = true;
  const PipelineSearchResult pruned = search_pipeline_mappings(omega, w, chain,
                                                               opt);
  ASSERT_FALSE(full.ranked.empty());
  ASSERT_FALSE(pruned.ranked.empty());
  EXPECT_EQ(full.best().key, pruned.best().key);
  EXPECT_EQ(full.best().cycles, pruned.best().cycles);
  EXPECT_EQ(full.best().on_chip_pj, pruned.best().on_chip_pj);
  EXPECT_EQ(full.best().score, pruned.best().score);
  // The cull must never increase the work.
  EXPECT_LE(pruned.evaluated, full.evaluated);
  EXPECT_EQ(pruned.evaluated + pruned.pruned, full.evaluated);
  // Both searches report what uncached run_pipeline reports, entry by entry.
  for (const PipelineSearchResult* r : {&full, &pruned}) {
    for (const auto* list : {&r->ranked, &r->pareto}) {
      for (const RankedPipelineCandidate& rc : *list) {
        const PipelineResult want =
            omega.run_pipeline(w, chain.bind(rc.candidate.view()));
        EXPECT_EQ(rc.cycles, want.cycles) << rc.key;
        EXPECT_EQ(rc.on_chip_pj, want.energy.on_chip_pj()) << rc.key;
      }
    }
  }
}

TEST(PipelinePruneTest, EnergyPruningIsLossless) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.objective = Objective::kEnergy;
  opt.max_candidates = 400;
  const PipelineSearchResult full = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  opt.prune = true;
  const PipelineSearchResult pruned = search_pipeline_mappings(omega, w, chain,
                                                               opt);
  ASSERT_FALSE(pruned.ranked.empty());
  EXPECT_EQ(full.best().key, pruned.best().key);
  EXPECT_EQ(full.best().score, pruned.best().score);
}

TEST(PipelinePruneTest, EnergyBoundIsALowerBound) {
  // Soundness of the bound the energy and EDP pruners cull with: no
  // evaluated candidate spends less on-chip energy than its chain's
  // compulsory-traffic bound. Cora on the default accelerator keeps the
  // tightest sampled CA candidate near 2.1x the bound; on the toy graph
  // every candidate is 4x or more above it, too loose to catch a bound that
  // grew past the evaluator.
  SynthesisOptions so;
  so.scale = 0.25;
  const GnnWorkload w = synthesize_workload(dataset_by_name("Cora"), so);
  const Omega omega(default_accelerator());
  const std::vector<PipelineChainSpec> chains =
      classic_chains(LayerSpec{16}, true);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    SCOPED_TRACE(chains[c].to_string());
    const double bound = pipeline_energy_lower_bound(
        pipeline_phase_work(chains[c], w), omega.energy_model());
    const std::vector<PipelineCandidate> population =
        enumerate_pipeline_candidates(chains[c], c, w,
                                      omega.config().num_pes);
    std::size_t checked = 0;
    for (std::size_t i = 0; i < population.size(); i += 31) {
      const PipelineSpec spec = chains[c].bind(population[i].view());
      try {
        EXPECT_LE(bound, omega.run_pipeline(w, spec).energy.on_chip_pj())
            << spec.to_string();
        ++checked;
      } catch (const Error&) {
        // infeasible on the default substrate; irrelevant to the bound
      }
    }
    EXPECT_GT(checked, 500u);
  }
}

TEST(PipelineSearchTest, DeterministicAcrossThreadCounts) {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  const GnnWorkload w = toy_workload();
  const PipelineChainSpec chain = gat_chain();

  PipelineSearchOptions opt;
  opt.max_candidates = 300;
  opt.prune = true;
  opt.threads = 1;
  const PipelineSearchResult one = search_pipeline_mappings(omega, w, chain,
                                                            opt);
  opt.threads = 4;
  const PipelineSearchResult four = search_pipeline_mappings(omega, w, chain,
                                                             opt);
  EXPECT_EQ(one.generated, four.generated);
  EXPECT_EQ(one.evaluated, four.evaluated);
  EXPECT_EQ(one.pruned, four.pruned);
  EXPECT_EQ(entries_of(one.ranked), entries_of(four.ranked));
  EXPECT_EQ(entries_of(one.pareto), entries_of(four.pareto));
  // Term counters are per-candidate sums, independent of the block layout.
  EXPECT_EQ(one.eval.term_requests, four.eval.term_requests);
  EXPECT_EQ(one.eval.term_builds, four.eval.term_builds);
}

TEST(PipelineValidationTest, ErrorsNameTheOffendingPhase) {
  // A sparse-dense phase is width-preserving: out_features must stay 0, and
  // the chain error says which phase got it wrong.
  PipelineChainSpec chain = gat_chain();
  chain.phases[1].out_features = 5;
  const auto err = chain.chain_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("phase 1"), std::string::npos) << *err;

  AcceleratorConfig hw;
  hw.num_pes = 64;
  const Omega omega(hw);
  EXPECT_THROW(
      (void)search_pipeline_mappings(omega, toy_workload(), chain, {}),
      Error);
}

TEST(PipelineValidationTest, ErrorsNameTheOffendingBoundary) {
  // Adjacent chunked boundaries are inadmissible; a hand-built spec that
  // violates the rule reports the phase/boundary index.
  const GnnWorkload w = toy_workload();
  PipelineChainSpec chain;
  chain.phases = {{.name = "a",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "b", .engine = PhaseEngine::kSparseDense},
                  {.name = "c",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 8}};
  std::vector<IntraPhaseDataflow> phases{
      {.phase = GnnPhase::kCombination,
       .order = LoopOrder(Dim::kV, Dim::kF, Dim::kG),
       .tiles = {}},
      {.phase = GnnPhase::kAggregation,
       .order = LoopOrder(Dim::kV, Dim::kN, Dim::kF),
       .tiles = {}},
      {.phase = GnnPhase::kCombination,
       .order = LoopOrder(Dim::kV, Dim::kF, Dim::kG),
       .tiles = {}}};
  std::vector<InterPhase> bounds{InterPhase::kSPGeneric,
                                 InterPhase::kSPGeneric};
  const PipelineSpec spec =
      chain.bind({phases, bounds, std::span<const double>{}});
  const auto err = spec.validation_error();
  ASSERT_TRUE(err.has_value());
  EXPECT_TRUE(err->find("phase 1") != std::string::npos ||
              err->find("boundary") != std::string::npos)
      << *err;
}

}  // namespace
}  // namespace omega
