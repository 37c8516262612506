// Cached evaluation core vs the uncached oracle (engine/eval_core.hpp).
//
// The parity contract under test: for every binding — valid or not —
// PipelineEvalPlan::evaluate_batch returns bit-identical (cycles,
// on_chip_pj) to Omega::run_pipeline on the bound spec without a context,
// and ok == false exactly when run_pipeline throws Error. The fuzz walks
// random base bindings plus single-field mutations (the neighborhood
// structure the delta slots are built for) on the classic AC and CA chains
// and a 3-phase chain with PP and SP boundaries, reusing one
// PipelineDeltaState throughout so stale slots from a previous candidate —
// or a previous chain — can never leak into the next. Search-level parity
// runs on the small fuzz graph in every inter-phase mode and at sweep size
// on default-accelerator R-MAT graphs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dse/pipeline_search.hpp"
#include "engine/eval_core.hpp"
#include "graph/generators.hpp"
#include "omega/omega.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace omega {
namespace {

GnnWorkload fuzz_workload() {
  Rng rng(29);
  GnnWorkload w;
  w.name = "fuzz";
  w.adjacency = rmat(7, 800, rng).with_self_loops().gcn_normalized();
  w.in_features = 24;
  return w;
}

AcceleratorConfig small_hw() {
  AcceleratorConfig hw;
  hw.num_pes = 64;
  return hw;
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

/// gemm(16) -> spmm -> spgemm(8, d=0.5): the score->agg boundary admits PP,
/// the agg->xform boundary only Seq or SP (a sparse-weight consumer).
PipelineChainSpec three_phase_chain() {
  PipelineChainSpec c;
  c.phases = {{.name = "score",
               .engine = PhaseEngine::kDenseDense,
               .out_features = 16},
              {.name = "agg", .engine = PhaseEngine::kSparseDense},
              {.name = "xform",
               .engine = PhaseEngine::kSparseSparse,
               .out_features = 8,
               .weight_density = 0.5}};
  return c;
}

std::vector<PipelineChainSpec> fuzz_chains() {
  return {classic_chain(PhaseOrder::kAC), classic_chain(PhaseOrder::kCA),
          three_phase_chain()};
}

EvalOutcome oracle(const Omega& omega, const GnnWorkload& w,
                   const PipelineChainSpec& chain,
                   const PipelineCandidate& c) {
  EvalOutcome o;
  try {
    const PipelineResult r = omega.run_pipeline(w, chain.bind(c.view()));
    o.cycles = r.cycles;
    o.on_chip_pj = r.energy.on_chip_pj();
    o.ok = true;
  } catch (const Error&) {
    o.ok = false;
  }
  return o;
}

/// Mutates exactly one binding field. Mutants may be invalid (bad tile
/// shapes, infeasible hand-offs, PP shares outside (0, 1)) — the contract
/// covers those too: both paths must agree the candidate is infeasible.
PipelineCandidate mutate_one_field(PipelineCandidate c, std::mt19937& rng) {
  const auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const std::size_t n = c.phases.size();
  switch (pick(4)) {
    case 0: {
      if (c.boundaries.empty()) break;
      c.boundaries[pick(c.boundaries.size())] =
          static_cast<InterPhase>(pick(4));
      break;
    }
    case 1: {
      IntraPhaseDataflow& df = c.phases[pick(n)];
      std::array<Dim, 3> dims{df.order.at(0), df.order.at(1), df.order.at(2)};
      std::shuffle(dims.begin(), dims.end(), rng);
      df.order = LoopOrder(dims[0], dims[1], dims[2]);
      break;
    }
    case 2: {
      IntraPhaseDataflow& df = c.phases[pick(n)];
      const Dim d = phase_dims(df.phase)[pick(3)];
      const std::size_t t = df.tiles.get(d);
      df.tiles.set(d, pick(2) == 0 ? t * 2 : std::max<std::size_t>(1, t / 2));
      break;
    }
    default: {
      constexpr double kFracs[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, -1.0};
      if (pick(4) == 0) {
        c.pe_fractions.clear();
      } else {
        if (c.pe_fractions.size() != n) c.pe_fractions.assign(n, 1.0);
        c.pe_fractions[pick(n)] = pick(8) == 0
                                      ? std::numeric_limits<double>::quiet_NaN()
                                      : kFracs[pick(8)];
      }
      break;
    }
  }
  return c;
}

void expect_same(const EvalOutcome& got, const EvalOutcome& want,
                 const std::string& what) {
  ASSERT_EQ(got.ok, want.ok) << what;
  ASSERT_EQ(got.cycles, want.cycles) << what;
  ASSERT_EQ(got.on_chip_pj, want.on_chip_pj) << what;
}

TEST(EvalCoreFuzz, BindingMutationsMatchUncachedRunPipeline) {
  const GnnWorkload w = fuzz_workload();
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  const std::vector<PipelineChainSpec> chains = fuzz_chains();

  std::mt19937 rng(20240807);
  PipelineDeltaState state;  // reused across all cases and chains
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  for (const PipelineChainSpec& chain : chains) {
    SCOPED_TRACE(chain.to_string());
    const std::vector<PipelineCandidate> base = enumerate_pipeline_candidates(
        chain, 0, w, omega.config().num_pes);
    ASSERT_GT(base.size(), 100u);
    const auto plan = PipelineEvalPlan::obtain(omega, w, chain, context);
    ASSERT_NE(plan, nullptr);

    std::vector<PipelineCandidate> cases;
    std::vector<EvalOutcome> expected;
    std::size_t chain_feasible = 0;
    while (cases.size() < 1400) {
      const PipelineCandidate& b = base[std::uniform_int_distribution<
          std::size_t>(0, base.size() - 1)(rng)];
      for (PipelineCandidate c : {b, mutate_one_field(b, rng)}) {
        const EvalOutcome want = oracle(omega, w, chain, c);
        const PipelineBindingView view = c.view();
        EvalOutcome got;
        plan->evaluate_batch({&view, 1}, &got, state);
        expect_same(got, want, chain.bind(view).to_string());
        chain_feasible += want.ok ? 1 : 0;
        (want.ok ? feasible : infeasible) += 1;
        cases.push_back(std::move(c));
        expected.push_back(want);
      }
    }
    EXPECT_GE(plan->term_requests(), chain.phases.size() * chain_feasible);
    EXPECT_LE(plan->term_builds(), plan->term_requests());

    // Block pass over the same population: outcomes must not depend on how
    // candidates are grouped into evaluate_batch calls.
    std::vector<PipelineBindingView> views;
    for (const PipelineCandidate& c : cases) views.push_back(c.view());
    std::vector<EvalOutcome> out(views.size());
    for (std::size_t from = 0; from < views.size(); from += 257) {
      const std::size_t m = std::min<std::size_t>(257, views.size() - from);
      plan->evaluate_batch({views.data() + from, m}, out.data() + from, state);
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      expect_same(out[i], expected[i], chain.bind(views[i]).to_string());
    }
  }
  // The neighborhood must exercise both verdicts, or the fuzz proves less
  // than it claims.
  EXPECT_GT(feasible, 300u);
  EXPECT_GT(infeasible, 300u);
  EXPECT_GT(state.delta_hits, 0u);
}

/// Big-grid terms (past kPhaseMemoMaxChunks) keep only the timeline their
/// boundary role composes from: a PP producer's chunk_completion, a PP
/// consumer's chunk_cycles, none at SP-generic. The store charges exactly
/// the run bytes the kept timelines hold. The SP-generic and PP variants of
/// one binding share their dataflows and chunk grid, so a key collision
/// between them would hand a stripped SP-generic term to PP composition and
/// break parity.
TEST(EvalCoreTerms, BigGridTermsKeepOnlyTheTimelineCompositionReads) {
  Rng graph_rng(31);
  GnnWorkload w;
  w.name = "big-grid";
  w.adjacency =
      rmat(12, 12000, graph_rng).with_self_loops().gcn_normalized();
  w.in_features = 16;
  const Omega omega(small_hw());
  const PipelineChainSpec chain = classic_chain(PhaseOrder::kAC);

  PipelineSearchOptions pp_only;
  pp_only.include_seq = false;
  pp_only.include_sp_generic = false;
  pp_only.include_sp_optimized = false;
  const std::vector<PipelineCandidate> pp_space = enumerate_pipeline_candidates(
      chain, 0, w, omega.config().num_pes, pp_only);

  // Feasible PP bindings whose grid is past the memo bound, all on one grid
  // size, each paired with its SP-generic variant.
  std::size_t grid = 0;
  std::vector<PipelineCandidate> pp;
  std::vector<PipelineCandidate> spg;
  std::vector<EvalOutcome> pp_want;
  std::vector<EvalOutcome> spg_want;
  for (std::size_t i = 0; i < pp_space.size() && pp.size() < 24; i += 7) {
    const PipelineCandidate& c = pp_space[i];
    if (c.boundaries.at(0) != InterPhase::kParallelPipeline) continue;
    std::size_t chunks = 0;
    try {
      chunks = omega.run_pipeline(w, chain.bind(c.view()))
                   .boundaries.at(0)
                   .pipeline_chunks;
    } catch (const Error&) {
      continue;
    }
    if (chunks <= kPhaseMemoMaxChunks || (grid != 0 && chunks != grid)) {
      continue;
    }
    PipelineCandidate g = c;
    g.boundaries[0] = InterPhase::kSPGeneric;
    const EvalOutcome g_want = oracle(omega, w, chain, g);
    if (!g_want.ok) continue;
    grid = chunks;
    pp_want.push_back(oracle(omega, w, chain, c));
    spg_want.push_back(g_want);
    pp.push_back(c);
    spg.push_back(std::move(g));
  }
  ASSERT_GE(pp.size(), 8u);

  const auto evaluate = [&](const PipelineEvalPlan& plan,
                            const PipelineCandidate& c,
                            PipelineDeltaState& state) {
    const PipelineBindingView view = c.view();
    EvalOutcome got;
    plan.evaluate_batch({&view, 1}, &got, state);
    return got;
  };

  // One plan, one delta state, SP-generic and PP variants alternating —
  // twice, so the second pass reads every term back from the store.
  const WorkloadContext mixed_ctx(w.adjacency);
  const auto mixed = PipelineEvalPlan::obtain(omega, w, chain, mixed_ctx);
  PipelineDeltaState state;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < pp.size(); ++i) {
      expect_same(evaluate(*mixed, spg[i], state), spg_want[i],
                  chain.bind(spg[i].view()).to_string());
      expect_same(evaluate(*mixed, pp[i], state), pp_want[i],
                  chain.bind(pp[i].view()).to_string());
    }
  }

  // SP-generic terms compose by sat-add over `cycles`: no timeline bytes.
  const WorkloadContext spg_ctx(w.adjacency);
  const auto spg_plan = PipelineEvalPlan::obtain(omega, w, chain, spg_ctx);
  PipelineDeltaState spg_state;
  for (std::size_t i = 0; i < spg.size(); ++i) {
    expect_same(evaluate(*spg_plan, spg[i], spg_state), spg_want[i],
                chain.bind(spg[i].view()).to_string());
  }
  EXPECT_GT(spg_plan->term_count(), 0u);
  EXPECT_EQ(spg_plan->term_timeline_bytes(), 0u);

  // Every PP term is big-grid and keeps one compact timeline: the store
  // charges the run bytes of the distinct terms' kept timelines, recomputed
  // here from fresh simulations (the AC producer is phase 0, the consumer
  // phase 1).
  const WorkloadContext pp_ctx(w.adjacency);
  const auto pp_plan = PipelineEvalPlan::obtain(omega, w, chain, pp_ctx);
  PipelineDeltaState pp_state;
  for (std::size_t i = 0; i < pp.size(); ++i) {
    expect_same(evaluate(*pp_plan, pp[i], pp_state), pp_want[i],
                chain.bind(pp[i].view()).to_string());
  }
  std::vector<std::unique_ptr<const CSRGraph>> weights;
  const std::vector<PipelinePhaseShape> shapes =
      pipeline_shapes(chain.phases, w.in_features, weights);
  std::map<std::array<std::uint64_t, 22>, std::size_t> held;
  for (const PipelineCandidate& c : pp) {
    std::vector<PhaseEngineConfig> configs(shapes.size());
    std::vector<BoundaryOutcome> boundaries(shapes.size() - 1);
    (void)derive_pipeline(omega.config(), w.adjacency, nullptr, shapes,
                          c.view(), configs, boundaries);
    for (std::size_t p = 0; p < configs.size(); ++p) {
      ASSERT_TRUE(big_grid(configs[p]));
      const PhaseResult r = *simulate_phase(configs[p], nullptr);
      const EvalTermKey key = configs[p].is_gemm ? term_key(configs[p].gemm)
                                                 : term_key(configs[p].spmm);
      held[key.w] =
          p == 0 ? r.chunk_completion.bytes() : r.chunk_cycles.bytes();
    }
  }
  std::size_t held_bytes = 0;
  for (const auto& [key, bytes] : held) held_bytes += bytes;
  EXPECT_EQ(pp_plan->term_count(), held.size());
  EXPECT_EQ(pp_plan->term_timeline_bytes(), held_bytes);
  // Far below the one u64 per chunk the terms held as plain vectors.
  EXPECT_LT(pp_plan->term_timeline_bytes(),
            pp_plan->term_count() * grid * sizeof(std::uint64_t) / 2);

  // The mixed plan holds both sets of terms side by side, none shared, and
  // pays only for the PP ones.
  EXPECT_EQ(mixed->term_count(),
            spg_plan->term_count() + pp_plan->term_count());
  EXPECT_EQ(mixed->term_timeline_bytes(), pp_plan->term_timeline_bytes());
}

TEST(EvalCoreFuzz, PlanIsCachedPerContextSignature) {
  const GnnWorkload w = fuzz_workload();
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);
  const PipelineChainSpec ac = classic_chain(PhaseOrder::kAC);
  const auto a = PipelineEvalPlan::obtain(omega, w, ac, context);
  EXPECT_EQ(a.get(), PipelineEvalPlan::obtain(omega, w, ac, context).get());
  EXPECT_EQ(context.eval_plan_count(), 1u);
  // Phase names never affect costs, so they share the plan.
  PipelineChainSpec renamed = ac;
  renamed.phases[0].name = "aggregate";
  EXPECT_EQ(a.get(),
            PipelineEvalPlan::obtain(omega, w, renamed, context).get());
  // A different output width is a different plan.
  PipelineChainSpec wider = ac;
  wider.phases[1].out_features = 8;
  EXPECT_NE(a.get(), PipelineEvalPlan::obtain(omega, w, wider, context).get());
  EXPECT_EQ(context.eval_plan_count(), 2u);
}

/// Every ranked and Pareto entry of a search must re-evaluate bit-identically
/// through uncached run_pipeline, at 1 and 4 threads, for all four
/// inter-phase modes — the acceptance gate of the cached path.
class EvalCoreSearchParity : public ::testing::TestWithParam<InterPhase> {};

void expect_entries_match_oracle(const Omega& omega, const GnnWorkload& w,
                                 std::span<const PipelineChainSpec> chains,
                                 const std::vector<RankedPipelineCandidate>& v,
                                 const std::string& label) {
  SCOPED_TRACE(label);
  for (const RankedPipelineCandidate& rc : v) {
    const PipelineResult r = omega.run_pipeline(
        w, chains[rc.candidate.chain_index].bind(rc.candidate.view()));
    EXPECT_EQ(rc.cycles, r.cycles) << rc.key;
    EXPECT_EQ(rc.on_chip_pj, r.energy.on_chip_pj()) << rc.key;
  }
}

void expect_same_entries(const std::vector<RankedPipelineCandidate>& a,
                         const std::vector<RankedPipelineCandidate>& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].on_chip_pj, b[i].on_chip_pj);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

TEST_P(EvalCoreSearchParity, RankedAndParetoMatchUncachedAcrossThreads) {
  const GnnWorkload w = fuzz_workload();
  const Omega omega(small_hw());
  const std::vector<PipelineChainSpec> chains = fuzz_chains();

  PipelineSearchOptions base;
  base.include_seq = GetParam() == InterPhase::kSequential;
  base.include_sp_generic = GetParam() == InterPhase::kSPGeneric;
  base.include_sp_optimized = GetParam() == InterPhase::kSPOptimized;
  base.include_pp = GetParam() == InterPhase::kParallelPipeline;
  base.top_k = 32;
  base.max_candidates = 1500;

  PipelineSearchResult first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PipelineSearchOptions so = base;
    so.threads = threads;
    const PipelineSearchResult got =
        search_pipeline_mappings(omega, w, chains, so);
    const std::string label = "t" + std::to_string(threads);
    ASSERT_GT(got.evaluated, 0u) << label;
    expect_entries_match_oracle(omega, w, chains, got.ranked,
                                label + "/ranked");
    expect_entries_match_oracle(omega, w, chains, got.pareto,
                                label + "/pareto");
    EXPECT_GT(got.eval.term_requests, 0u) << label;
    EXPECT_GT(got.eval.batches, 0u) << label;
    EXPECT_GT(got.eval.max_batch, 0u) << label;
    if (threads == 1) {
      first = got;
      continue;
    }
    EXPECT_EQ(got.generated, first.generated);
    EXPECT_EQ(got.evaluated, first.evaluated);
    EXPECT_EQ(got.eval.batched_candidates, first.eval.batched_candidates);
    expect_same_entries(first.ranked, got.ranked, "ranked t1 vs t4");
    expect_same_entries(first.pareto, got.pareto, "pareto t1 vs t4");
  }
}

INSTANTIATE_TEST_SUITE_P(AllInterPhaseModes, EvalCoreSearchParity,
                         ::testing::Values(InterPhase::kSequential,
                                           InterPhase::kSPGeneric,
                                           InterPhase::kSPOptimized,
                                           InterPhase::kParallelPipeline));

TEST(EvalCoreSearch, PrunedSearchKeepsTheUnprunedBest) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());

  SearchOptions full;
  full.include_ca = true;
  const SearchResult want = search_mappings(omega, w, layer, full);

  SearchOptions pruned = full;
  pruned.prune = true;
  const SearchResult got = search_mappings(omega, w, layer, pruned);
  EXPECT_EQ(got.best().cycles, want.best().cycles);
  EXPECT_EQ(got.best().dataflow.to_string(), want.best().dataflow.to_string());
  EXPECT_EQ(got.best().cycles, omega.run(w, layer, got.best().dataflow).cycles);
}

/// The parity gate at sweep size: the classic AC and CA chains on an R-MAT
/// graph and the default accelerator, searched through one context (the
/// production path), against uncached run_pipeline on a stride sample of
/// the searched candidates through the plans the search left warm, and on
/// every ranked and Pareto entry. At scale 16 big-grid terms dominate the
/// term store. Both sides simulate through the same engines, so this checks
/// cache parity, not the engines.
struct RmatSweep {
  std::size_t scale;
  std::size_t edges;
  std::size_t max_candidates;
  std::size_t sample;
};

TEST(EvalCoreSearch, RmatSweepMatchesUncached) {
  const Omega omega(default_accelerator());
  const std::vector<PipelineChainSpec> chains = {
      classic_chain(PhaseOrder::kAC), classic_chain(PhaseOrder::kCA)};
  for (const RmatSweep& sweep : {RmatSweep{14, 131072, 16384, 512},
                                 RmatSweep{16, 524288, 8192, 256}}) {
    SCOPED_TRACE("R-MAT scale " + std::to_string(sweep.scale));
    Rng rng(42);
    GnnWorkload w;
    w.name = "rmat-s" + std::to_string(sweep.scale);
    w.adjacency =
        rmat(sweep.scale, sweep.edges, rng).with_self_loops().gcn_normalized();
    w.in_features = 64;

    PipelineSearchOptions opt;
    opt.max_candidates = sweep.max_candidates;
    opt.seed_table5 = false;

    // The searched candidates: the per-chain populations concatenated, then
    // the search's stride subsample. The oracle sample strides over those.
    std::vector<PipelineCandidate> population;
    for (std::size_t c = 0; c < chains.size(); ++c) {
      std::vector<PipelineCandidate> pop = enumerate_pipeline_candidates(
          chains[c], c, w, omega.config().num_pes, opt);
      std::move(pop.begin(), pop.end(), std::back_inserter(population));
    }
    const std::size_t selected =
        std::min(population.size(), sweep.max_candidates);
    ASSERT_GE(selected, sweep.sample);
    std::vector<const PipelineCandidate*> sample;
    for (std::size_t i = 0; i < sweep.sample; ++i) {
      const std::size_t k = stride_sample_index(i, selected, sweep.sample);
      sample.push_back(
          &population[stride_sample_index(k, population.size(), selected)]);
    }
    std::vector<EvalOutcome> want(sample.size());
    parallel_blocks(sample.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        want[i] = oracle(omega, w, chains[sample[i]->chain_index], *sample[i]);
      }
    });

    const WorkloadContext context(w.adjacency);
    const PipelineSearchResult searched =
        search_pipeline_mappings(omega, w, chains, opt, &context);
    EXPECT_EQ(searched.generated, population.size());
    ASSERT_FALSE(searched.ranked.empty());

    PipelineDeltaState state;
    std::size_t feasible = 0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const PipelineChainSpec& chain = chains[sample[i]->chain_index];
      const auto plan = PipelineEvalPlan::obtain(omega, w, chain, context);
      const PipelineBindingView view = sample[i]->view();
      EvalOutcome got;
      plan->evaluate_batch({&view, 1}, &got, state);
      expect_same(got, want[i], chain.bind(view).to_string());
      feasible += want[i].ok ? 1 : 0;
    }
    EXPECT_GT(feasible, sample.size() / 2);
    expect_entries_match_oracle(omega, w, chains, searched.ranked, "ranked");
    expect_entries_match_oracle(omega, w, chains, searched.pareto, "pareto");
  }
}

TEST(EvalCoreStats, ContextAggregatesPlanCounters) {
  const GnnWorkload w = fuzz_workload();
  const LayerSpec layer{16};
  const Omega omega(small_hw());
  const WorkloadContext context(w.adjacency);

  SearchOptions so;
  so.max_candidates = 256;
  const SearchResult r = search_mappings(omega, w, layer, so, &context);
  ASSERT_GT(r.evaluated, 0u);

  const ContextEvalStats stats = context.eval_stats();
  EXPECT_EQ(stats.plans, 1u);
  EXPECT_GT(stats.terms, 0u);
  EXPECT_EQ(stats.term_requests, r.eval.term_requests);
  EXPECT_EQ(stats.term_builds, r.eval.term_builds);
  EXPECT_LE(stats.term_builds, stats.term_requests);
}

}  // namespace
}  // namespace omega
