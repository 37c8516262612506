// Microbenchmarks of the OMEGA framework itself: cost-model evaluation
// throughput is what makes design-space exploration practical (trillions of
// mappings exist; a mapper needs fast evaluations).
//
// Besides the google-benchmark micro benches, this binary runs a DSE parity
// sweep on an R-MAT graph: the classic two-phase layer (AC + CA chains) is
// searched through search_pipeline_mappings on one WorkloadContext — the
// cached production path, PipelineEvalPlan per chain — and a stride sample
// of the same candidates runs through uncached Omega::run_pipeline (every
// candidate re-transposes, re-schedules and re-simulates), the oracle. The
// exit code enforces bit-parity: the sample through the warm plans against
// the oracle (infeasible candidates included), and every ranked and Pareto
// entry re-evaluated uncached. The sweep is untimed: search speed is the
// committed benchmark's dse-sweep-rmat16 workload (perfbench/), which
// tools/bench_ab.py gates against the parent commit.
//
// Knobs: OMEGA_DSE_SCALE (R-MAT scale, default 16 => 65536 vertices),
//        OMEGA_DSE_EDGES (edge budget, default 524288),
//        OMEGA_DSE_CANDIDATES (search cap, default 16384),
//        OMEGA_DSE_BASELINE (uncached parity sample size, default 1024),
//        --dse-only (DSE + model sweeps only; skip the micro benches),
//        --dse-skip (micro benches only; skip both sweeps).
// A malformed knob value, or a count of 0, fails its sweep before the
// sweep starts.
//
// The model sweep (run_model_sweep) measures model-level DSE: a multi-layer
// GCN searched with a per-layer mapping (one shared WorkloadContext,
// ideal-MAC pruning) against the best single fixed Table V pattern replayed
// over all layers, reporting candidates/sec, the pruning win, and the
// heterogeneous-vs-fixed cycle speedup. Knobs: OMEGA_MODEL_DATASET
// (default Citeseer), OMEGA_MODEL_SCALE_PCT (workload scale in percent,
// default 25), OMEGA_MODEL_WIDTHS (hidden widths, default "128,32,8"),
// OMEGA_MODEL_CANDIDATES (per-layer cap, default 4096), OMEGA_MODEL_JSON
// (default BENCH_model_dse.json), --model-only / --model-skip.
//
// --pipeline-dse runs the N-phase search sweep (run_pipeline_dse_sweep): an
// EDP search over a 3-phase GAT-style chain, gating prune-parity (pruned
// best == unpruned best) and parity of every ranked and Pareto entry with
// uncached run_pipeline, writing
// BENCH_pipeline_dse.json. Knobs: OMEGA_PDSE_SCALE_PCT, OMEGA_PDSE_CANDIDATES,
// OMEGA_PDSE_JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>

#include "bench_common.hpp"
#include "dataflow/enumerate.hpp"
#include "engine/eval_core.hpp"
#include "dse/model_search.hpp"
#include "dse/pipeline_search.hpp"
#include "dse/search.hpp"
#include "graph/generators.hpp"
#include "omega/pipeline.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using namespace omega;
using namespace omega::bench;

const GnnWorkload& citeseer() {
  static const GnnWorkload w = [] {
    SynthesisOptions opt;
    opt.scale = 0.25;  // keep per-iteration cost benchmarkable
    return synthesize_workload(dataset_by_name("Citeseer"), opt);
  }();
  return w;
}

void BM_RunPattern(benchmark::State& state) {
  const Omega omega(default_accelerator());
  const auto& pattern = table5_patterns()[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(pattern.name);
  for (auto _ : state) {
    const RunResult r = omega.run_pattern(citeseer(), eval_layer(), pattern);
    benchmark::DoNotOptimize(r.cycles);
  }
}
BENCHMARK(BM_RunPattern)->DenseRange(0, 8)->Unit(benchmark::kMillisecond);

void BM_TaxonomyEnumeration(benchmark::State& state) {
  for (auto _ : state) {
    const auto counts = enumerate_design_space();
    benchmark::DoNotOptimize(counts.total());
  }
}
BENCHMARK(BM_TaxonomyEnumeration)->Unit(benchmark::kMillisecond);

void BM_SynthesizeWorkload(benchmark::State& state) {
  SynthesisOptions opt;
  opt.scale = 0.25;
  for (auto _ : state) {
    const GnnWorkload w =
        synthesize_workload(dataset_by_name("Citeseer"), opt);
    benchmark::DoNotOptimize(w.num_edges());
  }
}
BENCHMARK(BM_SynthesizeWorkload)->Unit(benchmark::kMillisecond);

void BM_MappingSearch(benchmark::State& state) {
  const Omega omega(default_accelerator());
  SearchOptions opt;
  opt.max_candidates = static_cast<std::size_t>(state.range(0));
  opt.threads = 0;
  for (auto _ : state) {
    const SearchResult r =
        search_mappings(omega, citeseer(), eval_layer(), opt);
    benchmark::DoNotOptimize(r.evaluated);
  }
  state.counters["evaluated"] = static_cast<double>(opt.max_candidates);
}
BENCHMARK(BM_MappingSearch)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// ---- DSE parity sweep: cached search vs uncached run_pipeline -------------

/// (cycles, energy bits) per outcome; infeasible outcomes stay (0, 0).
void append_outcome(std::vector<std::uint64_t>& fp, const EvalOutcome& o) {
  fp.push_back(o.cycles);
  fp.push_back(std::bit_cast<std::uint64_t>(o.on_chip_pj));
}

/// The oracle: uncached Omega::run_pipeline on the bound spec.
EvalOutcome run_uncached(const Omega& omega, const GnnWorkload& w,
                         const PipelineChainSpec& chain,
                         const PipelineCandidate& c) {
  try {
    const PipelineResult r = omega.run_pipeline(w, chain.bind(c.view()));
    return {r.cycles, r.energy.on_chip_pj(), true};
  } catch (const Error&) {
    return {};
  }
}

/// True when every ranked and Pareto entry re-evaluates bit-identically
/// through uncached run_pipeline.
bool entries_match_uncached(const Omega& omega, const GnnWorkload& w,
                            std::span<const PipelineChainSpec> chains,
                            const PipelineSearchResult& r) {
  for (const auto* list : {&r.ranked, &r.pareto}) {
    for (const RankedPipelineCandidate& rc : *list) {
      const EvalOutcome o = run_uncached(
          omega, w, chains[rc.candidate.chain_index], rc.candidate);
      if (!o.ok || o.cycles != rc.cycles || o.on_chip_pj != rc.on_chip_pj) {
        std::cout << "ORACLE MISMATCH on " << rc.key << "\n";
        return false;
      }
    }
  }
  return true;
}

int run_dse_sweep() {
  const std::size_t scale = env_count("OMEGA_DSE_SCALE", 16);
  const std::size_t edge_budget = env_count("OMEGA_DSE_EDGES", 524288);
  const std::size_t max_candidates = env_count("OMEGA_DSE_CANDIDATES", 16384);
  const std::size_t baseline_n = env_count("OMEGA_DSE_BASELINE", 1024);

  std::cout << "\n== DSE parity sweep: cached search vs uncached "
               "run_pipeline ==\n";
  Rng rng(42);
  GnnWorkload w;
  w.name = "rmat-s" + std::to_string(scale);
  w.adjacency =
      rmat(scale, edge_budget, rng).with_self_loops().gcn_normalized();
  w.in_features = 64;
  std::cout << "graph: " << w.num_vertices() << " vertices, " << w.num_edges()
            << " edges (R-MAT scale " << scale << ")\n";

  // The classic two-phase layer in both phase orders, as search_mappings
  // with include_ca searches it.
  const Omega omega(default_accelerator());
  const PhaseChainSpec agg{.name = "agg", .engine = PhaseEngine::kSparseDense};
  const PhaseChainSpec cmb{.name = "cmb",
                           .engine = PhaseEngine::kDenseDense,
                           .out_features = eval_layer().out_features};
  const std::vector<PipelineChainSpec> chains = {{.phases = {agg, cmb}},
                                                 {.phases = {cmb, agg}}};
  PipelineSearchOptions opt;
  opt.max_candidates = max_candidates;
  opt.seed_table5 = false;

  // The population the search samples from: the per-chain populations
  // concatenated, then the deterministic stride subsample. The uncached
  // oracle runs on a stride subsample of the searched candidates.
  std::vector<PipelineCandidate> population;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::vector<PipelineCandidate> pop = enumerate_pipeline_candidates(
        chains[c], c, w, omega.config().num_pes, opt);
    std::move(pop.begin(), pop.end(), std::back_inserter(population));
  }
  const std::size_t selected = std::min(population.size(), max_candidates);
  const std::size_t baseline_count = std::min(baseline_n, selected);
  std::vector<const PipelineCandidate*> baseline;
  for (std::size_t i = 0; i < baseline_count; ++i) {
    const std::size_t k = stride_sample_index(i, selected, baseline_count);
    baseline.push_back(
        &population[stride_sample_index(k, population.size(), selected)]);
  }
  std::cout << "candidates: " << selected << " (of " << population.size()
            << " generated; uncached parity sample " << baseline.size()
            << ")\n";

  // Uncached: every candidate pays its own transpose, schedules and full
  // phase simulations.
  std::vector<EvalOutcome> uncached(baseline.size());
  parallel_blocks(baseline.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      uncached[i] = run_uncached(omega, w, chains[baseline[i]->chain_index],
                                 *baseline[i]);
    }
  });
  std::vector<std::uint64_t> uncached_fp;
  for (const EvalOutcome& o : uncached) append_outcome(uncached_fp, o);

  // Cached: the production path, search_pipeline_mappings through one
  // context, which leaves the plans' term stores warm.
  const WorkloadContext context(w.adjacency);
  const PipelineSearchResult searched =
      search_pipeline_mappings(omega, w, chains, opt, &context);

  // Parity gates: the sample through the warm plans must match the
  // uncached outcomes bit-for-bit (infeasible ones included), and every
  // ranked and Pareto entry must re-evaluate identically uncached.
  std::vector<std::uint64_t> plan_fp;
  PipelineDeltaState state;
  for (const PipelineCandidate* c : baseline) {
    const auto plan =
        PipelineEvalPlan::obtain(omega, w, chains[c->chain_index], context);
    const PipelineBindingView view = c->view();
    EvalOutcome o;
    plan->evaluate_batch({&view, 1}, &o, state);
    append_outcome(plan_fp, o);
  }
  const bool identical = plan_fp == uncached_fp &&
                         entries_match_uncached(omega, w, chains, searched);
  std::cout << "parity:   " << (identical ? "bit-identical" : "MISMATCH")
            << "\n";
  return identical ? 0 : 1;
}

// ---- Model sweep: per-layer heterogeneous mappings vs best fixed pattern ----

std::string env_or_str(const char* name, const char* fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : fallback;
}

int run_model_sweep() {
  const std::string dataset = env_or_str("OMEGA_MODEL_DATASET", "Citeseer");
  const double scale =
      static_cast<double>(env_count("OMEGA_MODEL_SCALE_PCT", 25)) / 100.0;
  const std::string widths_csv = env_or_str("OMEGA_MODEL_WIDTHS", "128,32,8");
  const std::size_t per_layer_cap = env_count("OMEGA_MODEL_CANDIDATES", 4096);
  const std::string json_path =
      env_or_str("OMEGA_MODEL_JSON", "BENCH_model_dse.json");
  const std::size_t band_v = env_count("OMEGA_MODEL_BAND_V", 2048);
  const std::size_t band_half = env_count("OMEGA_MODEL_BAND_HALF", 16);

  std::cout << "\n== model sweep: per-layer mapping search ==\n";
  SynthesisOptions so;
  so.scale = scale;
  const GnnWorkload w = synthesize_workload(dataset_by_name(dataset), so);
  GnnModelSpec spec;
  spec.model = GnnModel::kGCN;
  spec.feature_widths.push_back(w.in_features);
  for (const auto& part : split(widths_csv, ',')) {
    spec.feature_widths.push_back(parse_count(part, "OMEGA_MODEL_WIDTHS"));
  }
  std::cout << "workload: " << w.name << " (V=" << w.num_vertices()
            << ", E=" << w.num_edges() << "), " << spec.num_layers()
            << "-layer GCN, widths";
  for (const std::size_t width : spec.feature_widths) {
    std::cout << " " << width;
  }
  std::cout << ", per-layer cap " << per_layer_cap << "\n";

  const Omega omega(default_accelerator());
  ModelSearchOptions opt;
  opt.layer.max_candidates = per_layer_cap;
  opt.layer.prune = false;

  const auto timed = [&](const ModelSearchOptions& o,
                         const WorkloadContext* ctx) {
    const auto t0 = std::chrono::steady_clock::now();
    ModelSearchResult r = search_model_mappings(omega, w, spec, o, ctx);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair<ModelSearchResult, double>(
        std::move(r), std::chrono::duration<double>(t1 - t0).count());
  };

  // Each timed sweep gets its own cold context, preserving the historical
  // timing semantics (a self-contained search pays its own warm-up).
  const WorkloadContext full_context(w.adjacency);
  const WorkloadContext pruned_context(w.adjacency);
  const auto [full, full_s] = timed(opt, &full_context);
  opt.layer.prune = true;
  const auto [pruned, pruned_s] = timed(opt, &pruned_context);

  // Cross-layer composition over the general design space: the pipelined
  // ranking can never report a worse model than the sequential one (its
  // composed makespan is <= every candidate's layer sum), which the exit
  // code enforces. Untimed, so it rides the pruned sweep's warmed context
  // instead of paying a third cold sweep.
  opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult piped =
      search_model_mappings(omega, w, spec, opt, &pruned_context);

  const bool same_best = full.best().to_string() == pruned.best().to_string() &&
                         full.best().total_cycles == pruned.best().total_cycles;
  const double full_rate =
      full_s > 0.0 ? static_cast<double>(full.evaluated) / full_s : 0.0;
  // The pruned rate counts every *decided* candidate (evaluated or culled):
  // that is the sweep's useful throughput.
  const double pruned_rate =
      pruned_s > 0.0
          ? static_cast<double>(pruned.evaluated + pruned.pruned) / pruned_s
          : 0.0;

  std::cout << "unpruned: " << fixed(full_rate, 1) << " candidates/sec ("
            << full.evaluated << " evaluated in " << fixed(full_s, 3)
            << " s)\n"
            << "pruned:   " << fixed(pruned_rate, 1) << " candidates/sec ("
            << pruned.evaluated << " evaluated + " << pruned.pruned
            << " culled in " << fixed(pruned_s, 3) << " s; "
            << fixed(pruned_s > 0.0 ? full_s / pruned_s : 0.0, 2)
            << "x sweep speedup)\n"
            << "best:     " << (same_best ? "bit-identical" : "MISMATCH")
            << " across prune on/off\n";

  for (std::size_t l = 0; l < pruned.layers.size(); ++l) {
    const Candidate& c = pruned.layers[l].search.best();
    std::cout << "  layer " << l << " (" << pruned.layers[l].spec.in_features
              << "->" << pruned.layers[l].spec.out_features
              << "): " << c.dataflow.to_string() << ", "
              << with_commas(c.cycles) << " cycles\n";
  }

  const auto fixed_run = best_fixed_pattern(omega, w, spec);
  double speedup = 0.0;
  if (fixed_run) {
    speedup = static_cast<double>(fixed_run->result.total_cycles) /
              static_cast<double>(
                  std::max<std::uint64_t>(pruned.best().total_cycles, 1));
    std::cout << "heterogeneous " << with_commas(pruned.best().total_cycles)
              << " cycles vs best fixed (" << fixed_run->name << ") "
              << with_commas(fixed_run->result.total_cycles) << " -> "
              << fixed(speedup, 3) << "x\n";
  }

  const bool pipe_ok =
      piped.best().composed_cycles <= pruned.best().total_cycles;
  const double pipe_speedup =
      static_cast<double>(pruned.best().total_cycles) /
      static_cast<double>(
          std::max<std::uint64_t>(piped.best().composed_cycles, 1));
  std::cout << "pipelined composition: " << with_commas(
                   piped.best().composed_cycles)
            << " composed cycles (" << piped.best().overlapped_boundaries
            << " overlapped boundaries, " << fixed(pipe_speedup, 3)
            << "x vs sequential best" << (pipe_ok ? "" : "; REGRESSION")
            << ")\n";

  // PP-restricted composition study: a banded adjacency (the RCM-reordered
  // mesh archetype) with the search confined to the Parallel-Pipeline
  // corner — the VersaGNN-style systolic substrate where cross-layer
  // overlap is reachable. The model alternates a wide layer (64->64,
  // Combination-bound: long second-phase tail) with a narrow one (64->8,
  // Aggregation-bound at this degree: a first-phase head the intra-layer
  // pipeline cannot hide) — the shape where chunk-chained boundaries pay.
  // The pipelined ranking must *strictly* beat the sequential sum here;
  // both that gate and the general-space never-worse gate feed the exit
  // code.
  GnnWorkload band;
  band.name = "band-" + std::to_string(band_v) + "x" +
              std::to_string(band_half);
  band.adjacency = banded_graph(band_v, band_half).gcn_normalized();
  band.in_features = 64;
  GnnModelSpec band_spec;
  band_spec.model = GnnModel::kGCN;
  band_spec.feature_widths = {64, 64, 8};
  ModelSearchOptions band_opt;
  band_opt.layer.max_candidates = std::min<std::size_t>(per_layer_cap, 800);
  band_opt.layer.include_seq = false;
  band_opt.layer.include_sp_generic = false;
  band_opt.layer.include_sp_optimized = false;
  band_opt.seed_table5 = false;  // Table V seeds include non-PP patterns
  const WorkloadContext band_context(band.adjacency);
  const ModelSearchResult band_seq =
      search_model_mappings(omega, band, band_spec, band_opt, &band_context);
  band_opt.compose = ModelCompose::kPipelined;
  const ModelSearchResult band_pipe =
      search_model_mappings(omega, band, band_spec, band_opt, &band_context);
  const bool band_ok =
      band_pipe.best().composed_cycles < band_seq.best().total_cycles;
  const double band_speedup =
      static_cast<double>(band_seq.best().total_cycles) /
      static_cast<double>(
          std::max<std::uint64_t>(band_pipe.best().composed_cycles, 1));
  std::cout << "PP-only banded study (" << band.name << "): sequential "
            << with_commas(band_seq.best().total_cycles) << " vs composed "
            << with_commas(band_pipe.best().composed_cycles) << " ("
            << band_pipe.best().overlapped_boundaries
            << " overlapped boundaries) -> " << fixed(band_speedup, 3)
            << "x" << (band_ok ? "" : "  NO STRICT IMPROVEMENT") << "\n";

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "model_dse_sweep");
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("layers", static_cast<std::uint64_t>(spec.num_layers()));
    jw.member("per_layer_cap", static_cast<std::uint64_t>(per_layer_cap));
    jw.key("unpruned").begin_object();
    jw.member("seconds", full_s);
    jw.member("evaluated", static_cast<std::uint64_t>(full.evaluated));
    jw.member("candidates_per_sec", full_rate);
    jw.end_object();
    jw.key("pruned").begin_object();
    jw.member("seconds", pruned_s);
    jw.member("evaluated", static_cast<std::uint64_t>(pruned.evaluated));
    jw.member("culled", static_cast<std::uint64_t>(pruned.pruned));
    jw.member("candidates_per_sec", pruned_rate);
    jw.end_object();
    jw.member("prune_sweep_speedup", pruned_s > 0.0 ? full_s / pruned_s : 0.0);
    jw.member("best_parity", same_best ? "bit-identical" : "mismatch");
    jw.member("heterogeneous_cycles", pruned.best().total_cycles);
    if (fixed_run) {
      jw.key("best_fixed").begin_object();
      jw.member("name", fixed_run->name);
      jw.member("cycles", fixed_run->result.total_cycles);
      jw.end_object();
      jw.member("speedup_vs_fixed", speedup);
    }
    jw.key("pipelined").begin_object();
    jw.member("composed_cycles", piped.best().composed_cycles);
    jw.member("sequential_best_cycles", pruned.best().total_cycles);
    jw.member("overlapped_boundaries",
              static_cast<std::uint64_t>(piped.best().overlapped_boundaries));
    jw.member("speedup_vs_sequential", pipe_speedup);
    jw.member("never_worse", pipe_ok);
    jw.end_object();
    jw.key("pipelined_banded_pp").begin_object();
    jw.member("workload", band.name);
    jw.member("sequential_cycles", band_seq.best().total_cycles);
    jw.member("composed_cycles", band_pipe.best().composed_cycles);
    jw.member("overlapped_boundaries",
              static_cast<std::uint64_t>(
                  band_pipe.best().overlapped_boundaries));
    jw.member("speedup_vs_sequential", band_speedup);
    jw.member("strict_improvement", band_ok);
    jw.end_object();
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return same_best && pipe_ok && band_ok ? 0 : 1;
}

// ---- Pipeline study: N-phase core + sparse-weight Combination ---------------

/// Gates (exit code): Omega::run and the explicit
/// two_phase_pipeline -> run_pipeline -> to_run_result path must agree
/// bit-for-bit on every Table V pattern (run() shares the pipeline core, so
/// this pins the adapter lowering and the RunResult view staying coherent —
/// the absolute legacy numbers are pinned separately by the v1 lines of the
/// service goldens and the pre-existing suites); a 3-phase pipeline must
/// evaluate end-to-end with a chunked boundary; and the sparse-weight
/// Combination cycles must be monotonically non-increasing as the weight
/// density drops. The dense-GEMM phase cycles are recorded alongside in
/// BENCH_pipeline.json as context (the two engines price the same MACs
/// through different models, so dense-vs-sparse is reported, not gated).
int run_pipeline_study() {
  const std::size_t scale_pct = env_count("OMEGA_PIPELINE_SCALE_PCT", 50);
  const char* json_path = std::getenv("OMEGA_PIPELINE_JSON");
  if (json_path == nullptr) json_path = "BENCH_pipeline.json";

  std::cout << "\n== Pipeline study: N-phase core + sparse-weight "
               "Combination ==\n";
  SynthesisOptions so;
  so.scale = static_cast<double>(scale_pct) / 100.0;
  const GnnWorkload w = synthesize_workload(dataset_by_name("Cora"), so);
  const Omega omega(default_accelerator());
  const LayerSpec layer{16};
  std::cout << "workload: " << w.name << " (" << w.num_vertices()
            << " vertices, " << w.num_edges() << " edges, F="
            << w.in_features << ")\n";

  // --- Gate 1: two-phase adapter parity over the Table V patterns ---------
  bool parity_ok = true;
  for (const DataflowPattern& pattern : table5_patterns()) {
    const DataflowDescriptor df =
        bind_tiles(pattern, dims_of(w, layer), omega.config());
    const RunResult legacy = omega.run(w, layer, df);
    PipelineResult pr = omega.run_pipeline(
        w, two_phase_pipeline(df, layer, omega.config().num_pes));
    const RunResult via = to_run_result(std::move(pr), df);
    const bool same = legacy.cycles == via.cycles &&
                      legacy.agg.cycles == via.agg.cycles &&
                      legacy.cmb.cycles == via.cmb.cycles &&
                      legacy.traffic.gb_total() == via.traffic.gb_total() &&
                      legacy.energy.total_pj() == via.energy.total_pj();
    if (!same) {
      std::cout << "PARITY MISMATCH on " << pattern.name << " ("
                << df.to_string() << "): legacy " << legacy.cycles
                << " vs pipeline " << via.cycles << "\n";
      parity_ok = false;
    }
  }
  std::cout << "two-phase adapter parity over Table V: "
            << (parity_ok ? "bit-identical" : "MISMATCH") << "\n";

  // --- Gate 2 + 3: 3-phase pipeline and the sparse-weight density sweep ---
  const auto gat_spec = [&](double density, bool sparse_w) {
    PipelineSpec s;
    PhaseSpec score;
    score.name = "score";
    score.engine = PhaseEngine::kDenseDense;
    score.dataflow =
        IntraPhaseDataflow::parse("VsFtGs", GnnPhase::kCombination);
    score.dataflow.tiles = {.v = 16, .n = 1, .f = 1, .g = 16};
    score.out_features = 16;
    PhaseSpec agg;
    agg.name = "agg";
    agg.engine = PhaseEngine::kSparseDense;
    agg.dataflow = IntraPhaseDataflow::parse("NtFsVt", GnnPhase::kAggregation);
    agg.dataflow.tiles = {.v = 1, .n = 8, .f = 16, .g = 1};
    PhaseSpec xform;
    xform.name = "xform";
    if (sparse_w) {
      xform.engine = PhaseEngine::kSparseSparse;
      xform.dataflow =
          IntraPhaseDataflow::parse("GsVtFt", GnnPhase::kCombination);
      xform.weight_density = density;
    } else {
      xform.engine = PhaseEngine::kDenseDense;
      xform.dataflow =
          IntraPhaseDataflow::parse("VtGsFt", GnnPhase::kCombination);
    }
    xform.dataflow.tiles = {.v = 1, .n = 1, .f = 1, .g = 8};
    xform.out_features = 8;
    s.phases = {score, agg, xform};
    s.boundaries = {InterPhase::kSPGeneric, InterPhase::kSequential};
    return s;
  };

  const PipelineResult three = omega.run_pipeline(w, gat_spec(1.0, true));
  const bool three_ok = three.phases.size() == 3 &&
                        three.boundaries[0].pipeline_chunks > 1 &&
                        three.cycles > 0;
  std::cout << "3-phase GAT pipeline: " << three.cycles << " cycles, "
            << three.boundaries[0].pipeline_chunks
            << " chunks across the score->agg boundary ("
            << (three_ok ? "ok" : "FAILED") << ")\n";

  const PipelineResult dense_run = omega.run_pipeline(w, gat_spec(1.0, false));
  const std::uint64_t dense_cycles = dense_run.phases[2].result.cycles;
  const std::vector<double> densities = {1.0, 0.5, 0.1};
  std::vector<std::uint64_t> sparse_cycles;
  std::vector<std::uint64_t> sparse_totals;
  bool monotone_ok = true;
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  for (const double d : densities) {
    const PipelineResult r = omega.run_pipeline(w, gat_spec(d, true));
    const std::uint64_t c = r.phases[2].result.cycles;
    if (c > prev) monotone_ok = false;
    prev = c;
    sparse_cycles.push_back(c);
    sparse_totals.push_back(r.cycles);
    std::cout << "  sparse-W density " << d << ": xform " << c
              << " cycles (dense-W " << dense_cycles << ")\n";
  }
  if (!monotone_ok) {
    std::cout << "DENSITY SWEEP NOT MONOTONE\n";
  }

  {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("adapter_parity_bit_identical", parity_ok);
    jw.key("three_phase").begin_object();
    jw.member("pipeline", gat_spec(1.0, true).to_string());
    jw.member("cycles", three.cycles);
    jw.member("boundary_chunks",
              static_cast<std::uint64_t>(three.boundaries[0].pipeline_chunks));
    jw.end_object();
    jw.member("dense_w_cycles", dense_cycles);
    jw.key("sparse_w").begin_array();
    for (std::size_t i = 0; i < densities.size(); ++i) {
      jw.begin_object();
      jw.member("density", densities[i]);
      jw.member("xform_cycles", sparse_cycles[i]);
      jw.member("total_cycles", sparse_totals[i]);
      jw.end_object();
    }
    jw.end_array();
    jw.member("monotone_non_increasing", monotone_ok);
    jw.end_object();
    std::ofstream json(json_path);
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return parity_ok && three_ok && monotone_ok ? 0 : 1;
}

// ---- Pipeline DSE sweep: N-phase search path --------------------------------

/// Gates (exit code): on a 3-phase GAT-style chain (dense score ->
/// sparse-dense aggregation -> sparse-weight transform), the EDP-pruned
/// search must return the same best candidate (key, cycles, energy, score)
/// as the unpruned one — the lossless-pruning contract of
/// dse/pipeline_search.hpp — and every ranked and Pareto entry of both
/// searches must re-evaluate bit-identically through uncached run_pipeline.
/// Throughput and the pruning win are reported and written to
/// BENCH_pipeline_dse.json. Knobs: OMEGA_PDSE_SCALE_PCT (Cora scale in
/// percent, default 25), OMEGA_PDSE_CANDIDATES (cap, default 512),
/// OMEGA_PDSE_JSON (output path).
int run_pipeline_dse_sweep() {
  const std::size_t scale_pct = env_count("OMEGA_PDSE_SCALE_PCT", 25);
  const std::size_t cap = env_count("OMEGA_PDSE_CANDIDATES", 512);
  const std::string json_path =
      env_or_str("OMEGA_PDSE_JSON", "BENCH_pipeline_dse.json");

  std::cout << "\n== pipeline DSE sweep: N-phase mapping search ==\n";
  SynthesisOptions so;
  so.scale = static_cast<double>(scale_pct) / 100.0;
  const GnnWorkload w = synthesize_workload(dataset_by_name("Cora"), so);
  const Omega omega(default_accelerator());

  PipelineChainSpec chain;
  chain.phases = {{.name = "score",
                   .engine = PhaseEngine::kDenseDense,
                   .out_features = 16},
                  {.name = "agg", .engine = PhaseEngine::kSparseDense},
                  {.name = "xform",
                   .engine = PhaseEngine::kSparseSparse,
                   .out_features = 8,
                   .weight_density = 0.5}};
  std::cout << "workload: " << w.name << " (V=" << w.num_vertices()
            << ", E=" << w.num_edges() << ")\nchain: " << chain.to_string()
            << "\ncap: " << cap << " candidates, objective EDP\n";

  PipelineSearchOptions base;
  base.objective = Objective::kEnergyDelayProduct;
  base.max_candidates = cap;
  const WorkloadContext context(w.adjacency);

  const auto timed = [&](const PipelineSearchOptions& o) {
    const auto t0 = std::chrono::steady_clock::now();
    PipelineSearchResult r = search_pipeline_mappings(omega, w, chain, o,
                                                      &context);
    const auto t1 = std::chrono::steady_clock::now();
    return std::pair<PipelineSearchResult, double>(
        std::move(r), std::chrono::duration<double>(t1 - t0).count());
  };

  PipelineSearchOptions pruned_opt = base;
  pruned_opt.prune = true;
  const auto [full, full_s] = timed(base);
  const auto [pruned, pruned_s] = timed(pruned_opt);

  const std::span<const PipelineChainSpec> chains(&chain, 1);
  const bool oracle_parity = entries_match_uncached(omega, w, chains, full) &&
                             entries_match_uncached(omega, w, chains, pruned);

  // Prune parity: the lossless-bound contract — same best, fewer
  // evaluations.
  const RankedPipelineCandidate& ub = full.best();
  const RankedPipelineCandidate& pb = pruned.best();
  const bool prune_parity = ub.key == pb.key && ub.cycles == pb.cycles &&
                            ub.on_chip_pj == pb.on_chip_pj &&
                            ub.score == pb.score;

  const auto rate = [](const PipelineSearchResult& r, double s) {
    return s > 0.0
               ? static_cast<double>(r.evaluated + r.pruned) / s
               : 0.0;
  };
  std::cout << "unpruned: " << fixed(rate(full, full_s), 1)
            << " candidates/sec (" << full.evaluated << " in "
            << fixed(full_s, 3) << " s)\n"
            << "pruned:   " << fixed(rate(pruned, pruned_s), 1)
            << " candidates/sec (" << pruned.evaluated << " evaluated + "
            << pruned.pruned << " culled)\n"
            << "oracle parity: "
            << (oracle_parity ? "bit-identical" : "MISMATCH")
            << " (ranked + Pareto vs uncached run_pipeline)\n"
            << "prune parity:  " << (prune_parity ? "same best" : "MISMATCH")
            << " (best " << pb.key << ", " << with_commas(pb.cycles)
            << " cycles)\n"
            << "eval core: " << with_commas(full.eval.term_requests)
            << " term requests (" << with_commas(full.eval.term_builds)
            << " built)\n";

  std::ofstream json(json_path);
  if (json) {
    JsonWriter jw(2);
    jw.begin_object();
    jw.member("bench", "pipeline_dse_sweep");
    jw.member("workload", w.name);
    jw.member("vertices", static_cast<std::uint64_t>(w.num_vertices()));
    jw.member("edges", static_cast<std::uint64_t>(w.num_edges()));
    jw.member("chain", chain.to_string());
    jw.member("cap", static_cast<std::uint64_t>(cap));
    jw.member("generated", static_cast<std::uint64_t>(full.generated));
    const auto emit_path = [&](const char* name,
                               const PipelineSearchResult& r, double s) {
      jw.key(name).begin_object();
      jw.member("seconds", s);
      jw.member("evaluated", static_cast<std::uint64_t>(r.evaluated));
      jw.member("culled", static_cast<std::uint64_t>(r.pruned));
      jw.member("candidates_per_sec", rate(r, s));
      jw.end_object();
    };
    emit_path("unpruned", full, full_s);
    emit_path("pruned", pruned, pruned_s);
    jw.member("oracle_parity", oracle_parity ? "bit-identical" : "mismatch");
    jw.member("prune_parity", prune_parity ? "same best" : "mismatch");
    jw.key("best").begin_object();
    jw.member("pipeline", pb.key);
    jw.member("cycles", pb.cycles);
    jw.member("on_chip_pj", pb.on_chip_pj);
    jw.member("score", pb.score);
    jw.end_object();
    jw.key("eval").begin_object();
    jw.member("term_requests", full.eval.term_requests);
    jw.member("term_builds", full.eval.term_builds);
    jw.end_object();
    jw.end_object();
    json << jw.str() << "\n";
    std::cout << "(json: " << json_path << ")\n";
  }
  return oracle_parity && prune_parity ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool dse_only = false;
  bool dse_skip = false;    // micro benches only (fast iteration)
  bool model_only = false;  // model sweep only
  bool model_skip = false;
  const auto consume_flag = [&](const char* flag, bool* value) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0) {
        *value = true;
        for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
        --argc;
        return;
      }
    }
  };
  bool pipeline_only = false;  // N-phase core study only (CI pipeline-smoke)
  bool pipeline_dse = false;   // N-phase search sweep only (CI pipeline-DSE)
  consume_flag("--dse-only", &dse_only);
  consume_flag("--dse-skip", &dse_skip);
  consume_flag("--model-only", &model_only);
  consume_flag("--model-skip", &model_skip);
  consume_flag("--pipeline-only", &pipeline_only);
  consume_flag("--pipeline-dse", &pipeline_dse);
  if (pipeline_only) {
    try {
      return run_pipeline_study();
    } catch (const std::exception& e) {
      std::cerr << "pipeline study failed: " << e.what() << "\n";
      return 1;
    }
  }
  if (pipeline_dse) {
    try {
      return run_pipeline_dse_sweep();
    } catch (const std::exception& e) {
      std::cerr << "pipeline DSE sweep failed: " << e.what() << "\n";
      return 1;
    }
  }
  int rc = 0;
  if (!dse_skip && !model_only) {
    try {
      rc = run_dse_sweep();
    } catch (const std::exception& e) {
      std::cerr << "dse sweep failed: " << e.what() << "\n";
      rc = 1;
    }
  }
  if (rc == 0 && !dse_skip && !model_skip) {
    try {
      rc = run_model_sweep();
    } catch (const std::exception& e) {
      std::cerr << "model sweep failed: " << e.what() << "\n";
      rc = 1;
    }
  }
  if (rc != 0 || dse_only || model_only) return rc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
