#include "dse/search.hpp"

#include <algorithm>
#include <bit>

#include "dataflow/enumerate.hpp"
#include "dse/pipeline_search.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace omega {

const char* to_string(Objective o) {
  switch (o) {
    case Objective::kRuntime: return "runtime";
    case Objective::kEnergy: return "energy";
    case Objective::kEnergyDelayProduct: return "EDP";
  }
  return "?";
}

double objective_score(Objective o, std::uint64_t cycles, double on_chip_pj) {
  switch (o) {
    case Objective::kRuntime: return static_cast<double>(cycles);
    case Objective::kEnergy: return on_chip_pj;
    case Objective::kEnergyDelayProduct:
      return static_cast<double>(cycles) * on_chip_pj;
  }
  return static_cast<double>(cycles);
}

Objective objective_from_string(const std::string& s) {
  const std::string o = to_lower(s);
  if (o == "runtime") return Objective::kRuntime;
  if (o == "energy") return Objective::kEnergy;
  if (o == "edp") return Objective::kEnergyDelayProduct;
  throw InvalidArgumentError("unknown objective: " + s);
}

void EvalStats::merge(const EvalStats& other) {
  term_requests += other.term_requests;
  term_builds += other.term_builds;
  delta_hits += other.delta_hits;
  batches += other.batches;
  batched_candidates += other.batched_candidates;
  max_batch = std::max(max_batch, other.max_batch);
}

const Candidate& SearchResult::best() const {
  OMEGA_CHECK(!ranked.empty(), "search produced no feasible mapping");
  return ranked.front();
}

std::vector<std::array<std::size_t, 3>> enumerate_tile_triples(
    std::size_t budget, std::size_t cap_a, std::size_t cap_b,
    std::size_t cap_c, double min_util) {
  std::vector<std::array<std::size_t, 3>> out;
  const auto floor_target =
      static_cast<double>(budget) * std::clamp(min_util, 0.0, 1.0);
  for (std::size_t a = 1; a <= std::min(budget, cap_a); a *= 2) {
    for (std::size_t b = 1; a * b <= budget && b <= cap_b; b *= 2) {
      for (std::size_t c = 1; a * b * c <= budget && c <= cap_c; c *= 2) {
        const std::size_t product = a * b * c;
        // Keep only maximal points: no dimension can grow further within
        // the budget and caps. The utilization floor filters among them but
        // is waived when the caps themselves block growth (tiny workloads).
        const bool cap_blocked =
            a * 2 > cap_a && b * 2 > cap_b && c * 2 > cap_c;
        const bool saturated = (2 * product > budget) || cap_blocked;
        if (!saturated) continue;
        if (static_cast<double>(product) >= floor_target || cap_blocked) {
          out.push_back({a, b, c});
        }
      }
    }
  }
  return out;
}

namespace {

std::size_t cap_of(std::size_t extent) {
  return std::max<std::size_t>(1, std::bit_ceil(std::max<std::size_t>(extent, 1)));
}

/// Generates bound descriptors for one (inter, order-pair) choice.
void generate_for_pair(const SearchOptions& opt, const WorkloadDims& dims,
                       std::size_t pes, InterPhase inter, PhaseOrder po,
                       const LoopOrder& agg_order, const LoopOrder& cmb_order,
                       std::vector<DataflowDescriptor>& out) {
  const std::size_t agg_feat =
      po == PhaseOrder::kAC ? dims.in_features : dims.out_features;
  auto make = [&](const TileSizes& at, const TileSizes& ct, double frac) {
    DataflowDescriptor df;
    df.inter = inter;
    df.phase_order = po;
    df.pp_agg_pe_fraction = frac;
    df.agg.phase = GnnPhase::kAggregation;
    df.agg.order = agg_order;
    df.agg.tiles = at;
    df.cmb.phase = GnnPhase::kCombination;
    df.cmb.order = cmb_order;
    df.cmb.tiles = ct;
    if (!df.validation_error()) out.push_back(df);
  };

  // PP splits the PE array between the phases, which needs at least one PE
  // on each side; on a single-PE accelerator the clamp below would be
  // clamp(x, 1, 0) — undefined behavior — so PP generation is skipped.
  if (inter == InterPhase::kParallelPipeline && pes < 2) return;

  const std::vector<double> fractions =
      inter == InterPhase::kParallelPipeline ? opt.pp_fractions
                                             : std::vector<double>{1.0};
  for (const double frac : fractions) {
    std::size_t pes_agg = pes;
    std::size_t pes_cmb = pes;
    if (inter == InterPhase::kParallelPipeline) {
      pes_agg = std::clamp<std::size_t>(
          static_cast<std::size_t>(static_cast<double>(pes) * frac), 1,
          pes - 1);
      pes_cmb = pes - pes_agg;
    }
    const auto agg_tilings = enumerate_tile_triples(
        pes_agg, cap_of(dims.vertices),
        cap_of(std::max<std::size_t>(dims.max_degree, 1)), cap_of(agg_feat),
        opt.min_static_utilization);
    if (inter == InterPhase::kSPOptimized) {
      // Tiles tied across phases: T_N = 1, T_G = 1 (AC row-2 template).
      for (const auto& [tv, tn, tf] : agg_tilings) {
        if (tn != 1) continue;
        TileSizes at;
        at.v = tv;
        at.n = 1;
        at.f = tf;
        TileSizes ct;
        ct.v = tv;
        ct.f = tf;
        ct.g = 1;
        make(at, ct, frac);
      }
      continue;
    }
    const auto cmb_tilings = enumerate_tile_triples(
        pes_cmb, cap_of(dims.vertices), cap_of(dims.in_features),
        cap_of(dims.out_features), opt.min_static_utilization);
    for (const auto& [av, an, af] : agg_tilings) {
      TileSizes at;
      at.v = av;
      at.n = an;
      at.f = af;
      for (const auto& [cv, cf, cg] : cmb_tilings) {
        TileSizes ct;
        ct.v = cv;
        ct.f = cf;
        ct.g = cg;
        make(at, ct, frac);
      }
    }
  }
}

}  // namespace

bool candidate_order(const Candidate& a, const Candidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.on_chip_pj != b.on_chip_pj) return a.on_chip_pj < b.on_chip_pj;
  return a.dataflow.to_string() < b.dataflow.to_string();
}

void enumerate_order_candidates(const SearchOptions& options,
                                const WorkloadDims& dims, std::size_t pes,
                                PhaseOrder po,
                                std::vector<DataflowDescriptor>& candidates) {
  if (options.include_seq) {
    for (const auto& ao : all_loop_orders(GnnPhase::kAggregation)) {
      for (const auto& co : all_loop_orders(GnnPhase::kCombination)) {
        generate_for_pair(options, dims, pes, InterPhase::kSequential, po, ao,
                          co, candidates);
      }
    }
  }
  const auto pairs = feasible_pipeline_pairs(po);
  for (const auto& pair : pairs) {
    if (options.include_sp_generic) {
      generate_for_pair(options, dims, pes, InterPhase::kSPGeneric, po,
                        pair.agg, pair.cmb, candidates);
    }
    if (options.include_pp) {
      generate_for_pair(options, dims, pes, InterPhase::kParallelPipeline, po,
                        pair.agg, pair.cmb, candidates);
    }
  }
  if (options.include_sp_optimized) {
    const std::vector<std::pair<std::string, std::string>> templates =
        po == PhaseOrder::kAC
            ? std::vector<std::pair<std::string, std::string>>{{"VFN", "VFG"},
                                                               {"FVN", "FVG"}}
            : std::vector<std::pair<std::string, std::string>>{{"NFV", "VGF"},
                                                               {"FNV", "GVF"}};
    for (const auto& [a, c] : templates) {
      generate_for_pair(options, dims, pes, InterPhase::kSPOptimized, po,
                        LoopOrder::parse(a, GnnPhase::kAggregation),
                        LoopOrder::parse(c, GnnPhase::kCombination),
                        candidates);
    }
  }
}

std::vector<DataflowDescriptor> enumerate_search_candidates(
    const SearchOptions& options, const WorkloadDims& dims, std::size_t pes) {
  std::vector<DataflowDescriptor> candidates;
  enumerate_order_candidates(options, dims, pes, PhaseOrder::kAC, candidates);
  if (options.include_ca) {
    enumerate_order_candidates(options, dims, pes, PhaseOrder::kCA,
                               candidates);
  }
  return candidates;
}

// Thin adapter over the N-phase pipeline searcher: the two-phase layer is
// expressed as one chain per phase order, the legacy options map onto
// PipelineSearchOptions, and ranked/Pareto entries come back through each
// candidate's preserved legacy descriptor — bit-identical to the historic
// implementation (tests/pipeline_dse_test.cpp pins the parity).
SearchResult search_mappings(const Omega& omega, const GnnWorkload& workload,
                             const LayerSpec& layer,
                             const SearchOptions& options,
                             const WorkloadContext* shared_context) {
  const std::size_t pes = omega.config().num_pes;

  // Chain projections of the two phase orders. The probe descriptor only
  // fixes engines and widths — Seq with all-temporal unit tiles is valid for
  // any workload, and only its chain projection survives.
  DataflowDescriptor probe;
  probe.inter = InterPhase::kSequential;
  probe.phase_order = PhaseOrder::kAC;
  probe.agg.phase = GnnPhase::kAggregation;
  probe.agg.order = LoopOrder(Dim::kV, Dim::kN, Dim::kF);
  probe.cmb.phase = GnnPhase::kCombination;
  probe.cmb.order = LoopOrder(Dim::kV, Dim::kF, Dim::kG);
  std::vector<PipelineChainSpec> chains;
  chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  bool has_ca_extra = false;
  for (const DataflowDescriptor& df : options.extra_candidates) {
    has_ca_extra |= df.phase_order == PhaseOrder::kCA;
  }
  if (options.include_ca || has_ca_extra) {
    probe.phase_order = PhaseOrder::kCA;
    chains.push_back(PipelineChainSpec::of(two_phase_pipeline(probe, layer)));
  }

  PipelineSearchOptions popt;
  popt.objective = options.objective;
  popt.include_seq = options.include_seq;
  popt.include_sp_generic = options.include_sp_generic;
  popt.include_sp_optimized = options.include_sp_optimized;
  popt.include_pp = options.include_pp;
  popt.pp_fractions = options.pp_fractions;
  popt.min_static_utilization = options.min_static_utilization;
  popt.max_candidates = options.max_candidates;
  popt.threads = options.threads;
  popt.top_k = options.top_k;
  // The legacy contract prunes the runtime objective only; the pipeline
  // searcher prunes every objective, so gate here.
  popt.prune = options.prune && options.objective == Objective::kRuntime;
  popt.prune_seed = options.prune_seed;
  popt.trace = options.trace;
  popt.seed_table5 = false;
  // CA extras without include_ca evaluate against a bind-only CA chain that
  // contributes no enumerated population.
  popt.enumerate_chains = options.include_ca ? 0 : 1;
  for (const DataflowDescriptor& df : options.extra_candidates) {
    const std::size_t chain_index = df.phase_order == PhaseOrder::kCA ? 1 : 0;
    popt.extra_candidates.push_back(
        lower_two_phase_candidate(df, chain_index, layer, pes));
  }

  const PipelineSearchResult pr = search_pipeline_mappings(
      omega, workload, chains, popt, shared_context);

  SearchResult result;
  result.generated = pr.generated;
  result.evaluated = pr.evaluated;
  result.pruned = pr.pruned;
  result.eval = pr.eval;
  const auto convert = [](const RankedPipelineCandidate& rc) {
    OMEGA_CHECK(rc.candidate.legacy.has_value(),
                "two-phase adapter: candidate without a legacy descriptor");
    Candidate c;
    c.dataflow = *rc.candidate.legacy;
    c.cycles = rc.cycles;
    c.on_chip_pj = rc.on_chip_pj;
    c.score = rc.score;
    return c;
  };
  result.ranked.reserve(pr.ranked.size());
  for (const RankedPipelineCandidate& rc : pr.ranked) {
    result.ranked.push_back(convert(rc));
  }
  result.pareto.reserve(pr.pareto.size());
  for (const RankedPipelineCandidate& rc : pr.pareto) {
    result.pareto.push_back(convert(rc));
  }
  return result;
}

}  // namespace omega
