#include "dse/pipeline_search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#include "dataflow/patterns.hpp"
#include "obs/trace.hpp"
#include "engine/eval_core.hpp"
#include "engine/schedule_cache.hpp"
#include "omega/tiler.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace omega {

namespace {

std::size_t cap_of(std::size_t extent) {
  return std::max<std::size_t>(1,
                               std::bit_ceil(std::max<std::size_t>(extent, 1)));
}

std::uint64_t ceil_div_u64(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? a : (a + b - 1) / b;
}

/// Truncation PE split used when sizing tiling budgets at a PP boundary —
/// deliberately the same floor-based split the legacy enumerator uses for
/// its tiling budgets (the *evaluator* rounds with llround; generation has
/// always budgeted with truncation, and the adapter parity pins it).
std::size_t pp_budget_first(std::size_t pes, double frac) {
  return std::clamp<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(pes) * frac), 1, pes - 1);
}

/// The PE fractions of a binding whose PP boundary b splits its pair
/// share(b) : 1 - share(b): 1.0 elsewhere, and none when no boundary is PP.
template <class Share>
std::vector<double> pp_fractions(std::span<const InterPhase> kinds,
                                 const Share& share) {
  std::vector<double> f;
  for (std::size_t b = 0; b < kinds.size(); ++b) {
    if (kinds[b] != InterPhase::kParallelPipeline) continue;
    if (f.empty()) f.assign(kinds.size() + 1, 1.0);
    f[b] = share(b);
    f[b + 1] = 1.0 - share(b);
  }
  return f;
}

/// The legacy enumerator options a PipelineSearchOptions projects to.
SearchOptions legacy_enum_options(const PipelineSearchOptions& o) {
  SearchOptions s;
  s.include_seq = o.include_seq;
  s.include_sp_generic = o.include_sp_generic;
  s.include_sp_optimized = o.include_sp_optimized;
  s.include_pp = o.include_pp;
  s.pp_fractions = o.pp_fractions;
  s.min_static_utilization = o.min_static_utilization;
  return s;
}

/// Binding-invariant per-phase shape, resolved once per chain.
struct PhaseShape {
  PhaseEngine engine = PhaseEngine::kDenseDense;
  std::size_t in_w = 0;
  std::size_t out_w = 0;
  /// Loop orders admissible for this phase: the engine vocabulary's six,
  /// minus G-after-F orders for sparse-weight phases (which walk W^T
  /// G-major — PipelineSpec::validate would reject the rest).
  std::vector<LoopOrder> orders;
};

struct ChainInfo {
  const PipelineChainSpec* chain = nullptr;
  std::size_t index = 0;
  std::size_t n = 0;
  std::vector<PhaseShape> phases;
  std::vector<PipelinePhaseWork> work;
  double energy_lb = 0.0;
  /// Classic two-phase chain (one sparse-dense + one dense phase): the
  /// population delegates to the legacy enumerator so the two-phase adapter
  /// is bit-identical to the historic search_mappings.
  bool classic = false;
  PhaseOrder classic_po = PhaseOrder::kAC;
  LayerSpec classic_layer;
};

ChainInfo make_chain_info(const PipelineChainSpec& chain,
                          const GnnWorkload& workload, std::size_t index) {
  {
    const auto err = chain.chain_error();
    OMEGA_CHECK(!err, "pipeline search chain " + std::to_string(index) + ": " +
                          (err ? *err : std::string{}));
  }
  ChainInfo ci;
  ci.chain = &chain;
  ci.index = index;
  ci.n = chain.phases.size();
  ci.work = pipeline_phase_work(chain, workload);
  std::size_t width =
      chain.in_features > 0 ? chain.in_features : workload.in_features;
  for (std::size_t i = 0; i < ci.n; ++i) {
    const PhaseChainSpec& p = chain.phases[i];
    PhaseShape sh;
    sh.engine = p.engine;
    sh.in_w = width;
    sh.out_w =
        p.engine == PhaseEngine::kSparseDense ? width : p.out_features;
    for (const LoopOrder& o : all_loop_orders(taxonomy_phase(p.engine))) {
      if (p.engine == PhaseEngine::kSparseSparse &&
          o.depth_of(Dim::kG) > o.depth_of(Dim::kF)) {
        continue;
      }
      sh.orders.push_back(o);
    }
    width = sh.out_w;
    ci.phases.push_back(std::move(sh));
  }
  if (ci.n == 2) {
    const PhaseEngine e0 = chain.phases[0].engine;
    const PhaseEngine e1 = chain.phases[1].engine;
    if (e0 == PhaseEngine::kSparseDense && e1 == PhaseEngine::kDenseDense) {
      ci.classic = true;
      ci.classic_po = PhaseOrder::kAC;
      ci.classic_layer = LayerSpec{.out_features = chain.phases[1].out_features,
                                   .in_features = chain.in_features};
    } else if (e0 == PhaseEngine::kDenseDense &&
               e1 == PhaseEngine::kSparseDense) {
      ci.classic = true;
      ci.classic_po = PhaseOrder::kCA;
      ci.classic_layer = LayerSpec{.out_features = chain.phases[0].out_features,
                                   .in_features = chain.in_features};
    }
  }
  return ci;
}

/// Deterministic recursive enumerator of a general chain's candidate space:
/// boundary strategies (with PP fraction assignment) outermost, then per
/// phase a loop order and a maximal power-of-two tiling at the phase's PE
/// budget. Taxonomy rules check_pipeline would reject are applied
/// generatively (adjacent chunking, sparse-weight consumers of chunked
/// boundaries, hand-off feasibility, SPO tile tying), so every emitted
/// candidate binds to a valid spec. The walk calls `sink` once per
/// candidate; sinks can count on one pass and materialize on a second — the
/// order is identical.
class ChainWalker {
 public:
  ChainWalker(const ChainInfo& ci, const PipelineSearchOptions& opt,
              const WorkloadDims& dims, std::size_t pes)
      : ci_(ci), opt_(opt), dims_(dims), pes_(pes) {
    for (const double f : opt.pp_fractions) {
      if (std::isfinite(f) && f > 0.0 && f < 1.0) pp_fracs_.push_back(f);
    }
    const std::size_t nb = ci.n > 0 ? ci.n - 1 : 0;
    kinds_.assign(nb, InterPhase::kSequential);
    fracs_.assign(nb, 0.5);
    budgets_.assign(ci.n, pes);
    cur_.assign(ci.n, IntraPhaseDataflow{});
    tilings_.resize(ci.n);
  }

  /// Runs the walk; `sink` returns false to stop early.
  void walk(const std::function<bool()>& sink) {
    if (ci_.n == 0) return;
    sink_ = &sink;
    stop_ = false;
    choose_boundary(0);
    sink_ = nullptr;
  }

  /// The candidate at the current walk point (call from inside a sink).
  [[nodiscard]] PipelineCandidate materialize() const {
    PipelineCandidate c;
    c.chain_index = ci_.index;
    c.phases = cur_;
    c.boundaries = kinds_;
    c.pe_fractions =
        pp_fractions(kinds_, [&](std::size_t b) { return fracs_[b]; });
    return c;
  }

 private:
  void choose_boundary(std::size_t b) {
    if (stop_) return;
    if (b + 1 >= ci_.n) {
      apply_budgets();
      walk_phase(0);
      return;
    }
    const bool prev_chunked = b > 0 && is_chunked(kinds_[b - 1]);
    const PhaseEngine consumer = ci_.phases[b + 1].engine;
    // A sparse-weight phase streams W^T chunks itself and cannot also
    // consume from a chunked boundary; adjacent boundaries cannot both be
    // chunked (each phase stages through at most one).
    const bool chunk_ok =
        !prev_chunked && consumer != PhaseEngine::kSparseSparse;
    const auto try_kind = [&](InterPhase k, double frac) {
      kinds_[b] = k;
      fracs_[b] = frac;
      choose_boundary(b + 1);
    };
    if (opt_.include_seq) try_kind(InterPhase::kSequential, 0.5);
    if (opt_.include_sp_generic && chunk_ok) {
      try_kind(InterPhase::kSPGeneric, 0.5);
    }
    if (opt_.include_sp_optimized) try_kind(InterPhase::kSPOptimized, 0.5);
    if (opt_.include_pp && pes_ >= 2 && chunk_ok) {
      for (const double f : pp_fracs_) {
        try_kind(InterPhase::kParallelPipeline, f);
      }
    }
  }

  void apply_budgets() {
    std::fill(budgets_.begin(), budgets_.end(), pes_);
    for (std::size_t b = 0; b < kinds_.size(); ++b) {
      if (kinds_[b] != InterPhase::kParallelPipeline) continue;
      const std::size_t first = pp_budget_first(pes_, fracs_[b]);
      budgets_[b] = first;
      budgets_[b + 1] = pes_ - first;
    }
  }

  void walk_phase(std::size_t i) {
    if (stop_) return;
    if (i == ci_.n) {
      stop_ = !(*sink_)();
      return;
    }
    const PhaseShape& sh = ci_.phases[i];
    const GnnPhase vocab = taxonomy_phase(sh.engine);
    for (const LoopOrder& order : sh.orders) {
      if (stop_) return;
      if (i > 0) {
        const InterPhase up = kinds_[i - 1];
        if (is_chunked(up)) {
          const HandoffRole prod =
              phase_producer_role(ci_.phases[i - 1].engine, cur_[i - 1].order);
          const HandoffRole cons = phase_consumer_role(sh.engine, order);
          if (!analyze_handoff(prod, cons).feasible) continue;
        }
        if (up == InterPhase::kSPOptimized) {
          // SPO ties the consumer's tiles to the producer's through the
          // hand-off roles; there is no independent tiling loop here.
          const HandoffRole prod =
              phase_producer_role(ci_.phases[i - 1].engine, cur_[i - 1].order);
          const HandoffRole cons = phase_consumer_role(sh.engine, order);
          IntraPhaseDataflow df;
          df.phase = vocab;
          df.order = order;
          df.tiles.set(cons.row, cur_[i - 1].tiles.get(prod.row));
          df.tiles.set(cons.col, cur_[i - 1].tiles.get(prod.col));
          if (sp_optimized_violation(ci_.phases[i - 1].engine, cur_[i - 1],
                                     sh.engine, df) != PipelineRule::kNone) {
            continue;
          }
          if (df.spatial_extent() > budgets_[i]) continue;
          cur_[i] = df;
          walk_phase(i + 1);
          continue;
        }
      }
      for (const TileSizes& t : tilings(i, budgets_[i])) {
        if (stop_) return;
        cur_[i].phase = vocab;
        cur_[i].order = order;
        cur_[i].tiles = t;
        walk_phase(i + 1);
      }
    }
  }

  const std::vector<TileSizes>& tilings(std::size_t i, std::size_t budget) {
    auto& cache = tilings_[i];
    for (const auto& [b, list] : cache) {
      if (b == budget) return list;
    }
    const PhaseShape& sh = ci_.phases[i];
    const bool sparse_dense = sh.engine == PhaseEngine::kSparseDense;
    const auto triples =
        sparse_dense
            ? enumerate_tile_triples(
                  budget, cap_of(dims_.vertices),
                  cap_of(std::max<std::size_t>(dims_.max_degree, 1)),
                  cap_of(sh.in_w), opt_.min_static_utilization)
            : enumerate_tile_triples(budget, cap_of(dims_.vertices),
                                     cap_of(sh.in_w), cap_of(sh.out_w),
                                     opt_.min_static_utilization);
    std::vector<TileSizes> list;
    list.reserve(triples.size());
    for (const auto& [a, b, c] : triples) {
      TileSizes t;
      t.v = a;
      if (sparse_dense) {
        t.n = b;
        t.f = c;
      } else {
        t.f = b;
        t.g = c;
      }
      list.push_back(t);
    }
    cache.emplace_back(budget, std::move(list));
    return cache.back().second;
  }

  const ChainInfo& ci_;
  const PipelineSearchOptions& opt_;
  WorkloadDims dims_;
  std::size_t pes_;
  std::vector<double> pp_fracs_;
  std::vector<InterPhase> kinds_;
  std::vector<double> fracs_;
  std::vector<std::size_t> budgets_;
  std::vector<IntraPhaseDataflow> cur_;
  std::vector<std::vector<std::pair<std::size_t, std::vector<TileSizes>>>>
      tilings_;
  const std::function<bool()>* sink_ = nullptr;
  bool stop_ = false;
};

WorkloadDims chain_dims_of(const ChainInfo& ci, const GnnWorkload& workload) {
  return dims_of(workload,
                 ci.classic ? ci.classic_layer
                            : LayerSpec{.out_features = 1,
                                        .in_features = ci.chain->in_features});
}

/// The legacy candidate population of a classic chain, in legacy
/// enumeration order: the share of its own phase order, which for a CA
/// chain is the CA tail of the include_ca=true legacy walk.
std::vector<DataflowDescriptor> classic_population(
    const ChainInfo& ci, const PipelineSearchOptions& options,
    const WorkloadDims& dims, std::size_t pes) {
  std::vector<DataflowDescriptor> pop;
  enumerate_order_candidates(legacy_enum_options(options), dims, pes,
                             ci.classic_po, pop);
  return pop;
}

}  // namespace

std::string PipelineCandidate::key() const {
  if (legacy) return legacy->to_string();
  std::string s = "c";
  s += std::to_string(chain_index);
  s += "|";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0 && i - 1 < boundaries.size()) {
      s += "->";
      s += to_string(boundaries[i - 1]);
      s += "->";
    }
    s += phases[i].to_string();
  }
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    if (boundaries[b] != InterPhase::kParallelPipeline) continue;
    char buf[48];
    std::snprintf(buf, sizeof buf, "|pp%zu=%.6g", b,
                  pp_first_share(view(), b));
    s += buf;
  }
  return s;
}

bool pipeline_candidate_order(const RankedPipelineCandidate& a,
                              const RankedPipelineCandidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.cycles != b.cycles) return a.cycles < b.cycles;
  if (a.on_chip_pj != b.on_chip_pj) return a.on_chip_pj < b.on_chip_pj;
  return a.key < b.key;
}

const RankedPipelineCandidate& PipelineSearchResult::best() const {
  OMEGA_CHECK(!ranked.empty(), "pipeline search produced no feasible mapping");
  return ranked.front();
}

std::vector<PipelinePhaseWork> pipeline_phase_work(
    const PipelineChainSpec& chain, const GnnWorkload& workload) {
  {
    const auto err = chain.chain_error();
    OMEGA_CHECK(!err,
                "pipeline_phase_work: " + (err ? *err : std::string{}));
  }
  std::vector<PipelinePhaseWork> out;
  out.reserve(chain.phases.size());
  const std::uint64_t edges = workload.num_edges();
  const std::uint64_t vertices = workload.num_vertices();
  std::size_t width =
      chain.in_features > 0 ? chain.in_features : workload.in_features;
  for (const PhaseChainSpec& p : chain.phases) {
    PipelinePhaseWork w;
    switch (p.engine) {
      case PhaseEngine::kSparseDense:
        w.macs = edges * static_cast<std::uint64_t>(width);
        w.meta_gb_elems = edges + vertices;
        w.sparse = true;
        break;
      case PhaseEngine::kDenseDense:
        w.macs = vertices * static_cast<std::uint64_t>(width) *
                 p.out_features;
        width = p.out_features;
        break;
      case PhaseEngine::kSparseSparse: {
        // W^T walked transposed: out_features rows of nnz_per_row ids, one
        // MAC per (row nonzero, vertex) — see sparse_weight_csr.
        const std::uint64_t nnz =
            sparse_weight_nnz_per_row(width, p.weight_density);
        w.macs = p.out_features * nnz * vertices;
        w.meta_gb_elems = p.out_features * nnz + p.out_features;
        w.sparse = true;
        width = p.out_features;
        break;
      }
    }
    out.push_back(w);
  }
  return out;
}

std::uint64_t pipeline_mac_cycle_bound(std::span<const PipelinePhaseWork> work,
                                       const PipelineCandidate& c,
                                       std::size_t pes) {
  const std::size_t n = std::min(work.size(), c.phases.size());
  std::uint64_t total = 0;
  std::size_t i = 0;
  while (i < n) {
    const bool pp = i < c.boundaries.size() &&
                    c.boundaries[i] == InterPhase::kParallelPipeline &&
                    i + 1 < n && pes >= 2;
    if (pp) {
      const std::size_t first = pp_first_pes(pes, pp_first_share(c.view(), i));
      total += std::max(ceil_div_u64(work[i].macs, first),
                        ceil_div_u64(work[i + 1].macs, pes - first));
      i += 2;
    } else {
      total += ceil_div_u64(work[i].macs, pes);
      i += 1;
    }
  }
  return total;
}

double pipeline_energy_lower_bound(std::span<const PipelinePhaseWork> work,
                                   const EnergyModel& em) {
  double pj = 0.0;
  for (const PipelinePhaseWork& w : work) {
    // Sparse walks charge 3 RF reads + 1 accumulator write per MAC and one
    // GB read per CSR id/pointer element regardless of the binding; dense
    // phases charge 2 RF reads per MAC. Everything else (spills, partition
    // traffic, output movement) is binding-dependent and >= 0, so this is a
    // true lower bound on on_chip_pj.
    const double rf_per_mac = w.sparse ? 4.0 : 2.0;
    // omega-lint: allow(float-accum): phase order is fixed; two terms per phase, deterministic
    pj += static_cast<double>(w.macs) * rf_per_mac * em.rf_access_pj;
    // omega-lint: allow(float-accum): phase order is fixed; two terms per phase, deterministic
    pj += static_cast<double>(w.meta_gb_elems) * em.gb_access_pj;
  }
  return pj;
}

PipelineCandidate lower_two_phase_candidate(const DataflowDescriptor& df,
                                            std::size_t chain_index,
                                            const LayerSpec& layer,
                                            std::size_t num_pes) {
  PipelineSpec spec = two_phase_pipeline(df, layer, num_pes);
  PipelineCandidate c;
  c.chain_index = chain_index;
  c.phases.reserve(spec.phases.size());
  for (const PhaseSpec& p : spec.phases) c.phases.push_back(p.dataflow);
  c.boundaries = std::move(spec.boundaries);
  c.pe_fractions = std::move(spec.pe_fractions);
  c.legacy = df;
  return c;
}

std::vector<PipelineCandidate> enumerate_pipeline_candidates(
    const PipelineChainSpec& chain, std::size_t chain_index,
    const GnnWorkload& workload, std::size_t pes,
    const PipelineSearchOptions& options) {
  const ChainInfo ci = make_chain_info(chain, workload, chain_index);
  const WorkloadDims dims = chain_dims_of(ci, workload);
  std::vector<PipelineCandidate> out;
  if (ci.classic) {
    for (const DataflowDescriptor& df :
         classic_population(ci, options, dims, pes)) {
      out.push_back(
          lower_two_phase_candidate(df, chain_index, ci.classic_layer, pes));
    }
    return out;
  }
  ChainWalker walker(ci, options, dims, pes);
  walker.walk([&] {
    out.push_back(walker.materialize());
    return true;
  });
  return out;
}

std::vector<PipelineCandidate> table5_pipeline_seeds(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, std::size_t chain_index) {
  std::vector<PipelineCandidate> out;
  const ChainInfo ci = make_chain_info(chain, workload, chain_index);
  const AcceleratorConfig& hw = omega.config();
  const std::size_t pes = hw.num_pes;

  if (ci.classic) {
    const WorkloadDims dims = dims_of(workload, ci.classic_layer);
    for (const DataflowPattern& pattern : table5_patterns()) {
      if (pattern.phase_order != ci.classic_po) continue;
      try {
        const DataflowDescriptor df = bind_tiles(pattern, dims, hw);
        if (df.validation_error()) continue;
        out.push_back(lower_two_phase_candidate(df, chain_index,
                                                ci.classic_layer, pes));
      } catch (const Error&) {
        // Pattern does not fit this workload/substrate; skip.
      }
    }
    return out;
  }

  const WorkloadDims base = chain_dims_of(ci, workload);
  const std::size_t nb = ci.n > 0 ? ci.n - 1 : 0;
  for (const DataflowPattern& pattern : table5_patterns()) {
    // Per-boundary strategy: the pattern's, demoted to Seq wherever the
    // chain cannot admit it (single-PE arrays, sparse-weight consumers,
    // adjacent chunked boundaries).
    std::vector<InterPhase> kinds(nb, InterPhase::kSequential);
    for (std::size_t b = 0; b < nb; ++b) {
      InterPhase k = pattern.inter;
      if (k == InterPhase::kParallelPipeline && pes < 2) {
        k = InterPhase::kSequential;
      }
      if (is_chunked(k) &&
          ci.phases[b + 1].engine == PhaseEngine::kSparseSparse) {
        k = InterPhase::kSequential;
      }
      if (is_chunked(k) && b > 0 && is_chunked(kinds[b - 1])) {
        k = InterPhase::kSequential;
      }
      kinds[b] = k;
    }
    double frac = pattern.pp_agg_pe_fraction;
    if (!(std::isfinite(frac) && frac > 0.0 && frac < 1.0)) frac = 0.5;
    std::vector<std::size_t> budgets(ci.n, pes);
    for (std::size_t b = 0; b < nb; ++b) {
      if (kinds[b] != InterPhase::kParallelPipeline) continue;
      const std::size_t first = pp_budget_first(pes, frac);
      budgets[b] = first;
      budgets[b + 1] = pes - first;
    }

    // Bind each phase by the pattern's style at the phase's PE budget.
    DataflowPattern bp = pattern;
    bp.inter = InterPhase::kSequential;
    bp.phase_order = PhaseOrder::kAC;
    std::vector<IntraPhaseDataflow> phases(ci.n);
    bool bound_ok = true;
    for (std::size_t i = 0; i < ci.n; ++i) {
      const PhaseShape& sh = ci.phases[i];
      WorkloadDims pd = base;
      pd.in_features = std::max<std::size_t>(sh.in_w, 1);
      pd.out_features = std::max<std::size_t>(sh.out_w, 1);
      if (sh.engine == PhaseEngine::kSparseSparse) {
        const std::size_t nnz = sparse_weight_nnz_per_row(
            sh.in_w, chain.phases[i].weight_density);
        pd.avg_degree = static_cast<double>(nnz);
        pd.max_degree = nnz;
      }
      AcceleratorConfig phw = hw;
      phw.num_pes = budgets[i];
      try {
        const DataflowDescriptor b = bind_tiles(bp, pd, phw);
        phases[i] = sh.engine == PhaseEngine::kSparseDense ? b.agg : b.cmb;
      } catch (const Error&) {
        bound_ok = false;
        break;
      }
    }
    if (!bound_ok) continue;

    const auto build = [&](const std::vector<InterPhase>& ks) {
      PipelineCandidate c;
      c.chain_index = chain_index;
      c.phases = phases;
      c.boundaries = ks;
      c.pe_fractions = pp_fractions(ks, [&](std::size_t) { return frac; });
      return c;
    };
    const auto valid = [&](const PipelineCandidate& c) {
      const PipelineBindingView view = c.view();
      return !check_pipeline(chain.phases, &view);
    };
    PipelineCandidate seeded = build(kinds);
    if (valid(seeded)) {
      out.push_back(std::move(seeded));
      continue;
    }
    // The pattern's boundary strategy does not validate on this chain
    // (e.g. SPO tile tying across unlike engines); fall back to the pure
    // sequential composition of its per-phase mappings.
    PipelineCandidate seq =
        build(std::vector<InterPhase>(nb, InterPhase::kSequential));
    if (valid(seq)) out.push_back(std::move(seq));
  }
  return out;
}

PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    std::span<const PipelineChainSpec> chains,
    const PipelineSearchOptions& options,
    const WorkloadContext* shared_context) {
  OMEGA_CHECK(!chains.empty(), "pipeline search needs at least one chain");
  const std::size_t pes = omega.config().num_pes;
  const std::size_t enumerated =
      options.enumerate_chains == 0
          ? chains.size()
          : std::min(options.enumerate_chains, chains.size());

  // Stage spans (enumerate / prune / evaluate / rank) — no-ops when
  // options.trace is null; optional<> gives each stage RAII close points
  // inside this straight-line function.
  std::optional<obs::ScopedSpan> span;
  span.emplace(options.trace, "enumerate", "dse");

  std::vector<ChainInfo> infos;
  infos.reserve(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    infos.push_back(make_chain_info(chains[c], workload, c));
    infos.back().energy_lb =
        pipeline_energy_lower_bound(infos.back().work, omega.energy_model());
  }

  // Per-chain populations: classic chains delegate to the legacy enumerator
  // (materialized up front — descriptors are small); general chains run the
  // walker in count mode and materialize only the sampled points below.
  std::vector<WorkloadDims> dims(chains.size());
  std::vector<std::vector<DataflowDescriptor>> legacy_pop(chains.size());
  std::vector<std::unique_ptr<ChainWalker>> walkers(chains.size());
  std::vector<std::size_t> prefix(chains.size() + 1, 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    std::size_t population = 0;
    if (c < enumerated) {
      dims[c] = chain_dims_of(infos[c], workload);
      if (infos[c].classic) {
        legacy_pop[c] = classic_population(infos[c], options, dims[c], pes);
        population = legacy_pop[c].size();
      } else {
        walkers[c] =
            std::make_unique<ChainWalker>(infos[c], options, dims[c], pes);
        walkers[c]->walk([&] {
          ++population;
          return true;
        });
      }
    }
    prefix[c + 1] = prefix[c] + population;
  }
  const std::size_t total = prefix.back();

  std::vector<PipelineCandidate> extras;
  for (const PipelineCandidate& e : options.extra_candidates) {
    OMEGA_CHECK(e.chain_index < chains.size(),
                "extra candidate chain_index " +
                    std::to_string(e.chain_index) + " out of range");
    extras.push_back(e);
  }
  if (options.seed_table5) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      for (PipelineCandidate& s :
           table5_pipeline_seeds(omega, workload, chains[c], c)) {
        extras.push_back(std::move(s));
      }
    }
  }

  PipelineSearchResult result;
  result.generated = total + extras.size();

  // Deterministic stride subsampling under a candidate cap, over the
  // concatenated per-chain populations; extras ride along after the sample,
  // outside the cap.
  const bool capped =
      options.max_candidates > 0 && total > options.max_candidates;
  const std::size_t sampled = capped ? options.max_candidates : total;
  const std::size_t selected = sampled + extras.size();
  if (selected == 0) return result;

  std::vector<PipelineCandidate> cands(selected);
  {
    // Global sample index -> (chain, local index, destination slot). The
    // stride map is strictly increasing, so per-chain locals arrive sorted
    // and one materialize pass per chain suffices.
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> targets(
        chains.size());
    for (std::size_t i = 0; i < sampled; ++i) {
      const std::size_t g =
          capped ? stride_sample_index(i, total, sampled) : i;
      const std::size_t c =
          static_cast<std::size_t>(
              std::upper_bound(prefix.begin(), prefix.end(), g) -
              prefix.begin()) -
          1;
      targets[c].emplace_back(g - prefix[c], i);
    }
    for (std::size_t c = 0; c < chains.size(); ++c) {
      if (targets[c].empty()) continue;
      if (infos[c].classic) {
        for (const auto& [local, slot] : targets[c]) {
          cands[slot] = lower_two_phase_candidate(
              legacy_pop[c][local], c, infos[c].classic_layer, pes);
        }
      } else {
        std::size_t counter = 0;
        std::size_t next = 0;
        walkers[c]->walk([&] {
          if (next < targets[c].size() &&
              counter == targets[c][next].first) {
            cands[targets[c][next].second] = walkers[c]->materialize();
            ++next;
          }
          ++counter;
          return next < targets[c].size();
        });
      }
    }
    for (std::size_t e = 0; e < extras.size(); ++e) {
      cands[sampled + e] = std::move(extras[e]);
    }
  }
  span->arg("generated", result.generated);
  span->arg("selected", selected);
  span.reset();

  std::optional<WorkloadContext> own_context;
  if (shared_context == nullptr) own_context.emplace(workload.adjacency);
  const WorkloadContext& context =
      shared_context != nullptr ? *shared_context : *own_context;
  // Pre-warm the reverse adjacency if any selected sparse phase scatters,
  // so sweep threads do not race to build it on first touch.
  for (std::size_t i = 0; i < selected; ++i) {
    const ChainInfo& ci = infos[cands[i].chain_index];
    bool scatter = false;
    const std::size_t n = std::min(cands[i].phases.size(), ci.n);
    for (std::size_t p = 0; p < n && !scatter; ++p) {
      if (ci.phases[p].engine == PhaseEngine::kDenseDense) continue;
      const LoopOrder& order = cands[i].phases[p].order;
      scatter = order.contains(Dim::kV) && order.contains(Dim::kN) &&
                order.depth_of(Dim::kV) > order.depth_of(Dim::kN);
    }
    if (scatter) {
      (void)context.reverse_graph();
      break;
    }
  }

  // Evaluation order: identity without pruning; with pruning, ascending
  // objective lower bound with index tie-break. The bounds are true lower
  // bounds for every objective (see the header comment), so the cull below
  // is lossless for runtime, energy, and EDP alike.
  const bool prune = options.prune && selected > 0;
  std::vector<std::size_t> eval_order(selected);
  std::iota(eval_order.begin(), eval_order.end(), std::size_t{0});
  std::vector<double> bounds;
  if (prune) {
    span.emplace(options.trace, "prune", "dse");
    span->arg("candidates", selected);
    bounds.resize(selected);
    for (std::size_t i = 0; i < selected; ++i) {
      if (i >= sampled) {
        // Extras sort to the front and can never be culled
        // (bound <= incumbent always holds for 0).
        bounds[i] = 0.0;
        continue;
      }
      const ChainInfo& ci = infos[cands[i].chain_index];
      bounds[i] = objective_score(
          options.objective, pipeline_mac_cycle_bound(ci.work, cands[i], pes),
          ci.energy_lb);
    }
    std::sort(eval_order.begin(), eval_order.end(),
              [&](std::size_t a, std::size_t b) {
                if (bounds[a] != bounds[b]) return bounds[a] < bounds[b];
                return a < b;
              });
    span.reset();
  }

  // One eval plan per chain, cached in the context; counters are cumulative
  // across sweeps, so snapshot them for this sweep's share.
  std::vector<std::shared_ptr<const PipelineEvalPlan>> plans(chains.size());
  std::vector<std::uint64_t> requests0(chains.size(), 0);
  std::vector<std::uint64_t> builds0(chains.size(), 0);
  for (std::size_t c = 0; c < chains.size(); ++c) {
    plans[c] = PipelineEvalPlan::obtain(omega, workload, chains[c], context);
    requests0[c] = plans[c]->term_requests();
    builds0[c] = plans[c]->term_builds();
  }
  std::atomic<std::uint64_t> delta_hits{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_candidates{0};
  std::atomic<std::uint64_t> max_batch{0};

  struct Metrics {
    std::uint64_t cycles = 0;
    double pj = 0.0;
  };
  std::vector<Metrics> metrics(selected);
  std::vector<char> ok(selected, 0);
  const auto evaluate_range = [&](std::size_t from, std::size_t to) {
    parallel_blocks(
        to - from,
        [&](std::size_t begin, std::size_t end) {
          // Per-block states (delta slots never cross threads), one per
          // chain so multi-chain sweeps keep per-position reuse. Maximal
          // runs of same-chain candidates flow through one evaluate_batch
          // call each.
          std::vector<PipelineDeltaState> states(chains.size());
          std::vector<PipelineBindingView> views;
          std::vector<EvalOutcome> outs;
          std::size_t j = begin;
          while (j < end) {
            const std::size_t run_begin = j;
            const std::size_t c = cands[eval_order[from + j]].chain_index;
            while (j < end && cands[eval_order[from + j]].chain_index == c) {
              ++j;
            }
            const std::size_t m = j - run_begin;
            views.clear();
            views.reserve(m);
            for (std::size_t k = 0; k < m; ++k) {
              views.push_back(cands[eval_order[from + run_begin + k]].view());
            }
            outs.assign(m, EvalOutcome{});
            plans[c]->evaluate_batch({views.data(), m}, outs.data(),
                                     states[c]);
            for (std::size_t k = 0; k < m; ++k) {
              const std::size_t i = eval_order[from + run_begin + k];
              if (outs[k].ok) {
                metrics[i] = {outs[k].cycles, outs[k].on_chip_pj};
                ok[i] = 1;
              }
            }
            batches.fetch_add(1, std::memory_order_relaxed);
            batched_candidates.fetch_add(m, std::memory_order_relaxed);
            std::uint64_t cur = max_batch.load(std::memory_order_relaxed);
            while (cur < m && !max_batch.compare_exchange_weak(
                                  cur, m, std::memory_order_relaxed)) {
            }
          }
          for (const PipelineDeltaState& s : states) {
            delta_hits.fetch_add(s.delta_hits, std::memory_order_relaxed);
          }
        },
        options.threads);
  };

  span.emplace(options.trace, "evaluate", "dse");
  if (!prune) {
    evaluate_range(0, selected);
  } else {
    // Seed pass, incumbent reduced after the barrier in index order (thread
    // schedule independent), then the bound-ascending cull. Ties with the
    // incumbent survive, so tie-breaking matches the unpruned search.
    const std::size_t seed =
        std::min(std::max<std::size_t>(options.prune_seed, 1), selected);
    evaluate_range(0, seed);
    double incumbent = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < seed; ++j) {
      const std::size_t i = eval_order[j];
      if (ok[i]) {
        incumbent = std::min(incumbent,
                             objective_score(options.objective,
                                             metrics[i].cycles, metrics[i].pj));
      }
    }
    std::size_t keep = seed;
    while (keep < selected && bounds[eval_order[keep]] <= incumbent) ++keep;
    result.pruned = selected - keep;
    evaluate_range(seed, keep);
  }

  for (std::size_t c = 0; c < chains.size(); ++c) {
    result.eval.term_requests += plans[c]->term_requests() - requests0[c];
    result.eval.term_builds += plans[c]->term_builds() - builds0[c];
  }
  result.eval.delta_hits = delta_hits.load(std::memory_order_relaxed);
  result.eval.batches = batches.load(std::memory_order_relaxed);
  result.eval.batched_candidates =
      batched_candidates.load(std::memory_order_relaxed);
  result.eval.max_batch = max_batch.load(std::memory_order_relaxed);
  span->arg("pruned", result.pruned);
  span->arg("term_builds", result.eval.term_builds);
  span.reset();

  span.emplace(options.trace, "rank", "dse");
  std::vector<RankedPipelineCandidate> valid;
  valid.reserve(selected);
  for (std::size_t i = 0; i < selected; ++i) {
    if (!ok[i]) continue;
    RankedPipelineCandidate rc;
    rc.key = cands[i].key();
    rc.cycles = metrics[i].cycles;
    rc.on_chip_pj = metrics[i].pj;
    rc.score = objective_score(options.objective, rc.cycles, rc.on_chip_pj);
    rc.candidate = std::move(cands[i]);
    valid.push_back(std::move(rc));
  }
  result.evaluated = valid.size();

  std::sort(valid.begin(), valid.end(), pipeline_candidate_order);
  // An extra/seed may duplicate a sampled candidate; identical bindings
  // produce identical metrics and sort adjacent, so one unique pass drops
  // the copies from the ranked list and the frontier.
  valid.erase(
      std::unique(valid.begin(), valid.end(),
                  [](const RankedPipelineCandidate& a,
                     const RankedPipelineCandidate& b) {
                    return a.cycles == b.cycles &&
                           a.on_chip_pj == b.on_chip_pj && a.key == b.key;
                  }),
      valid.end());

  // Pareto frontier over (cycles, energy); key tie-break keeps the frontier
  // representative deterministic across platforms.
  std::vector<RankedPipelineCandidate> by_cycles = valid;
  std::sort(by_cycles.begin(), by_cycles.end(),
            [](const RankedPipelineCandidate& a,
               const RankedPipelineCandidate& b) {
              if (a.cycles != b.cycles) return a.cycles < b.cycles;
              if (a.on_chip_pj != b.on_chip_pj) {
                return a.on_chip_pj < b.on_chip_pj;
              }
              return a.key < b.key;
            });
  double best_energy = std::numeric_limits<double>::infinity();
  for (const RankedPipelineCandidate& c : by_cycles) {
    if (c.on_chip_pj < best_energy) {
      best_energy = c.on_chip_pj;
      result.pareto.push_back(c);
    }
  }

  if (valid.size() > options.top_k) valid.resize(options.top_k);
  result.ranked = std::move(valid);
  span->arg("evaluated", result.evaluated);
  span->arg("pareto", result.pareto.size());
  return result;
}

PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const PipelineSearchOptions& options,
    const WorkloadContext* shared_context) {
  return search_pipeline_mappings(omega, workload, {&chain, 1}, options,
                                  shared_context);
}

}  // namespace omega
