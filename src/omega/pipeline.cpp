#include "omega/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/saturate.hpp"

namespace omega {

const char* to_string(PhaseEngine e) {
  switch (e) {
    case PhaseEngine::kSparseDense: return "spmm";
    case PhaseEngine::kDenseDense: return "gemm";
    case PhaseEngine::kSparseSparse: return "spgemm";
  }
  return "?";
}

PhaseEngine phase_engine_from_string(const std::string& s) {
  const std::string e = to_lower(s);
  if (e == "spmm" || e == "sparse_dense") return PhaseEngine::kSparseDense;
  if (e == "gemm" || e == "dense") return PhaseEngine::kDenseDense;
  if (e == "spgemm" || e == "sparse_weight") return PhaseEngine::kSparseSparse;
  throw InvalidArgumentError("unknown phase engine: " + s +
                             " (want spmm | gemm | spgemm)");
}

InterPhase inter_phase_from_string(const std::string& s) {
  const std::string i = to_lower(s);
  if (i == "seq" || i == "sequential") return InterPhase::kSequential;
  if (i == "spg" || i == "sp-generic") return InterPhase::kSPGeneric;
  if (i == "sp" || i == "spo" || i == "sp-optimized") {
    return InterPhase::kSPOptimized;
  }
  if (i == "pp" || i == "parallel-pipeline") {
    return InterPhase::kParallelPipeline;
  }
  throw InvalidArgumentError("unknown inter-phase strategy: " + s +
                             " (want Seq | SPg | SP | PP)");
}

HandoffRole phase_producer_role(PhaseEngine e, const LoopOrder& order) {
  // What the phase PRODUCES: the sparse-dense phase emits V x Feat with
  // contraction N; the dense/sparse-weight phases emit V x G with
  // contraction F (same role split as the classic AC/CA analysis).
  return e == PhaseEngine::kSparseDense
             ? HandoffRole{order, Dim::kV, Dim::kF, Dim::kN}
             : HandoffRole{order, Dim::kV, Dim::kG, Dim::kF};
}

HandoffRole phase_consumer_role(PhaseEngine e, const LoopOrder& order) {
  // What the phase CONSUMES: the sparse-dense phase reads intermediate
  // rows through its N loop and columns through its feature loop (the
  // classic CA consumer); the dense phases read V x F as their A operand.
  return e == PhaseEngine::kSparseDense
             ? HandoffRole{order, Dim::kN, Dim::kF, Dim::kV}
             : HandoffRole{order, Dim::kV, Dim::kF, Dim::kG};
}

namespace {

/// PhaseSpec's notation, e.g. "cmb=spgemm(GtVtFt,G=16,d=0.500)".
std::string phase_label(const PhaseChainSpec& p, const IntraPhaseDataflow& df) {
  std::string s = p.name.empty() ? std::string("phase") : p.name;
  s += "=";
  s += to_string(p.engine);
  s += "(";
  s += df.to_string();
  if (p.out_features > 0) s += ",G=" + std::to_string(p.out_features);
  if (p.engine == PhaseEngine::kSparseSparse) {
    s += ",d=" + fixed(p.weight_density, 3);
  }
  s += ")";
  return s;
}

/// Phases in execution order joined by their boundaries; a boundary the
/// spec lacks prints as "?".
template <class Label>
std::string pipeline_label(std::size_t phases,
                           std::span<const InterPhase> boundaries,
                           const Label& label) {
  std::string s;
  for (std::size_t i = 0; i < phases; ++i) {
    if (i > 0) {
      s += " ->";
      s += i - 1 < boundaries.size() ? to_string(boundaries[i - 1]) : "?";
      s += "-> ";
    }
    s += label(i);
  }
  return s;
}

}  // namespace

std::string PhaseSpec::to_string() const {
  return phase_label({name, engine, out_features, weight_density}, dataflow);
}

double pp_first_share(const PipelineBindingView& binding, std::size_t b) {
  if (binding.pe_fractions.size() != binding.phases.size()) return 0.5;
  const double first = binding.pe_fractions[b];
  const double second = binding.pe_fractions[b + 1];
  return first / (first + second);
}

std::string PipelineSpec::to_string() const {
  return pipeline_label(phases.size(), boundaries,
                        [&](std::size_t i) { return phases[i].to_string(); });
}

namespace {

std::string dim_str(Dim d) { return std::string(1, dim_letter(d)); }

// Out^T swaps rows/columns, and flipping the traversal major keeps the
// FLATTENED chunk order identical (row-major over (R, C) and column-major
// over (C, R) enumerate the same (r, c) sequence), which is what lets a
// transposed producer timeline compose index-by-index with an untransposed
// consumer.
ChunkSpec transpose_chunks(const ChunkSpec& c) {
  ChunkSpec t;
  t.rows = c.cols;
  t.cols = c.rows;
  t.row_block = c.col_block;
  t.col_block = c.row_block;
  t.major = c.major == TraversalMajor::kRowMajor ? TraversalMajor::kColumnMajor
                                                 : TraversalMajor::kRowMajor;
  return t;
}

/// Prices a traffic profile through the energy model: per-category GB
/// accesses, RF, DRAM, and the PP intermediate-partition buffer (sized
/// `partition_bytes`; 0 when no boundary buffers).
EnergyBreakdown compute_energy(const TrafficCounters& traffic,
                               const EnergyModel& em,
                               std::size_t partition_bytes) {
  EnergyBreakdown e;
  for (std::size_t c = 0; c < kNumTrafficCategories; ++c) {
    e.gb_by_category_pj[c] =
        static_cast<double>(traffic.gb[c].total()) * em.gb_access_pj;
    e.gb_pj += e.gb_by_category_pj[c];
  }
  e.rf_pj = static_cast<double>(traffic.rf.total()) * em.rf_access_pj;
  e.partition_pj = static_cast<double>(traffic.intermediate_partition.total()) *
                   em.buffer_access_pj(partition_bytes);
  e.dram_pj = static_cast<double>(traffic.dram.total()) * em.dram_access_pj;
  return e;
}

}  // namespace

// The generalized SP-Optimized rules (Table II row 2): both phases keep the
// intermediate tile resident in the PE register files, so the producer must
// accumulate temporally, the consumer must stream its third dim temporally,
// both must traverse the shared tile in the same major with the third dim
// innermost, and the row/col tiles must match across the pair. Reduces
// exactly to the classic sp_optimized_error pairs for the two-phase
// descriptor.
PipelineRule sp_optimized_violation(PhaseEngine prod_engine,
                                    const IntraPhaseDataflow& prod,
                                    PhaseEngine cons_engine,
                                    const IntraPhaseDataflow& cons) {
  const HandoffRole p = phase_producer_role(prod_engine, prod.order);
  const HandoffRole c = phase_consumer_role(cons_engine, cons.order);
  if (p.order.depth_of(p.third) != 2) {
    return PipelineRule::kSpoProducerContractionNotInnermost;
  }
  if (c.order.depth_of(c.third) != 2) {
    return PipelineRule::kSpoConsumerThirdNotInnermost;
  }
  const bool p_row_major = p.order.at(0) == p.row;
  const bool c_row_major = c.order.at(0) == c.row;
  if (p_row_major != c_row_major) return PipelineRule::kSpoMajorMismatch;
  if (prod.tiles.get(p.third) != 1) {
    return PipelineRule::kSpoProducerContractionSpatial;
  }
  if (cons.tiles.get(c.third) != 1) {
    return PipelineRule::kSpoConsumerThirdSpatial;
  }
  if (prod.tiles.get(p.row) != cons.tiles.get(c.row) ||
      prod.tiles.get(p.col) != cons.tiles.get(c.col)) {
    return PipelineRule::kSpoTileMismatch;
  }
  return PipelineRule::kNone;
}

PipelineViolation check_pipeline(std::span<const PhaseChainSpec> chain,
                                 const PipelineBindingView* binding,
                                 const AcceleratorConfig* hw) {
  using R = PipelineRule;
  const std::size_t n = chain.size();
  if (n == 0) return {R::kNoPhases};
  if (binding != nullptr) {
    if (binding->phases.size() != n) return {R::kDataflowArity};
    if (binding->boundaries.size() + 1 != n) return {R::kBoundaryArity};
    if (!binding->pe_fractions.empty() && binding->pe_fractions.size() != n) {
      return {R::kFractionArity};
    }
    for (const double f : binding->pe_fractions) {
      if (!std::isfinite(f) || f <= 0.0) return {R::kFractionValue};
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseChainSpec& p = chain[i];
    const IntraPhaseDataflow* df =
        binding != nullptr ? &binding->phases[i] : nullptr;
    if (df != nullptr) {
      if (df->phase != taxonomy_phase(p.engine)) {
        return {R::kWrongVocabulary, i};
      }
      try {
        df->validate();
      } catch (const Error&) {
        return {R::kIntraPhase, i};
      }
    }
    if (p.engine == PhaseEngine::kSparseDense) {
      if (p.out_features != 0) return {R::kSparseDenseWidth, i};
    } else if (p.out_features == 0) {
      return {R::kMissingWidth, i};
    }
    if (p.engine == PhaseEngine::kSparseSparse) {
      if (!(p.weight_density > 0.0 && p.weight_density <= 1.0)) {
        return {R::kDensityRange, i};
      }
      if (df != nullptr &&
          df->order.depth_of(Dim::kG) > df->order.depth_of(Dim::kF)) {
        return {R::kSparseWeightOrder, i};
      }
      // omega-lint: allow(float-eq): 1.0 is the exact dense-default sentinel
    } else if (p.weight_density != 1.0) {
      return {R::kStrayDensity, i};
    }
  }
  if (binding == nullptr) return {};

  const PipelineBindingView& b = *binding;
  for (std::size_t bi = 0; bi + 1 < n; ++bi) {
    const PhaseEngine prod = chain[bi].engine;
    const PhaseEngine cons = chain[bi + 1].engine;
    switch (b.boundaries[bi]) {
      case InterPhase::kSequential:
        break;
      case InterPhase::kSPOptimized: {
        const R r = sp_optimized_violation(prod, b.phases[bi], cons,
                                           b.phases[bi + 1]);
        if (r != R::kNone) return {r, bi};
        break;
      }
      case InterPhase::kSPGeneric:
      case InterPhase::kParallelPipeline:
        if (!analyze_handoff(phase_producer_role(prod, b.phases[bi].order),
                             phase_consumer_role(cons, b.phases[bi + 1].order))
                 .feasible) {
          return {R::kHandoffInfeasible, bi};
        }
        break;
    }
    if (is_chunked(b.boundaries[bi]) && cons == PhaseEngine::kSparseSparse) {
      return {R::kSparseWeightConsumer, bi};
    }
  }
  for (std::size_t bi = 1; bi + 1 < n; ++bi) {
    if (is_chunked(b.boundaries[bi - 1]) && is_chunked(b.boundaries[bi])) {
      return {R::kAdjacentChunked, bi};
    }
  }
  if (hw == nullptr) return {};

  // Substrate capability (Table II NoC/PE support column): a phase reduces
  // spatially when its contraction is tiled across PEs.
  for (std::size_t i = 0; i < n; ++i) {
    const bool spatial = b.phases[i].tiles.get(contraction_dim(
                             taxonomy_phase(chain[i].engine))) > 1;
    if (spatial && !hw->supports_spatial_reduction) {
      return {R::kNoSpatialReduction, i};
    }
    if (!spatial && !hw->supports_temporal_reduction) {
      return {R::kNoTemporalReduction, i};
    }
  }
  // Each PP pair splits the array.
  for (std::size_t bi = 0; bi + 1 < n; ++bi) {
    if (b.boundaries[bi] != InterPhase::kParallelPipeline) continue;
    if (hw->num_pes < 2) return {R::kPpTooFewPes, bi};
    const double share = pp_first_share(b, bi);
    if (!(share > 0.0 && share < 1.0)) return {R::kPpShare, bi};
  }
  return {};
}

std::string pipeline_violation_message(const PipelineViolation& v,
                                       std::span<const PhaseChainSpec> chain,
                                       const PipelineBindingView* binding) {
  using R = PipelineRule;
  const std::size_t i = v.index;
  // Phase notation: the bound PhaseSpec's, or "name=engine" for a chain.
  const auto label = [&](std::size_t k) {
    if (binding != nullptr) return phase_label(chain[k], binding->phases[k]);
    const PhaseChainSpec& p = chain[k];
    return (p.name.empty() ? std::string("phase") : p.name) + "=" +
           to_string(p.engine);
  };
  const auto phase = [&] {
    return "phase " + std::to_string(i) + " (" + label(i) + "): ";
  };
  const auto boundary = [&] {
    return "boundary " + std::to_string(i) + " (" + label(i) + " ->" +
           to_string(binding->boundaries[i]) + "-> " + label(i + 1) + "): ";
  };
  const auto spec = [&] {
    return pipeline_label(chain.size(), binding->boundaries, label);
  };
  const auto roles = [&] {
    return std::pair{
        phase_producer_role(chain[i].engine, binding->phases[i].order),
        phase_consumer_role(chain[i + 1].engine,
                            binding->phases[i + 1].order)};
  };
  switch (v.rule) {
    case R::kNone:
      break;
    case R::kNoPhases:
      return "pipeline needs at least one phase";
    case R::kDataflowArity:
      return "pipeline binding wants one dataflow per phase (" +
             std::to_string(chain.size()) + " phases, " +
             std::to_string(binding->phases.size()) + " dataflows)";
    case R::kBoundaryArity:
      return "pipeline wants exactly one boundary per adjacent phase pair (" +
             std::to_string(chain.size()) + " phases, " +
             std::to_string(binding->boundaries.size()) + " boundaries)";
    case R::kFractionArity:
      return "pe_fractions must be empty or hold one entry per phase";
    case R::kFractionValue:
      return "pe_fractions entries must be finite and > 0";
    case R::kWrongVocabulary:
      return phase() +
             "dataflow is expressed in the wrong loop vocabulary for the "
             "engine (sparse-dense phases loop over V/N/F, dense and "
             "sparse-weight phases over V/F/G)";
    case R::kIntraPhase:
      try {
        binding->phases[i].validate();
      } catch (const Error& e) {
        return phase() + e.what();
      }
      break;
    case R::kSparseDenseWidth:
      return phase() +
             "sparse-dense phases preserve the feature width; leave "
             "out_features 0";
    case R::kMissingWidth:
      return phase() + "dense and sparse-weight phases need out_features >= 1";
    case R::kDensityRange:
      return phase() + "weight_density must lie in (0, 1]";
    case R::kSparseWeightOrder:
      return phase() +
             "sparse-weight phases walk the compressed W rows G-major over "
             "the F contraction; the loop order must place G outside F (got " +
             binding->phases[i].order.letters() + ")";
    case R::kStrayDensity:
      return phase() + "weight_density only applies to sparse-weight phases";
    case R::kSpoProducerContractionNotInnermost:
      return boundary() + "SP-Optimized needs the producer's contraction (" +
             dim_str(roles().first.third) +
             ") innermost so accumulated data never leaves the PEs";
    case R::kSpoConsumerThirdNotInnermost:
      return boundary() + "SP-Optimized streams the consumer's third dim (" +
             dim_str(roles().second.third) +
             ") temporally over the stationary intermediate (innermost loop)";
    case R::kSpoMajorMismatch:
      return boundary() +
             "producer and consumer must traverse the RF-resident "
             "intermediate in the same major";
    case R::kSpoProducerContractionSpatial:
      return boundary() +
             "SP-Optimized requires a temporal producer contraction (T_" +
             dim_str(roles().first.third) + " = 1)";
    case R::kSpoConsumerThirdSpatial:
      return boundary() +
             "SP-Optimized streams the consumer's third dim temporally (T_" +
             dim_str(roles().second.third) + " = 1)";
    case R::kSpoTileMismatch:
      return boundary() +
             "SP-Optimized requires matched row/col tiles across the pair "
             "(the same intermediate tile stays in the PEs)";
    case R::kHandoffInfeasible:
      return boundary() +
             analyze_handoff(roles().first, roles().second).reason;
    case R::kSparseWeightConsumer:
      return "boundary " + std::to_string(i) + " (" + label(i + 1) +
             "): a sparse-weight phase cannot consume a chunked intermediate "
             "(its walked rows are W rows, not intermediate rows); use Seq "
             "or SP-Optimized upstream";
    case R::kAdjacentChunked:
      return phase() +
             "a phase can stage chunks through at most one adjacent boundary "
             "(both neighbors are SP-Generic/PP); separate the chunked "
             "boundaries with Seq or SP-Optimized";
    case R::kNoSpatialReduction:
      return label(i) +
             ": substrate has no spatial-reduction support (adder tree / "
             "store-and-forward)";
    case R::kNoTemporalReduction:
      return label(i) +
             ": substrate has no temporal-reduction support (in-place "
             "accumulators)";
    case R::kPpTooFewPes:
      return spec() +
             ": parallel pipeline needs >= 2 PEs to split the array between "
             "the phases";
    case R::kPpShare:
      return spec() +
             ": PP PE shares must lie strictly inside (0, 1) — 0, 1 or NaN "
             "would starve a phase of PEs";
  }
  return {};
}

std::optional<std::string> PipelineSpec::validation_error() const {
  const PipelineChainSpec chain = PipelineChainSpec::of(*this);
  std::vector<IntraPhaseDataflow> dataflows;
  dataflows.reserve(phases.size());
  for (const PhaseSpec& p : phases) dataflows.push_back(p.dataflow);
  const PipelineBindingView binding{dataflows, boundaries, pe_fractions};
  const PipelineViolation v = check_pipeline(chain.phases, &binding);
  if (!v) return std::nullopt;
  return pipeline_violation_message(v, chain.phases, &binding);
}

void PipelineSpec::validate() const {
  if (const auto err = validation_error()) {
    throw InvalidDataflowError("pipeline " + to_string() + ": " + *err);
  }
}

PipelineChainSpec PipelineChainSpec::of(const PipelineSpec& spec) {
  PipelineChainSpec c;
  c.in_features = spec.in_features;
  c.phases.reserve(spec.phases.size());
  for (const PhaseSpec& p : spec.phases) {
    c.phases.push_back({p.name, p.engine, p.out_features, p.weight_density});
  }
  return c;
}

std::optional<std::string> PipelineChainSpec::chain_error() const {
  const PipelineViolation v = check_pipeline(phases);
  if (!v) return std::nullopt;
  return pipeline_violation_message(v, phases, nullptr);
}

PipelineSpec PipelineChainSpec::bind(const PipelineBindingView& b) const {
  const std::size_t n = phases.size();
  if (b.phases.size() != n || b.boundaries.size() + 1 != n ||
      (!b.pe_fractions.empty() && b.pe_fractions.size() != n)) {
    throw InvalidArgumentError(
        "pipeline binding arity does not match the chain (" +
        std::to_string(n) + " phases want " + std::to_string(n) +
        " dataflows, " + std::to_string(n > 0 ? n - 1 : 0) +
        " boundaries, and 0 or " + std::to_string(n) + " pe_fractions; got " +
        std::to_string(b.phases.size()) + " / " +
        std::to_string(b.boundaries.size()) + " / " +
        std::to_string(b.pe_fractions.size()) + ")");
  }
  PipelineSpec s;
  s.in_features = in_features;
  s.phases.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.phases[i].name = phases[i].name;
    s.phases[i].engine = phases[i].engine;
    s.phases[i].out_features = phases[i].out_features;
    s.phases[i].weight_density = phases[i].weight_density;
    s.phases[i].dataflow = b.phases[i];
  }
  s.boundaries.assign(b.boundaries.begin(), b.boundaries.end());
  s.pe_fractions.assign(b.pe_fractions.begin(), b.pe_fractions.end());
  return s;
}

std::string PipelineChainSpec::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseChainSpec& p = phases[i];
    if (i > 0) s += " -> ";
    s += p.name.empty() ? std::string("phase") : p.name;
    s += "=";
    s += omega::to_string(p.engine);
    if (p.out_features > 0 || p.engine == PhaseEngine::kSparseSparse) {
      s += "(";
      if (p.out_features > 0) s += "G=" + std::to_string(p.out_features);
      if (p.engine == PhaseEngine::kSparseSparse) {
        if (p.out_features > 0) s += ",";
        s += "d=" + fixed(p.weight_density, 3);
      }
      s += ")";
    }
  }
  return s;
}

PhaseSpec assemble_phase_spec(std::string name, PhaseEngine engine,
                              const std::string& dataflow,
                              const std::vector<std::size_t>& tiles,
                              std::size_t out_features, double weight_density,
                              std::size_t index) {
  if (dataflow.empty()) {
    throw InvalidArgumentError("each phase needs a dataflow (loop order)");
  }
  PhaseSpec p;
  p.engine = engine;
  p.dataflow = IntraPhaseDataflow::parse(dataflow, taxonomy_phase(engine));
  if (!tiles.empty()) {
    if (tiles.size() != 3) {
      throw InvalidArgumentError(
          "phase tiles want 3 values, one per canonical phase dim (V,N,F "
          "for spmm; V,F,G otherwise)");
    }
    const auto dims = phase_dims(taxonomy_phase(engine));
    for (std::size_t d = 0; d < 3; ++d) p.dataflow.tiles.set(dims[d], tiles[d]);
  }
  p.out_features = out_features;
  p.weight_density = weight_density;
  p.name = name.empty() ? "phase" + std::to_string(index) : std::move(name);
  return p;
}

std::size_t sparse_weight_nnz_per_row(std::size_t in_features,
                                      double density) {
  return std::min<std::size_t>(
      in_features,
      std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(density * static_cast<double>(in_features)))));
}

CSRGraph sparse_weight_csr(std::size_t in_features, std::size_t out_features,
                           double density) {
  OMEGA_CHECK(in_features >= 1 && out_features >= 1,
              "weight matrix extents must be >= 1");
  OMEGA_CHECK(density > 0.0 && density <= 1.0,
              "weight density must lie in (0, 1]");
  const std::size_t nnz_per_row =
      sparse_weight_nnz_per_row(in_features, density);
  // W^T pattern: out_features rows of max(1, round(density * F)) entries.
  // Only the degree profile feeds the cost model (the engines never
  // dereference neighbor ids — traffic is counted per (edge, feature)), so
  // the evenly spaced F-space column ids are folded into the row space to
  // satisfy the square-CSR container; duplicates are legal in from_rows and
  // preserve the nonzero count.
  std::vector<std::vector<VertexId>> rows(out_features);
  for (auto& row : rows) {
    row.reserve(nnz_per_row);
    for (std::size_t j = 0; j < nnz_per_row; ++j) {
      row.push_back(
          static_cast<VertexId>(j * in_features / nnz_per_row % out_features));
    }
  }
  return CSRGraph::from_rows(std::move(rows));
}

PipelineSpec two_phase_pipeline(const DataflowDescriptor& df,
                                const LayerSpec& layer, std::size_t num_pes) {
  PipelineSpec s;
  s.in_features = layer.in_features;
  PhaseSpec agg;
  agg.name = "agg";
  agg.engine = PhaseEngine::kSparseDense;
  agg.dataflow = df.agg;
  PhaseSpec cmb;
  cmb.name = "cmb";
  cmb.engine = PhaseEngine::kDenseDense;
  cmb.dataflow = df.cmb;
  cmb.out_features = layer.out_features;
  const bool ac = df.phase_order == PhaseOrder::kAC;
  if (ac) {
    s.phases = {std::move(agg), std::move(cmb)};
  } else {
    s.phases = {std::move(cmb), std::move(agg)};
  }
  s.boundaries = {df.inter};
  if (df.inter == InterPhase::kParallelPipeline) {
    double first = ac ? df.pp_agg_pe_fraction : 1.0 - df.pp_agg_pe_fraction;
    if (num_pes >= 2 && df.pp_agg_pe_fraction > 0.0 &&
        df.pp_agg_pe_fraction < 1.0) {
      // Resolve the split the way the historic two-phase model did — round
      // the AGGREGATION share and give Combination the remainder — then
      // express it as an exact first-phase share. llround(num_pes * (1-f))
      // is NOT always num_pes - llround(num_pes * f), so a CA pair fed the
      // raw complement would drift by one PE on rounding ties.
      const std::size_t pes_agg = pp_first_pes(num_pes, df.pp_agg_pe_fraction);
      const std::size_t first_pes = ac ? pes_agg : num_pes - pes_agg;
      first = static_cast<double>(first_pes) / static_cast<double>(num_pes);
    }
    s.pe_fractions = {first, 1.0 - first};
  }
  return s;
}

RunResult to_run_result(PipelineResult&& pr, const DataflowDescriptor& df) {
  OMEGA_CHECK(pr.phases.size() == 2 && pr.boundaries.size() == 1,
              "RunResult is a two-phase view; N-phase results stay "
              "PipelineResults");
  const bool ac = pr.phases[0].engine == PhaseEngine::kSparseDense;
  PhaseOutcome& agg = ac ? pr.phases[0] : pr.phases[1];
  PhaseOutcome& cmb = ac ? pr.phases[1] : pr.phases[0];
  OMEGA_CHECK(agg.engine == PhaseEngine::kSparseDense &&
                  cmb.engine != PhaseEngine::kSparseDense,
              "two-phase view wants one sparse-dense and one dense phase");
  const BoundaryOutcome& b = pr.boundaries[0];

  RunResult r;
  r.dataflow = df;
  r.cycles = pr.cycles;
  r.agg = std::move(agg.result);
  r.cmb = std::move(cmb.result);
  r.pes_agg = agg.pes;
  r.pes_cmb = cmb.pes;
  r.granularity = b.granularity;
  r.pipeline_chunks = b.pipeline_chunks;
  r.pipeline_elements = b.pipeline_elements;
  r.intermediate_buffer_elements = b.buffer_elements;
  r.intermediate_spilled = b.spilled;
  r.num_rows = pr.num_rows;
  r.in_features = pr.in_features;
  r.out_features = pr.out_features;
  r.chunk_grid = b.chunk_grid;
  r.traffic = pr.traffic;
  r.energy = pr.energy;
  r.agg_static_utilization = agg.static_utilization;
  r.cmb_static_utilization = cmb.static_utilization;
  return r;
}

std::vector<PipelinePhaseShape> pipeline_shapes(
    std::span<const PhaseChainSpec> chain, std::size_t in_features,
    std::vector<std::unique_ptr<const CSRGraph>>& weights) {
  std::vector<PipelinePhaseShape> shapes(chain.size());
  std::size_t width = in_features;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const PhaseChainSpec& p = chain[i];
    PipelinePhaseShape& s = shapes[i];
    s.engine = p.engine;
    s.in_features = width;
    s.out_features =
        p.engine == PhaseEngine::kSparseDense ? width : p.out_features;
    width = s.out_features;
    if (p.engine == PhaseEngine::kSparseSparse) {
      weights.push_back(std::make_unique<const CSRGraph>(sparse_weight_csr(
          s.in_features, s.out_features, p.weight_density)));
      s.weights = weights.back().get();
    }
  }
  return shapes;
}

std::size_t derive_pipeline(const AcceleratorConfig& hw, const CSRGraph& graph,
                            const WorkloadContext* context,
                            std::span<const PipelinePhaseShape> shapes,
                            const PipelineBindingView& binding,
                            std::span<PhaseEngineConfig> configs,
                            std::span<BoundaryOutcome> boundaries) {
  const std::size_t n = shapes.size();
  const std::size_t v = graph.num_vertices();

  // ---- Boundary plans (Table III generalized to adjacent pairs) ------------
  std::size_t partition_bytes = 0;
  for (std::size_t b = 0; b + 1 < n; ++b) {
    BoundaryOutcome& bo = boundaries[b];
    bo = BoundaryOutcome{};
    bo.inter = binding.boundaries[b];
    bo.rows = v;
    bo.cols = shapes[b].out_features;
    bo.chunk_grid = ChunkSpec::whole(bo.rows, bo.cols);
    if (is_chunked(bo.inter)) {
      const IntraPhaseDataflow& prod = binding.phases[b];
      const IntraPhaseDataflow& cons = binding.phases[b + 1];
      const HandoffRole prod_role =
          phase_producer_role(shapes[b].engine, prod.order);
      const HandoffRole cons_role =
          phase_consumer_role(shapes[b + 1].engine, cons.order);
      const PipelineAnalysis analysis = analyze_handoff(prod_role, cons_role);
      OMEGA_CHECK(analysis.feasible, "a checked pipeline hands off chunkably");
      bo.granularity = analysis.granularity;
      bo.chunk_grid.major = analysis.major;
      // Max tile across the pair for the intermediate's row / column dim.
      const std::size_t t_row =
          std::min(std::max(prod.tiles.get(prod_role.row),
                            cons.tiles.get(cons_role.row)),
                   bo.rows);
      const std::size_t t_col =
          std::min(std::max(prod.tiles.get(prod_role.col),
                            cons.tiles.get(cons_role.col)),
                   bo.cols);
      switch (bo.granularity) {
        case Granularity::kElement:
          bo.chunk_grid.row_block = t_row;
          bo.chunk_grid.col_block = t_col;
          bo.pipeline_elements = t_row * t_col;
          break;
        case Granularity::kRow:
          bo.chunk_grid.row_block = t_row;
          bo.pipeline_elements = t_row * bo.cols;
          break;
        case Granularity::kColumn:
          bo.chunk_grid.col_block = t_col;
          bo.pipeline_elements = bo.rows * t_col;
          break;
        case Granularity::kNone:
          break;
      }
      bo.pipeline_chunks = bo.chunk_grid.num_chunks();
    }
    switch (bo.inter) {
      case InterPhase::kSequential:
        bo.buffer_elements = bo.rows * bo.cols;
        break;
      case InterPhase::kSPGeneric:
        bo.buffer_elements = bo.pipeline_elements;
        break;
      case InterPhase::kSPOptimized:
        bo.buffer_elements = 0;
        break;
      case InterPhase::kParallelPipeline:
        bo.buffer_elements = 2 * bo.pipeline_elements;
        partition_bytes =
            std::max(partition_bytes, bo.buffer_elements * hw.element_bytes);
        break;
    }
    // Seq spill decision: the product saturates so an astronomically large
    // intermediate cannot wrap into "fits on chip" (DESIGN.md "Overflow
    // contract").
    const std::uint64_t int_bytes =
        sat_mul_u64(sat_mul_u64(bo.rows, bo.cols), hw.element_bytes);
    bo.spilled = bo.inter == InterPhase::kSequential && int_bytes > hw.gb_bytes;
  }

  // ---- Per-phase engine configs --------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const PipelinePhaseShape& shape = shapes[i];
    const IntraPhaseDataflow& df = binding.phases[i];
    const BoundaryOutcome* up = i > 0 ? &boundaries[i - 1] : nullptr;
    const BoundaryOutcome* down = i + 1 < n ? &boundaries[i] : nullptr;
    const bool pp_up = up != nullptr && up->inter == InterPhase::kParallelPipeline;
    const bool pp_down =
        down != nullptr && down->inter == InterPhase::kParallelPipeline;

    // PE and bandwidth allocation: phases default to the whole array; a PP
    // boundary splits it between its pair (validation caps every phase at
    // one chunked boundary, so PP groups are exactly pairs) and both sides
    // share the GB ports proportionally (Section V-C3).
    std::size_t pes = hw.num_pes;
    std::size_t bw_dist = hw.distribution_bandwidth;
    std::size_t bw_red = hw.reduction_bandwidth;
    if (pp_up || pp_down) {
      const std::size_t first = pp_first_pes(
          hw.num_pes, pp_first_share(binding, pp_down ? i : i - 1));
      pes = pp_down ? first : hw.num_pes - first;
      bw_dist = scaled_bandwidth(hw.distribution_bandwidth, pes, hw.num_pes);
      bw_red = scaled_bandwidth(hw.reduction_bandwidth, pes, hw.num_pes);
    }

    const bool in_from_rf =
        up != nullptr && up->inter == InterPhase::kSPOptimized;
    const bool in_dram = up != nullptr && up->spilled;
    const bool out_to_rf =
        down != nullptr && down->inter == InterPhase::kSPOptimized;
    const bool out_in_dram = down != nullptr && down->spilled;
    const TrafficCategory in_cat =
        up != nullptr ? TrafficCategory::kIntermediate : TrafficCategory::kInput;
    const TrafficCategory out_cat = down != nullptr
                                        ? TrafficCategory::kIntermediate
                                        : TrafficCategory::kOutput;
    const bool up_chunked = up != nullptr && is_chunked(up->inter);
    const bool down_chunked = down != nullptr && is_chunked(down->inter);

    PhaseEngineConfig& pc = configs[i];
    pc = PhaseEngineConfig{};
    if (shape.engine == PhaseEngine::kDenseDense) {
      pc.is_gemm = true;
      GemmPhaseConfig& cfg = pc.gemm;
      cfg.rows = v;
      cfg.inner = shape.in_features;
      cfg.cols = shape.out_features;
      cfg.order = df.order;
      cfg.tiles = df.tiles;
      cfg.pes = pes;
      cfg.bw_dist = bw_dist;
      cfg.bw_red = bw_red;
      cfg.rf_elements = hw.rf_elements_per_pe();
      cfg.a_category = in_cat;
      cfg.a_from_rf = in_from_rf;
      cfg.a_in_dram = in_dram;
      cfg.a_stream_bw = in_dram ? hw.dram_bandwidth : 0;
      cfg.a_via_partition = pp_up;
      cfg.out_category = out_cat;
      cfg.out_to_rf = out_to_rf;
      cfg.out_in_dram = out_in_dram;
      cfg.out_drain_bw = out_in_dram ? hw.dram_bandwidth : 0;
      cfg.out_via_partition = pp_down;
      if (up_chunked) {
        cfg.chunks = up->chunk_grid;
        cfg.chunk_target = ChunkTarget::kMatrixA;
      } else if (down_chunked) {
        cfg.chunks = down->chunk_grid;
        cfg.chunk_target = ChunkTarget::kMatrixOut;
      }
      continue;
    }

    SpmmPhaseConfig& cfg = pc.spmm;
    const bool sparse_weight = shape.engine == PhaseEngine::kSparseSparse;
    if (sparse_weight) {
      // Transposed problem Out^T[G,V] = W^T[G,F] x X^T[F,V]: the SpMM
      // engine walks W^T rows exactly like adjacency rows — fewer nonzeros
      // per row (lower density) mean fewer neighbor steps and less
      // metadata/operand traffic. Loop dims translate G->V, F->N, V->Feat
      // (validation keeps N out of the vocabulary); the consumed X^T
      // becomes the engine's B operand.
      const auto translate = [](Dim d) {
        if (d == Dim::kG) return Dim::kV;
        if (d == Dim::kF) return Dim::kN;
        return Dim::kF;
      };
      cfg.graph = shape.weights;
      cfg.context = nullptr;  // the workload context is bound to the graph
      cfg.order = LoopOrder(translate(df.order.at(0)), translate(df.order.at(1)),
                            translate(df.order.at(2)));
      cfg.tiles.v = df.tiles.g;
      cfg.tiles.n = df.tiles.f;
      cfg.tiles.f = df.tiles.v;
      cfg.feat = v;
    } else {
      cfg.graph = &graph;
      cfg.context = context;
      cfg.order = df.order;
      cfg.tiles = df.tiles;
      cfg.feat = shape.in_features;
    }
    cfg.pes = pes;
    cfg.bw_dist = bw_dist;
    cfg.bw_red = bw_red;
    cfg.rf_elements = hw.rf_elements_per_pe();
    cfg.b_category = in_cat;
    cfg.b_from_rf = in_from_rf;
    cfg.b_in_dram = in_dram;
    cfg.b_stream_bw = in_dram ? hw.dram_bandwidth : 0;
    cfg.b_via_partition = pp_up;
    cfg.out_category = out_cat;
    cfg.out_to_rf = out_to_rf;
    cfg.out_in_dram = out_in_dram;
    cfg.out_drain_bw = out_in_dram ? hw.dram_bandwidth : 0;
    cfg.out_via_partition = pp_down;
    // Validation keeps chunked boundaries out of sparse-weight consumers, so
    // those phases can only stage chunks as producers — through the
    // transposed grid.
    if (up_chunked) {
      cfg.chunks = up->chunk_grid;
      cfg.chunk_target = ChunkTarget::kMatrixA;
    } else if (down_chunked) {
      cfg.chunks =
          sparse_weight ? transpose_chunks(down->chunk_grid) : down->chunk_grid;
      cfg.chunk_target = ChunkTarget::kMatrixOut;
    }
  }
  return partition_bytes;
}

bool big_grid(const PhaseEngineConfig& cfg) {
  const ChunkTarget target =
      cfg.is_gemm ? cfg.gemm.chunk_target : cfg.spmm.chunk_target;
  const ChunkSpec& chunks = cfg.is_gemm ? cfg.gemm.chunks : cfg.spmm.chunks;
  return target != ChunkTarget::kNone &&
         chunks.num_chunks() > kPhaseMemoMaxChunks;
}

std::shared_ptr<const PhaseResult> simulate_phase(
    const PhaseEngineConfig& cfg, const WorkloadContext* context) {
  if (!cfg.is_gemm) {
    // Checked before the memo lookup: the key carries no graph identity, so
    // a mis-bound context must fail loudly rather than return another
    // graph's cached result.
    OMEGA_CHECK(cfg.spmm.context == nullptr ||
                    &cfg.spmm.context->graph() == cfg.spmm.graph,
                "WorkloadContext is bound to a different graph");
    if (cfg.spmm.context == nullptr) context = nullptr;  // sparse weights
  }
  const auto build = [&cfg] {
    return cfg.is_gemm ? run_gemm_phase(cfg.gemm) : run_spmm_phase(cfg.spmm);
  };
  if (context == nullptr || big_grid(cfg)) {
    return std::make_shared<const PhaseResult>(build());
  }
  return context->phase_result(
      cfg.is_gemm ? term_key(cfg.gemm) : term_key(cfg.spmm), build);
}

PipelineCost compose_pipeline(std::span<const PhaseResult* const> phases,
                              std::span<const InterPhase> boundaries,
                              const EnergyModel& em,
                              std::size_t partition_bytes) {
  const std::size_t n = phases.size();
  PipelineCost cost;
  for (std::size_t i = 0; i < n;) {
    if (i + 1 < n && boundaries[i] == InterPhase::kParallelPipeline) {
      cost.cycles = sat_add_u64(
          cost.cycles, compose_parallel_pipeline(phases[i]->chunk_completion,
                                                 phases[i + 1]->chunk_cycles));
      i += 2;
    } else {
      cost.cycles = sat_add_u64(cost.cycles, phases[i]->cycles);
      i += 1;
    }
  }
  for (const PhaseResult* p : phases) cost.traffic += p->traffic;
  cost.energy = compute_energy(cost.traffic, em, partition_bytes);
  return cost;
}

PipelineResult Omega::run_pipeline(const GnnWorkload& workload,
                                   const PipelineSpec& spec,
                                   const WorkloadContext* context) const {
  const std::size_t n = spec.phases.size();
  const PipelineChainSpec chain = PipelineChainSpec::of(spec);
  std::vector<IntraPhaseDataflow> dataflows(n);
  for (std::size_t i = 0; i < n; ++i) dataflows[i] = spec.phases[i].dataflow;
  const PipelineBindingView binding{dataflows, spec.boundaries,
                                    spec.pe_fractions};
  if (const auto v = check_pipeline(chain.phases, &binding, &hw_)) {
    const std::string msg =
        pipeline_violation_message(v, chain.phases, &binding);
    if (v.substrate()) throw ResourceError(msg);
    throw InvalidDataflowError("pipeline " + spec.to_string() + ": " + msg);
  }
  OMEGA_CHECK(workload.num_vertices() >= 1,
              "workload needs at least one vertex");
  const std::size_t width =
      spec.in_features > 0 ? spec.in_features : workload.in_features;
  OMEGA_CHECK(width >= 1, "first-phase input width must be >= 1");

  // Sparse-weight phases get their W^T pattern here, once per call (the
  // eval plan builds it once per chain instead).
  std::vector<std::unique_ptr<const CSRGraph>> weights;
  const std::vector<PipelinePhaseShape> shapes =
      pipeline_shapes(chain.phases, width, weights);

  // ---- Derive, simulate, compose -------------------------------------------
  PipelineResult result;
  result.boundaries.resize(n > 0 ? n - 1 : 0);
  std::vector<PhaseEngineConfig> configs(n);
  const std::size_t partition_bytes =
      derive_pipeline(hw_, workload.adjacency, context, shapes, binding,
                      configs, result.boundaries);

  result.phases.resize(n);
  std::vector<const PhaseResult*> results(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseSpec& p = spec.phases[i];
    PhaseOutcome& po = result.phases[i];
    po.name = p.name;
    po.engine = p.engine;
    po.pes = configs[i].pes();
    po.in_features = shapes[i].in_features;
    po.out_features = shapes[i].out_features;
    po.static_utilization = static_utilization(p.dataflow, po.pes);
    po.result = *simulate_phase(configs[i], context);
    results[i] = &po.result;
  }

  const PipelineCost cost =
      compose_pipeline(results, spec.boundaries, energy_, partition_bytes);
  result.cycles = cost.cycles;
  result.traffic = cost.traffic;
  result.energy = cost.energy;
  // Validation keeps PP boundaries apart, so every one composes as a pair.
  for (BoundaryOutcome& bo : result.boundaries) {
    bo.overlapped = bo.inter == InterPhase::kParallelPipeline;
  }
  result.num_rows = workload.num_vertices();
  result.in_features = n > 0 ? shapes.front().in_features : 0;
  result.out_features = n > 0 ? shapes.back().out_features : 0;
  return result;
}

}  // namespace omega
