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

HandoffRole PhaseSpec::producer_role() const {
  return phase_producer_role(engine, dataflow.order);
}

HandoffRole PhaseSpec::consumer_role() const {
  return phase_consumer_role(engine, dataflow.order);
}

std::string PhaseSpec::to_string() const {
  std::string s = name.empty() ? std::string("phase") : name;
  s += "=";
  s += omega::to_string(engine);
  s += "(";
  s += dataflow.to_string();
  if (out_features > 0) s += ",G=" + std::to_string(out_features);
  if (engine == PhaseEngine::kSparseSparse) {
    s += ",d=" + fixed(weight_density, 3);
  }
  s += ")";
  return s;
}

double pp_first_share(const PipelineBindingView& binding, std::size_t b) {
  if (binding.pe_fractions.size() != binding.phases.size()) return 0.5;
  const double first = binding.pe_fractions[b];
  const double second = binding.pe_fractions[b + 1];
  return first / (first + second);
}

std::string PipelineSpec::to_string() const {
  std::string s;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) {
      s += " ->";
      s += omega::to_string(boundaries[i - 1]);
      s += "-> ";
    }
    s += phases[i].to_string();
  }
  return s;
}

namespace {

/// Which generalized SP-Optimized constraint (Table II row 2) a pair
/// violates. The single rule set behind both the boolean hot-path check and
/// the message-building validation path, so the two cannot drift.
enum class SpoViolation : std::uint8_t {
  kNone = 0,
  kProducerContractionNotInnermost,
  kConsumerThirdNotInnermost,
  kMajorMismatch,
  kProducerContractionSpatial,
  kConsumerThirdSpatial,
  kTileMismatch,
};

SpoViolation spo_pair_violation(PhaseEngine prod_engine,
                                const IntraPhaseDataflow& prod,
                                PhaseEngine cons_engine,
                                const IntraPhaseDataflow& cons) {
  const HandoffRole p = phase_producer_role(prod_engine, prod.order);
  const HandoffRole c = phase_consumer_role(cons_engine, cons.order);
  if (p.order.depth_of(p.third) != 2) {
    return SpoViolation::kProducerContractionNotInnermost;
  }
  if (c.order.depth_of(c.third) != 2) {
    return SpoViolation::kConsumerThirdNotInnermost;
  }
  const bool p_row_major = p.order.at(0) == p.row;
  const bool c_row_major = c.order.at(0) == c.row;
  if (p_row_major != c_row_major) return SpoViolation::kMajorMismatch;
  if (prod.tiles.get(p.third) != 1) {
    return SpoViolation::kProducerContractionSpatial;
  }
  if (cons.tiles.get(c.third) != 1) return SpoViolation::kConsumerThirdSpatial;
  if (prod.tiles.get(p.row) != cons.tiles.get(c.row) ||
      prod.tiles.get(p.col) != cons.tiles.get(c.col)) {
    return SpoViolation::kTileMismatch;
  }
  return SpoViolation::kNone;
}

/// Message path over spo_pair_violation: both phases keep the intermediate
/// tile resident in the PE register files, so the producer must accumulate
/// temporally, the consumer must stream its third dim temporally, both must
/// traverse the shared tile in the same major with the third dim innermost,
/// and the row/col tiles must match across the pair. Reduces exactly to the
/// classic sp_optimized_error pairs for the two-phase descriptor. `b` is
/// the boundary index, named in the message; the prefix is built only on
/// failure (this runs per candidate in validation-heavy callers).
std::optional<std::string> sp_optimized_pair_error(const PhaseSpec& prod,
                                                   const PhaseSpec& cons,
                                                   std::size_t b) {
  const SpoViolation v = spo_pair_violation(prod.engine, prod.dataflow,
                                            cons.engine, cons.dataflow);
  if (v == SpoViolation::kNone) return std::nullopt;
  const HandoffRole p = phase_producer_role(prod.engine, prod.dataflow.order);
  const HandoffRole c = phase_consumer_role(cons.engine, cons.dataflow.order);
  const std::string where = "boundary " + std::to_string(b) + " (" +
                            prod.to_string() + " ->SP-> " + cons.to_string() +
                            "): ";
  switch (v) {
    case SpoViolation::kNone:
      break;
    case SpoViolation::kProducerContractionNotInnermost:
      return where + "SP-Optimized needs the producer's contraction (" +
             std::string(1, dim_letter(p.third)) +
             ") innermost so accumulated data never leaves the PEs";
    case SpoViolation::kConsumerThirdNotInnermost:
      return where + "SP-Optimized streams the consumer's third dim (" +
             std::string(1, dim_letter(c.third)) +
             ") temporally over the stationary intermediate (innermost loop)";
    case SpoViolation::kMajorMismatch:
      return where + "producer and consumer must traverse the RF-resident "
                     "intermediate in the same major";
    case SpoViolation::kProducerContractionSpatial:
      return where + "SP-Optimized requires a temporal producer contraction "
                     "(T_" + std::string(1, dim_letter(p.third)) + " = 1)";
    case SpoViolation::kConsumerThirdSpatial:
      return where + "SP-Optimized streams the consumer's third dim "
                     "temporally (T_" + std::string(1, dim_letter(c.third)) +
             " = 1)";
    case SpoViolation::kTileMismatch:
      return where + "SP-Optimized requires matched row/col tiles across the "
                     "pair (the same intermediate tile stays in the PEs)";
  }
  return std::nullopt;
}

bool is_chunked(InterPhase ip) {
  return ip == InterPhase::kSPGeneric || ip == InterPhase::kParallelPipeline;
}

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

bool sp_optimized_pair_ok(PhaseEngine prod_engine,
                          const IntraPhaseDataflow& prod,
                          PhaseEngine cons_engine,
                          const IntraPhaseDataflow& cons) {
  return spo_pair_violation(prod_engine, prod, cons_engine, cons) ==
         SpoViolation::kNone;
}

std::optional<std::string> PipelineSpec::validation_error() const {
  if (phases.empty()) return "pipeline needs at least one phase";
  if (boundaries.size() + 1 != phases.size()) {
    return "pipeline wants exactly one boundary per adjacent phase pair (" +
           std::to_string(phases.size()) + " phases, " +
           std::to_string(boundaries.size()) + " boundaries)";
  }
  if (!pe_fractions.empty() && pe_fractions.size() != phases.size()) {
    return "pe_fractions must be empty or hold one entry per phase";
  }
  for (const double f : pe_fractions) {
    if (!std::isfinite(f) || f <= 0.0) {
      return "pe_fractions entries must be finite and > 0";
    }
  }
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& p = phases[i];
    // Prefix built lazily (failure path only): validation runs per candidate
    // in pipeline sweeps, and the index names WHICH of N phases failed.
    const auto who = [&] {
      return "phase " + std::to_string(i) + " (" + p.to_string() + "): ";
    };
    if (p.dataflow.phase != taxonomy_phase(p.engine)) {
      return who() + "dataflow is expressed in the wrong loop vocabulary for "
                     "the engine (sparse-dense phases loop over V/N/F, dense "
                     "and sparse-weight phases over V/F/G)";
    }
    try {
      p.dataflow.validate();
    } catch (const Error& e) {
      return who() + e.what();
    }
    if (p.engine == PhaseEngine::kSparseDense) {
      if (p.out_features != 0) {
        return who() + "sparse-dense phases preserve the feature width; "
                       "leave out_features 0";
      }
    } else if (p.out_features == 0) {
      return who() + "dense and sparse-weight phases need out_features >= 1";
    }
    if (p.engine == PhaseEngine::kSparseSparse) {
      if (!(p.weight_density > 0.0 && p.weight_density <= 1.0)) {
        return who() + "weight_density must lie in (0, 1]";
      }
      if (p.dataflow.order.depth_of(Dim::kG) >
          p.dataflow.order.depth_of(Dim::kF)) {
        return who() + "sparse-weight phases walk the compressed W rows "
                       "G-major over the F contraction; the loop order must "
                       "place G outside F (got " +
               p.dataflow.order.letters() + ")";
      }
      // omega-lint: allow(float-eq): 1.0 is the exact dense-default sentinel
    } else if (p.weight_density != 1.0) {
      return who() + "weight_density only applies to sparse-weight phases";
    }
  }
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    const PhaseSpec& prod = phases[b];
    const PhaseSpec& cons = phases[b + 1];
    switch (boundaries[b]) {
      case InterPhase::kSequential:
        break;
      case InterPhase::kSPOptimized:
        if (const auto err = sp_optimized_pair_error(prod, cons, b)) {
          return err;
        }
        break;
      case InterPhase::kSPGeneric:
      case InterPhase::kParallelPipeline: {
        const PipelineAnalysis a =
            analyze_handoff(prod.producer_role(), cons.consumer_role());
        if (!a.feasible) {
          return "boundary " + std::to_string(b) + " (" + prod.to_string() +
                 " ->" + omega::to_string(boundaries[b]) + "-> " +
                 cons.to_string() + "): " + a.reason;
        }
        break;
      }
    }
    if (is_chunked(boundaries[b]) &&
        cons.engine == PhaseEngine::kSparseSparse) {
      return "boundary " + std::to_string(b) + " (" + cons.to_string() +
             "): a sparse-weight phase cannot consume a chunked intermediate "
             "(its walked rows are W rows, not intermediate rows); use Seq "
             "or SP-Optimized upstream";
    }
  }
  for (std::size_t b = 1; b < boundaries.size(); ++b) {
    if (is_chunked(boundaries[b - 1]) && is_chunked(boundaries[b])) {
      return "phase " + std::to_string(b) + " (" + phases[b].to_string() +
             "): a phase can stage chunks through at most one adjacent "
             "boundary (both neighbors are SP-Generic/PP); separate the "
             "chunked boundaries with Seq or SP-Optimized";
    }
  }
  return std::nullopt;
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
  if (phases.empty()) return "pipeline needs at least one phase";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseChainSpec& p = phases[i];
    const auto who = [&] {
      return "phase " + std::to_string(i) + " (" +
             (p.name.empty() ? std::string("phase") : p.name) + "=" +
             std::string(omega::to_string(p.engine)) + "): ";
    };
    if (p.engine == PhaseEngine::kSparseDense) {
      if (p.out_features != 0) {
        return who() + "sparse-dense phases preserve the feature width; "
                       "leave out_features 0";
      }
    } else if (p.out_features == 0) {
      return who() + "dense and sparse-weight phases need out_features >= 1";
    }
    if (p.engine == PhaseEngine::kSparseSparse) {
      if (!(p.weight_density > 0.0 && p.weight_density <= 1.0)) {
        return who() + "weight_density must lie in (0, 1]";
      }
      // omega-lint: allow(float-eq): 1.0 is the exact dense-default sentinel
    } else if (p.weight_density != 1.0) {
      return who() + "weight_density only applies to sparse-weight phases";
    }
  }
  return std::nullopt;
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
      const std::size_t pes_agg = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::llround(
              static_cast<double>(num_pes) * df.pp_agg_pe_fraction)),
          1, num_pes - 1);
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
      OMEGA_CHECK(analysis.feasible, "validated pipeline must be chunkable");
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
      const std::size_t first = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::llround(
              static_cast<double>(hw.num_pes) *
              pp_first_share(binding, pp_down ? i : i - 1))),
          1, hw.num_pes - 1);
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
  return run_pipeline_impl(workload, spec, context, /*validated=*/false);
}

PipelineResult Omega::run_pipeline_impl(const GnnWorkload& workload,
                                        const PipelineSpec& spec,
                                        const WorkloadContext* context,
                                        bool validated) const {
  if (!validated) spec.validate();
  const std::size_t n = spec.phases.size();
  OMEGA_CHECK(workload.num_vertices() >= 1,
              "workload needs at least one vertex");

  // ---- Feature widths along the chain --------------------------------------
  // Sparse-weight phases get their W^T pattern here, once per call (the
  // eval plan builds it once per chain instead).
  std::vector<PipelinePhaseShape> shapes(n);
  std::vector<std::unique_ptr<const CSRGraph>> weights;
  std::size_t width =
      spec.in_features > 0 ? spec.in_features : workload.in_features;
  OMEGA_CHECK(width >= 1, "first-phase input width must be >= 1");
  for (std::size_t i = 0; i < n; ++i) {
    const PhaseSpec& p = spec.phases[i];
    shapes[i].engine = p.engine;
    shapes[i].in_features = width;
    shapes[i].out_features =
        p.engine == PhaseEngine::kSparseDense ? width : p.out_features;
    width = shapes[i].out_features;
    if (p.engine == PhaseEngine::kSparseSparse) {
      weights.push_back(std::make_unique<const CSRGraph>(sparse_weight_csr(
          shapes[i].in_features, shapes[i].out_features, p.weight_density)));
      shapes[i].weights = weights.back().get();
    }
  }

  // ---- Substrate capability checks (Table II NoC/PE support column) --------
  // Skipped on the pre-validated adapter path: Omega::run already performed
  // the equivalent hardware_requirements() checks (with the legacy
  // descriptor-notation messages) before lowering, and this loop runs once
  // per candidate in sweep hot loops.
  if (!validated) {
    for (const PhaseSpec& p : spec.phases) {
      const Dim contraction =
          p.engine == PhaseEngine::kSparseDense ? Dim::kN : Dim::kF;
      const bool spatial = p.dataflow.tiles.get(contraction) > 1;
      if (spatial && !hw_.supports_spatial_reduction) {
        throw ResourceError(p.to_string() +
                            ": substrate has no spatial-reduction support "
                            "(adder tree / store-and-forward)");
      }
      if (!spatial && !hw_.supports_temporal_reduction) {
        throw ResourceError(p.to_string() +
                            ": substrate has no temporal-reduction support "
                            "(in-place accumulators)");
      }
    }
  }

  // ---- PP sanity: each PP pair splits the array ----------------------------
  std::vector<IntraPhaseDataflow> dataflows(n);
  for (std::size_t i = 0; i < n; ++i) dataflows[i] = spec.phases[i].dataflow;
  const PipelineBindingView binding{dataflows, spec.boundaries,
                                    spec.pe_fractions};
  for (std::size_t b = 0; b + 1 < n; ++b) {
    if (spec.boundaries[b] != InterPhase::kParallelPipeline) continue;
    if (hw_.num_pes < 2) {
      throw ResourceError(spec.to_string() +
                          ": parallel pipeline needs >= 2 PEs to split the "
                          "array between the phases");
    }
    const double share = pp_first_share(binding, b);
    if (!(share > 0.0 && share < 1.0)) {
      throw ResourceError(spec.to_string() +
                          ": PP PE shares must lie strictly inside (0, 1) — "
                          "0, 1 or NaN would starve a phase of PEs");
    }
  }

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
