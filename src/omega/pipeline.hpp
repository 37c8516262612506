// Phase-pluggable pipeline API: the N-phase sparse/dense evaluation core.
//
// The paper's two-phase GNN layer (Aggregation + Combination) is one point
// in a larger space of multiphase sparse/dense dataflows: Dynasparse re-maps
// each kernel by measured operand sparsity, VersaGNN treats both GNN phases
// as interchangeable sparse/dense GEMM stages, and pruned/quantized models
// make the Combination weights sparse. This header generalizes the
// evaluation core to an arbitrary chain of phases:
//
//   PipelineSpec{phases[], boundaries[], pe_fractions[]}
//     phase    = engine kind (sparse-dense SpMM / dense GEMM / sparse-weight
//                SpGEMM) + intra-phase dataflow + output width
//     boundary = one InterPhase strategy per adjacent pair, analyzed with
//                the same Table II machinery as the two-phase model
//
// Omega::run_pipeline evaluates a spec end-to-end; the classic
// Omega::run/RunResult pair is a thin two-phase adapter over it (see
// two_phase_pipeline / to_run_result below), bit-identical to the historic
// implementation (tests/pipeline_test.cpp pins the parity).
//
// Validation: check_pipeline below is the one home of the Table II rules
// (PipelineRule lists them in the order it tests them). PipelineSpec::
// validate, PipelineChainSpec::chain_error, Omega::run_pipeline and the DSE
// eval plan all ask it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "omega/omega.hpp"

namespace omega {

/// Which cost engine evaluates a phase.
///  kSparseDense:  Out[V,W] = A[V,V] x B[V,W], A = the workload adjacency in
///                 CSR (the classic Aggregation phase); preserves the
///                 feature width.
///  kDenseDense:   Out[V,G] = X[V,F] x W[F,G], dense weights (the classic
///                 Combination phase).
///  kSparseSparse: Out[V,G] = X[V,F] x W[F,G] with W CSR-compressed at
///                 PhaseSpec::weight_density — pruned/quantized models. The
///                 cost model is the SpMM engine run on the transposed
///                 problem Out^T = W^T x X^T (W^T rows are walked like
///                 adjacency rows; W's ids/values are charged to the
///                 adjacency traffic category as CSR metadata).
enum class PhaseEngine : std::uint8_t {
  kSparseDense = 0,
  kDenseDense = 1,
  kSparseSparse = 2,
};

[[nodiscard]] const char* to_string(PhaseEngine e);
/// Parses "spmm"/"sparse_dense", "gemm"/"dense", "spgemm"/"sparse_weight"
/// (case-insensitive); throws InvalidArgumentError.
[[nodiscard]] PhaseEngine phase_engine_from_string(const std::string& s);

/// Parses "Seq", "SPg", "SP"/"SPO", "PP" (case-insensitive — the notation
/// to_string(InterPhase) emits); throws InvalidArgumentError. The single
/// parser behind the CLI run-pipeline flags and the service v2 protocol.
[[nodiscard]] InterPhase inter_phase_from_string(const std::string& s);

/// The loop vocabulary a phase engine uses (which GnnPhase its
/// IntraPhaseDataflow must be expressed in).
[[nodiscard]] constexpr GnnPhase taxonomy_phase(PhaseEngine e) {
  return e == PhaseEngine::kSparseDense ? GnnPhase::kAggregation
                                        : GnnPhase::kCombination;
}

/// One phase of a pipeline.
struct PhaseSpec {
  std::string name;  // free-form label echoed in results ("agg", "score", …)
  PhaseEngine engine = PhaseEngine::kDenseDense;
  /// Loop order + tile sizes in the engine's vocabulary; `dataflow.phase`
  /// must equal taxonomy_phase(engine).
  IntraPhaseDataflow dataflow;
  /// Output feature width. Must be 0 for kSparseDense (the sparse-dense
  /// phase preserves its input width); >= 1 otherwise.
  std::size_t out_features = 0;
  /// kSparseSparse only: density of W in (0, 1]; every W^T row keeps
  /// max(1, round(density * F)) evenly spaced nonzeros. Must stay 1.0 for
  /// the other engines.
  double weight_density = 1.0;

  /// e.g. "score=gemm(VtFtGt,G=16)" / "cmb=spgemm(GtVtFt,G=16,d=0.5)".
  [[nodiscard]] std::string to_string() const;
};

/// Hand-off role dims of a phase that produces / consumes an intermediate,
/// from the engine kind and loop order alone.
[[nodiscard]] HandoffRole phase_producer_role(PhaseEngine e,
                                              const LoopOrder& order);
[[nodiscard]] HandoffRole phase_consumer_role(PhaseEngine e,
                                              const LoopOrder& order);

/// True for the boundaries that stage the intermediate in chunks
/// (SP-Generic and PP); the others hand it over whole.
[[nodiscard]] constexpr bool is_chunked(InterPhase ip) {
  return ip == InterPhase::kSPGeneric || ip == InterPhase::kParallelPipeline;
}

/// A complete N-phase pipeline description.
struct PipelineSpec {
  std::vector<PhaseSpec> phases;          // execution order, >= 1 phase
  std::vector<InterPhase> boundaries;     // phases.size() - 1 entries
  /// Relative PE weights per phase (empty = all equal). A PP boundary
  /// splits the array between its pair in proportion
  /// fractions[i] : fractions[i+1]; phases outside PP pairs get the whole
  /// array. Each entry must be finite and > 0.
  std::vector<double> pe_fractions;
  /// First-phase input width override; 0 = the workload's feature width.
  std::size_t in_features = 0;

  /// Like DataflowDescriptor: returns the failure reason, or throws
  /// InvalidDataflowError with it. The spec rules of check_pipeline; the
  /// substrate rules need hardware, which only run_pipeline has.
  [[nodiscard]] std::optional<std::string> validation_error() const;
  void validate() const;

  /// e.g. "agg=spmm(VtFsNt) ->PP-> cmb=gemm(VsGsFt,G=16)".
  [[nodiscard]] std::string to_string() const;
};

/// The per-candidate ("binding") half of a PipelineSpec: everything a DSE
/// sweep varies. The chain half (engines, widths, densities — see
/// PipelineChainSpec) stays fixed across a sweep, which is what lets the
/// eval core precompute widths and sparse-weight CSRs once per search.
struct PipelineBindingView {
  std::span<const IntraPhaseDataflow> phases;  // one per chain phase
  std::span<const InterPhase> boundaries;      // phases.size() - 1
  std::span<const double> pe_fractions;        // empty or one per phase
};

/// PE share of the first phase of PP boundary `b`'s pair: fractions[b] :
/// fractions[b+1], or an even split when the fractions are left empty.
[[nodiscard]] double pp_first_share(const PipelineBindingView& binding,
                                    std::size_t b);

/// The binding-invariant half of one phase (PhaseSpec minus the dataflow).
struct PhaseChainSpec {
  std::string name;  // echoed into bound specs; "phase<i>" when empty
  PhaseEngine engine = PhaseEngine::kDenseDense;
  std::size_t out_features = 0;   // 0 for kSparseDense (width-preserving)
  double weight_density = 1.0;    // kSparseSparse only
};

/// An N-phase chain: the search-space *shape* a pipeline DSE sweep runs
/// over. `bind` assembles a full PipelineSpec from a candidate binding.
struct PipelineChainSpec {
  std::vector<PhaseChainSpec> phases;
  std::size_t in_features = 0;  // first-phase input width; 0 = workload's

  /// Chain projection of a full spec (drops the per-phase dataflows).
  [[nodiscard]] static PipelineChainSpec of(const PipelineSpec& spec);

  /// Binding-invariant validation: check_pipeline without a binding (at
  /// least one phase, per-phase width/density rules), with phase-indexed
  /// messages. Dataflow- and boundary-dependent rules need a binding.
  [[nodiscard]] std::optional<std::string> chain_error() const;

  /// Full spec from a candidate binding; throws InvalidArgumentError on an
  /// arity mismatch between the binding and the chain.
  [[nodiscard]] PipelineSpec bind(const PipelineBindingView& binding) const;

  /// e.g. "score=gemm(G=16) -> agg=spmm -> xform=spgemm(G=8,d=0.500)".
  [[nodiscard]] std::string to_string() const;
};

/// The Table II rules of an N-phase binding, in the order check_pipeline
/// tests them; it reports the first one broken.
enum class PipelineRule : std::uint8_t {
  kNone = 0,
  // Arity: >= 1 phase, one dataflow per phase, one boundary per adjacent
  // pair, and no PE fractions or one finite, positive fraction per phase.
  kNoPhases, kDataflowArity, kBoundaryArity, kFractionArity, kFractionValue,
  // Per phase (index = phase): the dataflow is in the engine's loop
  // vocabulary (V,N,F for sparse-dense, V,F,G otherwise) and valid in it;
  // sparse-dense phases keep their width and the others set out_features;
  // only sparse-weight phases take a density, in (0, 1], and they walk the
  // compressed W rows G-major over the F contraction, so G is outside F.
  kWrongVocabulary, kIntraPhase, kSparseDenseWidth, kMissingWidth,
  kDensityRange, kSparseWeightOrder, kStrayDensity,
  // Per boundary (index = boundary). SP-Optimized keeps the intermediate
  // tile in the PEs: the producer's contraction and the consumer's third
  // dim are innermost, the two traverse in the same major, both dims are
  // temporal, and the row/col tiles match. SP-Generic and PP need a
  // feasible hand-off (analyze_handoff), and a sparse-weight phase cannot
  // consume a chunked intermediate (its walked rows are W rows).
  kSpoProducerContractionNotInnermost, kSpoConsumerThirdNotInnermost,
  kSpoMajorMismatch, kSpoProducerContractionSpatial, kSpoConsumerThirdSpatial,
  kSpoTileMismatch, kHandoffInfeasible, kSparseWeightConsumer,
  // A phase stages chunks through at most one boundary (its engine tracks
  // one chunk grid), so PP groups are pairs (index = the phase between).
  kAdjacentChunked,
  // Substrate: the substrate supports each phase's reduction, spatial when
  // its contraction tile is > 1 (index = phase), and each PP pair splits
  // >= 2 PEs with a first-phase share inside (0, 1) (index = boundary).
  kNoSpatialReduction, kNoTemporalReduction, kPpTooFewPes, kPpShare,
};

/// The first rule a chain and binding break, and where.
struct PipelineViolation {
  PipelineRule rule = PipelineRule::kNone;
  std::size_t index = 0;  // phase or boundary, per PipelineRule

  explicit operator bool() const { return rule != PipelineRule::kNone; }
  /// A substrate rule: run_pipeline reports it as a ResourceError, the
  /// others as InvalidDataflowError.
  [[nodiscard]] bool substrate() const {
    return rule >= PipelineRule::kNoSpatialReduction;
  }
};

/// The one check of the Table II rules. Without a binding it checks the
/// chain alone (chain_error's rules); with `hw` it also checks the
/// substrate rules. Builds no message of its own (the intra-phase rule
/// calls IntraPhaseDataflow::validate under try/catch).
[[nodiscard]] PipelineViolation check_pipeline(
    std::span<const PhaseChainSpec> chain,
    const PipelineBindingView* binding = nullptr,
    const AcceleratorConfig* hw = nullptr);

/// The SP-Optimized rule an SP-Optimized boundary between these two phases
/// breaks, or kNone: check_pipeline's test, which the enumerator also
/// prunes with.
[[nodiscard]] PipelineRule sp_optimized_violation(
    PhaseEngine prod_engine, const IntraPhaseDataflow& prod,
    PhaseEngine cons_engine, const IntraPhaseDataflow& cons);

/// The message of a violation check_pipeline returned for the same chain
/// and binding: validation_error's text for spec rules (chain_error's when
/// `binding` is null), and the ResourceError text run_pipeline throws for
/// substrate rules.
[[nodiscard]] std::string pipeline_violation_message(
    const PipelineViolation& v, std::span<const PhaseChainSpec> chain,
    const PipelineBindingView* binding);

/// Per-phase evaluation outcome.
struct PhaseOutcome {
  std::string name;
  PhaseEngine engine = PhaseEngine::kDenseDense;
  PhaseResult result;
  std::size_t pes = 0;
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  double static_utilization = 0.0;

  [[nodiscard]] double dynamic_utilization() const {
    return result.utilization(pes);
  }
};

/// Per-adjacent-pair boundary outcome (Table III generalized).
struct BoundaryOutcome {
  InterPhase inter = InterPhase::kSequential;
  Granularity granularity = Granularity::kNone;
  /// The chunk grid both sides share; whole(rows, cols) when unchunked.
  ChunkSpec chunk_grid;
  std::size_t rows = 0;  // intermediate extents: V x producer out width
  std::size_t cols = 0;
  std::size_t pipeline_chunks = 1;
  std::size_t pipeline_elements = 0;   // Pel
  std::size_t buffer_elements = 0;     // Table III buffering
  bool spilled = false;                // Seq: intermediate exceeded the GB
  bool overlapped = false;             // PP: pair composed chunk-by-chunk
};

/// Complete result of evaluating one PipelineSpec on one workload.
struct PipelineResult {
  std::uint64_t cycles = 0;
  std::vector<PhaseOutcome> phases;
  std::vector<BoundaryOutcome> boundaries;  // phases.size() - 1 entries
  std::size_t num_rows = 0;      // V
  std::size_t in_features = 0;   // first phase's input width
  std::size_t out_features = 0;  // last phase's output width
  TrafficCounters traffic;
  EnergyBreakdown energy;
};

/// The binding-invariant facts of one phase that derive_pipeline consumes.
struct PipelinePhaseShape {
  PhaseEngine engine = PhaseEngine::kDenseDense;
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  /// Sparse-weight phases: the W^T pattern (sparse_weight_csr) the SpMM
  /// engine walks. Null for the other engines.
  const CSRGraph* weights = nullptr;
};

/// The shapes of a chain that passes check_pipeline, whose first phase
/// reads `in_features` (>= 1) columns: the width chain and, for each
/// sparse-weight phase, its W^T pattern (sparse_weight_csr), which
/// `weights` keeps alive.
[[nodiscard]] std::vector<PipelinePhaseShape> pipeline_shapes(
    std::span<const PhaseChainSpec> chain, std::size_t in_features,
    std::vector<std::unique_ptr<const CSRGraph>>& weights);

/// One phase's derived engine config: `gemm` for dense phases, `spmm` for
/// sparse-dense phases and for sparse-weight phases (transposed problem).
struct PhaseEngineConfig {
  bool is_gemm = false;
  SpmmPhaseConfig spmm;
  GemmPhaseConfig gemm;

  [[nodiscard]] std::size_t pes() const {
    return is_gemm ? gemm.pes : spmm.pes;
  }
};

/// The one derivation of a bound pipeline's engine configs, shared by
/// Omega::run_pipeline and the DSE eval plan (engine/eval_core.hpp): the PP
/// PE/bandwidth split, the Table III boundary plan of every adjacent pair
/// (written to `boundaries`, phases - 1 entries) and every phase's engine
/// config with its boundary-derived flags (written to `configs`). Returns
/// the PP partition size in bytes for the energy model. Writes only into
/// caller-owned storage, so a sweep reusing it stays allocation-free.
///
/// Precondition (the callers check it first): check_pipeline with `hw`
/// finds no violation in the binding.
/// `graph` is the workload adjacency; `context`, when non-null, is bound to
/// it and feeds the sparse-dense configs.
[[nodiscard]] std::size_t derive_pipeline(
    const AcceleratorConfig& hw, const CSRGraph& graph,
    const WorkloadContext* context, std::span<const PipelinePhaseShape> shapes,
    const PipelineBindingView& binding, std::span<PhaseEngineConfig> configs,
    std::span<BoundaryOutcome> boundaries);

/// True when `cfg` stages a chunk grid larger than kPhaseMemoMaxChunks: the
/// phase memo refuses such configs (giant grids are near-unique across
/// candidates), and an eval plan stores their terms stripped.
[[nodiscard]] bool big_grid(const PhaseEngineConfig& cfg);

/// Simulates one derived phase config through `context`'s phase memo (see
/// WorkloadContext::phase_result), keyed by the config's term_key. Big-grid
/// configs, sparse-weight phases (whose spmm config carries no context: the
/// workload context is bound to the adjacency, not to W^T) and a null
/// `context` simulate fresh — bit-identical either way. Throws Error when
/// the engines reject the config, or when an spmm config's context is bound
/// to a different graph than the one it walks. The memo's only caller.
[[nodiscard]] std::shared_ptr<const PhaseResult> simulate_phase(
    const PhaseEngineConfig& cfg, const WorkloadContext* context);

/// A composed pipeline: makespan, summed traffic and its energy.
struct PipelineCost {
  std::uint64_t cycles = 0;
  TrafficCounters traffic;
  EnergyBreakdown energy;
};

/// Composes per-phase results in execution order. PP pairs overlap
/// chunk-by-chunk (the consumer starts chunk i once the producer completed
/// it); everything else serializes, so the makespan is the saturating sum
/// over segments. Energy prices the summed traffic with a PP partition of
/// `partition_bytes` (derive_pipeline's return value).
[[nodiscard]] PipelineCost compose_pipeline(
    std::span<const PhaseResult* const> phases,
    std::span<const InterPhase> boundaries, const EnergyModel& em,
    std::size_t partition_bytes);

/// Lowers the classic two-phase descriptor into a PipelineSpec (phases in
/// execution order per df.phase_order). When `num_pes` > 0 the PP PE split
/// is resolved against that array size so the generalized allocator
/// reproduces the legacy llround-then-clamp split bit-for-bit for BOTH
/// phase orders (the legacy formula anchors the rounding on Aggregation;
/// the pipeline allocator anchors it on the first phase of the pair).
/// Omega::run uses this with its own PE count — pass the same value when
/// checking parity.
[[nodiscard]] PipelineSpec two_phase_pipeline(const DataflowDescriptor& df,
                                              const LayerSpec& layer = {},
                                              std::size_t num_pes = 0);

/// Collapses a two-phase PipelineResult back into the legacy RunResult view
/// (requires exactly one kSparseDense and one non-sparse-dense phase).
/// `df` is echoed into RunResult::dataflow.
[[nodiscard]] RunResult to_run_result(PipelineResult&& pr,
                                      const DataflowDescriptor& df);

/// Assembles a PhaseSpec from front-end fields — the single path behind the
/// CLI `--phase` flag and the service v2 "phases[]" parser, so the tile-dim
/// convention cannot drift between them. `dataflow` is the intra-phase
/// notation (parsed in the engine's vocabulary); `tiles` is empty or holds
/// one size per canonical phase dim (V,N,F for spmm; V,F,G otherwise);
/// an empty `name` defaults to "phase<index>". Throws InvalidArgumentError
/// on an empty dataflow or a wrong-arity tile list.
[[nodiscard]] PhaseSpec assemble_phase_spec(std::string name,
                                            PhaseEngine engine,
                                            const std::string& dataflow,
                                            const std::vector<std::size_t>& tiles,
                                            std::size_t out_features,
                                            double weight_density,
                                            std::size_t index);

/// Synthetic CSR pattern of W^T for a sparse-weight phase: `out_features`
/// rows, each holding max(1, round(density * in_features)) evenly spaced
/// column ids in [0, in_features). Deterministic — the cost model only
/// consumes the degree profile. Exposed for tests and benches.
[[nodiscard]] CSRGraph sparse_weight_csr(std::size_t in_features,
                                         std::size_t out_features,
                                         double density);

/// Nonzeros per W^T row in sparse_weight_csr's pattern:
/// min(F, max(1, round(density * F))). The sparse-weight MAC count is
/// out_features * nnz_per_row * V — the quantity compulsory-work lower
/// bounds (DSE pruning) need without materializing the CSR.
[[nodiscard]] std::size_t sparse_weight_nnz_per_row(std::size_t in_features,
                                                    double density);

}  // namespace omega
