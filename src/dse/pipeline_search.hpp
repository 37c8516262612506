// Pipeline-space DSE: mapping search over N-phase PipelineSpecs.
//
// search_mappings (dse/search.hpp) answers the paper's Section VI question
// for the classic two-phase GNN layer; this header generalizes the whole
// search stack to the N-phase chains the evaluation core (omega/pipeline.*)
// can already cost. A search runs over one or more PipelineChainSpecs (the
// fixed engines/widths/densities), enumerating per-phase loop orders and
// power-of-two tilings, one InterPhase strategy per boundary, and a PE
// fraction grid for PP boundaries — the same taxonomy rules PipelineSpec::
// validate enforces, applied generatively so invalid combinations are never
// materialized.
//
// Two-phase adapter contract: for a classic chain (one sparse-dense + one
// dense phase), the candidate population is delegated to the legacy
// two-phase enumerator and each descriptor is lowered through
// two_phase_pipeline, so search_pipeline_mappings reproduces search_mappings
// bit-identically (ranked + Pareto, including subsample, prune, and
// tie-break behavior). search_mappings itself is now a thin adapter over
// this function (tests/pipeline_dse_test.cpp pins the parity).
//
// Lossless pruning extends from cycles to energy/EDP: every candidate gets
// a compulsory-work lower bound — the ideal-MAC cycle bound generalized
// over phase segments (PP pairs compose by max over the split PE array,
// everything else by sum) and a compulsory-traffic energy bound from the
// engines' unconditional charges (sparse walks pay >= 4 RF accesses per MAC
// plus CSR ids+pointers from the GB; dense phases pay >= 2 RF accesses per
// MAC). Both are true lower bounds on the evaluated metrics, so the pruned
// search returns the same best candidate as the unpruned one for every
// objective. Bounds compare as doubles: exact below 2^53, where every
// realistic sweep lives.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dse/search.hpp"
#include "omega/pipeline.hpp"

namespace omega {

/// One point of the pipeline design space: the binding half of a
/// PipelineSpec (per-phase dataflows, per-boundary strategies, PE
/// fractions) plus the chain it binds to. Candidates produced by lowering
/// a legacy two-phase descriptor keep it in `legacy` — the PP PE split is
/// lossy through two_phase_pipeline (fractions are resolved against the
/// array size), so the two-phase adapter needs the original descriptor to
/// return bit-identical results.
struct PipelineCandidate {
  std::size_t chain_index = 0;  // which searched chain this binds to
  std::vector<IntraPhaseDataflow> phases;
  std::vector<InterPhase> boundaries;   // phases.size() - 1
  std::vector<double> pe_fractions;     // empty (= equal) or one per phase
  std::optional<DataflowDescriptor> legacy;

  [[nodiscard]] PipelineBindingView view() const {
    return {phases, boundaries, pe_fractions};
  }
  /// Deterministic ranking key: the legacy descriptor string when lowered
  /// from one (so the two-phase adapter ties break exactly like
  /// search_mappings), otherwise the chain notation plus PP shares
  /// (pp_first_share, so the candidate must pass check_pipeline).
  [[nodiscard]] std::string key() const;
};

struct PipelineSearchOptions {
  Objective objective = Objective::kRuntime;
  bool include_seq = true;
  bool include_sp_generic = true;
  bool include_sp_optimized = true;
  bool include_pp = true;
  std::vector<double> pp_fractions = {0.25, 0.5, 0.75};
  /// Minimum static utilization of generated tilings (1.0 = exactly full).
  double min_static_utilization = 0.5;
  /// Cap on evaluated candidates (deterministic stride subsampling over the
  /// concatenated per-chain populations); 0 = all.
  std::size_t max_candidates = 0;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::size_t top_k = 16;
  /// Lossless lower-bound pruning for the chosen objective (see the header
  /// comment): a deterministic seed of `prune_seed` candidates with the
  /// smallest bounds is evaluated first, and every remaining candidate
  /// whose bound exceeds the seed incumbent's score is culled unevaluated.
  /// The best candidate (and all its score ties) is identical to the
  /// unpruned search; ranked entries strictly worse than the incumbent may
  /// be dropped. Deterministic across thread counts.
  bool prune = false;
  std::size_t prune_seed = 64;
  /// Seed the population with the Table V pattern compositions per chain
  /// (boundaries take the pattern's strategy where the chain admits it,
  /// tiles are bound per phase by the pattern's style). Seeds ride along as
  /// extra candidates: always evaluated, never culled, outside the cap —
  /// a budgeted sweep can never lose to a Table V composition.
  bool seed_table5 = true;
  /// Fully bound candidates appended to the population, always evaluated
  /// (outside the cap, exempt from the cull — bound treated as zero).
  /// chain_index must address one of the searched chains.
  std::vector<PipelineCandidate> extra_candidates;
  /// Number of leading chains whose population is enumerated; chains at
  /// index >= this are bind-only targets for extra candidates. 0 = all.
  /// (The two-phase adapter uses this to evaluate CA extras without
  /// enumerating the CA space when include_ca is off.)
  std::size_t enumerate_chains = 0;
  /// When non-null, the sweep emits enumerate/prune/evaluate/rank stage
  /// spans (wall-clock, category "dse") into this collector. Null = zero
  /// instrumentation cost.
  obs::TraceCollector* trace = nullptr;
};

struct RankedPipelineCandidate {
  PipelineCandidate candidate;
  std::string key;  // PipelineCandidate::key(), cached for ranking
  std::uint64_t cycles = 0;
  double on_chip_pj = 0.0;
  double score = 0.0;
};

/// Total order used to rank candidates: (score, cycles, on_chip_pj, key) —
/// the N-phase mirror of candidate_order.
[[nodiscard]] bool pipeline_candidate_order(const RankedPipelineCandidate& a,
                                            const RankedPipelineCandidate& b);

struct PipelineSearchResult {
  std::vector<RankedPipelineCandidate> ranked;  // best first, top_k entries
  std::vector<RankedPipelineCandidate> pareto;  // cycles-ascending frontier
  std::size_t generated = 0;  // population + extras, before subsampling
  std::size_t evaluated = 0;  // candidates that produced a feasible result
  std::size_t pruned = 0;     // culled by the lower bound, never run
  EvalStats eval;             // evaluation-core counters for this sweep

  [[nodiscard]] const RankedPipelineCandidate& best() const;
};

/// Searches the pipeline mapping space of one or more chains on a workload.
/// The population is the concatenation of the per-chain populations in
/// chain order (classic two-phase chains delegate to the legacy enumerator;
/// general chains run the N-phase walker). `shared_context`, when non-null,
/// must be a WorkloadContext over `workload.adjacency`.
[[nodiscard]] PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    std::span<const PipelineChainSpec> chains,
    const PipelineSearchOptions& options = {},
    const WorkloadContext* shared_context = nullptr);

/// Single-chain convenience overload.
[[nodiscard]] PipelineSearchResult search_pipeline_mappings(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const PipelineSearchOptions& options = {},
    const WorkloadContext* shared_context = nullptr);

/// Chain-fixed per-phase quantities the pruning bounds consume.
struct PipelinePhaseWork {
  std::uint64_t macs = 0;           // compulsory MACs of the phase
  std::uint64_t meta_gb_elems = 0;  // compulsory CSR ids+pointers (GB reads)
  bool sparse = false;              // runs on the SpMM engine (spmm/spgemm)
};

/// Per-phase compulsory work of a chain on a workload: sparse-dense phases
/// do edges * width MACs and read >= edges + V CSR metadata elements;
/// dense phases do V * F * G MACs; sparse-weight phases walk the synthetic
/// W^T pattern (sparse_weight_nnz_per_row) transposed. Throws on a chain
/// that fails chain_error.
[[nodiscard]] std::vector<PipelinePhaseWork> pipeline_phase_work(
    const PipelineChainSpec& chain, const GnnWorkload& workload);

/// Ideal-MAC cycle lower bound over N phases: each phase needs at least
/// ceil(macs / its PEs); a PP pair splits the array with the same
/// llround-then-clamp split the evaluator performs and composes by max,
/// everything else composes by sum. Every engine cycle count is >= this
/// bound for candidates whose spatial tile footprint fits the phase's PE
/// budget (all generated candidates do), which is what makes bound-based
/// pruning lossless.
[[nodiscard]] std::uint64_t pipeline_mac_cycle_bound(
    std::span<const PipelinePhaseWork> work, const PipelineCandidate& c,
    std::size_t pes);

/// Compulsory-traffic energy lower bound of a chain (candidate-independent:
/// MAC counts and CSR metadata do not depend on the binding): sparse phases
/// pay 4 RF accesses per MAC (3 reads + accumulator write) plus one GB read
/// per metadata element, dense phases 2 RF reads per MAC. Every evaluated
/// on_chip_pj is >= this bound, which is what makes energy/EDP pruning
/// lossless.
[[nodiscard]] double pipeline_energy_lower_bound(
    std::span<const PipelinePhaseWork> work, const EnergyModel& em);

/// The full candidate population of one chain, in enumeration order —
/// exactly what search_pipeline_mappings samples from. Exposed for tests
/// and benchmarks. `chain_index` is stamped on every candidate.
[[nodiscard]] std::vector<PipelineCandidate> enumerate_pipeline_candidates(
    const PipelineChainSpec& chain, std::size_t chain_index,
    const GnnWorkload& workload, std::size_t pes,
    const PipelineSearchOptions& options = {});

/// Lowers a legacy two-phase descriptor into a PipelineCandidate for
/// `chain_index` (the PP PE split resolved against `num_pes`, matching the
/// evaluator), keeping the descriptor in `legacy` so the two-phase adapter
/// can return it bit-identically.
[[nodiscard]] PipelineCandidate lower_two_phase_candidate(
    const DataflowDescriptor& df, std::size_t chain_index,
    const LayerSpec& layer, std::size_t num_pes);

/// The Table V seed compositions for a chain (what seed_table5 appends):
/// per pattern, each phase's dataflow is bound by the pattern's style at
/// the phase's PE budget, boundaries take the pattern's strategy demoted to
/// Seq where the chain cannot admit it (adjacent chunking, sparse-weight
/// consumers, single-PE arrays). Patterns that cannot bind or validate on
/// this chain are skipped.
[[nodiscard]] std::vector<PipelineCandidate> table5_pipeline_seeds(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, std::size_t chain_index);

}  // namespace omega
