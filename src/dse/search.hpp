// Mapping search over the GNN dataflow design space (Section VI "Mapping
// Optimizer"): enumerates loop-order pairs from the taxonomy, binds
// power-of-two tile splits with near-100% static utilization, evaluates
// each candidate through the OMEGA cost model, and ranks by the chosen
// objective. search_mappings is an adapter over the N-phase pipeline
// searcher (dse/pipeline_search.hpp), whose one evaluation path is the
// context-cached PipelineEvalPlan — bit-identical to Omega::run per
// candidate, evaluated in parallel.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "omega/omega.hpp"

namespace omega::obs {
class TraceCollector;
}  // namespace omega::obs

namespace omega {

enum class Objective : std::uint8_t {
  kRuntime = 0,
  kEnergy = 1,          // on-chip pJ
  kEnergyDelayProduct = 2,
};

[[nodiscard]] const char* to_string(Objective o);
/// What a search minimizes: cycles, on-chip pJ, or their product (EDP).
[[nodiscard]] double objective_score(Objective o, std::uint64_t cycles,
                                     double on_chip_pj);
/// Case-insensitive "runtime", "energy" or "edp"; throws
/// InvalidArgumentError otherwise.
[[nodiscard]] Objective objective_from_string(const std::string& s);

/// Evaluation-core observability for one sweep (SearchResult::eval). Every
/// sweep evaluates through the context-cached PipelineEvalPlan
/// (engine/eval_core.hpp), whose metrics are bit-identical to uncached
/// Omega::run_pipeline (tests/eval_core_test.cpp).
/// term_requests/term_builds are deterministic for a given candidate set;
/// delta_hits and the batch stats depend on the parallel block layout and
/// therefore on the thread count / machine (report them, never golden them).
struct EvalStats {
  std::uint64_t term_requests = 0;  // phase-term lookups issued
  std::uint64_t term_builds = 0;    // lookups that ran a phase simulation
  std::uint64_t delta_hits = 0;     // lookups served by a delta slot (L1)
  std::uint64_t batches = 0;        // evaluate_batch calls
  std::uint64_t batched_candidates = 0;  // candidates routed through batches
  std::uint64_t max_batch = 0;      // largest single batch
  void merge(const EvalStats& other);
};

struct SearchOptions {
  Objective objective = Objective::kRuntime;
  bool include_seq = true;
  bool include_sp_generic = true;
  bool include_sp_optimized = true;
  bool include_pp = true;
  bool include_ca = false;  // CA doubles the space; AC is the paper's focus
  std::vector<double> pp_fractions = {0.25, 0.5, 0.75};
  /// Minimum static utilization of generated tilings (1.0 = exactly full).
  double min_static_utilization = 0.5;
  /// Cap on evaluated candidates (deterministic stride subsampling); 0 = all.
  std::size_t max_candidates = 0;
  std::size_t threads = 0;  // 0 = hardware concurrency
  /// Keep at most this many ranked results (best first).
  std::size_t top_k = 16;
  /// Lower-bound pruning (runtime objective only; ignored otherwise):
  /// a deterministic seed of `prune_seed` candidates — the ones with the
  /// smallest ideal-MAC cycle bounds — is evaluated first, and every
  /// remaining candidate whose bound exceeds the seed incumbent's score is
  /// culled without a full Omega::run. The bound is a true lower bound, so
  /// the pruned search returns a bit-identical best candidate (including
  /// all score ties); ranked entries strictly worse than the seed incumbent
  /// may be dropped. The survivor set depends only on the bounds and the
  /// seed scores, so results are identical across thread counts.
  bool prune = false;
  std::size_t prune_seed = 64;
  /// Fully bound descriptors appended to the candidate population and
  /// always evaluated: they bypass the max_candidates subsample and are
  /// exempt from the lower-bound cull (their bound is treated as zero).
  /// Model-level search seeds these with the Table V pattern bindings so a
  /// budgeted sweep can never lose to a fixed pattern it did not sample.
  std::vector<DataflowDescriptor> extra_candidates;
  /// When non-null, the sweep emits enumerate/prune/evaluate/rank stage
  /// spans (wall-clock, category "dse") into this collector. Null = zero
  /// instrumentation cost.
  obs::TraceCollector* trace = nullptr;
};

struct Candidate;

/// Total order used to rank candidates: (score, cycles, on_chip_pj,
/// descriptor key). The descriptor-key tail makes ranking deterministic
/// across platforms and thread counts even for exact score/cycles/energy
/// ties (distinct dataflows can genuinely tie on all three metrics).
[[nodiscard]] bool candidate_order(const Candidate& a, const Candidate& b);

struct Candidate {
  DataflowDescriptor dataflow;
  std::uint64_t cycles = 0;
  double on_chip_pj = 0.0;
  double score = 0.0;
};

struct SearchResult {
  std::vector<Candidate> ranked;  // best first, top_k entries
  std::vector<Candidate> pareto;  // runtime/energy frontier, cycles ascending
  std::size_t generated = 0;      // candidates produced by the generator
  std::size_t evaluated = 0;      // candidates actually run
  std::size_t pruned = 0;         // culled by the lower bound, never run
  EvalStats eval;                 // evaluation-core counters for this sweep

  [[nodiscard]] const Candidate& best() const;
};

/// `shared_context`, when non-null, must be a WorkloadContext over
/// `workload.adjacency`; the search then reuses its transpose / schedule /
/// phase memos instead of building a fresh context. Model-level search
/// passes one context across every layer's sweep (the memo is keyed on
/// quantities that are layer-invariant or layer-tagged), so per-layer
/// sweeps after the first pay only the engine math.
[[nodiscard]] SearchResult search_mappings(
    const Omega& omega, const GnnWorkload& workload, const LayerSpec& layer,
    const SearchOptions& options = {},
    const WorkloadContext* shared_context = nullptr);

/// The candidate generator behind search_mappings: every valid descriptor
/// for the enabled inter-phase strategies / phase orders / tilings, before
/// subsampling. Exposed so benchmarks and tests can sweep the exact
/// candidate population through their own evaluation harness.
[[nodiscard]] std::vector<DataflowDescriptor> enumerate_search_candidates(
    const SearchOptions& options, const WorkloadDims& dims, std::size_t pes);

/// One phase order's share of enumerate_search_candidates, appended to
/// `candidates` in the same order (the AC share first, then, with
/// include_ca, the CA share; `options.include_ca` itself is not read). A
/// classic chain of one phase order enumerates only its own share.
void enumerate_order_candidates(const SearchOptions& options,
                                const WorkloadDims& dims, std::size_t pes,
                                PhaseOrder po,
                                std::vector<DataflowDescriptor>& candidates);

/// Index of sample i in the deterministic stride subsample of `population`
/// candidates down to `selected` (i < selected <= population). The single
/// definition search_mappings and the sweep benchmarks share, so their
/// sampled populations stay identical.
[[nodiscard]] constexpr std::size_t stride_sample_index(
    std::size_t i, std::size_t population, std::size_t selected) {
  return selected == 0 ? 0 : i * population / selected;
}

/// All power-of-two tile triples (a, b, c) with a*b*c <= budget,
/// a <= cap_a etc., and a*b*c >= min_util * budget. Exposed for tests.
[[nodiscard]] std::vector<std::array<std::size_t, 3>> enumerate_tile_triples(
    std::size_t budget, std::size_t cap_a, std::size_t cap_b,
    std::size_t cap_c, double min_util);

}  // namespace omega
