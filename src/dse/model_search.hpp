// Model-level design-space search (Fig. 10 runs whole multi-layer GCN/GIN
// models): searches a — possibly different — dataflow for every layer of a
// GnnModelSpec instead of replaying one fixed pattern, the per-layer
// flexibility argument of VersaGNN / Dynasparse. One WorkloadContext is
// shared across all layers and candidates (the adjacency transpose and lane
// schedules are layer-invariant), so each extra layer costs only the engine
// math, and an ideal-MAC lower bound culls candidates that cannot beat the
// incumbent before they reach a full Omega::run.
#pragma once

#include <optional>

#include "dse/search.hpp"
#include "gnn/inference.hpp"

namespace omega {

/// How a model-wide candidate budget is split across layers.
enum class BudgetAllocation : std::uint8_t {
  /// Even split over the remaining layers (the historical behaviour).
  kEven = 0,
  /// Proportional to each remaining layer's ideal MAC count
  /// (E * F_l + V * F_l * G_l) — layer 0 of a GCN dominates the model cost
  /// by orders of magnitude, and an even split wastes most of its budget on
  /// the narrow tail layers (ROADMAP "Smarter model-level budget
  /// allocation").
  kMacWeighted = 1,
};

[[nodiscard]] const char* to_string(BudgetAllocation a);

struct ModelSearchOptions {
  /// Per-layer search knobs (objective, strategy filters, max_candidates,
  /// threads, top_k, prune). `layer.include_ca` is additionally masked per
  /// layer by the model's allowed phase orders (GraphSAGE pins AC).
  /// Ideal-MAC lower-bound pruning is on by default for model search
  /// (runtime objective only; lossless for the best candidate — see
  /// SearchOptions).
  SearchOptions layer = [] {
    SearchOptions o;
    o.prune = true;
    return o;
  }();
  /// Model-wide cap on fully evaluated candidates, split over the remaining
  /// layers as the sweep proceeds (0 = unlimited). Every layer is guaranteed
  /// at least `fallback_candidates` so it always has a winner.
  std::size_t max_total_candidates = 0;
  /// Split policy for `max_total_candidates` (ignored when it is 0).
  BudgetAllocation budget_allocation = BudgetAllocation::kMacWeighted;
  /// Soft wall-clock budget; checked before each layer's sweep (never
  /// mid-sweep, so results under a generous budget stay deterministic).
  /// Layers starting past the deadline fall back to `fallback_candidates`.
  double time_budget_ms = 0.0;
  /// Per-layer candidate floor once a budget trips.
  std::size_t fallback_candidates = 64;
  /// Seed every layer's sweep with the Table V pattern bindings (as
  /// always-evaluated extra candidates), so a budgeted heterogeneous search
  /// is >= the best fixed pattern by construction.
  bool seed_table5 = true;
  /// Length of the model-level ranked list.
  std::size_t top_k = 16;
  /// How layer cycles combine into the model objective. kPipelined ranks
  /// combinations by their *composed* makespan (cross-layer chunk overlap,
  /// omega/compose.hpp) instead of the plain layer sum, so a per-layer
  /// assignment whose boundaries pipeline well can outrank one whose layer
  /// sum is marginally smaller. Scope bound: combinations are drawn from a
  /// best-first enumeration ordered by layer-sum (max(top_k*32, 512)
  /// entries under kPipelined); an assignment whose sum ranks below that
  /// prefix is never composed, so the reported best is exact over the
  /// enumerated prefix, not the full cross product.
  ModelCompose compose = ModelCompose::kSequential;
};

/// One layer's sweep output.
struct LayerSearchResult {
  GnnLayerSpec spec;
  SearchResult search;  // per-layer ranked list / Pareto / counters
};

/// A complete per-layer mapping assignment for the model.
struct ModelCandidate {
  std::vector<DataflowDescriptor> per_layer;  // one descriptor per layer
  std::uint64_t total_cycles = 0;      // saturating sum of layer cycles
  /// Composed model makespan (== total_cycles under kSequential; <= it
  /// under kPipelined). The score is computed on this.
  std::uint64_t composed_cycles = 0;
  std::size_t overlapped_boundaries = 0;
  double total_on_chip_pj = 0.0;
  double score = 0.0;  // model-level objective on the composed totals

  /// Concatenated per-layer descriptor notation, e.g.
  /// "Seq_AC(...) | PP_AC(...)".
  [[nodiscard]] std::string to_string() const;
};

struct ModelSearchResult {
  ModelCompose compose = ModelCompose::kSequential;
  std::vector<LayerSearchResult> layers;  // layer order
  std::vector<ModelCandidate> ranked;     // best first, top_k entries
  std::vector<ModelCandidate> pareto;     // cycles/energy frontier
  std::size_t generated = 0;              // sum over layers
  std::size_t evaluated = 0;              // candidates fully run
  std::size_t pruned = 0;                 // culled by the lower bound
  EvalStats eval;                         // merged eval-core counters
  bool budget_exhausted = false;          // a candidate/time budget tripped

  [[nodiscard]] const ModelCandidate& best() const;
};

/// Searches a dataflow per layer of `spec` on `workload`'s graph. The layer
/// cost model is independent across layers and total cycles/energy are sums,
/// so the per-layer winners compose into the model-level winner for the
/// additive objectives (runtime, energy); the ranked list is built by
/// best-first combination of the per-layer ranked lists, and the Pareto
/// frontier is taken over the enumerated combinations.
/// `workload.in_features` must equal `spec.feature_widths.front()`.
/// `shared_context`, when non-null, must be a WorkloadContext over
/// `workload.adjacency` (pointer identity — the engines check). The mapping
/// service passes the registry's warmed context here so repeated
/// search-model requests skip the transpose/schedule warm-up entirely;
/// without one, a context is built locally and lives for the call.
[[nodiscard]] ModelSearchResult search_model_mappings(
    const Omega& omega, const GnnWorkload& workload, const GnnModelSpec& spec,
    const ModelSearchOptions& options = {},
    const WorkloadContext* shared_context = nullptr);

/// The strongest homogeneous baseline: every Table V pattern replayed over
/// all layers through run_model, keeping the lowest total cycles. Infeasible
/// patterns are skipped; nullopt if none fits the substrate.
struct FixedPatternRun {
  std::string name;  // Table V config name
  ModelRunResult result;
};
[[nodiscard]] std::optional<FixedPatternRun> best_fixed_pattern(
    const Omega& omega, const GnnWorkload& workload, const GnnModelSpec& spec,
    ModelCompose compose = ModelCompose::kSequential);

}  // namespace omega
