// Cached candidate evaluation: the DSE hot path.
//
// A sweep's candidates differ from their neighbors in one or two binding
// fields, yet Omega::run_pipeline re-derives and re-simulates everything
// per candidate. A PipelineEvalPlan factors one candidate evaluation into
// one *phase term* per chain position — the memoizable unit — plus the
// composition:
//
//   check_pipeline(chain, binding, substrate)    (run_pipeline's own check)
//   configs = derive_pipeline(substrate, chain shapes, binding)
//   term_i  = simulate_phase(configs[i])         (cached by EvalTermKey)
//   cycles, traffic, energy = compose_pipeline(terms, boundaries)
//
// check_pipeline, derive_pipeline, simulate_phase and compose_pipeline
// (omega/pipeline.hpp) are the same functions run_pipeline calls, so the
// plan differs from the uncached path only in where the terms come from.
// Each term is keyed by the engine config's term_key — the same key the
// context's phase memo uses, plus a graph tag for sparse-weight phases —
// and held in a TermStore on the plan, so a single-field mutation
// re-simulates at most the terms whose key embeds that field. The plan
// itself is cached in the WorkloadContext keyed by everything outside the
// binding (substrate + energy model + chain), so repeated searches over one
// workload reuse all terms across calls.
//
// A per-block PipelineDeltaState sits in front of the store: the last term
// per phase position. Neighboring candidates that leave a phase untouched
// (the common case in tiling sweeps) hit the slot without hashing the key.
//
// Terms hold their chunk timelines in run-length form (ChunkTimeline), and
// compose_pipeline composes a PP pair run by run, so nothing on this path
// expands a timeline to one value per chunk.
//
// Parity contract: for every binding, evaluate_batch returns bit-identical
// (cycles, on_chip_pj) to Omega::run_pipeline on the bound spec, and
// `ok == false` exactly when run_pipeline throws Error. Uncached
// run_pipeline is the oracle: tests/eval_core_test.cpp fuzzes binding
// mutations against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "engine/schedule_cache.hpp"
#include "omega/omega.hpp"
#include "omega/pipeline.hpp"

namespace omega {

/// One candidate's evaluation result, reduced to what the search ranks on.
/// `ok == false` mirrors run_pipeline throwing (infeasible candidate); the
/// other fields are zero then.
struct EvalOutcome {
  std::uint64_t cycles = 0;
  double on_chip_pj = 0.0;
  bool ok = false;
};

/// Byte budget for *chunked* phase-term timelines held by one plan. The
/// context's phase memo refuses chunk grids past kPhaseMemoMaxChunks on the
/// assumption that giant timelines are near-unique; sweep profiles show the
/// opposite — candidates that differ only in fields outside a phase's key
/// share its grid, and re-simulating those terms dominates the hot path.
/// The store therefore admits big-chunk terms until their timeline bytes
/// reach this budget; past it, new big terms build uncached (results
/// identical, the delta slot is then their only cache). A big-chunk term
/// holds only the timeline composition reads — a PP producer's
/// chunk_completion or a PP consumer's chunk_cycles, none at an SP-generic
/// boundary — and is charged exactly its run bytes (12 per run, at most
/// 12 per chunk; admission reserves the per-chunk bound until the build
/// settles it).
inline constexpr std::size_t kTermTimelineBudgetBytes = 512ull << 20;

/// Per-evaluation-block working state: one delta slot per phase POSITION
/// (consecutive candidates that leave phase i untouched hit slot i without
/// hashing its key) plus the per-candidate derive/resolve scratch, reused so
/// the loop stays allocation-free. One state per parallel block — never
/// shared across threads.
struct PipelineDeltaState {
  /// The last resolved term of one position. A null `term` with
  /// `valid == true` caches "this phase config is infeasible".
  struct Slot {
    EvalTermKey key;
    std::shared_ptr<const PhaseResult> term;
    bool valid = false;
  };
  std::vector<Slot> slots;       // sized to the plan's phase count
  std::uint64_t delta_hits = 0;  // term requests served by a slot

  std::vector<PhaseEngineConfig> configs;
  std::vector<BoundaryOutcome> boundaries;
  std::vector<const PhaseResult*> results;  // pinned by `slots`
};

/// The shared term memo behind a plan: a POD-keyed map of once-built phase
/// results, the chunked-timeline byte budget, and the request/build
/// counters. Thread-safe.
class TermStore {
 public:
  /// Resolves a term through (delta slot -> map -> build) and returns it,
  /// pinned by `slot` until the slot's next resolve; null means the engines
  /// reject the config. `reserve_bytes == 0` marks an uncharged term: a
  /// small grid (always admitted, like the context's phase memo) or a
  /// big-grid SP-generic term, which keeps no timeline. Otherwise it bounds
  /// the timeline bytes the built term keeps; it is admitted against
  /// kTermTimelineBudgetBytes, and once built the charge settles to the
  /// term's exact PhaseResult::timeline_bytes() (0 if the build proves the
  /// config infeasible). `delta_hits` counts the requests the slot served.
  [[nodiscard]] const PhaseResult* resolve(
      const EvalTermKey& key, PipelineDeltaState::Slot& slot,
      const std::function<std::shared_ptr<const PhaseResult>()>& build,
      std::size_t reserve_bytes, std::uint64_t& delta_hits) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  /// Bytes of big-grid timelines the admitted terms hold, charged against
  /// kTermTimelineBudgetBytes (small-grid terms are not counted).
  [[nodiscard]] std::size_t timeline_bytes() const;

 private:
  struct TermEntry {
    std::once_flag once;
    std::exception_ptr error;  // non-Error escape from the build, memoized
    // Null after a failed build: the engines reject this config
    // (infeasible), cached so every revisit fails without re-simulating.
    std::shared_ptr<const PhaseResult> result;
  };

  mutable std::mutex mutex_;
  mutable std::unordered_map<EvalTermKey, std::shared_ptr<TermEntry>,
                             EvalTermKeyHash>
      terms_;
  mutable std::size_t timeline_bytes_ = 0;  // guarded by mutex_
  mutable std::atomic<std::uint64_t> requests_{0};
  mutable std::atomic<std::uint64_t> builds_{0};
};

/// The per-(workload, substrate, chain) evaluation plan. The plan is keyed
/// by the *chain* (engines, widths, densities — everything a pipeline sweep
/// holds fixed), so per-candidate work reduces to deriving engine configs
/// from the binding (dataflows, boundaries, PE fractions) and resolving
/// cached terms; sparse-weight W^T CSRs are built once per chain phase here
/// instead of once per call as in run_pipeline.
///
/// All methods are const and thread-safe. Counter semantics:
/// term_requests/term_builds/term_count are deterministic for a given
/// evaluated-candidate set (builds happen once per distinct key); delta-hit
/// counts live on the caller's PipelineDeltaState because block layout is
/// thread-count-dependent.
class PipelineEvalPlan final : public EvalPlanBase {
 public:
  /// The context-cached plan for (omega's substrate + energy model,
  /// workload, chain). `context` must be bound to `workload.adjacency`. A
  /// chain that can never evaluate (chain_error, empty workload) still
  /// yields a plan — every candidate then reports ok == false, mirroring
  /// run_pipeline throwing on each.
  [[nodiscard]] static std::shared_ptr<const PipelineEvalPlan> obtain(
      const Omega& omega, const GnnWorkload& workload,
      const PipelineChainSpec& chain, const WorkloadContext& context);

  /// Evaluates a binding block, one candidate at a time (derive -> resolve
  /// -> compose), writing one EvalOutcome per input binding.
  void evaluate_batch(std::span<const PipelineBindingView> bindings,
                      EvalOutcome* out, PipelineDeltaState& state) const;

  // EvalPlanBase observability.
  [[nodiscard]] std::size_t term_count() const override {
    return store_.size();
  }
  [[nodiscard]] std::uint64_t term_requests() const override {
    return store_.requests();
  }
  [[nodiscard]] std::uint64_t term_builds() const override {
    return store_.builds();
  }
  [[nodiscard]] std::size_t term_timeline_bytes() const override {
    return store_.timeline_bytes();
  }

 private:
  PipelineEvalPlan() = default;

  /// run_pipeline's check (check_pipeline with this substrate) plus the
  /// workload dims: false means the oracle throws on the bound spec before
  /// it reaches the engines.
  [[nodiscard]] bool feasible(const PipelineBindingView& binding) const;
  [[nodiscard]] EvalOutcome evaluate(const PipelineBindingView& binding,
                                     PipelineDeltaState& state) const;
  [[nodiscard]] const PhaseResult* resolve_phase(
      std::size_t phase, PipelineDeltaState& state) const;

  // Workload / substrate / chain bindings (all binding-invariant).
  const CSRGraph* graph_ = nullptr;
  const WorkloadContext* context_ = nullptr;
  AcceleratorConfig hw_;
  EnergyModel em_;
  std::vector<PhaseChainSpec> chain_;
  std::vector<PipelinePhaseShape> shapes_;
  std::vector<std::unique_ptr<const CSRGraph>> weights_;  // W^T per spgemm
  bool chain_ok_ = false;

  TermStore store_;
};

}  // namespace omega
