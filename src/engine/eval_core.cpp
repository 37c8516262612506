#include "engine/eval_core.hpp"

#include <cstdio>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/once.hpp"

namespace omega {

namespace {

/// Most timeline bytes a big-grid term can pin in the store: one 12-byte run
/// per chunk for each timeline compose_pipeline reads — a PP producer's
/// chunk_completion, a PP consumer's chunk_cycles, none at an SP-generic
/// boundary. Admission reserves this; the store then charges the exact run
/// bytes the built term keeps.
std::size_t term_timeline_reservation(const ChunkSpec& chunks,
                                      bool pp_producer, bool pp_consumer) {
  const std::size_t kept = (pp_producer ? 1 : 0) + (pp_consumer ? 1 : 0);
  return kept * chunks.num_chunks() *
         (sizeof(std::uint64_t) + sizeof(std::uint32_t));
}

/// Frees the timelines compose_pipeline never reads from a big-grid term,
/// so the term holds exactly the run bytes the store charges.
std::shared_ptr<const PhaseResult> keep_read_timelines(PhaseResult r,
                                                       bool pp_producer,
                                                       bool pp_consumer) {
  if (!pp_producer) {
    r.chunk_completion = ChunkTimeline(ChunkTimeline::Kind::kCompletions);
  }
  if (!pp_consumer) r.chunk_cycles = ChunkTimeline();
  return std::make_shared<const PhaseResult>(std::move(r));
}

}  // namespace

const PhaseResult* TermStore::resolve(
    const EvalTermKey& key, PipelineDeltaState::Slot& slot,
    const std::function<std::shared_ptr<const PhaseResult>()>& build,
    std::size_t reserve_bytes, std::uint64_t& delta_hits) const {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (slot.valid && slot.key == key) {
    ++delta_hits;
    return slot.term.get();
  }
  std::shared_ptr<TermEntry> entry;
  bool overflow = false;
  {
    const std::scoped_lock lock(mutex_);
    const auto it = terms_.find(key);
    if (it != terms_.end()) {
      entry = it->second;
    } else if (terms_.size() >= kPhaseMemoMaxEntries ||
               timeline_bytes_ + reserve_bytes > kTermTimelineBudgetBytes) {
      // Entry ceiling (same policy as the context phase memo) or the
      // chunked-timeline byte budget is exhausted: build uncached. The
      // results are identical either way — only revisit cost differs.
      overflow = true;
    } else {
      auto& fresh = terms_[key];
      fresh = std::make_shared<TermEntry>();
      entry = fresh;
      timeline_bytes_ += reserve_bytes;
    }
  }
  std::shared_ptr<const PhaseResult> term;
  if (overflow) {
    builds_.fetch_add(1, std::memory_order_relaxed);
    try {
      term = build();
    } catch (const Error&) {
      term = nullptr;
    }
  } else {
    call_once_caching(entry->once, entry->error, [&] {
      builds_.fetch_add(1, std::memory_order_relaxed);
      try {
        entry->result = build();
      } catch (const Error&) {
        // Leave result null: the config is infeasible (engine validate
        // threw), cached so revisits fail without re-simulating. Exactly
        // the candidates on which run_pipeline throws. Anything else
        // (bad_alloc, logic bugs) is memoized by call_once_caching and
        // rethrown to every caller.
      }
      if (reserve_bytes > 0) {
        // Settle the reservation to the run bytes the term keeps (none for
        // an infeasible config).
        const std::size_t kept =
            entry->result == nullptr ? 0 : entry->result->timeline_bytes();
        const std::scoped_lock lock(mutex_);
        timeline_bytes_ -= reserve_bytes - kept;
      }
    });
    term = entry->result;
  }
  slot.key = key;
  slot.term = std::move(term);
  slot.valid = true;
  return slot.term.get();
}

std::size_t TermStore::size() const {
  const std::scoped_lock lock(mutex_);
  return terms_.size();
}

std::size_t TermStore::timeline_bytes() const {
  const std::scoped_lock lock(mutex_);
  return timeline_bytes_;
}

std::shared_ptr<const PipelineEvalPlan> PipelineEvalPlan::obtain(
    const Omega& omega, const GnnWorkload& workload,
    const PipelineChainSpec& chain, const WorkloadContext& context) {
  OMEGA_CHECK(&context.graph() == &workload.adjacency,
              "WorkloadContext is bound to a different graph");
  const AcceleratorConfig& hw = omega.config();
  const EnergyModel& em = omega.energy_model();
  const std::size_t f =
      chain.in_features > 0 ? chain.in_features : workload.in_features;

  // Everything the plan depends on besides the graph (which is the
  // context's own): substrate dims/flags, energy coefficients (hex floats —
  // exact round trip), the resolved first-phase width, and the chain shape.
  // Phase names are excluded — they never affect costs.
  char head[512];
  std::snprintf(head, sizeof(head),
                "pplan|%zu|%zu|%zu|%zu|%zu|%zu|%zu|%zu|%d|%d|%a|%a|%a|%zu|%zu",
                hw.num_pes, hw.rf_bytes_per_pe, hw.gb_bytes, hw.gb_bank_bytes,
                hw.distribution_bandwidth, hw.reduction_bandwidth,
                hw.dram_bandwidth, hw.element_bytes,
                hw.supports_spatial_reduction ? 1 : 0,
                hw.supports_temporal_reduction ? 1 : 0, em.gb_access_pj,
                em.rf_access_pj, em.dram_access_pj, em.reference_bank_bytes, f);
  std::string sig = head;
  for (const PhaseChainSpec& p : chain.phases) {
    char pb[96];
    std::snprintf(pb, sizeof(pb), "|%d:%zu:%a", static_cast<int>(p.engine),
                  p.out_features, p.weight_density);
    sig += pb;
  }

  std::shared_ptr<EvalPlanBase> base =
      context.eval_plan(sig, [&]() -> std::shared_ptr<EvalPlanBase> {
        auto plan = std::shared_ptr<PipelineEvalPlan>(new PipelineEvalPlan());
        plan->graph_ = &workload.adjacency;
        plan->context_ = &context;
        plan->hw_ = hw;
        plan->em_ = em;
        plan->chain_ = chain.phases;
        plan->chain_ok_ = !chain.chain_error().has_value() &&
                          workload.num_vertices() >= 1 && f >= 1;
        if (plan->chain_ok_) {
          // Chain-fixed facts, built once per chain instead of once per call
          // as in run_pipeline.
          plan->shapes_ = pipeline_shapes(chain.phases, f, plan->weights_);
        }
        return plan;
      });
  return std::static_pointer_cast<const PipelineEvalPlan>(base);
}

bool PipelineEvalPlan::feasible(const PipelineBindingView& b) const {
  return chain_ok_ && !check_pipeline(chain_, &b, &hw_);
}

const PhaseResult* PipelineEvalPlan::resolve_phase(
    std::size_t phase, PipelineDeltaState& state) const {
  const PhaseEngineConfig& cfg = state.configs[phase];
  EvalTermKey key = cfg.is_gemm ? term_key(cfg.gemm) : term_key(cfg.spmm);
  // Which graph a sparse term walks: 0 = the workload adjacency, 1 + i =
  // phase i's W^T. Two sparse-weight phases can share every keyed config
  // field while walking different weight patterns.
  if (shapes_[phase].engine == PhaseEngine::kSparseSparse) {
    key.w[19] = 1 + static_cast<std::uint64_t>(phase);
  }
  // Small grids are shared, whole, with the context's phase memo. A big-grid
  // term is built by value and keeps only the timeline its role at the
  // boundary needs; the via-partition flags that fix the role are in the
  // key, so terms of different roles never share an entry.
  if (!big_grid(cfg)) {
    return store_.resolve(
        key, state.slots[phase], [&] { return simulate_phase(cfg, context_); },
        0, state.delta_hits);
  }
  const bool producer =
      cfg.is_gemm ? cfg.gemm.out_via_partition : cfg.spmm.out_via_partition;
  const bool consumer =
      cfg.is_gemm ? cfg.gemm.a_via_partition : cfg.spmm.b_via_partition;
  return store_.resolve(
      key, state.slots[phase],
      [&] {
        return keep_read_timelines(cfg.is_gemm ? run_gemm_phase(cfg.gemm)
                                               : run_spmm_phase(cfg.spmm),
                                   producer, consumer);
      },
      term_timeline_reservation(
          cfg.is_gemm ? cfg.gemm.chunks : cfg.spmm.chunks, producer, consumer),
      state.delta_hits);
}

EvalOutcome PipelineEvalPlan::evaluate(const PipelineBindingView& binding,
                                       PipelineDeltaState& state) const {
  if (!feasible(binding)) return EvalOutcome{};
  const std::size_t partition_bytes =
      derive_pipeline(hw_, *graph_, context_, shapes_, binding, state.configs,
                      state.boundaries);
  // Terms resolve in execution order so an infeasible phase skips the later
  // builds — the same build set run_pipeline touches before throwing.
  for (std::size_t i = 0; i < shapes_.size(); ++i) {
    state.results[i] = resolve_phase(i, state);
    if (state.results[i] == nullptr) return EvalOutcome{};
  }
  const PipelineCost cost = compose_pipeline(state.results, binding.boundaries,
                                             em_, partition_bytes);
  return EvalOutcome{cost.cycles, cost.energy.on_chip_pj(), true};
}

void PipelineEvalPlan::evaluate_batch(
    std::span<const PipelineBindingView> bindings, EvalOutcome* out,
    PipelineDeltaState& state) const {
  const std::size_t n = shapes_.size();
  if (state.slots.size() != n) {
    state.slots.assign(n, PipelineDeltaState::Slot{});
    state.configs.resize(n);
    state.boundaries.resize(n > 0 ? n - 1 : 0);
    state.results.resize(n);
  }
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    out[i] = evaluate(bindings[i], state);
  }
}

}  // namespace omega
