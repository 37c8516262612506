#include "dse/model_search.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/saturate.hpp"

namespace omega {

namespace {

double model_score(Objective obj, std::uint64_t cycles, double pj) {
  switch (obj) {
    case Objective::kRuntime: return static_cast<double>(cycles);
    case Objective::kEnergy: return pj;
    case Objective::kEnergyDelayProduct:
      return static_cast<double>(cycles) * pj;
  }
  return static_cast<double>(cycles);
}

ModelCandidate make_combo(const std::vector<LayerSearchResult>& layers,
                          const std::vector<std::size_t>& idx, Objective obj) {
  ModelCandidate mc;
  mc.per_layer.reserve(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const Candidate& c = layers[l].search.ranked[idx[l]];
    mc.per_layer.push_back(c.dataflow);
    mc.total_cycles = sat_add_u64(mc.total_cycles, c.cycles);
    // omega-lint: allow(float-accum): layer order is fixed (sequential l loop), sum is deterministic
    mc.total_on_chip_pj += c.on_chip_pj;
  }
  mc.composed_cycles = mc.total_cycles;
  mc.score = model_score(obj, mc.composed_cycles, mc.total_on_chip_pj);
  return mc;
}

/// Deterministic total order on model candidates, mirroring
/// candidate_order for single layers. The composed makespan ranks before
/// the layer sum so pipelined and sequential modes share one order.
bool model_candidate_order(const ModelCandidate& a, const ModelCandidate& b) {
  if (a.score != b.score) return a.score < b.score;
  if (a.composed_cycles != b.composed_cycles) {
    return a.composed_cycles < b.composed_cycles;
  }
  if (a.total_cycles != b.total_cycles) return a.total_cycles < b.total_cycles;
  if (a.total_on_chip_pj != b.total_on_chip_pj) {
    return a.total_on_chip_pj < b.total_on_chip_pj;
  }
  return a.to_string() < b.to_string();
}

/// Best-first enumeration of per-layer ranked-list combinations: pops the
/// frontier assignment with the smallest sum of per-layer scores and pushes
/// its single-index successors. The per-layer score sum equals the model
/// score for the additive objectives (runtime, energy) and is the guide
/// heuristic for EDP; the emitted set is re-ranked by the true model score
/// afterwards either way.
std::vector<ModelCandidate> enumerate_combos(
    const std::vector<LayerSearchResult>& layers, Objective obj,
    std::size_t limit) {
  const std::size_t num_layers = layers.size();
  std::vector<ModelCandidate> out;
  for (const auto& l : layers) {
    if (l.search.ranked.empty()) return out;  // no feasible mapping somewhere
  }

  using Assignment = std::vector<std::size_t>;
  const auto cost = [&](const Assignment& idx) {
    double s = 0.0;
    for (std::size_t l = 0; l < num_layers; ++l) {
      s += layers[l].search.ranked[idx[l]].score;
    }
    return s;
  };

  // Ordered frontier (cost, assignment): lexicographic assignment tie-break
  // keeps the pop order deterministic.
  std::set<std::pair<double, Assignment>> frontier;
  std::set<Assignment> seen;
  const Assignment origin(num_layers, 0);
  frontier.emplace(cost(origin), origin);
  seen.insert(origin);
  while (!frontier.empty() && out.size() < limit) {
    const auto [c, idx] = *frontier.begin();
    frontier.erase(frontier.begin());
    out.push_back(make_combo(layers, idx, obj));
    for (std::size_t l = 0; l < num_layers; ++l) {
      Assignment next = idx;
      if (++next[l] >= layers[l].search.ranked.size()) continue;
      if (seen.insert(next).second) frontier.emplace(cost(next), next);
    }
  }
  return out;
}

}  // namespace

const char* to_string(BudgetAllocation a) {
  switch (a) {
    case BudgetAllocation::kEven: return "even";
    case BudgetAllocation::kMacWeighted: return "mac";
  }
  return "?";
}

std::string ModelCandidate::to_string() const {
  std::string s;
  for (std::size_t l = 0; l < per_layer.size(); ++l) {
    if (l > 0) s += " | ";
    s += per_layer[l].to_string();
  }
  return s;
}

const ModelCandidate& ModelSearchResult::best() const {
  OMEGA_CHECK(!ranked.empty(),
              "model search produced no feasible per-layer mapping");
  return ranked.front();
}

ModelSearchResult search_model_mappings(const Omega& omega,
                                        const GnnWorkload& workload,
                                        const GnnModelSpec& spec,
                                        const ModelSearchOptions& options,
                                        const WorkloadContext* shared_context) {
  const std::size_t num_layers = spec.num_layers();
  OMEGA_CHECK(num_layers >= 1, "model needs at least one layer");
  OMEGA_CHECK(workload.in_features == spec.feature_widths.front(),
              "workload feature width must match the model's first layer");

  ModelSearchResult out;
  out.compose = options.compose;
  out.layers.reserve(num_layers);

  // Per-layer feature widths ride in LayerSpec::in_features, so every
  // layer's sweep runs against the same workload object — which is what
  // lets one WorkloadContext (keyed by pointer identity to the adjacency)
  // serve all layers, whether built here or handed in warm by the caller.
  std::optional<WorkloadContext> own_context;
  if (shared_context == nullptr) own_context.emplace(workload.adjacency);
  const WorkloadContext& context =
      shared_context != nullptr ? *shared_context : *own_context;

  // MAC-weighted budget split: layer l's ideal MAC count under AC order,
  // E * F_l (Aggregation) + V * F_l * G_l (Combination). Proportions are
  // what matters, so the per-PE division of pipeline_mac_cycle_bound cancels.
  // Saturating products: layer widths arrive untrusted from the service
  // protocol, and a wrapped weight would misdirect the whole model budget.
  std::vector<std::uint64_t> mac_weight(num_layers, 1);
  for (std::size_t l = 0; l < num_layers; ++l) {
    const GnnLayerSpec layer = spec.layer_spec(l);
    mac_weight[l] = std::max<std::uint64_t>(
        1, sat_add_u64(sat_mul_u64(workload.num_edges(), layer.in_features),
                       sat_mul_u64(sat_mul_u64(workload.num_vertices(),
                                               layer.in_features),
                                   layer.out_features)));
  }

  // omega-lint: allow(wall-clock): explicit user-supplied time budget; budget_ms=0 (the default) never reads it
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&] {
    return std::chrono::duration<double, std::milli>(
               // omega-lint: allow(wall-clock): explicit user-supplied time budget
               std::chrono::steady_clock::now() - start)
        .count();
  };

  std::size_t spent = 0;  // fully evaluated candidates so far
  for (std::size_t l = 0; l < num_layers; ++l) {
    const GnnLayerSpec layer = spec.layer_spec(l);
    const LayerSpec layer_shape{layer.out_features, layer.in_features};

    SearchOptions so = options.layer;
    if (!layer.allows_phase_order(PhaseOrder::kCA)) so.include_ca = false;
    if (options.seed_table5) {
      // A budgeted subsample can miss the exact binding a fixed pattern
      // would use; seeding the nine Table V bindings guarantees the
      // heterogeneous winner never loses to the homogeneous baseline.
      const WorkloadDims dims = dims_of(workload, layer_shape);
      for (const auto& pattern : table5_patterns()) {
        if (!layer.allows_phase_order(pattern.phase_order)) continue;
        try {
          so.extra_candidates.push_back(
              bind_tiles(pattern, dims, omega.config()));
        } catch (const Error&) {
          // pattern unbindable on this workload/substrate; skip
        }
      }
    }

    // The floor is clamped to >= 1: a 0 share would round-trip through
    // max_candidates == 0, which search_mappings reads as "unlimited" —
    // the exact opposite of an exhausted budget.
    const std::size_t floor_cap =
        std::max<std::size_t>(options.fallback_candidates, 1);
    if (options.max_total_candidates > 0) {
      const std::size_t remaining =
          options.max_total_candidates > spent
              ? options.max_total_candidates - spent
              : 0;
      if (remaining == 0) out.budget_exhausted = true;
      std::size_t share = remaining / (num_layers - l);
      if (options.budget_allocation == BudgetAllocation::kMacWeighted) {
        // Weight by the remaining layers' ideal MACs so the dominant layer
        // (typically layer 0 of a GCN, whose F is the raw feature width)
        // gets the search effort its share of the model cost warrants.
        // The budget arrives untrusted from the service protocol, so the
        // budget x MACs product runs in 128-bit — a u64 product would wrap
        // for huge budgets and hand the dominant layer a garbage share.
        // Recomputed against `remaining` each layer so unused floor slack
        // flows downstream.
        std::uint64_t rest = 0;
        for (std::size_t j = l; j < num_layers; ++j) {
          rest = sat_add_u64(rest, mac_weight[j]);
        }
        share = static_cast<std::size_t>(
            static_cast<unsigned __int128>(remaining) * mac_weight[l] /
            std::max<std::uint64_t>(rest, 1));
      }
      share = std::max(floor_cap, share);
      so.max_candidates =
          so.max_candidates > 0 ? std::min(so.max_candidates, share) : share;
    }
    if (options.time_budget_ms > 0.0 && l > 0 &&
        elapsed_ms() > options.time_budget_ms) {
      out.budget_exhausted = true;
      so.max_candidates = so.max_candidates > 0
                              ? std::min(so.max_candidates, floor_cap)
                              : floor_cap;
    }

    LayerSearchResult lr;
    lr.spec = layer;
    lr.search = search_mappings(omega, workload, layer_shape, so, &context);
    spent += lr.search.evaluated;
    out.generated += lr.search.generated;
    out.evaluated += lr.search.evaluated;
    out.pruned += lr.search.pruned;
    out.eval.merge(lr.search.eval);
    out.layers.push_back(std::move(lr));
  }

  // Model-level ranked list and Pareto frontier over the best-first
  // combination set. Enumerating a few multiples of top_k is enough to
  // expose the frontier's shape without walking the full cross product.
  // Pipelined composition re-scores combinations by composed makespan, for
  // which the layer-sum order is only a guide, so it widens the enumerated
  // prefix — a combination whose sum ranks below the prefix is still out of
  // reach (documented on ModelSearchOptions::compose).
  const std::size_t combo_limit =
      options.compose == ModelCompose::kPipelined
          ? std::max<std::size_t>(options.top_k * 32, 512)
          : std::max<std::size_t>(options.top_k * 8, 128);
  std::vector<ModelCandidate> combos =
      enumerate_combos(out.layers, options.layer.objective, combo_limit);

  if (options.compose == ModelCompose::kPipelined && !combos.empty()) {
    // Re-rank the enumerated combinations by their *composed* makespan:
    // the per-layer score sum that guided enumeration is only an upper
    // bound once boundaries overlap. Each combo's layers are re-run
    // through the warm context (the sweeps above already populated the
    // phase memo, so these are mostly cache hits) to recover the chunk
    // timelines the composer needs. Results are stored by index, so the
    // parallel evaluation is thread-count-invariant.
    const ModelComposer composer(omega.config(), workload.adjacency);
    std::vector<LayerSpec> shapes;
    shapes.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
      const GnnLayerSpec layer = spec.layer_spec(l);
      shapes.push_back(LayerSpec{layer.out_features, layer.in_features});
    }
    parallel_blocks(
        combos.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t c = begin; c < end; ++c) {
            ModelCandidate& mc = combos[c];
            std::vector<RunResult> runs;
            runs.reserve(num_layers);
            try {
              for (std::size_t l = 0; l < num_layers; ++l) {
                runs.push_back(
                    omega.run(workload, shapes[l], mc.per_layer[l], context));
              }
            } catch (const Error&) {
              // The sweep evaluated this descriptor successfully, so a
              // re-run cannot throw; keep the sequential sum if it somehow
              // does rather than losing the combo.
              continue;
            }
            const ModelComposition comp =
                composer.compose(runs, ModelCompose::kPipelined);
            mc.composed_cycles = comp.cycles;
            mc.overlapped_boundaries = comp.overlapped_boundaries;
            mc.score = model_score(options.layer.objective,
                                   mc.composed_cycles, mc.total_on_chip_pj);
          }
        },
        options.layer.threads);
  }
  std::sort(combos.begin(), combos.end(), model_candidate_order);

  std::vector<ModelCandidate> by_cycles = combos;
  std::sort(by_cycles.begin(), by_cycles.end(),
            [](const ModelCandidate& a, const ModelCandidate& b) {
              if (a.composed_cycles != b.composed_cycles) {
                return a.composed_cycles < b.composed_cycles;
              }
              if (a.total_on_chip_pj != b.total_on_chip_pj) {
                return a.total_on_chip_pj < b.total_on_chip_pj;
              }
              return a.to_string() < b.to_string();
            });
  double best_energy = std::numeric_limits<double>::infinity();
  for (auto& c : by_cycles) {
    if (c.total_on_chip_pj < best_energy) {
      best_energy = c.total_on_chip_pj;
      out.pareto.push_back(std::move(c));
    }
  }

  if (combos.size() > options.top_k) combos.resize(options.top_k);
  out.ranked = std::move(combos);
  return out;
}

std::optional<FixedPatternRun> best_fixed_pattern(const Omega& omega,
                                                  const GnnWorkload& workload,
                                                  const GnnModelSpec& spec,
                                                  ModelCompose compose) {
  std::optional<FixedPatternRun> best;
  for (const auto& pattern : table5_patterns()) {
    try {
      ModelRunResult r = run_model(omega, workload, spec, pattern, compose);
      if (!best || r.total_cycles < best->result.total_cycles) {
        best = FixedPatternRun{pattern.name, std::move(r)};
      }
    } catch (const Error&) {
      // Pattern infeasible on this substrate/model (e.g. a phase order the
      // model forbids); the baseline is the best of the ones that fit.
    }
  }
  return best;
}

}  // namespace omega
