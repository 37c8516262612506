// Engine- and omega-layer probes of the traced run, the engine cache
// counters, and the metric catalog.
#include <algorithm>
#include <array>
#include <numeric>

#include "dse/search.hpp"
#include "engine/eval_core.hpp"
#include "omega/omega.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace omega;

namespace {

constexpr std::array kE2e = {
    MetricSpec{"setup_s", "s"},
    MetricSpec{"rss_peak_mib", "MiB"},
    MetricSpec{"cold_search_s", "s"},
    MetricSpec{"search_p50_ms", "ms"},
    MetricSpec{"cand_per_s", "1/s"},
};

constexpr std::array kLayers = {
    // graph
    MetricSpec{"graph.generate_ms", "ms"},
    MetricSpec{"graph.transpose_ms", "ms"},
    // dse (library stage spans of warm searches)
    MetricSpec{"dse.enumerate_ms", "ms"},
    MetricSpec{"dse.generated", "count"},
    MetricSpec{"dse.enumerate_share", "ratio"},
    MetricSpec{"dse.prune_ms", "ms"},
    MetricSpec{"dse.pruned", "count"},
    MetricSpec{"dse.evaluate_ms", "ms"},
    MetricSpec{"dse.rank_ms", "ms"},
    MetricSpec{"dse.evaluated", "count"},
    MetricSpec{"dse.search_self_ms", "ms"},
    // engine
    MetricSpec{"engine.plan_obtain_ms", "ms"},
    MetricSpec{"engine.eval_cold_us_per_cand", "us"},
    MetricSpec{"engine.eval_warm_us_per_cand", "us"},
    MetricSpec{"engine.sim_spmm_us", "us"},
    MetricSpec{"engine.sim_gemm_us", "us"},
    MetricSpec{"engine.sim_spgemm_us", "us"},
    MetricSpec{"engine.term_requests", "count"},
    MetricSpec{"engine.term_builds", "count"},
    MetricSpec{"engine.term_build_ratio", "ratio"},
    MetricSpec{"engine.terms", "count"},
    MetricSpec{"engine.term_timeline_mib", "MiB"},
    MetricSpec{"engine.phase_memo_entries", "count"},
    MetricSpec{"engine.phase_memo_overflow", "count"},
    MetricSpec{"engine.schedules", "count"},
    // omega
    MetricSpec{"omega.run_us", "us"},
    MetricSpec{"omega.run_ctx_us", "us"},
    MetricSpec{"omega.run_pipeline_us", "us"},
    MetricSpec{"omega.run_pipeline_ctx_us", "us"},
    MetricSpec{"omega.compose_us", "us"},
    // service
    MetricSpec{"service.parse_us", "us"},
    MetricSpec{"service.serialize_us.evaluate", "us"},
    MetricSpec{"service.serialize_us.evaluate_pipeline", "us"},
    MetricSpec{"service.serialize_us.search_pipeline", "us"},
    MetricSpec{"service.handle_us.evaluate", "us"},
    MetricSpec{"service.handle_us.search_pipeline", "us"},
    MetricSpec{"service.registry_hit_us", "us"},
    MetricSpec{"service.registry_miss_ms", "ms"},
    MetricSpec{"service.registry_hit_ratio", "ratio"},
    MetricSpec{"service.evictions", "count"},
    MetricSpec{"service.queue_wait_us", "us"},
    MetricSpec{"service.transport_us", "us"},
    // client-side service latencies and the workload-specific figures that
    // do not apply to every workload (0 where they do not)
    MetricSpec{"rps", "1/s"},
    MetricSpec{"evaluate_p50_ms", "ms"},
    MetricSpec{"evaluate_p99_ms", "ms"},
    MetricSpec{"pipeline_eval_p50_ms", "ms"},
    MetricSpec{"search_p90_ms", "ms"},
    MetricSpec{"cold_p50_ms", "ms"},
    // obs
    MetricSpec{"obs.trace_overhead_pct", "%"},
    MetricSpec{"obs.trace_events", "count"},
};

/// The bindings a search over `spec` evaluates, thinned to at most
/// `max_bindings` by the searches' stride rule.
std::vector<PipelineCandidate> sampled_bindings(const Omega& omega,
                                                const GnnWorkload& w,
                                                const SearchSpec& spec,
                                                std::size_t max_bindings) {
  std::vector<PipelineCandidate> all =
      evaluated_bindings(omega, w, spec.chains, spec.options);
  if (all.size() <= max_bindings) return all;
  std::vector<PipelineCandidate> out;
  out.reserve(max_bindings);
  for (std::size_t i = 0; i < max_bindings; ++i) {
    out.push_back(
        std::move(all[stride_sample_index(i, all.size(), max_bindings)]));
  }
  return out;
}

/// Input width of each phase of `chain` on `w`.
std::vector<std::size_t> phase_input_widths(const PipelineChainSpec& chain,
                                            const GnnWorkload& w) {
  std::vector<std::size_t> widths;
  std::size_t width = chain.in_features > 0 ? chain.in_features : w.in_features;
  for (const PhaseChainSpec& p : chain.phases) {
    widths.push_back(width);
    if (p.engine != PhaseEngine::kSparseDense) width = p.out_features;
  }
  return widths;
}

}  // namespace

std::span<const MetricSpec> e2e_catalog() { return kE2e; }
std::span<const MetricSpec> layer_catalog() { return kLayers; }

void complete_layers(BenchResult& r) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : kLayers) {
    const auto it = std::find_if(r.layers.begin(), r.layers.end(),
                                 [&](const Metric& m) { return m.name == spec.name; });
    if (it != r.layers.end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back({spec.name, 0.0, spec.unit, 0});
    }
  }
  for (const Metric& m : r.layers) {
    const bool known = std::any_of(kLayers.begin(), kLayers.end(),
                                   [&](const MetricSpec& s) {
                                     return m.name == s.name;
                                   });
    if (!known) r.fail("per-layer metric outside the catalog: " + m.name);
  }
  r.layers = std::move(ordered);
}

void report_context_layers(const WorkloadContext& context, BenchResult& r) {
  const ContextEvalStats e = context.eval_stats();
  r.add_layer("engine.term_requests", static_cast<double>(e.term_requests),
              "count");
  r.add_layer("engine.term_builds", static_cast<double>(e.term_builds),
              "count");
  r.add_layer("engine.term_build_ratio",
              e.term_requests > 0 ? static_cast<double>(e.term_builds) /
                                        static_cast<double>(e.term_requests)
                                  : 0.0,
              "ratio");
  r.add_layer("engine.terms", static_cast<double>(e.terms), "count");
  r.add_layer("engine.term_timeline_mib",
              static_cast<double>(e.term_bytes) / (1024.0 * 1024.0), "MiB");
  r.add_layer("engine.phase_memo_entries",
              static_cast<double>(context.phase_cache_size()), "count");
  r.add_layer("engine.phase_memo_overflow",
              static_cast<double>(context.phase_memo_overflow()), "count");
  r.add_layer("engine.schedules",
              static_cast<double>(context.schedule_cache_size()), "count");
}

void probe_engine_layers(const Omega& omega, const GnnWorkload& w,
                         std::span<const SearchSpec> specs,
                         std::size_t max_bindings, LayerRecorder& rec,
                         BenchResult& r) {
  constexpr std::size_t kSingleCalls = 24;  // uncached calls per probe
  std::size_t bindings_total = 0;
  for (const SearchSpec& spec : specs) {
    const std::vector<PipelineCandidate> bindings =
        sampled_bindings(omega, w, spec, max_bindings);
    bindings_total += bindings.size();

    // PipelineEvalPlan: obtain on a fresh context, evaluate_batch cold then
    // warm over the sampled bindings, one batch per chain.
    const WorkloadContext ctx(w.adjacency);
    for (std::size_t c = 0; c < spec.chains.size(); ++c) {
      std::vector<PipelineBindingView> views;
      for (const PipelineCandidate& b : bindings) {
        if (b.chain_index == c) views.push_back(b.view());
      }
      const std::shared_ptr<const PipelineEvalPlan> plan = rec.time(
          "engine.plan_obtain", "engine", [&] {
            return PipelineEvalPlan::obtain(omega, w, spec.chains[c], ctx);
          });
      std::vector<EvalOutcome> outs(views.size());
      for (const char* pass :
           {"engine.evaluate_batch_cold", "engine.evaluate_batch_warm"}) {
        PipelineDeltaState state;
        rec.time(pass, "engine", [&] {
          plan->evaluate_batch(views, outs.data(), state);
          return 0;
        });
      }
    }

    // Uncached single-phase simulations, Omega::run / run_pipeline uncached
    // and with a context, and the PP composition.
    const std::size_t calls = std::min(kSingleCalls, bindings.size());
    for (std::size_t i = 0; i < calls; ++i) {
      const PipelineCandidate& b =
          bindings[stride_sample_index(i, bindings.size(), calls)];
      const PipelineChainSpec& chain = spec.chains[b.chain_index];
      const PipelineSpec full = chain.bind(b.view());
      const std::vector<std::size_t> widths = phase_input_widths(chain, w);
      for (std::size_t p = 0; p < full.phases.size(); ++p) {
        PipelineSpec single;
        single.phases = {full.phases[p]};
        single.in_features = widths[p];
        const char* name =
            full.phases[p].engine == PhaseEngine::kSparseDense ? "engine.sim_spmm"
            : full.phases[p].engine == PhaseEngine::kDenseDense
                ? "engine.sim_gemm"
                : "engine.sim_spgemm";
        try {
          rec.time(name, "engine",
                   [&] { return omega.run_pipeline(w, single).cycles; });
        } catch (const Error&) {
          // An infeasible phase on its own; the search skips it too.
        }
      }
      try {
        if (b.legacy) {
          LayerSpec layer;  // the classic chain's dense phase sets G
          for (const PhaseChainSpec& p : chain.phases) {
            if (p.engine == PhaseEngine::kDenseDense) {
              layer.out_features = p.out_features;
            }
          }
          rec.time("omega.run", "omega",
                   [&] { return omega.run(w, layer, *b.legacy).cycles; });
          rec.time("omega.run_ctx", "omega", [&] {
            return omega.run(w, layer, *b.legacy, ctx).cycles;
          });
        }
        const PipelineResult pr = rec.time(
            "omega.run_pipeline", "omega",
            [&] { return omega.run_pipeline(w, full); });
        rec.time("omega.run_pipeline_ctx", "omega",
                 [&] { return omega.run_pipeline(w, full, &ctx).cycles; });
        for (std::size_t k = 0; k < full.boundaries.size(); ++k) {
          if (full.boundaries[k] != InterPhase::kParallelPipeline) continue;
          rec.time("omega.compose", "omega", [&] {
            return compose_parallel_pipeline(
                pr.phases[k].result.chunk_completion,
                pr.phases[k + 1].result.chunk_cycles);
          });
        }
      } catch (const Error&) {
        // Infeasible binding: the search reports it as not ok.
      }
    }
  }
  const auto us = [&](const char* name) {
    return median_of(rec.samples(name));
  };
  const auto n = [&](const char* name) { return rec.samples(name).size(); };
  const auto total_us = [&](const char* name) {
    const std::vector<double> v = rec.samples(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  r.add_layer("engine.plan_obtain_ms", total_us("engine.plan_obtain") / 1e3,
              "ms", n("engine.plan_obtain"));
  const double per = bindings_total > 0 ? 1.0 / bindings_total : 0.0;
  r.add_layer("engine.eval_cold_us_per_cand",
              total_us("engine.evaluate_batch_cold") * per, "us",
              bindings_total);
  r.add_layer("engine.eval_warm_us_per_cand",
              total_us("engine.evaluate_batch_warm") * per, "us",
              bindings_total);
  for (const char* name :
       {"engine.sim_spmm", "engine.sim_gemm", "engine.sim_spgemm", "omega.run",
        "omega.run_ctx", "omega.run_pipeline", "omega.run_pipeline_ctx",
        "omega.compose"}) {
    r.add_layer(std::string(name) + "_us", us(name), "us", n(name));
  }
}

}  // namespace perfbench
