// The three workloads of the layer benchmark and the metric catalog they
// report against. Each run function measures for `seconds` with tracing
// off (the end-to-end metrics) or runs the separate traced run (the
// per-layer metrics, including the trace on/off A/B).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "inputs.hpp"
#include "stats.hpp"

namespace omega {
class Omega;
class WorkloadContext;
}  // namespace omega

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace JSON path (traced run)
};

[[nodiscard]] BenchResult run_dse_sweep(const RunArgs& args);
[[nodiscard]] BenchResult run_dse_budget(const RunArgs& args);
[[nodiscard]] BenchResult run_service_mix(const RunArgs& args);

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload with --trace 0.
[[nodiscard]] std::span<const MetricSpec> e2e_catalog();
/// Per-layer metrics, reported by every workload with --trace 1 (0 where
/// the workload does not exercise the layer).
[[nodiscard]] std::span<const MetricSpec> layer_catalog();

/// Orders `r.layers` by the catalog, adding the metrics a workload does not
/// exercise as 0. A reported name outside the catalog is a benchmark bug
/// and fails the run.
void complete_layers(BenchResult& r);

/// Times the engine and omega layers through their public entry points on
/// `workload`, over bindings stride-sampled from `specs` exactly as their
/// searches sample them (at most `max_bindings` per spec):
/// PipelineEvalPlan::obtain + evaluate_batch cold then warm, uncached
/// single-phase simulations, Omega::run / run_pipeline uncached and with a
/// context, and compose_parallel_pipeline on PP timelines.
void probe_engine_layers(const omega::Omega& omega,
                         const omega::GnnWorkload& workload,
                         std::span<const SearchSpec> specs,
                         std::size_t max_bindings, LayerRecorder& rec,
                         BenchResult& r);

/// Per-stage numbers (dse.*) of the warm searches in a trace: the
/// library's enumerate/prune/evaluate/rank spans, attributed to the
/// enclosing "search_warm" benchmark span.
void report_stage_layers(const omega::obs::TraceCollector& trace,
                         BenchResult& r);

/// Engine-side cache state of a context after searches: term store and
/// phase memo populations (engine.term_*, engine.phase_memo_*,
/// engine.schedules).
void report_context_layers(const omega::WorkloadContext& context,
                           BenchResult& r);

}  // namespace perfbench
